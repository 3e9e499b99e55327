//! RandHound-style randomness beacon.
//!
//! Sec. III-B: the verifiable leader generates and broadcasts a randomness
//! value; each miner then runs "the RandHound algorithm with which miners are
//! separated to 100 groups evenly, and obtains a random number r ranging from
//! 1 to 100". Which shard the miner joins is determined by where `r` falls in
//! the cumulative transaction-fraction intervals.
//!
//! RandHound itself is a multi-round distributed randomness protocol; the
//! paper consumes only its *output interface*. We reproduce that interface
//! with a leader-seeded deterministic beacon: `r_m = PRF_randomness("group",
//! pk_m) mod 100 + 1`. Anyone holding the broadcast randomness and a miner's
//! public key can recompute — and therefore verify — the miner's group,
//! which is exactly the verifiability property Sec. III-B requires.

use crate::prf::Prf;
use crate::vrf::VrfPublicKey;
use cshard_primitives::Hash32;

/// Number of groups RandHound separates miners into (fixed at 100 in the
/// paper, so that transaction fractions expressed in percent map directly
/// onto group intervals).
pub const GROUPS: u64 = 100;

/// A randomness beacon seeded by the leader's broadcast randomness.
#[derive(Clone, Debug)]
pub struct RandomnessBeacon {
    prf: Prf,
}

impl RandomnessBeacon {
    /// Creates a beacon from the leader's broadcast randomness.
    pub fn new(randomness: Hash32) -> Self {
        RandomnessBeacon {
            prf: Prf::new(randomness.as_bytes()),
        }
    }

    /// The group number `r ∈ 1..=100` assigned to a miner's public key.
    pub fn group_of(&self, pk: VrfPublicKey) -> u64 {
        self.prf
            .eval_mod("randhound-group", pk.0.as_bytes(), GROUPS)
            + 1
    }

    /// Derives a general-purpose sub-randomness for a named protocol stage
    /// (used by parameter unification to seed the game algorithms).
    pub fn derive(&self, stage: &str) -> Hash32 {
        self.prf.eval("beacon-derive", stage.as_bytes())
    }

    /// Derives a uniform `f64` in `[0,1)` for a stage/index pair — the
    /// "others' random initial choice" inputs of Sec. IV-C.
    pub fn derive_unit(&self, stage: &str, index: u64) -> f64 {
        let mut msg = Vec::with_capacity(stage.len() + 8);
        msg.extend_from_slice(stage.as_bytes());
        msg.extend_from_slice(&index.to_be_bytes());
        self.prf.eval_unit("beacon-unit", &msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;
    use crate::vrf::Vrf;

    fn beacon() -> RandomnessBeacon {
        RandomnessBeacon::new(sha256(b"round-randomness"))
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "500 VRF derivations are too slow under the interpreter"
    )]
    fn groups_are_in_1_to_100() {
        let b = beacon();
        for i in 0..500u64 {
            let pk = Vrf::from_seed(i.to_be_bytes()).public_key();
            let g = b.group_of(pk);
            assert!((1..=100).contains(&g), "group {g} out of range");
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "10k VRF derivations are too slow under the interpreter"
    )]
    fn groups_are_roughly_even() {
        // Sec. III-B: "miners are separated to 100 groups evenly".
        let b = beacon();
        let n = 10_000u64;
        let mut counts = [0u32; 100];
        for i in 0..n {
            let pk = Vrf::from_seed(i.to_be_bytes()).public_key();
            counts[(b.group_of(pk) - 1) as usize] += 1;
        }
        let expected = n as f64 / 100.0;
        for (g, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected * 0.5 && (c as f64) < expected * 1.5,
                "group {} count {} far from expected {}",
                g + 1,
                c,
                expected
            );
        }
    }

    #[test]
    fn different_randomness_reshuffles_groups() {
        let b1 = RandomnessBeacon::new(sha256(b"epoch-1"));
        let b2 = RandomnessBeacon::new(sha256(b"epoch-2"));
        let moved = (0..200u64)
            .map(|i| Vrf::from_seed(i.to_be_bytes()).public_key())
            .filter(|&pk| b1.group_of(pk) != b2.group_of(pk))
            .count();
        // With 100 groups, ~99% of miners should move.
        assert!(moved > 150, "only {moved}/200 miners moved groups");
    }

    #[test]
    fn derive_is_stage_separated() {
        let b = beacon();
        assert_ne!(b.derive("merge"), b.derive("select"));
        assert_eq!(b.derive("merge"), b.derive("merge"));
    }

    #[test]
    #[cfg_attr(miri, ignore = "2000 beacon draws are too slow under the interpreter")]
    fn derive_unit_is_uniformish() {
        let b = beacon();
        let n = 2000;
        let mean: f64 = (0..n).map(|i| b.derive_unit("x", i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
        for i in 0..n {
            let u = b.derive_unit("x", i);
            assert!((0.0..1.0).contains(&u));
        }
    }
}
