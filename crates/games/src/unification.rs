//! Parameter unification (Sec. IV-C).
//!
//! The problem: Algorithms 1 and 2 are *iterative* games — naively, every
//! iteration is a gossip round among all miners, and nothing stops a
//! malicious miner from ignoring the outcome. The paper's fix: a verifiable
//! leader broadcasts **identical inputs** — the randomness, the miner set,
//! the shard-size or fee vector, and everyone's random initial choices.
//! Because the algorithms are deterministic functions of those inputs,
//! every miner replays them locally and obtains the *same* outcome:
//!
//! * communication collapses to two rounds per shard (submit statistics,
//!   receive the broadcast) — the O(1) cost of Fig. 4(c); and
//! * any block contradicting the replayed outcome is provably produced by
//!   a rule-breaker and rejected (the 33 % resilience of Sec. IV-D).
//!
//! [`UnifiedParameters`] is that broadcast; its methods are the local
//! replay and the block checks.

use crate::merging::{iterative_merge, IterativeMergeOutcome, MergingConfig};
use crate::selection::{best_reply_equilibrium, SelectionConfig, SelectionOutcome};
use cshard_crypto::{sha256_concat, RandomnessBeacon, Vrf, VrfProof};
use cshard_network::{CommKind, CommStats};
use cshard_primitives::{Error, Hash32, MinerId, ShardId};
use std::fmt;

/// The per-epoch inputs to one of the two games.
#[derive(Clone, Debug)]
pub enum GameInputs {
    /// Inter-shard merging: the small shards and their transaction counts,
    /// as reported to the leader by miners in the MaxShard.
    Merge {
        /// `(shard, size)` for every small shard, in canonical id order.
        shard_sizes: Vec<(ShardId, u64)>,
        /// The game's tunables — part of the broadcast, so every replica
        /// runs the same game.
        config: MergingConfig,
    },
    /// Intra-shard selection: the pending transaction fees of one large
    /// shard, in canonical (fee-sorted, id-tie-broken) order.
    Select {
        /// The shard being load-balanced.
        shard: ShardId,
        /// Fee of each pending transaction.
        fees: Vec<u64>,
        /// The game's tunables.
        config: SelectionConfig,
    },
}

/// What a claimed block/merge can fail verification with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerificationError {
    /// The miner index is outside the unified miner set.
    UnknownMiner(usize),
    /// The claimed merge partition differs from the replayed outcome.
    MergeMismatch {
        /// The replayed (correct) new shards.
        expected_shards: usize,
        /// What the claimant asserted.
        claimed_shards: usize,
    },
    /// A transaction in the block was not in the packer's equilibrium set.
    SelectionViolation {
        /// The offending miner.
        miner: usize,
        /// The transaction index that miner had no right to pack.
        tx_index: usize,
    },
    /// The leader's VRF credential failed verification.
    BadLeaderCredential,
    /// The broadcast carried the wrong [`GameInputs`] variant for the
    /// attempted check (e.g. verifying a merge claim against selection
    /// inputs).
    WrongInputs(Error),
}

impl From<Error> for VerificationError {
    fn from(e: Error) -> Self {
        VerificationError::WrongInputs(e)
    }
}

impl fmt::Display for VerificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerificationError::UnknownMiner(i) => write!(f, "unknown miner index {i}"),
            VerificationError::MergeMismatch {
                expected_shards,
                claimed_shards,
            } => write!(
                f,
                "merge outcome mismatch: replay yields {expected_shards} shards, claim has {claimed_shards}"
            ),
            VerificationError::SelectionViolation { miner, tx_index } => write!(
                f,
                "miner {miner} packed transaction {tx_index} outside its equilibrium set"
            ),
            VerificationError::BadLeaderCredential => {
                write!(f, "leader VRF credential failed verification")
            }
            VerificationError::WrongInputs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VerificationError {}

/// The leader's broadcast: unified inputs for one game epoch.
#[derive(Clone, Debug)]
pub struct UnifiedParameters {
    /// The leader-generated randomness all derived values come from.
    pub randomness: Hash32,
    /// The leader's VRF proof binding the randomness to the epoch (so the
    /// broadcast itself is verifiable, as in Omniledger).
    pub leader_proof: Option<VrfProof>,
    /// The current miner set.
    pub miners: Vec<MinerId>,
    /// The game inputs.
    pub inputs: GameInputs,
}

impl UnifiedParameters {
    /// Builds the broadcast from a leader's VRF evaluated on the epoch
    /// number, exactly as Sec. III-B/IV-C prescribe.
    pub fn from_leader(leader: &Vrf, epoch: u64, miners: Vec<MinerId>, inputs: GameInputs) -> Self {
        let (randomness, proof) = leader.evaluate(epoch.to_be_bytes());
        UnifiedParameters {
            randomness,
            leader_proof: Some(proof),
            miners,
            inputs,
        }
    }

    /// Builds a broadcast from raw randomness (tests / simulations that do
    /// not exercise leader election).
    pub fn from_randomness(randomness: Hash32, miners: Vec<MinerId>, inputs: GameInputs) -> Self {
        UnifiedParameters {
            randomness,
            leader_proof: None,
            miners,
            inputs,
        }
    }

    fn beacon(&self) -> RandomnessBeacon {
        RandomnessBeacon::new(self.randomness)
    }

    /// A canonical digest of the broadcast's *content*: the randomness,
    /// the miner set, and a fixed-order rendering of the game inputs (the
    /// proof is excluded — it binds the randomness, not the payload).
    ///
    /// Every honest miner hashes a received broadcast the same way, so two
    /// same-epoch broadcasts with different digests are a transferable
    /// equivocation proof against the leader: the fault subsystem treats
    /// such a leader as down and fails over to the next VRF rank.
    pub fn digest(&self) -> Hash32 {
        let mut bytes: Vec<u8> = Vec::with_capacity(64 + self.miners.len() * 4);
        bytes.extend_from_slice(self.randomness.as_bytes());
        bytes.extend_from_slice(&(self.miners.len() as u64).to_be_bytes());
        for m in &self.miners {
            bytes.extend_from_slice(&m.0.to_be_bytes());
        }
        match &self.inputs {
            GameInputs::Merge {
                shard_sizes,
                config,
            } => {
                bytes.push(1);
                bytes.extend_from_slice(&(shard_sizes.len() as u64).to_be_bytes());
                for &(shard, size) in shard_sizes {
                    bytes.extend_from_slice(&shard.0.to_be_bytes());
                    bytes.extend_from_slice(&size.to_be_bytes());
                }
                bytes.extend_from_slice(&config.reward.0.to_be_bytes());
                bytes.extend_from_slice(&config.cost.0.to_be_bytes());
                bytes.extend_from_slice(&config.lower_bound.to_be_bytes());
                bytes.extend_from_slice(&config.eta.to_bits().to_be_bytes());
                bytes.extend_from_slice(&(config.subslots as u64).to_be_bytes());
                bytes.extend_from_slice(&config.tolerance.to_bits().to_be_bytes());
                bytes.extend_from_slice(&(config.max_slots as u64).to_be_bytes());
            }
            GameInputs::Select {
                shard,
                fees,
                config,
            } => {
                bytes.push(2);
                bytes.extend_from_slice(&shard.0.to_be_bytes());
                bytes.extend_from_slice(&(fees.len() as u64).to_be_bytes());
                for fee in fees {
                    bytes.extend_from_slice(&fee.to_be_bytes());
                }
                bytes.extend_from_slice(&(config.capacity as u64).to_be_bytes());
                bytes.extend_from_slice(&(config.max_rounds as u64).to_be_bytes());
            }
        }
        sha256_concat(&[b"unified-params-digest-v1", &bytes])
    }

    /// The deterministic game seed every replica derives.
    fn game_seed(&self) -> u64 {
        self.beacon().derive("game-seed").leading_u64()
    }

    /// The variant name of the carried inputs, for error reporting.
    fn inputs_kind(&self) -> &'static str {
        match self.inputs {
            GameInputs::Merge { .. } => "merge",
            GameInputs::Select { .. } => "selection",
        }
    }

    fn wrong_inputs(&self, operation: &'static str, expected: &'static str) -> Error {
        Error::GameInputs {
            operation,
            expected,
            got: self.inputs_kind(),
        }
    }

    /// "Others' random initial choices" for the merging game: one merge
    /// probability per small shard.
    ///
    /// Errors when the broadcast carries selection inputs.
    fn initial_merge_probs(&self) -> Result<Vec<f64>, Error> {
        let GameInputs::Merge { shard_sizes, .. } = &self.inputs else {
            return Err(self.wrong_inputs("initial_merge_probs", "merge"));
        };
        let beacon = self.beacon();
        Ok((0..shard_sizes.len() as u64)
            .map(|i| {
                // Keep the strategies interior: [0.25, 0.75].
                0.25 + 0.5 * beacon.derive_unit("merge-init", i)
            })
            .collect())
    }

    /// "Others' random initial choices" for the selection game: one initial
    /// transaction set per miner.
    ///
    /// Errors when the broadcast carries merge inputs.
    fn initial_selections(&self) -> Result<Vec<Vec<usize>>, Error> {
        let GameInputs::Select { fees, config, .. } = &self.inputs else {
            return Err(self.wrong_inputs("initial_selections", "selection"));
        };
        let t = fees.len();
        let capacity = config.capacity.min(t);
        let beacon = self.beacon();
        Ok(self
            .miners
            .iter()
            .enumerate()
            .map(|(m, _)| {
                if t == 0 {
                    return Vec::new();
                }
                // A deterministic stride sample: distinct per miner,
                // uniform-ish over transactions.
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "the unit draw lies in [0, 1), so the offset lies in 0..t"
                )]
                let offset = beacon
                    .derive_unit("select-init", m as u64)
                    .mul_add(t as f64, 0.0) as usize;
                (0..capacity).map(|k| (offset + k * 7 + m) % t).collect()
            })
            .collect())
    }

    /// Replays Algorithm 1 locally: the merge outcome every honest miner
    /// agrees on without exchanging a single in-game message.
    ///
    /// Errors when the broadcast carries selection inputs, a merging
    /// config the game cannot run on (`Error::Config`, `merging.*`), or
    /// shard sizes no merge stage builds (`merging.shard_sizes`: a
    /// "small" shard already at the lower bound, or sizes whose sum
    /// overflows `u64`): the broadcast is a message, and a leader can put
    /// anything in it.
    pub fn merge_outcome(&self) -> Result<IterativeMergeOutcome, Error> {
        let GameInputs::Merge {
            shard_sizes,
            config,
        } = &self.inputs
        else {
            return Err(self.wrong_inputs("merge_outcome", "merge"));
        };
        config.validate()?;
        let sizes: Vec<u64> = shard_sizes.iter().map(|&(_, s)| s).collect();
        let reject = |reason: &str| Error::Config {
            field: "merging.shard_sizes",
            reason: reason.into(),
        };
        if sizes.iter().any(|&s| s >= config.lower_bound) {
            return Err(reject(
                "every small shard must be below the size lower bound",
            ));
        }
        sizes
            .iter()
            .try_fold(0u64, |sum, &s| sum.checked_add(s))
            .ok_or_else(|| reject("shard sizes must sum within u64"))?;
        iterative_merge(
            &sizes,
            &self.initial_merge_probs()?,
            config,
            self.game_seed(),
        )
    }

    /// Replays Algorithm 2 locally: the selection equilibrium.
    ///
    /// Errors when the broadcast carries merge inputs, or a zero block
    /// capacity (`Error::Config`, `selection.capacity`).
    pub fn selection_outcome(&self) -> Result<SelectionOutcome, Error> {
        let GameInputs::Select { fees, config, .. } = &self.inputs else {
            return Err(self.wrong_inputs("selection_outcome", "selection"));
        };
        if config.capacity == 0 {
            return Err(Error::Config {
                field: "selection.capacity",
                reason: "a miner must be able to pack at least one transaction".into(),
            });
        }
        Ok(best_reply_equilibrium(
            fees,
            &self.initial_selections()?,
            config,
        ))
    }

    /// Verifies a claimed merge partition against the local replay.
    ///
    /// `claimed` is the partition a (possibly malicious) miner announced:
    /// per new shard, the indices of the merged small shards.
    pub fn verify_merge_claim(&self, claimed: &[Vec<usize>]) -> Result<(), VerificationError> {
        let expected = self.merge_outcome()?;
        let mut want = expected.new_shards.clone();
        let mut got = claimed.to_vec();
        for s in want.iter_mut().chain(got.iter_mut()) {
            s.sort_unstable();
        }
        want.sort();
        got.sort();
        if want == got {
            Ok(())
        } else {
            Err(VerificationError::MergeMismatch {
                expected_shards: want.len(),
                claimed_shards: got.len(),
            })
        }
    }

    /// Verifies that a block packed by `miner_index` only contains
    /// transactions from that miner's equilibrium set (a block may contain
    /// fewer — some may already be confirmed — but never others').
    pub fn verify_selection_block(
        &self,
        miner_index: usize,
        packed_tx_indices: &[usize],
    ) -> Result<(), VerificationError> {
        if miner_index >= self.miners.len() {
            return Err(VerificationError::UnknownMiner(miner_index));
        }
        let outcome = self.selection_outcome()?;
        let allowed: std::collections::BTreeSet<usize> =
            outcome.assignments[miner_index].iter().copied().collect();
        for &j in packed_tx_indices {
            if !allowed.contains(&j) {
                return Err(VerificationError::SelectionViolation {
                    miner: miner_index,
                    tx_index: j,
                });
            }
        }
        Ok(())
    }

    /// Books the scheme's communication into `stats`: one statistics
    /// submission per participating shard plus one broadcast reception —
    /// the constant 2 of Fig. 4(c).
    pub fn record_communication(&self, stats: &mut CommStats) {
        match &self.inputs {
            GameInputs::Merge { shard_sizes, .. } => {
                for &(shard, _) in shard_sizes {
                    stats.record(shard, CommKind::StatSubmission);
                    stats.record(shard, CommKind::ParameterBroadcast);
                }
            }
            GameInputs::Select { shard, .. } => {
                stats.record(*shard, CommKind::StatSubmission);
                stats.record(*shard, CommKind::ParameterBroadcast);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_crypto::sha256;
    use cshard_primitives::Amount;

    fn miner_ids(n: u32) -> Vec<MinerId> {
        (0..n).map(MinerId::new).collect()
    }

    fn merge_params() -> UnifiedParameters {
        let shard_sizes: Vec<(ShardId, u64)> = (0..8u32)
            .map(|i| (ShardId::new(i), 4 + (i as u64 * 3) % 7))
            .collect();
        UnifiedParameters::from_randomness(
            sha256(b"epoch-7"),
            miner_ids(9),
            GameInputs::Merge {
                shard_sizes,
                config: MergingConfig {
                    lower_bound: 15,
                    ..MergingConfig::default()
                },
            },
        )
    }

    fn select_params() -> UnifiedParameters {
        UnifiedParameters::from_randomness(
            sha256(b"epoch-9"),
            miner_ids(5),
            GameInputs::Select {
                shard: ShardId::new(0),
                fees: (1..=40u64).collect(),
                config: SelectionConfig {
                    capacity: 4,
                    max_rounds: 1000,
                },
            },
        )
    }

    #[test]
    fn replay_is_identical_across_replicas() {
        // Two "miners" holding the same broadcast replay byte-identical
        // outcomes — the heart of Sec. IV-C.
        let p = merge_params();
        let a = p.merge_outcome().expect("merge inputs");
        let b = p.clone().merge_outcome().expect("merge inputs");
        assert_eq!(a.new_shards, b.new_shards);
        assert_eq!(a.leftover, b.leftover);

        let s = select_params();
        assert_eq!(
            s.selection_outcome().expect("selection inputs").assignments,
            s.selection_outcome().expect("selection inputs").assignments
        );
    }

    #[test]
    fn different_randomness_changes_derived_values() {
        let p1 = merge_params();
        let mut p2 = merge_params();
        p2.randomness = sha256(b"epoch-8");
        assert_ne!(p1.game_seed(), p2.game_seed());
        assert_ne!(
            p1.initial_merge_probs().expect("merge inputs"),
            p2.initial_merge_probs().expect("merge inputs")
        );
    }

    #[test]
    fn honest_merge_claim_verifies() {
        let p = merge_params();
        let outcome = p.merge_outcome().expect("merge inputs");
        assert_eq!(p.verify_merge_claim(&outcome.new_shards), Ok(()));
        // Order within shards and among shards must not matter.
        let mut shuffled = outcome.new_shards.clone();
        shuffled.reverse();
        for s in shuffled.iter_mut() {
            s.reverse();
        }
        assert_eq!(p.verify_merge_claim(&shuffled), Ok(()));
    }

    #[test]
    fn cheating_merge_claim_rejected() {
        let p = merge_params();
        let mut claim = p.merge_outcome().expect("merge inputs").new_shards;
        if claim.is_empty() {
            claim.push(vec![0, 1]);
        } else {
            // Claim one extra bogus shard.
            claim.push(vec![999]);
        }
        assert!(matches!(
            p.verify_merge_claim(&claim),
            Err(VerificationError::MergeMismatch { .. })
        ));
    }

    #[test]
    fn honest_selection_block_verifies_including_subsets() {
        let p = select_params();
        let outcome = p.selection_outcome().expect("selection inputs");
        for (m, set) in outcome.assignments.iter().enumerate() {
            assert_eq!(p.verify_selection_block(m, set), Ok(()));
            // A partial block (first half of the set) is also fine.
            assert_eq!(p.verify_selection_block(m, &set[..set.len() / 2]), Ok(()));
        }
    }

    #[test]
    fn selection_violation_is_caught_and_attributed() {
        let p = select_params();
        let outcome = p.selection_outcome().expect("selection inputs");
        // Find a tx not in miner 0's set.
        let allowed: std::collections::BTreeSet<usize> =
            outcome.assignments[0].iter().copied().collect();
        let foreign = (0..40).find(|j| !allowed.contains(j)).expect("exists");
        assert_eq!(
            p.verify_selection_block(0, &[outcome.assignments[0][0], foreign]),
            Err(VerificationError::SelectionViolation {
                miner: 0,
                tx_index: foreign
            })
        );
    }

    #[test]
    fn unknown_miner_rejected() {
        let p = select_params();
        assert_eq!(
            p.verify_selection_block(99, &[0]),
            Err(VerificationError::UnknownMiner(99))
        );
    }

    #[test]
    fn leader_constructed_parameters_carry_a_proof() {
        let leader = Vrf::from_seed(b"leader");
        let p = UnifiedParameters::from_leader(
            &leader,
            3,
            miner_ids(4),
            GameInputs::Select {
                shard: ShardId::new(1),
                fees: vec![5, 6],
                config: SelectionConfig::default(),
            },
        );
        assert!(p.leader_proof.is_some());
        // The randomness is the leader's VRF output on the epoch.
        let (expected, _) = leader.evaluate(3u64.to_be_bytes());
        assert_eq!(p.randomness, expected);
    }

    #[test]
    fn communication_is_two_rounds_per_shard() {
        let mut stats = CommStats::new();
        let p = merge_params();
        p.record_communication(&mut stats);
        // 8 small shards × 2 rounds.
        assert_eq!(stats.total(), 16);
        for i in 0..8 {
            assert_eq!(stats.for_shard(ShardId::new(i)), 2);
        }
        assert_eq!(stats.for_kind(CommKind::StatSubmission), 8);
        assert_eq!(stats.for_kind(CommKind::ParameterBroadcast), 8);
    }

    #[test]
    fn initial_selections_are_valid_and_diverse() {
        let p = select_params();
        let sets = p.initial_selections().expect("selection inputs");
        assert_eq!(sets.len(), 5);
        for set in &sets {
            assert_eq!(set.len(), 4);
            assert!(set.iter().all(|&j| j < 40));
        }
        let distinct: std::collections::BTreeSet<Vec<usize>> = sets
            .iter()
            .cloned()
            .map(|mut s| {
                s.sort_unstable();
                s
            })
            .collect();
        assert!(distinct.len() >= 3, "initial sets too uniform");
    }

    #[test]
    fn initial_merge_probs_are_interior() {
        let p = merge_params();
        for prob in p.initial_merge_probs().expect("merge inputs") {
            assert!((0.25..=0.75).contains(&prob));
        }
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        // Identical broadcasts hash identically.
        assert_eq!(merge_params().digest(), merge_params().digest());
        assert_eq!(select_params().digest(), select_params().digest());
        // Any content change — randomness, miner set, or inputs — shows.
        let mut other_rand = merge_params();
        other_rand.randomness = sha256(b"epoch-8");
        assert_ne!(merge_params().digest(), other_rand.digest());
        let mut other_miners = merge_params();
        other_miners.miners.pop();
        assert_ne!(merge_params().digest(), other_miners.digest());
        let mut other_inputs = select_params();
        if let GameInputs::Select { fees, .. } = &mut other_inputs.inputs {
            fees[0] += 1;
        }
        assert_ne!(select_params().digest(), other_inputs.digest());
        // The two input kinds never collide.
        assert_ne!(merge_params().digest(), select_params().digest());
    }

    #[test]
    fn digest_ignores_the_proof() {
        // The proof binds the randomness; equivocation detection compares
        // payloads, so a stripped proof must not change the digest.
        let leader = Vrf::from_seed(b"leader");
        let with_proof = UnifiedParameters::from_leader(
            &leader,
            3,
            miner_ids(4),
            GameInputs::Select {
                shard: ShardId::new(1),
                fees: vec![5, 6],
                config: SelectionConfig::default(),
            },
        );
        let mut stripped = with_proof.clone();
        stripped.leader_proof = None;
        assert_eq!(with_proof.digest(), stripped.digest());
    }

    #[test]
    fn wrong_input_kind_is_an_error() {
        let err = select_params().merge_outcome().unwrap_err();
        assert_eq!(
            err,
            Error::GameInputs {
                operation: "merge_outcome",
                expected: "merge",
                got: "selection",
            }
        );
        // And the verification path reports it as WrongInputs.
        assert!(matches!(
            select_params().verify_merge_claim(&[]),
            Err(VerificationError::WrongInputs(Error::GameInputs { .. }))
        ));
    }

    #[test]
    fn hostile_config_in_a_broadcast_is_a_typed_error() {
        type Corrupt = fn(&mut MergingConfig);
        let hostile: [(&str, Corrupt); 9] = [
            ("merging.eta", |c| c.eta = f64::NAN),
            ("merging.eta", |c| c.eta = 0.0),
            ("merging.eta", |c| c.eta = 1.0),
            ("merging.subslots", |c| c.subslots = 0),
            ("merging.tolerance", |c| c.tolerance = f64::NAN),
            ("merging.max_slots", |c| c.max_slots = 0),
            ("merging.lower_bound", |c| c.lower_bound = 0),
            ("merging.reward", |c| c.reward = c.cost),
            // One raw unit past the precision bound reward × subslots = 2⁵³.
            ("merging.reward", |c| {
                c.subslots = 64;
                c.reward = Amount::from_raw((1 << 47) + 1);
            }),
        ];
        for (row, (want, corrupt)) in hostile.into_iter().enumerate() {
            let mut p = merge_params();
            if let GameInputs::Merge { config, .. } = &mut p.inputs {
                corrupt(config);
            }
            let got = p.merge_outcome();
            assert!(
                matches!(got, Err(Error::Config { field, .. }) if field == want),
                "row {row}: wanted {want}, got {got:?}"
            );
            assert!(
                matches!(
                    p.verify_merge_claim(&[]),
                    Err(VerificationError::WrongInputs(Error::Config { .. }))
                ),
                "row {row}"
            );
        }

        // At the bound itself the sums are still exact: accepted.
        let mut p = merge_params();
        if let GameInputs::Merge { config, .. } = &mut p.inputs {
            config.subslots = 64;
            config.reward = Amount::from_raw(1 << 47);
            config.max_slots = 2;
        }
        assert!(p.merge_outcome().is_ok());

        // Shard sizes the merge stage never builds but a leader can send:
        // a lone "small" shard at the bound (used to panic in the round's
        // candidate cap), and sizes that overflow their own sum.
        let hostile_sizes: [(u64, Vec<u64>); 3] = [
            (15, vec![15]),
            (15, vec![1, 30, 1]),
            // Every size under the bound, the sum past u64::MAX.
            (u64::MAX, vec![0, u64::MAX - 1, u64::MAX - 1]),
        ];
        for (row, (bound, sizes)) in hostile_sizes.into_iter().enumerate() {
            let mut p = merge_params();
            if let GameInputs::Merge {
                shard_sizes,
                config,
            } = &mut p.inputs
            {
                config.lower_bound = bound;
                *shard_sizes = sizes
                    .into_iter()
                    .zip(0..)
                    .map(|(size, id)| (ShardId::new(id), size))
                    .collect();
            }
            let got = p.merge_outcome();
            assert!(
                matches!(got, Err(Error::Config { field, .. }) if field == "merging.shard_sizes"),
                "sizes row {row}: got {got:?}"
            );
            assert!(
                matches!(
                    p.verify_merge_claim(&[]),
                    Err(VerificationError::WrongInputs(Error::Config { .. }))
                ),
                "sizes row {row}"
            );
        }

        let mut p = select_params();
        if let GameInputs::Select { config, .. } = &mut p.inputs {
            config.capacity = 0;
        }
        let got = p.selection_outcome();
        assert!(
            matches!(got, Err(Error::Config { field, .. }) if field == "selection.capacity"),
            "got {got:?}"
        );
    }
}
