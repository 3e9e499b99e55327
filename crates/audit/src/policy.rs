//! The audit policy: the crates the rules skip, the few sanctioned
//! exceptions and the two resolver gates, as code.
//!
//! The determinism contract (DESIGN.md, "Determinism invariants"): every
//! protocol crate must be a replayable pure function of its seeds and
//! event streams, so the paper's Sec. IV-C parameter-unification replay —
//! and the golden fingerprints — stay byte-identical across hosts, thread
//! counts and reruns. The compiler checks most of it: `clippy.toml` bans
//! wall clocks, ambient hash seeds and hash containers (ND001–ND003),
//! every scanned crate denies panic-class exits and lossy integer casts
//! at its root (PH001), and the root `Cargo.toml` lint table covers docs
//! and `unsafe`. The rules here are what no lint can check: float
//! equality with any literal, zero included, outside test code (FD001),
//! and a `pub fn` only test code calls (DC001). Every directory under
//! `crates/` but the [`Policy::exempt`] ones is scanned, so a new crate
//! is bound by default. Every exemption carries a comment saying why it
//! is sound.

use crate::callgraph::GraphStats;

/// What the scan reads and which findings it forgives.
///
/// [`Policy::workspace`] is the one the binary runs; the fixture tests
/// build their own.
#[derive(Clone, Copy, Debug, Default)]
pub struct Policy {
    /// Directory names under `crates/` the rules do not scan.
    pub exempt: &'static [&'static str],
    /// Workspace-relative files FD001 does not check.
    pub fd001_allow: &'static [&'static str],
    /// Workspace-relative directories whose `.rs` files keep a function
    /// alive for DC001. No rule checks them.
    pub dc001_callers: &'static [&'static str],
    /// Function ids (`crate::Type::method`) DC001 does not report.
    pub dc001_allow: &'static [&'static str],
}

impl Policy {
    /// The policy the workspace is held to.
    pub fn workspace() -> Policy {
        Policy {
            // The workspace lints in `clippy.toml` and `Cargo.toml` bind
            // these like every member.
            exempt: &[
                // the linter itself; its fixtures deliberately violate rules
                "audit",
                // experiment harness: host-facing CLI, not replay-surface
                // protocol code; its `src/` is a DC001 caller.
                "bench",
            ],
            fd001_allow: &[
                // `fract() == 0.0` is the exact is-this-an-integer idiom: JSON writes
                // whole floats without a decimal point, and the comparison is exact by
                // IEEE-754 construction.
                "crates/json/src/lib.rs",
                // Probability boundary guards (`p == 0.0` / `p == 1.0`) short-circuit
                // the exact endpoints of closed-form formulas; both endpoints are
                // exactly representable.
                "crates/security/src/math.rs",
            ],
            // Callers outside the scanned crates' library code. A unit test, in any
            // file, is test code and keeps nothing alive; so are the crates' own
            // `tests/` directories. `tests/` here is the facade's integration suite,
            // which uses the library the way a downstream user does.
            dc001_callers: &[
                "crates/bench/src",
                "src",
                "tests",
                "examples",
                "benchmark/src",
            ],
            dc001_allow: &[
                // ROADMAP item 5 staffs a streamed deployment's shards through it.
                "core::assignment::MinerAssignment::assign_all",
                // The receiver side of the leader's `leader_proof`; ROADMAP item 21.
                "crypto::vrf::Vrf::verify",
                // The only view of per-shard booking: the ChainSpace driver's closed
                // form and unification's two rounds per shard are checked through it.
                "network::stats::CommStats::for_shard",
                // The only view of the migration re-keying (`apply` rewrites the
                // table's destinations) that the runtime's tests check.
                "runtime::settle::SettlingShardDriver::transfers",
                // `benchmark/src`'s unit tests read `results.json` through these.
                "json::Value::as_u64",
                "json::Value::as_array",
                "json::Value::as_object",
                "json::Value::is_null",
            ],
        }
    }
}

/// The lowest call-resolution coverage the audit accepts, per-mille: the
/// workspace's 805‰ less 20‰, since small refactors shift a call or two
/// between resolved and external without meaning coverage rot.
pub const MIN_RESOLUTION_PERMILLE: u64 = 785;

/// The most arity misses the audit accepts: the workspace's 213 plus 20,
/// since new code calls std methods that share a workspace name, but a
/// jump means edges are being dropped.
pub const MAX_ARITY_MISSES: usize = 233;

/// The resolver gates `stats` fails, one line each; empty when both hold.
pub fn gate_failures(stats: &GraphStats) -> Vec<String> {
    let mut failures = Vec::new();
    let permille = stats.resolution_permille();
    if permille < MIN_RESOLUTION_PERMILLE {
        failures.push(format!(
            "call resolution coverage is {permille}\u{2030}, below the \
             {MIN_RESOLUTION_PERMILLE}\u{2030} floor"
        ));
    }
    if stats.calls_arity_miss > MAX_ARITY_MISSES {
        failures.push(format!(
            "{} arity misses, above the ceiling of {MAX_ARITY_MISSES}",
            stats.calls_arity_miss
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(resolved: usize, ambiguous: usize, arity_miss: usize) -> GraphStats {
        GraphStats {
            calls_resolved: resolved,
            calls_ambiguous: ambiguous,
            calls_arity_miss: arity_miss,
            ..GraphStats::default()
        }
    }

    #[test]
    fn resolution_gate_holds_at_its_floor_and_fails_below_it() {
        assert!(gate_failures(&stats(785, 215, 0)).is_empty());
        let failures = gate_failures(&stats(784, 216, 0));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("784\u{2030}"), "{failures:?}");
    }

    #[test]
    fn arity_gate_holds_at_its_ceiling_and_fails_above_it() {
        assert!(gate_failures(&stats(1, 0, 233)).is_empty());
        let failures = gate_failures(&stats(1, 0, 234));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("234 arity misses"), "{failures:?}");
    }
}
