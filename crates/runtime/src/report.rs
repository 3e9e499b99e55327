//! Run reports and the paper's performance metrics.
//!
//! Everything simulated lands here; everything host-side (`wall`,
//! `threads_used`) is diagnostic only and excluded from
//! [`RunReport::fingerprint`]. This module moved from `cshard-core`
//! unchanged when the runtime was unified — the fingerprint preimage is
//! versioned (`cshard-run-report-v1`) and must not drift, because the
//! golden tests compare hashes captured before the refactor.

use cshard_crypto::Sha256;
use cshard_primitives::{Hash32, ShardId, SimTime};
use std::time::Duration;

/// Per-shard results of one simulated run.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// The shard.
    pub shard: ShardId,
    /// Transactions injected into the shard.
    pub txs: usize,
    /// Transactions confirmed (== `txs` for completed runs).
    pub confirmed: usize,
    /// When the shard confirmed its last transaction (`None` if it had no
    /// transactions).
    pub completion: Option<SimTime>,
    /// Blocks produced (useful + empty + stale).
    pub blocks: usize,
    /// Blocks carrying no transactions because the miner saw an empty
    /// queue — the waste metric of Sec. III-D / Fig. 3(b)(c)(f).
    pub empty_blocks: usize,
    /// Blocks whose entire selection had already been confirmed by a
    /// competitor within the propagation window — the duplicate-selection
    /// waste that serializes vanilla Ethereum (Sec. II-B).
    pub stale_blocks: usize,
    /// Simulation events the shard's driver processed (across both the
    /// active and the idle-drain phase).
    pub events_processed: usize,
    /// Host wall-clock time the shard's driver spent simulating.
    /// Diagnostic only — excluded from [`RunReport::fingerprint`].
    pub wall: Duration,
}

/// Results of one simulated run across all shards.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The waiting time until **all** injected transactions were confirmed
    /// — `W` in the paper's throughput metric (Sec. VI-A).
    pub completion: SimTime,
    /// Per-shard details.
    pub shards: Vec<ShardReport>,
    /// Host wall-clock time of the whole run. Diagnostic only.
    pub wall: Duration,
    /// Worker threads the executor resolved to for this run.
    pub threads_used: usize,
}

impl RunReport {
    /// Total transactions across shards.
    pub fn total_txs(&self) -> usize {
        self.shards.iter().map(|s| s.txs).sum()
    }

    /// Total empty blocks (within the configured counting window).
    pub fn total_empty_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.empty_blocks).sum()
    }

    /// Average empty blocks per shard — the y-axis of Fig. 3(c)/(f).
    pub fn empty_blocks_per_shard(&self) -> f64 {
        if self.shards.is_empty() {
            return 0.0;
        }
        self.total_empty_blocks() as f64 / self.shards.len() as f64
    }

    /// Total stale (duplicate-selection) blocks.
    pub fn total_stale_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.stale_blocks).sum()
    }

    /// Total blocks produced.
    pub fn total_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.blocks).sum()
    }

    /// Total simulation events processed across shard drivers.
    pub fn total_events_processed(&self) -> usize {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// A digest over every *deterministic* field of the report — all the
    /// simulated quantities, excluding host-side diagnostics (`wall`,
    /// `threads_used`). Two runs of the same configuration must produce
    /// equal fingerprints regardless of thread count; the determinism
    /// tests assert exactly that.
    pub fn fingerprint(&self) -> Hash32 {
        let mut h = Sha256::new();
        h.update(b"cshard-run-report-v1");
        h.update(self.completion.as_millis().to_be_bytes());
        h.update((self.shards.len() as u64).to_be_bytes());
        for s in &self.shards {
            h.update(s.shard.0.to_be_bytes());
            h.update((s.txs as u64).to_be_bytes());
            h.update((s.confirmed as u64).to_be_bytes());
            match s.completion {
                None => {
                    h.update([0u8]);
                }
                Some(t) => {
                    h.update([1u8]);
                    h.update(t.as_millis().to_be_bytes());
                }
            }
            h.update((s.blocks as u64).to_be_bytes());
            h.update((s.empty_blocks as u64).to_be_bytes());
            h.update((s.stale_blocks as u64).to_be_bytes());
            h.update((s.events_processed as u64).to_be_bytes());
        }
        h.finalize()
    }
}

/// The paper's headline metric (Sec. VI-A): `W_E / W_S`, the Ethereum
/// waiting time over the scheme's waiting time. 1.0 = no improvement,
/// 7.2 = the paper's nine-shard result.
pub fn throughput_improvement(ethereum: &RunReport, scheme: &RunReport) -> f64 {
    let we = ethereum.completion.as_secs_f64();
    let ws = scheme.completion.as_secs_f64();
    assert!(ws > 0.0, "scheme run confirmed nothing");
    we / ws
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(txs: usize, empty: usize, completion_s: u64) -> ShardReport {
        ShardReport {
            shard: ShardId::new(0),
            txs,
            confirmed: txs,
            completion: Some(SimTime::from_secs(completion_s)),
            blocks: txs / 10 + empty,
            empty_blocks: empty,
            stale_blocks: 0,
            events_processed: txs / 10 + empty,
            wall: Duration::ZERO,
        }
    }

    fn report(completion_s: u64, shards: Vec<ShardReport>) -> RunReport {
        RunReport {
            completion: SimTime::from_secs(completion_s),
            shards,
            wall: Duration::ZERO,
            threads_used: 1,
        }
    }

    #[test]
    fn totals_aggregate() {
        let r = report(100, vec![shard(20, 2, 90), shard(30, 3, 100)]);
        assert_eq!(r.total_txs(), 50);
        assert_eq!(r.total_empty_blocks(), 5);
        assert!((r.empty_blocks_per_shard() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn improvement_ratio() {
        let e = report(1200, vec![shard(200, 0, 1200)]);
        let s = report(200, vec![shard(200, 0, 200)]);
        assert!((throughput_improvement(&e, &s) - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "confirmed nothing")]
    fn zero_scheme_time_rejected() {
        let e = report(100, vec![]);
        let s = report(0, vec![]);
        throughput_improvement(&e, &s);
    }

    #[test]
    fn empty_report_edge_cases() {
        let r = report(0, vec![]);
        assert_eq!(r.empty_blocks_per_shard(), 0.0);
    }
}
