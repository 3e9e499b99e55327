//! Stage 4 — Select: miner allocation (Sec. III-B) and per-shard selection
//! strategy (Sec. IV-B).

use crate::system::MinerAllocation;
use cshard_primitives::{Error, ShardId};
use cshard_runtime::{SelectionStrategy, ShardSpec};

/// Splits `total` miners over shards proportionally to `sizes`, giving
/// every shard at least one miner (largest-remainder on the remainder).
pub(crate) fn proportional_split(sizes: &[u64], total: usize) -> Vec<usize> {
    assert!(total >= sizes.len());
    let total_size: u64 = sizes.iter().sum::<u64>().max(1);
    let spare = total - sizes.len();
    // Exact shares of the spare pool.
    let exact: Vec<f64> = sizes
        .iter()
        .map(|&s| s as f64 * spare as f64 / total_size as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| 1 + e.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    // Largest remainders get the leftovers; ties by index (deterministic).
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = exact[a] - exact[a].floor();
        let rb = exact[b] - exact[b].floor();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    for &i in order.iter().take(total.saturating_sub(assigned)) {
        counts[i] += 1;
    }
    debug_assert_eq!(counts.iter().sum::<usize>(), total);
    counts
}

/// Allocates miners to the (post-merge) shards and attaches each shard's
/// selection behaviour: the congestion-game equilibrium where a selection
/// round cap is configured and the shard is contended, fee-greedy
/// otherwise.
#[derive(Debug)]
pub struct SelectStage {
    allocation: MinerAllocation,
    selection: Option<usize>,
}

impl SelectStage {
    /// A selection stage over the given miner spread and round cap.
    pub fn new(allocation: MinerAllocation, selection: Option<usize>) -> Self {
        SelectStage {
            allocation,
            selection,
        }
    }

    /// One runtime spec per shard; the fee queues move into the specs.
    ///
    /// Errors when a proportional pool cannot staff every shard. A zero
    /// per-shard count never gets here: the pipeline rejects it in
    /// [`crate::pipeline::PipelineConfig::validate`] before any stage runs.
    pub fn run(&self, groups: Vec<(ShardId, Vec<u64>)>) -> Result<Vec<ShardSpec>, Error> {
        let per_shard_miners: Vec<usize> = match self.allocation {
            MinerAllocation::OnePerShard => vec![1; groups.len()],
            MinerAllocation::PerShard(n) => vec![n; groups.len()],
            MinerAllocation::Proportional { total } => {
                if total < groups.len() {
                    return Err(Error::InsufficientMiners {
                        shards: groups.len(),
                        miners: total,
                    });
                }
                proportional_split(
                    &groups
                        .iter()
                        .map(|(_, q)| q.len() as u64)
                        .collect::<Vec<_>>(),
                    total,
                )
            }
        };
        Ok(groups
            .into_iter()
            .zip(per_shard_miners)
            .map(|((shard, fees), miners)| {
                let strategy = match self.selection {
                    Some(max_rounds) if miners > 1 => SelectionStrategy::Equilibrium { max_rounds },
                    _ => SelectionStrategy::IdenticalGreedy,
                };
                ShardSpec {
                    shard,
                    fees,
                    miners,
                    strategy,
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn proportional_split_properties() {
        let counts = super::proportional_split(&[100, 50, 5, 0], 31);
        assert_eq!(counts.iter().sum::<usize>(), 31);
        assert!(counts.iter().all(|&c| c >= 1));
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
        assert_eq!(counts[3], 1, "empty shard still staffed");
        // Exactly one miner per shard when the pool equals the shard count.
        assert_eq!(super::proportional_split(&[7, 9], 2), vec![1, 1]);
    }
}
