//! Stage 3 — Merge: the inter-shard merging game (Sec. IV-A, Algorithm 1)
//! under unified parameters (Sec. IV-C).

use super::{EpochCtx, PipelineStage, StageKind, StageOutput};
use cshard_games::{GameInputs, IterativeMergeOutcome, MergingConfig, UnifiedParameters};
use cshard_primitives::{Error, Hash32, MinerId, ShardId};
use std::collections::{BTreeMap, BTreeSet};

/// Summary of the merge stage.
#[derive(Clone, Debug)]
pub struct MergeSummary {
    /// Small shards that entered the game.
    pub small_shards: usize,
    /// New (merged) shards formed.
    pub new_shards: usize,
    /// Small shards left unmerged.
    pub leftover: usize,
}

/// The merge groups decided in a previous epoch, kept for carry-over.
///
/// Each group records its members as `(shard id, size-at-decision)` so a
/// later epoch can re-validate it: the group still stands iff every
/// member is again a small shard of exactly that size — then its
/// equilibrium is unchanged by construction and the dynamics need not
/// re-run for it.
#[derive(Clone, Debug)]
struct CarriedMerge {
    /// Digest of the unified broadcast that produced the groups.
    digest: Hash32,
    /// Decided groups: members with their sizes at decision time.
    groups: Vec<Vec<(ShardId, u64)>>,
}

/// Runs Algorithm 1 over the small shards and fuses the merged queues.
///
/// With warm starts enabled, the replayed outcome is memoized by the
/// unified broadcast's canonical [`UnifiedParameters::digest`]: a repeated
/// epoch (same randomness, miner set, shard sizes and game config) reuses
/// the stored equilibrium instead of re-running the replicator dynamics.
/// The digest covers *every* input the dynamics read, so a hit is exact by
/// construction — the fused groups are bit-identical, only the slot count
/// drops to zero. (Re-running "fewer slots from a warm seed" is not an
/// option here: the one-shot game draws its realization randomness from
/// the stream position the slots leave behind, so a shorter run would
/// change the outcome. Memoization is the warm start that preserves
/// bit-identity.)
///
/// With the placement engine's carry switch on, the stage additionally
/// keeps the *decided groups* across epochs. An epoch whose broadcast
/// digest matches the carried one reuses the whole partition (zero
/// dynamics slots, bit-identical to a cold run — the digest covers every
/// input). When the digest differs, each carried group is re-validated
/// against the new small-shard sizes: groups whose members all survived
/// at the same size are kept as-is, and the replicator dynamics re-run
/// only over the shards left outside any surviving group. Carry-over can
/// change outcomes relative to a cold run when sizes drift (that is its
/// point — placement persistence), which is why it lives behind the
/// off-by-default placement switch rather than the always-bit-identical
/// `warm_start` flag. The unified broadcast itself is unchanged in every
/// path: full parameters are built and their communication recorded, so
/// a disabled engine is bit-invisible and an enabled one books identical
/// cross-shard messaging.
#[derive(Debug)]
pub struct MergeStage {
    config: Option<MergingConfig>,
    warm: bool,
    carry: bool,
    memo: BTreeMap<Hash32, IterativeMergeOutcome>,
    carried: Option<CarriedMerge>,
}

impl MergeStage {
    /// A merge stage; `config: None` disables merging entirely, `carry`
    /// enables cross-epoch group carry-over (the placement engine's
    /// merge-persistence half).
    pub fn new(config: Option<MergingConfig>, warm: bool, carry: bool) -> Self {
        MergeStage {
            config,
            warm,
            carry,
            memo: BTreeMap::new(),
            carried: None,
        }
    }

    /// Whether a decided partition is currently carried.
    pub fn has_carried_groups(&self) -> bool {
        self.carried.is_some()
    }
}

impl PipelineStage for MergeStage {
    fn kind(&self) -> StageKind {
        StageKind::Merge
    }

    fn run(&mut self, ctx: &mut EpochCtx<'_>) -> Result<StageOutput, Error> {
        let Some(mcfg) = self.config.as_ref() else {
            return Ok(StageOutput::default());
        };
        let groups = &mut ctx.groups;
        let small: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|(_, (shard, txs))| {
                !shard.is_max_shard() && (txs.len() as u64) < mcfg.lower_bound
            })
            .map(|(i, _)| i)
            .collect();
        let shard_sizes: Vec<(ShardId, u64)> = small
            .iter()
            .map(|&i| (groups[i].0, groups[i].1.len() as u64))
            .collect();
        let miners: Vec<MinerId> = (0..u32::try_from(groups.len()).unwrap_or(u32::MAX))
            .map(MinerId::new)
            .collect();
        let params = UnifiedParameters::from_randomness(
            ctx.randomness,
            miners.clone(),
            GameInputs::Merge {
                shard_sizes: shard_sizes.clone(),
                config: *mcfg,
            },
        );
        params.record_communication(&ctx.comm);
        let digest = params.digest();
        // Where each small shard id currently sits in `groups`.
        let pos: BTreeMap<ShardId, usize> = small.iter().map(|&i| (groups[i].0, i)).collect();

        // Decide the merged groups, as member-index lists into `groups`.
        let mut warm_hit = false;
        let mut warm_miss = false;
        let mut carried_groups = 0u64;
        let iterations: u64;
        let leftover: usize;
        let member_groups: Vec<Vec<usize>>;

        let carry_match = self
            .carry
            .then_some(self.carried.as_ref())
            .flatten()
            .filter(|c| c.digest == digest)
            .cloned();
        let memo_hit = if self.warm {
            self.memo.get(&digest).cloned()
        } else {
            None
        };
        if let Some(c) = carry_match {
            // Identical broadcast: the whole carried partition stands.
            member_groups = c
                .groups
                .iter()
                .map(|g| {
                    g.iter()
                        .filter_map(|(id, _)| pos.get(id).copied())
                        .collect()
                })
                .collect();
            carried_groups = member_groups.len() as u64;
            iterations = 0;
            leftover = small.len()
                - member_groups
                    .iter()
                    .map(|g: &Vec<usize>| g.len())
                    .sum::<usize>();
        } else if let Some(outcome) = memo_hit {
            warm_hit = true;
            member_groups = outcome
                .new_shards
                .iter()
                .map(|players| {
                    players
                        .iter()
                        .filter_map(|&p| small.get(p).copied())
                        .collect()
                })
                .collect();
            iterations = 0;
            leftover = outcome.leftover.len();
        } else if let Some(c) = self.carry.then(|| self.carried.take()).flatten() {
            // Changed inputs: keep every group whose members all survived
            // at their decision size, re-run the game for the rest.
            let size_of: BTreeMap<ShardId, u64> = shard_sizes.iter().copied().collect();
            let mut taken: BTreeSet<ShardId> = BTreeSet::new();
            let mut decided: Vec<Vec<usize>> = Vec::new();
            for g in &c.groups {
                let valid = !g.is_empty()
                    && g.iter()
                        .all(|(id, sz)| size_of.get(id) == Some(sz) && !taken.contains(id));
                if valid {
                    taken.extend(g.iter().map(|(id, _)| *id));
                    decided.push(
                        g.iter()
                            .filter_map(|(id, _)| pos.get(id).copied())
                            .collect(),
                    );
                }
            }
            carried_groups = decided.len() as u64;
            let rerun: Vec<usize> = small
                .iter()
                .copied()
                .filter(|&i| !taken.contains(&groups[i].0))
                .collect();
            let rerun_sizes: Vec<(ShardId, u64)> = rerun
                .iter()
                .map(|&i| (groups[i].0, groups[i].1.len() as u64))
                .collect();
            // Same broadcast randomness, restricted player set. The full
            // broadcast's communication is already recorded above; the
            // restricted re-run is local replay work, not a second round
            // of messages.
            let rparams = UnifiedParameters::from_randomness(
                ctx.randomness,
                miners,
                GameInputs::Merge {
                    shard_sizes: rerun_sizes,
                    config: *mcfg,
                },
            );
            let outcome = rparams.merge_outcome()?;
            iterations = outcome.total_slots as u64;
            leftover = outcome.leftover.len();
            decided.extend(outcome.new_shards.iter().map(|players| {
                players
                    .iter()
                    .filter_map(|&p| rerun.get(p).copied())
                    .collect::<Vec<usize>>()
            }));
            member_groups = decided;
        } else {
            let outcome = params.merge_outcome()?;
            if self.warm {
                warm_miss = true;
                self.memo.insert(digest, outcome.clone());
            }
            member_groups = outcome
                .new_shards
                .iter()
                .map(|players| {
                    players
                        .iter()
                        .filter_map(|&p| small.get(p).copied())
                        .collect()
                })
                .collect();
            iterations = outcome.total_slots as u64;
            leftover = outcome.leftover.len();
        }

        // Snapshot the decided partition (member ids + sizes) before
        // fusion rewrites the groups.
        if self.carry {
            self.carried = Some(CarriedMerge {
                digest,
                groups: member_groups
                    .iter()
                    .map(|g| {
                        g.iter()
                            .map(|&i| (groups[i].0, groups[i].1.len() as u64))
                            .collect()
                    })
                    .collect(),
            });
        }

        // Fuse the merged groups. New shards take the id of their
        // lowest-numbered member; consumed members are dropped.
        let mut consumed: Vec<usize> = Vec::new();
        let mut fused: Vec<(ShardId, Vec<u64>)> = Vec::new();
        for members in &member_groups {
            // The merge game never emits an empty group, but a typed
            // skip keeps this off the panic path (audit rule PH001).
            let Some(id) = members.iter().map(|&g| groups[g].0).min() else {
                continue;
            };
            let mut queue = Vec::new();
            for &g in members {
                queue.extend_from_slice(&groups[g].1);
            }
            consumed.extend_from_slice(members);
            fused.push((id, queue));
        }
        let summary = MergeSummary {
            small_shards: small.len(),
            new_shards: member_groups.len(),
            leftover,
        };
        consumed.sort_unstable();
        consumed.dedup();
        for &g in consumed.iter().rev() {
            groups.remove(g);
        }
        groups.extend(fused);
        groups.sort_by_key(|&(shard, _)| shard);

        let out = StageOutput {
            items: summary.new_shards as u64,
            iterations,
            warm_hits: u64::from(warm_hit),
            warm_misses: u64::from(warm_miss),
            carried: carried_groups,
            ..StageOutput::default()
        };
        ctx.merge = Some(summary);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_crypto::sha256;
    use cshard_network::CommStats;
    use cshard_runtime::RuntimeConfig;

    fn ctx_with_groups(groups: Vec<(ShardId, Vec<u64>)>) -> EpochCtx<'static> {
        EpochCtx {
            transactions: &[],
            fees: &[],
            randomness: sha256(9u64.to_be_bytes()),
            runtime: RuntimeConfig::default(),
            plan: None,
            groups,
            merge: None,
            specs: Vec::new(),
            comm: CommStats::new(),
            run: None,
            migrations: Vec::new(),
        }
    }

    /// Twelve small shards (sizes 3–5) plus one large shard that never
    /// enters the game; a `lower_bound` of 10 lets several groups form.
    fn small_world() -> Vec<(ShardId, Vec<u64>)> {
        let mut groups: Vec<(ShardId, Vec<u64>)> = (0..12)
            .map(|i| (ShardId::new(i), vec![1u64; 3 + (i as usize % 3)]))
            .collect();
        groups.push((ShardId::new(100), vec![2u64; 64]));
        groups
    }

    fn config() -> Option<MergingConfig> {
        Some(MergingConfig {
            lower_bound: 10,
            ..MergingConfig::default()
        })
    }

    #[test]
    fn identical_broadcast_reuses_the_carried_partition_bit_identically() {
        let mut carry = MergeStage::new(config(), false, true);
        let mut c1 = ctx_with_groups(small_world());
        let o1 = carry.run(&mut c1).expect("valid merge config");
        assert!(o1.iterations > 0, "the first epoch runs the dynamics");
        assert_eq!(o1.carried, 0, "nothing to carry on first sight");
        assert!(carry.has_carried_groups());

        let mut c2 = ctx_with_groups(small_world());
        let o2 = carry.run(&mut c2).expect("valid merge config");
        assert_eq!(o2.iterations, 0, "identical broadcast re-runs nothing");
        assert_eq!(o2.carried, o2.items, "the whole partition is carried");

        let mut cold_stage = MergeStage::new(config(), false, false);
        let mut cc = ctx_with_groups(small_world());
        let oc = cold_stage.run(&mut cc).expect("valid merge config");
        assert_eq!(c2.groups, cc.groups, "carried fusion is bit-identical");
        assert_eq!(o2.items, oc.items);
    }

    #[test]
    fn changed_shard_keeps_valid_groups_and_reruns_only_the_rest() {
        let mut carry = MergeStage::new(config(), false, true);
        let mut c1 = ctx_with_groups(small_world());
        let o1 = carry.run(&mut c1).expect("valid merge config");
        assert!(o1.items >= 2, "the world must form several groups");

        // Grow one small shard by a transaction: only groups containing
        // it go invalid; everything else stands at its decision size.
        let mut grown = small_world();
        grown[0].1.push(7);
        let mut c2 = ctx_with_groups(grown.clone());
        let o2 = carry.run(&mut c2).expect("valid merge config");

        let mut cold_stage = MergeStage::new(config(), false, false);
        let mut cc = ctx_with_groups(grown);
        let oc = cold_stage.run(&mut cc).expect("valid merge config");

        assert!(o2.carried >= 1, "groups without the grown shard stand");
        assert!(
            o2.iterations < oc.iterations,
            "only the uncovered remainder re-runs: carried {} < cold {}",
            o2.iterations,
            oc.iterations
        );
    }

    #[test]
    fn fully_invalidated_carry_matches_a_cold_recompute() {
        let mut carry = MergeStage::new(config(), false, true);
        let mut c1 = ctx_with_groups(small_world());
        carry.run(&mut c1).expect("valid merge config");

        // Grow every small shard: no carried group survives validation,
        // so the re-run covers the full player set under the same
        // broadcast randomness — bit-identical to a cold recompute.
        let mut grown = small_world();
        for (id, queue) in grown.iter_mut() {
            if !id.is_max_shard() && queue.len() < 10 {
                queue.push(3);
            }
        }
        let mut c2 = ctx_with_groups(grown.clone());
        let o2 = carry.run(&mut c2).expect("valid merge config");

        let mut cold_stage = MergeStage::new(config(), false, false);
        let mut cc = ctx_with_groups(grown);
        let oc = cold_stage.run(&mut cc).expect("valid merge config");

        assert_eq!(o2.carried, 0, "no group survives a global size drift");
        assert_eq!(o2.iterations, oc.iterations);
        assert_eq!(c2.groups, cc.groups, "full re-run is bit-identical");
    }
}
