//! Stage 3 — Merge: the inter-shard merging game (Sec. IV-A, Algorithm 1)
//! under unified parameters (Sec. IV-C).

use super::StageOutput;
use cshard_games::{GameInputs, IterativeMergeOutcome, MergingConfig, UnifiedParameters};
use cshard_network::CommStats;
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
/// With the placement engine's carry switch on, the stage keeps the
/// *decided groups* across epochs. An epoch whose broadcast
/// [`UnifiedParameters::digest`] matches the carried one reuses the whole
/// partition (zero dynamics slots, bit-identical to a cold run — the
/// digest covers every input). When the digest differs, each carried
/// group is re-validated against the new small-shard sizes: groups whose
/// members all survived at the same size are kept as-is, and the
/// replicator dynamics re-run only over the shards left outside any
/// surviving group. Carry-over can change outcomes relative to a cold run
/// when sizes drift (that is its point — placement persistence), which is
/// why it lives behind the off-by-default placement switch. The unified
/// broadcast itself is unchanged in every path: full parameters are built
/// and their communication recorded, so a disabled engine is
/// bit-invisible and an enabled one books identical cross-shard
/// messaging.
#[derive(Debug)]
pub struct MergeStage {
    config: Option<MergingConfig>,
    carry: bool,
    carried: Option<CarriedMerge>,
}

impl MergeStage {
    /// A merge stage; `config: None` disables merging entirely, `carry`
    /// enables cross-epoch group carry-over (the placement engine's
    /// merge-persistence half).
    pub fn new(config: Option<MergingConfig>, carry: bool) -> Self {
        MergeStage {
            config,
            carry,
            carried: None,
        }
    }
}

/// What one epoch's merge game decided, whichever path decided it.
struct Decision {
    /// Merged groups, as member-index lists into the epoch's `groups`.
    member_groups: Vec<Vec<usize>>,
    /// Small shards left unmerged.
    leftover: usize,
    /// The path's counters: slots run, groups carried.
    out: StageOutput,
}

impl Decision {
    /// A freshly computed outcome over `players` (each player's index into
    /// `groups`).
    fn computed(outcome: &IterativeMergeOutcome, players: &[usize]) -> Self {
        Decision {
            member_groups: outcome
                .new_shards
                .iter()
                .map(|g| g.iter().filter_map(|&p| players.get(p).copied()).collect())
                .collect(),
            leftover: outcome.leftover.len(),
            out: StageOutput {
                iterations: outcome.total_slots as u64,
                ..StageOutput::default()
            },
        }
    }
}

/// Fuses merged groups in place. Each entry of `member_groups` lists
/// indices into `groups`; those members become one shard that takes the
/// id of its lowest-numbered member and their queues in member order.
/// Consumed members are dropped and `groups` is re-sorted by shard id.
pub fn fuse(groups: &mut Vec<(ShardId, Vec<u64>)>, member_groups: &[Vec<usize>]) {
    let mut consumed: Vec<usize> = Vec::new();
    let mut fused: Vec<(ShardId, Vec<u64>)> = Vec::new();
    for members in member_groups {
        // A merge game never emits an empty group, but a typed skip keeps
        // this off the panic path (PH001).
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
    consumed.sort_unstable();
    consumed.dedup();
    for &g in consumed.iter().rev() {
        groups.remove(g);
    }
    groups.extend(fused);
    groups.sort_by_key(|&(shard, _)| shard);
}

impl MergeStage {
    /// Merges the small shards of `groups` in place, booking the unified
    /// broadcast on `comm`. `None` when merging is disabled.
    pub fn run(
        &mut self,
        groups: &mut Vec<(ShardId, Vec<u64>)>,
        randomness: Hash32,
        comm: &mut CommStats,
    ) -> Result<(Option<MergeSummary>, StageOutput), Error> {
        let Some(mcfg) = self.config else {
            return Ok((None, StageOutput::default()));
        };
        let small: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|(_, (shard, txs))| {
                !shard.is_max_shard() && (txs.len() as u64) < mcfg.lower_bound
            })
            .map(|(i, _)| i)
            .collect();
        let sizes_of = |members: &[usize]| -> Vec<(ShardId, u64)> {
            members
                .iter()
                .map(|&i| (groups[i].0, groups[i].1.len() as u64))
                .collect()
        };
        let shard_sizes = sizes_of(&small);
        let miners: Vec<MinerId> = (0..u32::try_from(groups.len()).unwrap_or(u32::MAX))
            .map(MinerId::new)
            .collect();
        let params = UnifiedParameters::from_randomness(
            randomness,
            miners.clone(),
            GameInputs::Merge {
                shard_sizes: shard_sizes.clone(),
                config: mcfg,
            },
        );
        params.record_communication(comm);
        let digest = params.digest();
        // Where each small shard id currently sits in `groups`.
        let pos: BTreeMap<ShardId, usize> = small.iter().map(|&i| (groups[i].0, i)).collect();
        let located = |group: &[(ShardId, u64)]| -> Vec<usize> {
            group
                .iter()
                .filter_map(|(id, _)| pos.get(id).copied())
                .collect()
        };

        let carried = self.carried.as_ref().filter(|_| self.carry);
        let mut decision = if let Some(c) = carried.filter(|c| c.digest == digest) {
            // Identical broadcast: the whole carried partition stands.
            let member_groups: Vec<Vec<usize>> = c.groups.iter().map(|g| located(g)).collect();
            Decision {
                leftover: small.len() - member_groups.iter().map(Vec::len).sum::<usize>(),
                out: StageOutput {
                    carried: member_groups.len() as u64,
                    ..StageOutput::default()
                },
                member_groups,
            }
        } else if let Some(c) = carried {
            // Changed inputs: keep every group whose members all survived
            // at their decision size, re-run the game for the rest.
            let size_of: BTreeMap<ShardId, u64> = shard_sizes.iter().copied().collect();
            let mut taken: BTreeSet<ShardId> = BTreeSet::new();
            let mut kept: Vec<Vec<usize>> = Vec::new();
            for g in &c.groups {
                let valid = !g.is_empty()
                    && g.iter()
                        .all(|(id, sz)| size_of.get(id) == Some(sz) && !taken.contains(id));
                if valid {
                    taken.extend(g.iter().map(|(id, _)| *id));
                    kept.push(located(g));
                }
            }
            let rerun: Vec<usize> = small
                .iter()
                .copied()
                .filter(|&i| !taken.contains(&groups[i].0))
                .collect();
            // Same broadcast randomness, restricted player set. The full
            // broadcast's communication is already recorded above; the
            // restricted re-run is local replay work, not a second round
            // of messages.
            let outcome = UnifiedParameters::from_randomness(
                randomness,
                miners,
                GameInputs::Merge {
                    shard_sizes: sizes_of(&rerun),
                    config: mcfg,
                },
            )
            .merge_outcome()?;
            let mut decision = Decision::computed(&outcome, &rerun);
            decision.out.carried = kept.len() as u64;
            decision.member_groups.splice(0..0, kept);
            decision
        } else {
            Decision::computed(&params.merge_outcome()?, &small)
        };

        // Snapshot the decided partition (member ids + sizes) before
        // fusion rewrites the groups.
        if self.carry {
            self.carried = Some(CarriedMerge {
                digest,
                groups: decision.member_groups.iter().map(|g| sizes_of(g)).collect(),
            });
        }

        fuse(groups, &decision.member_groups);

        let summary = MergeSummary {
            small_shards: small.len(),
            new_shards: decision.member_groups.len(),
            leftover: decision.leftover,
        };
        decision.out.items = summary.new_shards as u64;
        Ok((Some(summary), decision.out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_crypto::sha256;

    type Groups = Vec<(ShardId, Vec<u64>)>;

    /// Runs the stage over `groups`; returns the fused groups and counters.
    fn run(stage: &mut MergeStage, mut groups: Groups) -> (Groups, StageOutput) {
        let (_, out) = stage
            .run(
                &mut groups,
                sha256(9u64.to_be_bytes()),
                &mut CommStats::new(),
            )
            .expect("valid merge config");
        (groups, out)
    }

    /// Twelve small shards (sizes 3–5) plus one large shard that never
    /// enters the game; a `lower_bound` of 10 lets several groups form.
    fn small_world() -> Groups {
        let mut groups: Groups = (0..12)
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
        let mut carry = MergeStage::new(config(), true);
        let (_, o1) = run(&mut carry, small_world());
        assert!(o1.iterations > 0, "the first epoch runs the dynamics");
        assert_eq!(o1.carried, 0, "nothing to carry on first sight");

        let (g2, o2) = run(&mut carry, small_world());
        assert_eq!(o2.iterations, 0, "identical broadcast re-runs nothing");
        assert!(o2.carried > 0, "the first epoch's groups were carried");
        assert_eq!(o2.carried, o2.items, "the whole partition is carried");

        let mut cold_stage = MergeStage::new(config(), false);
        let (gc, oc) = run(&mut cold_stage, small_world());
        assert_eq!(g2, gc, "carried fusion is bit-identical");
        assert_eq!(o2.items, oc.items);
    }

    #[test]
    fn changed_shard_keeps_valid_groups_and_reruns_only_the_rest() {
        let mut carry = MergeStage::new(config(), true);
        let (_, o1) = run(&mut carry, small_world());
        assert!(o1.items >= 2, "the world must form several groups");

        // Grow one small shard by a transaction: only groups containing
        // it go invalid; everything else stands at its decision size.
        let mut grown = small_world();
        grown[0].1.push(7);
        let (_, o2) = run(&mut carry, grown.clone());

        let mut cold_stage = MergeStage::new(config(), false);
        let (_, oc) = run(&mut cold_stage, grown);

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
        let mut carry = MergeStage::new(config(), true);
        run(&mut carry, small_world());

        // Grow every small shard: no carried group survives validation,
        // so the re-run covers the full player set under the same
        // broadcast randomness — bit-identical to a cold recompute.
        let mut grown = small_world();
        for (id, queue) in grown.iter_mut() {
            if !id.is_max_shard() && queue.len() < 10 {
                queue.push(3);
            }
        }
        let (g2, o2) = run(&mut carry, grown.clone());

        let mut cold_stage = MergeStage::new(config(), false);
        let (gc, oc) = run(&mut cold_stage, grown);

        assert_eq!(o2.carried, 0, "no group survives a global size drift");
        assert_eq!(o2.iterations, oc.iterations);
        assert_eq!(g2, gc, "full re-run is bit-identical");
    }
}
