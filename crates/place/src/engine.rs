//! Hot-account tracking and migration proposals.

use cshard_primitives::{Address, AddressSlots, ContractId};

use crate::config::PlacementConfig;

/// A migration-eligible sender: the contract that dominates its observed
/// traffic and how many calls back the decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotAccount {
    /// The sender to move.
    pub account: Address,
    /// The contract whose home shard the sender should move to.
    pub contract: ContractId,
    /// Observed calls from the sender to that contract.
    pub txs: u64,
}

/// One sender's observed MaxShard-routed calls.
#[derive(Clone, Debug)]
struct Traffic {
    account: Address,
    /// Calls per contract, in first-called order: a handful of entries.
    calls: Vec<(ContractId, u64)>,
    /// Already proposed for migration.
    moved: bool,
}

/// Persistent placement state, carried across epochs.
///
/// The engine sees only what the classify stage routes to the MaxShard:
/// a sender whose contract calls land on a contract shard already sits
/// where its traffic is. Counters accumulate across epochs so a sender
/// slowly concentrating on one contract eventually crosses the dominance
/// threshold, and an account is proposed at most once — after a move its
/// calls are no longer MaxShard traffic, and the `moved` flag keeps
/// re-proposals out even if stale observations linger.
#[derive(Clone, Debug, Default)]
pub struct PlacementEngine {
    config: PlacementConfig,
    /// Per-sender traffic, in first-seen order.
    traffic: AddressSlots<Traffic>,
}

impl PlacementEngine {
    /// A fresh engine with the given knobs.
    pub fn new(config: PlacementConfig) -> Self {
        PlacementEngine {
            config,
            ..PlacementEngine::default()
        }
    }

    /// The knobs the engine was built with.
    pub fn config(&self) -> &PlacementConfig {
        &self.config
    }

    /// Records one MaxShard-routed contract call.
    pub fn observe(&mut self, sender: Address, contract: ContractId) {
        let traffic = self.traffic.entry(sender, || Traffic {
            account: sender,
            calls: Vec::new(),
            moved: false,
        });
        let calls = &mut traffic.calls;
        match calls.iter_mut().find(|(c, _)| *c == contract) {
            Some((_, txs)) => *txs += 1,
            None => calls.push((contract, 1)),
        }
    }

    /// Number of distinct senders observed so far.
    pub fn tracked_senders(&self) -> usize {
        self.traffic.len()
    }

    /// Proposes up to `max_moves_per_epoch` hot accounts, hottest first
    /// (ties broken by address). A sender qualifies when it has at least
    /// `min_account_txs` observed calls and one contract holds at least
    /// `min_dominance_percent` of them. Proposed accounts are marked
    /// moved and never proposed again.
    pub fn propose(&mut self) -> Vec<HotAccount> {
        if !self.config.enabled || self.config.max_moves_per_epoch == 0 {
            return Vec::new();
        }
        // Slot order is first-seen order; the sort below fixes the
        // proposal order whatever order the scan visits senders in.
        let mut candidates: Vec<(usize, HotAccount)> = Vec::new();
        for (slot, sender) in self.traffic.values().iter().enumerate() {
            if sender.moved {
                continue;
            }
            let total: u64 = sender.calls.iter().map(|&(_, txs)| txs).sum();
            if total < self.config.min_account_txs {
                continue;
            }
            // The smallest dominant contract on a tie.
            let Some(&(contract, txs)) = sender
                .calls
                .iter()
                .min_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)))
            else {
                continue;
            };
            if txs * 100 >= total * u64::from(self.config.min_dominance_percent) {
                let hot = HotAccount {
                    account: sender.account,
                    contract,
                    txs,
                };
                candidates.push((slot, hot));
            }
        }
        candidates.sort_by(|(_, a), (_, b)| b.txs.cmp(&a.txs).then(a.account.cmp(&b.account)));
        candidates.truncate(self.config.max_moves_per_epoch);
        for &(slot, _) in &candidates {
            self.traffic.values_mut()[slot].moved = true;
        }
        candidates.into_iter().map(|(_, hot)| hot).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accounts proposed for migration over the engine's life.
    fn moved(e: &PlacementEngine) -> usize {
        e.traffic.values().iter().filter(|t| t.moved).count()
    }

    fn addr(n: u8) -> Address {
        Address([n; 20])
    }

    fn engine() -> PlacementEngine {
        PlacementEngine::new(PlacementConfig::engaged())
    }

    #[test]
    fn dominant_sender_is_proposed_once() {
        let mut e = engine();
        for _ in 0..5 {
            e.observe(addr(1), ContractId::new(2));
        }
        e.observe(addr(1), ContractId::new(3));
        let first = e.propose();
        assert_eq!(
            first,
            vec![HotAccount {
                account: addr(1),
                contract: ContractId::new(2),
                txs: 5
            }]
        );
        // Same traffic, second epoch: already moved, nothing proposed.
        assert!(e.propose().is_empty());
        assert_eq!(moved(&e), 1);
    }

    #[test]
    fn non_dominant_or_cold_senders_are_skipped() {
        let mut e = engine();
        // 50/50 split: below the 60% dominance bar.
        for _ in 0..4 {
            e.observe(addr(1), ContractId::new(0));
            e.observe(addr(1), ContractId::new(1));
        }
        // Dominant but only 2 calls: below min_account_txs = 4.
        e.observe(addr(2), ContractId::new(0));
        e.observe(addr(2), ContractId::new(0));
        assert!(e.propose().is_empty());
        // Two more calls push the cold sender over the activity bar.
        e.observe(addr(2), ContractId::new(0));
        e.observe(addr(2), ContractId::new(0));
        assert_eq!(e.propose().len(), 1);
    }

    #[test]
    fn proposals_rank_by_traffic_then_address_and_respect_the_cap() {
        let mut e = PlacementEngine::new(PlacementConfig {
            max_moves_per_epoch: 2,
            ..PlacementConfig::engaged()
        });
        for _ in 0..4 {
            e.observe(addr(9), ContractId::new(0));
            e.observe(addr(3), ContractId::new(1));
        }
        for _ in 0..7 {
            e.observe(addr(5), ContractId::new(2));
        }
        let hot = e.propose();
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].account, addr(5));
        // addr(3) and addr(9) tie on traffic; the smaller address wins.
        assert_eq!(hot[1].account, addr(3));
        // The loser stays eligible for the next epoch.
        assert_eq!(
            e.propose(),
            vec![HotAccount {
                account: addr(9),
                contract: ContractId::new(0),
                txs: 4
            }]
        );
    }

    #[test]
    fn tied_contracts_resolve_to_the_smallest_id_whatever_the_call_order() {
        for order in [[7, 2], [2, 7]] {
            let mut e = PlacementEngine::new(PlacementConfig {
                min_dominance_percent: 50,
                ..PlacementConfig::engaged()
            });
            for _ in 0..3 {
                e.observe(addr(1), ContractId::new(order[0]));
                e.observe(addr(1), ContractId::new(order[1]));
            }
            let hot = e.propose();
            assert_eq!(hot.len(), 1, "{order:?}");
            assert_eq!(hot[0].contract, ContractId::new(2), "{order:?}");
            assert_eq!(hot[0].txs, 3);
        }
    }

    #[test]
    fn disabled_or_zero_cap_engines_propose_nothing() {
        for config in [
            PlacementConfig::disabled(),
            PlacementConfig {
                max_moves_per_epoch: 0,
                ..PlacementConfig::engaged()
            },
        ] {
            let mut e = PlacementEngine::new(config);
            for _ in 0..10 {
                e.observe(addr(1), ContractId::new(0));
            }
            assert!(e.propose().is_empty());
            assert_eq!(moved(&e), 0);
        }
    }
}
