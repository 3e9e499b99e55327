//! A per-shard ledger: block storage, validation and longest-chain fork
//! choice.
//!
//! Every miner in a shard maintains one of these ("blocks are recorded by
//! all the miners locally in the form of linked lists, called ledgers",
//! Sec. II-A). The chain owns the shard's world state at its canonical tip
//! and re-derives states on forks.

use crate::block::Block;
use crate::error::LedgerError;
use crate::state::State;
use cshard_primitives::{BlockHeight, Hash32, ShardId, TxId};
use std::collections::{BTreeMap, BTreeSet};

/// A shard-local blockchain.
#[derive(Clone, Debug)]
pub struct Chain {
    shard: ShardId,
    /// Required PoW difficulty for every non-genesis block.
    difficulty_bits: u32,
    genesis_hash: Hash32,
    genesis_state: State,
    blocks: BTreeMap<Hash32, Block>,
    heights: BTreeMap<Hash32, BlockHeight>,
    tip: Hash32,
    /// World state at the canonical tip (cached).
    tip_state: State,
}

impl Chain {
    /// Creates a chain for `shard` rooted at an implicit genesis "block"
    /// with hash `Hash32::ZERO`, height 0 and the given genesis state.
    pub fn new(shard: ShardId, difficulty_bits: u32, genesis_state: State) -> Self {
        let mut heights = BTreeMap::new();
        heights.insert(Hash32::ZERO, 0);
        Chain {
            shard,
            difficulty_bits,
            genesis_hash: Hash32::ZERO,
            tip: Hash32::ZERO,
            tip_state: genesis_state.clone(),
            genesis_state,
            blocks: BTreeMap::new(),
            heights,
        }
    }

    /// The shard this chain belongs to.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// The canonical tip hash (genesis = `Hash32::ZERO`).
    pub fn tip(&self) -> Hash32 {
        self.tip
    }

    /// Height of the canonical tip.
    pub fn height(&self) -> BlockHeight {
        self.heights[&self.tip]
    }

    /// The world state at the canonical tip.
    pub fn state(&self) -> &State {
        &self.tip_state
    }

    /// Number of stored blocks (across all branches, genesis excluded).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Looks up a stored block.
    pub fn block(&self, hash: &Hash32) -> Option<&Block> {
        self.blocks.get(hash)
    }

    /// Validates and stores a block; adopts it as the new tip when it
    /// extends the longest chain (ties keep the current tip — first seen
    /// wins, the standard rule).
    ///
    /// Checks, in order: duplicate, shard id, parent known, height,
    /// difficulty claim, PoW, Merkle root, and full transaction validity
    /// against the parent state. A rejected block leaves the chain as it
    /// was.
    pub fn accept_block(&mut self, block: Block) -> Result<(), LedgerError> {
        let hash = block.hash();
        if self.blocks.contains_key(&hash) {
            return Err(LedgerError::DuplicateBlock(hash));
        }
        // A block for another shard is simply not ours to record.
        if block.header.shard != self.shard {
            return Err(LedgerError::WrongShard {
                got: block.header.shard,
                expected: self.shard,
            });
        }
        let parent = block.header.parent;
        let parent_height = *self
            .heights
            .get(&parent)
            .ok_or(LedgerError::UnknownParent(parent))?;
        let expected = parent_height + 1;
        if block.header.height != expected {
            return Err(LedgerError::BadHeight {
                got: block.header.height,
                expected,
            });
        }
        if block.header.difficulty_bits != self.difficulty_bits {
            return Err(LedgerError::WrongDifficulty {
                got: block.header.difficulty_bits,
                expected: self.difficulty_bits,
            });
        }
        if !hash.meets_difficulty(self.difficulty_bits) {
            return Err(LedgerError::InsufficientWork {
                required_bits: self.difficulty_bits,
                got_bits: hash.leading_zero_bits(),
            });
        }
        // State transition: apply onto the parent's state.
        let mut state = self.state_at(parent);
        state.apply_block(&block)?; // checks root, duplicates, txs

        self.heights.insert(hash, expected);
        self.blocks.insert(hash, block);
        if expected > self.height() {
            self.tip = hash;
            self.tip_state = state;
        }
        Ok(())
    }

    /// Recomputes the world state at an arbitrary stored block by replaying
    /// the branch from genesis. The canonical tip is served from cache.
    pub fn state_at(&self, hash: Hash32) -> State {
        if hash == self.tip {
            return self.tip_state.clone();
        }
        if hash == self.genesis_hash {
            return self.genesis_state.clone();
        }
        // Walk back to genesis collecting the branch…
        let mut branch = Vec::new();
        let mut cursor = hash;
        while cursor != self.genesis_hash {
            let block = self.blocks.get(&cursor).expect("state_at of unknown block");
            branch.push(cursor);
            cursor = block.header.parent;
        }
        // …then replay forward.
        let mut state = self.genesis_state.clone();
        for h in branch.iter().rev() {
            state
                .apply_block(&self.blocks[h])
                .expect("stored blocks were validated on acceptance");
        }
        state
    }

    /// The canonical chain's blocks, genesis-exclusive, oldest first.
    pub fn canonical_blocks(&self) -> Vec<&Block> {
        let mut branch = Vec::new();
        let mut cursor = self.tip;
        while cursor != self.genesis_hash {
            let block = &self.blocks[&cursor];
            branch.push(block);
            cursor = block.header.parent;
        }
        branch.reverse();
        branch
    }

    /// Ids of every transaction confirmed on the canonical chain.
    pub fn confirmed_tx_ids(&self) -> BTreeSet<TxId> {
        self.canonical_blocks()
            .iter()
            .flat_map(|b| b.transactions.iter().map(|t| t.id()))
            .collect()
    }

    /// Number of empty blocks on the canonical chain — the waste metric the
    /// merging algorithm targets.
    pub fn empty_block_count(&self) -> usize {
        self.canonical_blocks()
            .iter()
            .filter(|b| b.is_empty())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::SmartContract;
    use crate::transaction::Transaction;
    use cshard_primitives::{Address, Amount, ContractId, MinerId, SimTime};

    fn genesis_state() -> State {
        let mut s = State::new();
        for u in 0..10 {
            s.fund_user(Address::user(u), Amount::from_coins(100));
        }
        s.register_contract(SmartContract::unconditional(
            ContractId::new(0),
            Address::user(99),
        ));
        s
    }

    fn chain() -> Chain {
        Chain::new(ShardId::new(0), 0, genesis_state())
    }

    fn tx(user: u64, nonce: u64, fee: u64) -> Transaction {
        Transaction::call(
            Address::user(user),
            nonce,
            ContractId::new(0),
            Amount::from_coins(1),
            Amount::from_raw(fee),
        )
    }

    fn make_block(parent: Hash32, height: u64, miner: u32, txs: Vec<Transaction>) -> Block {
        Block::assemble(
            parent,
            height,
            ShardId::new(0),
            MinerId::new(miner),
            SimTime::from_secs(height * 60),
            0,
            txs,
        )
    }

    #[test]
    fn extends_and_updates_tip() {
        let mut c = chain();
        let b1 = make_block(Hash32::ZERO, 1, 0, vec![tx(1, 0, 10)]);
        let h1 = b1.hash();
        c.accept_block(b1).unwrap();
        assert_eq!(c.tip(), h1);
        assert_eq!(c.height(), 1);
        assert_eq!(c.state().nonce_of(Address::user(1)), 1);

        let b2 = make_block(h1, 2, 1, vec![tx(2, 0, 10)]);
        let h2 = b2.hash();
        c.accept_block(b2).unwrap();
        assert_eq!(c.tip(), h2);
        assert_eq!(c.height(), 2);
        assert_eq!(c.confirmed_tx_ids().len(), 2);
    }

    #[test]
    fn rejects_unknown_parent_and_bad_height() {
        let mut c = chain();
        let orphan = make_block(cshard_crypto::sha256(b"nope"), 1, 0, vec![]);
        assert!(matches!(
            c.accept_block(orphan).unwrap_err(),
            LedgerError::UnknownParent(_)
        ));
        let wrong_height = make_block(Hash32::ZERO, 5, 0, vec![]);
        assert_eq!(
            c.accept_block(wrong_height).unwrap_err(),
            LedgerError::BadHeight {
                got: 5,
                expected: 1
            }
        );
    }

    #[test]
    fn rejects_duplicate_block() {
        let mut c = chain();
        let b = make_block(Hash32::ZERO, 1, 0, vec![]);
        c.accept_block(b.clone()).unwrap();
        assert!(matches!(
            c.accept_block(b).unwrap_err(),
            LedgerError::DuplicateBlock(_)
        ));
    }

    #[test]
    fn rejects_invalid_transactions_in_block() {
        let mut c = chain();
        // Nonce 3 is wrong for a fresh account.
        let b = make_block(Hash32::ZERO, 1, 0, vec![tx(1, 3, 10)]);
        assert!(matches!(
            c.accept_block(b).unwrap_err(),
            LedgerError::BadNonce { .. }
        ));
        assert_eq!(c.height(), 0);
    }

    #[test]
    fn pow_difficulty_is_enforced() {
        let mut c = Chain::new(ShardId::new(0), 16, genesis_state());
        let mut b = make_block(Hash32::ZERO, 1, 0, vec![]);
        b.header.difficulty_bits = 16;
        // Nonce 0 almost surely fails 16 bits.
        assert!(matches!(
            c.accept_block(b).unwrap_err(),
            LedgerError::InsufficientWork {
                required_bits: 16,
                ..
            }
        ));
    }

    #[test]
    fn foreign_shard_and_wrong_difficulty_claim_are_typed_errors() {
        let mut c = Chain::new(ShardId::new(0), 8, genesis_state());
        let mut foreign = make_block(Hash32::ZERO, 1, 0, vec![]);
        foreign.header.shard = ShardId::new(3);
        foreign.header.difficulty_bits = 8;
        foreign.header.mine().unwrap();
        assert_eq!(
            c.accept_block(foreign).unwrap_err(),
            LedgerError::WrongShard {
                got: ShardId::new(3),
                expected: ShardId::new(0)
            }
        );
        // A 4-bit claim is rejected even when the hash also meets the
        // chain's 8 bits: a header may not under-claim its difficulty.
        let mut under = make_block(Hash32::ZERO, 1, 0, vec![]);
        under.header.difficulty_bits = 4;
        while !under.header.mine().unwrap().meets_difficulty(8) {
            under.header.pow_nonce += 1;
        }
        assert_eq!(
            c.accept_block(under).unwrap_err(),
            LedgerError::WrongDifficulty {
                got: 4,
                expected: 8
            }
        );
        assert_eq!((c.height(), c.block_count()), (0, 0));
    }

    #[test]
    fn fork_choice_prefers_longer_branch_first_seen_on_tie() {
        let mut c = chain();
        let a1 = make_block(Hash32::ZERO, 1, 0, vec![tx(1, 0, 10)]);
        let a1h = a1.hash();
        c.accept_block(a1).unwrap();

        // Competing branch at the same height: tip unchanged.
        let b1 = make_block(Hash32::ZERO, 1, 1, vec![tx(2, 0, 10)]);
        let b1h = b1.hash();
        c.accept_block(b1).unwrap();
        assert_eq!(c.tip(), a1h, "tie keeps first-seen tip");

        // Extend the competing branch: reorg.
        let b2 = make_block(b1h, 2, 1, vec![tx(3, 0, 10)]);
        let b2h = b2.hash();
        c.accept_block(b2).unwrap();
        assert_eq!(c.tip(), b2h);
        // After the reorg, user 1's tx is no longer confirmed.
        let confirmed = c.confirmed_tx_ids();
        assert!(confirmed.contains(&tx(2, 0, 10).id()));
        assert!(confirmed.contains(&tx(3, 0, 10).id()));
        assert!(!confirmed.contains(&tx(1, 0, 10).id()));
        assert_eq!(c.state().nonce_of(Address::user(1)), 0);
        assert_eq!(c.state().nonce_of(Address::user(2)), 1);
    }

    #[test]
    fn conflicting_spend_is_valid_on_its_own_fork_only() {
        // The same nonce-0 tx on two forks is fine; within one branch the
        // second would be a replay. This is the shard-consistency property.
        let mut c = chain();
        let t = tx(1, 0, 10);
        let a1 = make_block(Hash32::ZERO, 1, 0, vec![t.clone()]);
        let a1h = a1.hash();
        c.accept_block(a1).unwrap();
        let b1 = make_block(Hash32::ZERO, 1, 1, vec![t.clone()]);
        c.accept_block(b1).unwrap();
        // Replay on top of branch A is rejected.
        let a2 = make_block(a1h, 2, 0, vec![t]);
        assert!(matches!(
            c.accept_block(a2).unwrap_err(),
            LedgerError::BadNonce { .. }
        ));
    }

    #[test]
    fn empty_block_counting() {
        let mut c = chain();
        let b1 = make_block(Hash32::ZERO, 1, 0, vec![]);
        let h1 = b1.hash();
        c.accept_block(b1).unwrap();
        let b2 = make_block(h1, 2, 0, vec![tx(1, 0, 5)]);
        let h2 = b2.hash();
        c.accept_block(b2).unwrap();
        let b3 = make_block(h2, 3, 0, vec![]);
        c.accept_block(b3).unwrap();
        assert_eq!(c.empty_block_count(), 2);
        assert_eq!(c.block_count(), 3);
    }

    #[test]
    fn state_at_replays_branches() {
        let mut c = chain();
        let b1 = make_block(Hash32::ZERO, 1, 0, vec![tx(1, 0, 10)]);
        let h1 = b1.hash();
        c.accept_block(b1).unwrap();
        let b2 = make_block(h1, 2, 0, vec![tx(1, 1, 10)]);
        let h2 = b2.hash();
        c.accept_block(b2).unwrap();
        assert_eq!(c.state_at(h1).nonce_of(Address::user(1)), 1);
        assert_eq!(c.state_at(h2).nonce_of(Address::user(1)), 2);
        assert_eq!(c.state_at(Hash32::ZERO).nonce_of(Address::user(1)), 0);
    }
}
