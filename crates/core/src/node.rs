//! A full miner node over the real substrates (Sec. III-C's workflow).
//!
//! Where `cshard_runtime` is the statistical model used by the large
//! evaluation runs, `Node` is the real thing in miniature: it keeps an
//! actual [`Chain`] (with state validation), a [`Mempool`], a local
//! [`CallGraph`], mines blocks with genuine SHA-256 PoW, and performs both
//! receiver-side checks of Sec. III-C:
//!
//! 1. the packer really belongs to the ShardID in the header (via the
//!    miner-assignment randomness), and
//! 2. the block's shard is the receiver's own — otherwise it is simply not
//!    recorded.
//!
//! Examples and integration tests drive networks of these nodes.

use crate::assignment::MinerAssignment;
use cshard_crypto::{Vrf, VrfPublicKey};
use cshard_ledger::{Block, CallGraph, Chain, LedgerError, Mempool, State, Transaction};
use cshard_primitives::{MinerId, ShardId, SimTime};
use std::collections::BTreeMap;

/// Why a node rejected an incoming block or transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeError {
    /// The packer's public key is not in the epoch roster.
    UnknownPacker(MinerId),
    /// The packer does not belong to the shard claimed in the header —
    /// "if Y cheats on her shard, X will find that and reject the block".
    ShardClaimMismatch {
        /// The lying miner.
        packer: MinerId,
        /// The shard the header claimed.
        claimed: ShardId,
    },
    /// The block belongs to a different shard than this node's; not an
    /// attack, just not ours to record.
    NotOurShard(ShardId),
    /// The transaction does not belong to this node's shard.
    TxNotOurShard,
    /// The PoW search exhausted its iteration budget without finding a
    /// nonce — the difficulty is set beyond what the node can mine.
    PowExhausted {
        /// The difficulty the block asked for.
        difficulty_bits: u32,
    },
    /// The underlying ledger rejected the block.
    Ledger(LedgerError),
}

impl From<LedgerError> for NodeError {
    fn from(e: LedgerError) -> Self {
        NodeError::Ledger(e)
    }
}

/// A miner node of one shard.
pub struct Node {
    id: MinerId,
    vrf: Vrf,
    shard: ShardId,
    chain: Chain,
    mempool: Mempool,
    callgraph: CallGraph,
    assignment: MinerAssignment,
    /// Epoch roster: who owns which key (public information).
    roster: BTreeMap<MinerId, VrfPublicKey>,
    difficulty_bits: u32,
    block_capacity: usize,
}

impl Node {
    /// Creates a node for `shard`.
    ///
    /// # Panics
    /// Panics if the assignment rule does not actually place this node's
    /// key in `shard` — an honest node never claims a foreign shard.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: MinerId,
        vrf: Vrf,
        shard: ShardId,
        genesis: State,
        assignment: MinerAssignment,
        roster: BTreeMap<MinerId, VrfPublicKey>,
        difficulty_bits: u32,
        block_capacity: usize,
    ) -> Self {
        assert!(
            assignment.verify_claim(vrf.public_key(), shard),
            "node constructed for a shard it is not assigned to"
        );
        assert!(block_capacity > 0);
        Node {
            id,
            vrf,
            shard,
            chain: Chain::new(shard, difficulty_bits, genesis),
            mempool: Mempool::new(),
            callgraph: CallGraph::new(),
            assignment,
            roster,
            difficulty_bits,
            block_capacity,
        }
    }

    /// This node's miner id.
    pub fn id(&self) -> MinerId {
        self.id
    }

    /// This node's shard.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// This node's public key.
    pub fn public_key(&self) -> VrfPublicKey {
        self.vrf.public_key()
    }

    /// The node's chain (read access for assertions and inspection).
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Pending transactions.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Handles a broadcast transaction: the node first "figures out whether
    /// the sender of that transaction is only involved in the current
    /// shard" (via its local call graph) and only pools transactions of its
    /// own shard. MaxShard nodes take everything that is not isolable.
    pub fn submit_transaction(&mut self, tx: Transaction) -> Result<(), NodeError> {
        self.callgraph.observe(&tx);
        let home = match self.callgraph.isolable_contract(&tx) {
            Some(c) => crate::formation::ShardPlan::shard_for_contract(c),
            None => ShardId::MAX_SHARD,
        };
        if home != self.shard {
            return Err(NodeError::TxNotOurShard);
        }
        self.mempool.insert(tx);
        Ok(())
    }

    /// Mines one block: greedy fee selection from the mempool, sequential
    /// validation against the tip state, real PoW search. Returns the block
    /// (possibly empty — block rewards make empty blocks worthwhile,
    /// Sec. III-D), or [`NodeError::PowExhausted`] when the difficulty is
    /// set beyond the search's iteration budget.
    pub fn mine_block(&mut self, timestamp: SimTime) -> Result<Block, NodeError> {
        // Greedy selection, dropping anything that no longer validates in
        // sequence (e.g. a second spend racing the first).
        let mut state = self.chain.state().clone();
        let coinbase = cshard_primitives::Address::miner(self.id.0 as u64);
        let mut chosen = Vec::with_capacity(self.block_capacity);
        for tx in self.mempool.sorted_by_fee() {
            if chosen.len() >= self.block_capacity {
                break;
            }
            if state.apply_transaction(tx, coinbase).is_ok() {
                chosen.push(tx.clone());
            }
        }
        let mut block = Block::assemble(
            self.chain.tip(),
            self.chain.height() + 1,
            self.shard,
            self.id,
            timestamp,
            self.difficulty_bits,
            chosen,
        );
        if block.header.mine().is_none() {
            return Err(NodeError::PowExhausted {
                difficulty_bits: self.difficulty_bits,
            });
        }
        Ok(block)
    }

    /// Receives a block from the network, performing the two Sec. III-C
    /// verifications before recording it.
    pub fn receive_block(&mut self, block: Block) -> Result<(), NodeError> {
        let packer = block.header.miner;
        let pk = *self
            .roster
            .get(&packer)
            .ok_or(NodeError::UnknownPacker(packer))?;
        // Check 1: does the packer really belong to the claimed shard?
        if !self.assignment.verify_claim(pk, block.header.shard) {
            return Err(NodeError::ShardClaimMismatch {
                packer,
                claimed: block.header.shard,
            });
        }
        // Check 2: is it our shard's block at all?
        if block.header.shard != self.shard {
            return Err(NodeError::NotOurShard(block.header.shard));
        }
        let ids: Vec<_> = block.transactions.iter().map(|t| t.id()).collect();
        self.chain.accept_block(block)?;
        self.mempool.remove_all(ids.iter());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_crypto::sha256;
    use cshard_ledger::SmartContract;
    use cshard_primitives::{Address, Amount, ContractId};

    const BITS: u32 = 8; // fast test PoW

    struct Net {
        nodes: Vec<Node>,
    }

    /// Builds one node per shard over `shards` contract shards, with an
    /// assignment rule that actually maps each node's key to its shard.
    fn build_net(shards: u32) -> Net {
        let mut genesis = State::new();
        for u in 0..64 {
            genesis.fund_user(Address::user(u), Amount::from_coins(100));
        }
        for c in 0..shards {
            genesis.register_contract(SmartContract::unconditional(
                ContractId::new(c),
                Address::user(1000 + c as u64),
            ));
        }
        for c in 0..shards {
            genesis.fund_user(Address::user(1000 + c as u64), Amount::ZERO);
        }

        // Even fractions over the contract shards plus MaxShard.
        let groups = shards + 1;
        let base = 100 / groups;
        let extra = 100 % groups;
        let mut fractions: Vec<(ShardId, u32)> = (0..shards)
            .map(|i| (ShardId::new(i), base + u32::from(i < extra)))
            .collect();
        fractions.push((ShardId::MAX_SHARD, base + u32::from(shards < extra)));
        let assignment =
            MinerAssignment::new(sha256(b"node-test-epoch"), &fractions).expect("sums to 100");

        // Find, for every shard, a key the rule assigns there.
        let mut roster: BTreeMap<MinerId, VrfPublicKey> = BTreeMap::new();
        let mut vrfs: Vec<(ShardId, Vrf)> = Vec::new();
        let mut want: Vec<ShardId> = (0..shards).map(ShardId::new).collect();
        want.push(ShardId::MAX_SHARD);
        let mut seed = 0u64;
        for (i, target) in want.iter().enumerate() {
            loop {
                let vrf = Vrf::from_seed(seed.to_be_bytes());
                seed += 1;
                if assignment.shard_of(vrf.public_key()) == *target {
                    roster.insert(MinerId::new(i as u32), vrf.public_key());
                    vrfs.push((*target, vrf));
                    break;
                }
            }
        }
        let nodes = vrfs
            .into_iter()
            .enumerate()
            .map(|(i, (shard, vrf))| {
                Node::new(
                    MinerId::new(i as u32),
                    vrf,
                    shard,
                    genesis.clone(),
                    assignment.clone(),
                    roster.clone(),
                    BITS,
                    10,
                )
            })
            .collect();
        Net { nodes }
    }

    fn call_tx(user: u64, contract: u32, fee: u64) -> Transaction {
        Transaction::call(
            Address::user(user),
            0,
            ContractId::new(contract),
            Amount::from_coins(1),
            Amount::from_raw(fee),
        )
    }

    #[test]
    fn transactions_route_to_their_shard_only() {
        let mut net = build_net(2);
        let tx = call_tx(1, 0, 5);
        // Shard 0's node pools it; shard 1 and MaxShard nodes refuse.
        assert_eq!(net.nodes[0].submit_transaction(tx.clone()), Ok(()));
        assert_eq!(
            net.nodes[1].submit_transaction(tx.clone()),
            Err(NodeError::TxNotOurShard)
        );
        assert_eq!(
            net.nodes[2].submit_transaction(tx),
            Err(NodeError::TxNotOurShard)
        );
        // A direct transfer goes to the MaxShard node only.
        let direct = Transaction::direct(
            Address::user(2),
            0,
            Address::user(3),
            Amount::from_coins(1),
            Amount::from_raw(1),
        );
        assert_eq!(
            net.nodes[0].submit_transaction(direct.clone()),
            Err(NodeError::TxNotOurShard)
        );
        assert_eq!(net.nodes[2].submit_transaction(direct), Ok(()));
    }

    #[test]
    fn mine_and_accept_with_real_pow() {
        let mut net = build_net(1);
        net.nodes[0].submit_transaction(call_tx(1, 0, 5)).unwrap();
        net.nodes[0].submit_transaction(call_tx(2, 0, 9)).unwrap();
        let block = net.nodes[0]
            .mine_block(SimTime::from_secs(60))
            .expect("test-scale difficulty");
        assert_eq!(block.transactions.len(), 2);
        assert!(block.header.has_valid_pow());
        // Highest fee first (greedy order).
        assert_eq!(block.transactions[0].fee, Amount::from_raw(9));

        // The same-shard node is the miner itself here; accept updates the
        // chain and drains the mempool.
        net.nodes[0].receive_block(block).unwrap();
        assert_eq!(net.nodes[0].chain().height(), 1);
        assert_eq!(net.nodes[0].mempool_len(), 0);
    }

    #[test]
    fn foreign_shard_blocks_are_not_recorded() {
        let mut net = build_net(2);
        net.nodes[0].submit_transaction(call_tx(1, 0, 5)).unwrap();
        let block = net.nodes[0]
            .mine_block(SimTime::from_secs(60))
            .expect("test-scale difficulty");
        let err = net.nodes[1].receive_block(block).unwrap_err();
        assert_eq!(err, NodeError::NotOurShard(net.nodes[0].shard()));
        assert_eq!(net.nodes[1].chain().height(), 0);
    }

    #[test]
    fn shard_id_cheating_is_detected() {
        // Node 0 (shard 0) forges a block claiming node 1's shard. Every
        // receiver can tell from the assignment rule that the packer does
        // not belong there.
        let mut net = build_net(2);
        net.nodes[0].submit_transaction(call_tx(1, 0, 5)).unwrap();
        let mut block = net.nodes[0]
            .mine_block(SimTime::from_secs(60))
            .expect("test-scale difficulty");
        let victim_shard = net.nodes[1].shard();
        block.header.shard = victim_shard;
        block.header.mine(); // re-grind after tampering
        let err = net.nodes[1].receive_block(block).unwrap_err();
        assert_eq!(
            err,
            NodeError::ShardClaimMismatch {
                packer: MinerId::new(0),
                claimed: victim_shard
            }
        );
    }

    #[test]
    fn unknown_packer_rejected() {
        let mut net = build_net(1);
        let mut block = net.nodes[0]
            .mine_block(SimTime::from_secs(60))
            .expect("test-scale difficulty");
        block.header.miner = MinerId::new(99);
        block.header.mine();
        assert_eq!(
            net.nodes[0].receive_block(block).unwrap_err(),
            NodeError::UnknownPacker(MinerId::new(99))
        );
    }

    #[test]
    fn empty_block_is_minable_and_acceptable() {
        let mut net = build_net(1);
        let block = net.nodes[0]
            .mine_block(SimTime::from_secs(60))
            .expect("test-scale difficulty");
        assert!(block.is_empty());
        net.nodes[0].receive_block(block).unwrap();
        assert_eq!(net.nodes[0].chain().height(), 1);
        assert_eq!(net.nodes[0].chain().empty_block_count(), 1);
    }

    #[test]
    fn invalid_ledger_blocks_surface_ledger_errors() {
        let mut net = build_net(1);
        let mut block = net.nodes[0]
            .mine_block(SimTime::from_secs(60))
            .expect("test-scale difficulty");
        block.header.height = 5; // breaks linkage
        block.header.mine();
        assert!(matches!(
            net.nodes[0].receive_block(block).unwrap_err(),
            NodeError::Ledger(LedgerError::BadHeight { .. })
        ));
    }

    #[test]
    fn conflicting_spends_leave_only_one_in_a_block() {
        let mut net = build_net(1);
        // Two spends from the same user with the same nonce: greedy mining
        // validates sequentially and keeps only the first that applies.
        let a = call_tx(1, 0, 9);
        let mut b = call_tx(1, 0, 5);
        b.kind = cshard_ledger::TxKind::ContractCall {
            contract: ContractId::new(0),
            value: Amount::from_coins(2),
        };
        net.nodes[0].submit_transaction(a).unwrap();
        net.nodes[0].submit_transaction(b).unwrap();
        let block = net.nodes[0]
            .mine_block(SimTime::from_secs(60))
            .expect("test-scale difficulty");
        assert_eq!(block.transactions.len(), 1, "double spend filtered");
        assert_eq!(block.transactions[0].fee, Amount::from_raw(9));
    }
}
