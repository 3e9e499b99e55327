//! Blocks and block headers.
//!
//! Headers carry the packer's `ShardId` (Sec. III-C): "a miner will generate
//! and broadcast a block whose body contains that transaction and whose
//! header contains the current ShardID", which receivers verify against the
//! miner-separation randomness before accepting the block.

use crate::merkle::merkle_root;
use crate::transaction::Transaction;
use cshard_crypto::Sha256;
use cshard_primitives::{BlockHeight, Hash32, MinerId, ShardId, SimTime};

/// Upper bound on nonce trials before [`BlockHeader::mine`] gives up. At
/// the toy difficulties used in examples/tests (≤ 20 bits) the expected
/// search is ≤ ~10⁶ trials, far under this bound; hitting it indicates a
/// misconfigured difficulty rather than bad luck.
pub const MAX_POW_ITERATIONS: u64 = 1 << 28;

/// A block header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Hash of the parent block (`Hash32::ZERO` for genesis).
    pub parent: Hash32,
    /// Height in the shard's chain (genesis = 0).
    pub height: BlockHeight,
    /// The shard this block belongs to — checked by every receiver.
    pub shard: ShardId,
    /// The miner that packed the block (coinbase for rewards).
    pub miner: MinerId,
    /// Simulated timestamp the block was found at.
    pub timestamp: SimTime,
    /// Merkle root of the body's transaction ids.
    pub tx_root: Hash32,
    /// PoW difficulty, in required leading zero bits of the block hash.
    pub difficulty_bits: u32,
    /// PoW nonce.
    pub pow_nonce: u64,
}

impl BlockHeader {
    /// The block hash: SHA-256 of the canonical header encoding.
    pub fn hash(&self) -> Hash32 {
        let mut h = Sha256::new();
        h.update(b"cshard-header-v1");
        h.update(self.parent.as_bytes());
        h.update(self.height.to_be_bytes());
        h.update(self.shard.0.to_be_bytes());
        h.update(self.miner.0.to_be_bytes());
        h.update(self.timestamp.as_millis().to_be_bytes());
        h.update(self.tx_root.as_bytes());
        h.update(self.difficulty_bits.to_be_bytes());
        h.update(self.pow_nonce.to_be_bytes());
        h.finalize()
    }

    /// True when the header's hash satisfies its own difficulty claim.
    pub fn has_valid_pow(&self) -> bool {
        self.hash().meets_difficulty(self.difficulty_bits)
    }

    /// Real Proof-of-Work: searches for a nonce making the hash meet the
    /// header's own `difficulty_bits`, starting from the current
    /// `pow_nonce` (so an interrupted search resumes). Returns the winning
    /// hash, or `None` once [`MAX_POW_ITERATIONS`] trials are exhausted.
    pub fn mine(&mut self) -> Option<Hash32> {
        let start = self.pow_nonce;
        for trial in 0..MAX_POW_ITERATIONS {
            self.pow_nonce = start.wrapping_add(trial);
            let h = self.hash();
            if h.meets_difficulty(self.difficulty_bits) {
                return Some(h);
            }
        }
        None
    }
}

/// A block: header plus the confirmed transactions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// The body.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// Assembles a block, computing the transaction Merkle root.
    ///
    /// The PoW nonce starts at zero; [`BlockHeader::mine`] searches for a
    /// satisfying nonce. `difficulty_bits = 0` makes any nonce valid,
    /// which is what the pure-simulation paths use.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        parent: Hash32,
        height: BlockHeight,
        shard: ShardId,
        miner: MinerId,
        timestamp: SimTime,
        difficulty_bits: u32,
        transactions: Vec<Transaction>,
    ) -> Self {
        let ids: Vec<Hash32> = transactions.iter().map(|t| t.id()).collect();
        Block {
            header: BlockHeader {
                parent,
                height,
                shard,
                miner,
                timestamp,
                tx_root: merkle_root(&ids),
                difficulty_bits,
                pow_nonce: 0,
            },
            transactions,
        }
    }

    /// The block hash.
    pub fn hash(&self) -> Hash32 {
        self.header.hash()
    }

    /// True when the block carries no transactions — the "empty blocks"
    /// whose count the merging algorithm minimises (Sec. III-D).
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Recomputes the body's Merkle root and compares with the header.
    pub fn tx_root_matches(&self) -> bool {
        let ids: Vec<Hash32> = self.transactions.iter().map(|t| t.id()).collect();
        merkle_root(&ids) == self.header.tx_root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_primitives::{Address, Amount, ContractId};

    fn tx(n: u64) -> Transaction {
        Transaction::call(
            Address::user(n),
            0,
            ContractId::new(0),
            Amount::from_coins(1),
            Amount::from_raw(n),
        )
    }

    fn block(txs: Vec<Transaction>) -> Block {
        Block::assemble(
            Hash32::ZERO,
            1,
            ShardId::new(0),
            MinerId::new(0),
            SimTime::from_secs(60),
            0,
            txs,
        )
    }

    #[test]
    fn assemble_commits_to_transactions() {
        let b = block(vec![tx(1), tx(2)]);
        assert!(b.tx_root_matches());
        assert!(!b.is_empty());
    }

    #[test]
    fn empty_block_has_empty_root() {
        let b = block(vec![]);
        assert!(b.is_empty());
        assert!(b.tx_root_matches());
        assert_eq!(b.header.tx_root, crate::merkle::empty_root());
    }

    #[test]
    fn tampering_with_body_breaks_root() {
        let mut b = block(vec![tx(1), tx(2)]);
        b.transactions[0] = tx(3);
        assert!(!b.tx_root_matches());
    }

    #[test]
    fn hash_depends_on_header_fields() {
        let b = block(vec![tx(1)]);
        let h0 = b.hash();

        let mut c = b.clone();
        c.header.pow_nonce = 1;
        assert_ne!(c.hash(), h0);

        let mut c = b.clone();
        c.header.shard = ShardId::new(1);
        assert_ne!(c.hash(), h0);

        let mut c = b.clone();
        c.header.height = 2;
        assert_ne!(c.hash(), h0);

        let mut c = b;
        c.header.miner = MinerId::new(9);
        assert_ne!(c.hash(), h0);
    }

    #[test]
    fn zero_difficulty_pow_is_always_valid() {
        let b = block(vec![tx(1)]);
        assert_eq!(b.header.difficulty_bits, 0);
        assert!(b.header.has_valid_pow());
    }

    #[test]
    fn nonzero_difficulty_usually_requires_search() {
        let mut b = block(vec![tx(1)]);
        b.header.difficulty_bits = 20;
        // Overwhelmingly unlikely that nonce 0 already meets 20 bits.
        assert!(!b.header.has_valid_pow());
    }

    fn header(bits: u32) -> BlockHeader {
        let mut b = block(vec![tx(5)]);
        b.header.difficulty_bits = bits;
        b.header
    }

    #[test]
    fn mines_at_moderate_difficulty() {
        let mut h = header(12);
        let won = h.mine().expect("12 bits is quick");
        assert!(won.meets_difficulty(12));
        assert_eq!(won, h.hash());
        assert!(h.has_valid_pow());
    }

    #[test]
    fn zero_difficulty_succeeds_immediately() {
        let mut h = header(0);
        assert!(h.mine().is_some());
        assert_eq!(h.pow_nonce, 0, "first nonce already valid");
    }

    #[test]
    fn tampering_invalidates_pow() {
        let mut h = header(12);
        h.mine().unwrap();
        h.timestamp = SimTime::from_secs(61);
        // Overwhelmingly likely the tampered hash fails 12 bits.
        assert!(!h.has_valid_pow());
    }

    #[test]
    fn search_resumes_from_current_nonce() {
        let mut h = header(10);
        h.mine().unwrap();
        let won = h.pow_nonce;
        // Restarting from the winning nonce finds it with zero extra work.
        assert!(h.mine().is_some());
        assert_eq!(h.pow_nonce, won);
    }

    #[test]
    fn difficulty_increases_search_effort_statistically() {
        // Summed winning nonces over 8 headers: expectations are 16 vs
        // 4096 trials per header, so the order is all but certain.
        let total_nonce = |bits: u32| -> u64 {
            (0..8u64)
                .map(|i| {
                    let mut h = header(bits);
                    h.timestamp = SimTime::from_secs(i);
                    h.mine().unwrap();
                    h.pow_nonce
                })
                .sum()
        };
        assert!(total_nonce(4) < total_nonce(12));
    }
}
