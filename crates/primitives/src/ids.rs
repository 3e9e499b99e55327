//! Identifier newtypes: shards, contracts, miners, and the nonce alias.

use std::fmt;

/// Identifier of a shard.
///
/// Shard ids are carried in block headers (Sec. III-C of the paper) so that
/// receivers can check the packer really belongs to the claimed shard.
/// [`ShardId::MAX_SHARD`] is the distinguished shard for transactions whose
/// senders touch more than one contract or transact with users directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The MaxShard: holds all transactions that cannot be isolated to a
    /// single contract. Its miners record the full system state.
    pub const MAX_SHARD: ShardId = ShardId(u32::MAX);

    /// Builds a regular (contract-centric) shard id.
    pub const fn new(id: u32) -> Self {
        ShardId(id)
    }

    /// True when this is the MaxShard.
    pub const fn is_max_shard(&self) -> bool {
        self.0 == u32::MAX
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_max_shard() {
            write!(f, "MaxShard")
        } else {
            write!(f, "shard-{}", self.0)
        }
    }
}

impl fmt::Debug for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Identifier of a smart contract (dense index into the contract registry).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContractId(pub u32);

impl ContractId {
    /// Builds a contract id.
    pub const fn new(id: u32) -> Self {
        ContractId(id)
    }
}

impl fmt::Display for ContractId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "contract-{}", self.0)
    }
}

impl fmt::Debug for ContractId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Identifier of a miner (dense index into the miner registry).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MinerId(pub u32);

impl MinerId {
    /// Builds a miner id.
    pub const fn new(id: u32) -> Self {
        MinerId(id)
    }
}

impl fmt::Display for MinerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "miner-{}", self.0)
    }
}

impl fmt::Debug for MinerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A monotonically increasing per-account transaction counter, preventing
/// replay (Ethereum-style).
pub type Nonce = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_shard_is_distinguished() {
        assert!(ShardId::MAX_SHARD.is_max_shard());
        assert!(!ShardId::new(0).is_max_shard());
        assert!(!ShardId::new(1000).is_max_shard());
    }

    #[test]
    fn display_forms() {
        assert_eq!(ShardId::new(3).to_string(), "shard-3");
        assert_eq!(ShardId::MAX_SHARD.to_string(), "MaxShard");
        assert_eq!(ContractId::new(2).to_string(), "contract-2");
        assert_eq!(MinerId::new(5).to_string(), "miner-5");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(ShardId::new(1) < ShardId::new(2));
        assert!(ShardId::new(12345) < ShardId::MAX_SHARD);
        assert!(MinerId::new(0) < MinerId::new(1));
    }
}
