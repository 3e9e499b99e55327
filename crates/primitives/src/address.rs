//! Account addresses.

use crate::hex;
use std::fmt;

/// A 20-byte account address (Ethereum-style).
///
/// Both externally-owned user accounts and smart-contract accounts are
/// addressed this way; the ledger's account table distinguishes the kinds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The zero address, conventionally "the system" (a fee collector
    /// outside any miner's coinbase).
    pub const SYSTEM: Address = Address([0u8; 20]);

    /// Deterministically derives a user address from an index.
    ///
    /// Test and workload helpers use this so that address `k` is stable
    /// across runs. The tag byte keeps user / contract namespaces disjoint.
    pub fn user(index: u64) -> Self {
        Self::tagged(0x01, index)
    }

    /// Deterministically derives a contract address from an index.
    pub fn contract(index: u64) -> Self {
        Self::tagged(0x02, index)
    }

    /// Deterministically derives a miner coinbase address from an index.
    pub fn miner(index: u64) -> Self {
        Self::tagged(0x03, index)
    }

    fn tagged(tag: u8, index: u64) -> Self {
        let mut bytes = [0u8; 20];
        bytes[0] = tag;
        bytes[12..20].copy_from_slice(&index.to_be_bytes());
        Address(bytes)
    }

    /// Returns the raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", hex::encode(&self.0))
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0[0] {
            0x01 => write!(f, "user#{}", self.index()),
            0x02 => write!(f, "contract#{}", self.index()),
            0x03 => write!(f, "miner#{}", self.index()),
            _ if *self == Self::SYSTEM => write!(f, "SYSTEM"),
            _ => write!(f, "Address(0x{})", hex::encode(&self.0)),
        }
    }
}

impl Address {
    fn index(&self) -> u64 {
        u64::from_be_bytes(self.0[12..20].try_into().expect("8 bytes"))
    }
}

impl AsRef<[u8]> for Address {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn derived_addresses_are_distinct() {
        let mut set = BTreeSet::new();
        for i in 0..100 {
            assert!(set.insert(Address::user(i)));
            assert!(set.insert(Address::contract(i)));
            assert!(set.insert(Address::miner(i)));
        }
        assert_eq!(set.len(), 300);
        assert!(!set.contains(&Address::SYSTEM));
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(Address::user(42), Address::user(42));
        assert_ne!(Address::user(42), Address::user(43));
    }

    #[test]
    fn debug_formatting_names_the_namespace() {
        assert_eq!(format!("{:?}", Address::user(7)), "user#7");
        assert_eq!(format!("{:?}", Address::contract(3)), "contract#3");
        assert_eq!(format!("{:?}", Address::miner(0)), "miner#0");
        assert_eq!(format!("{:?}", Address::SYSTEM), "SYSTEM");
    }

    #[test]
    fn display_is_hex() {
        let a = Address::SYSTEM;
        assert_eq!(a.to_string(), format!("0x{}", "00".repeat(20)));
    }
}
