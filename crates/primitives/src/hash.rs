//! 32-byte hash values.

use crate::hex;
use std::fmt;

/// A 256-bit hash digest.
///
/// Used for PRF, VRF and randomness-beacon outputs and run fingerprints.
/// The digest algorithm itself lives in `cshard-crypto`; this type is only
/// the value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash32(pub [u8; 32]);

impl Hash32 {
    /// Returns the raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Interprets the first 8 bytes as a big-endian integer.
    ///
    /// Handy for mapping a hash to a number, e.g. deriving a pseudo-random
    /// index or seed.
    pub fn leading_u64(&self) -> u64 {
        be_u64(&self.0, 0)
    }

    /// Interprets the whole hash modulo `n` (for `n > 0`).
    ///
    /// Uses the leading 16 bytes to keep bias negligible for any practical
    /// `n` (bias < 2^-64 for n < 2^64).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the remainder is below `n`, a `u64`"
    )]
    pub fn mod_u64(&self, n: u64) -> u64 {
        assert!(n > 0, "modulus must be positive");
        let hi = be_u64(&self.0, 0) as u128;
        let lo = be_u64(&self.0, 8) as u128;
        let wide = (hi << 64) | lo;
        (wide % n as u128) as u64
    }
}

/// Big-endian `u64` from 8 bytes of the digest starting at `offset`.
fn be_u64(bytes: &[u8; 32], offset: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[offset..offset + 8]);
    u64::from_be_bytes(b)
}

impl fmt::Display for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", hex::encode(&self.0))
    }
}

impl fmt::Debug for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Abbreviate: the full 64 hex chars drown debug output.
        write!(f, "Hash32(0x{}..)", hex::encode(&self.0[..4]))
    }
}

impl From<[u8; 32]> for Hash32 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash32(bytes)
    }
}

impl AsRef<[u8]> for Hash32 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leading_u64_is_big_endian() {
        let mut bytes = [0u8; 32];
        bytes[7] = 1;
        assert_eq!(Hash32(bytes).leading_u64(), 1);
        bytes[0] = 1;
        assert_eq!(Hash32(bytes).leading_u64(), (1 << 56) | 1);
    }

    #[test]
    fn mod_u64_in_range() {
        let mut bytes = [0xFFu8; 32];
        bytes[15] = 0xFE;
        let h = Hash32(bytes);
        for n in [1u64, 2, 7, 100, u64::MAX] {
            assert!(h.mod_u64(n) < n);
        }
        assert_eq!(h.mod_u64(1), 0);
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn mod_zero_panics() {
        Hash32([0u8; 32]).mod_u64(0);
    }

    #[test]
    fn display_and_debug_are_stable() {
        let h = Hash32([0u8; 32]);
        assert_eq!(h.to_string(), format!("0x{}", "00".repeat(32)));
        assert_eq!(format!("{h:?}"), "Hash32(0x00000000..)");
    }
}
