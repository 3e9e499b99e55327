//! A dense index over addresses.
//!
//! [`AddressIndex`] interns an [`Address`] to a slot: the first address
//! interned gets slot 0, the next new one slot 1, and so on.
//! [`AddressSlots`] pairs the index with a `Vec` of per-address values
//! indexed by slot, so the per-transaction cost of finding an account's
//! record is one hash probe, and every ordered walk is over that `Vec` in
//! first-seen order.
//!
//! The hash table underneath is a private detail. The index exposes
//! `intern` / `get` / `len` and **no iterator**: hash order cannot leak
//! into a replay (ND003 holds by construction; `clippy.toml` denies the
//! table's iteration methods even here), and the hasher is a fixed
//! function of the key bytes — no `RandomState`, no ambient entropy
//! (ND002). That trades away `RandomState`'s protection against keys
//! crafted to collide, which is sound for addresses the simulator
//! generates itself and would not be for addresses read off a network.

#![expect(
    clippy::disallowed_types,
    reason = "ND003: the one hash table on a protocol path; it offers no iterator, so hash order never reaches a replay"
)]

use crate::Address;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Interns addresses to dense slots `0..len()` in first-seen order.
#[derive(Clone, Debug, Default)]
pub struct AddressIndex {
    /// Slots are `usize` end to end: they index `Vec`s, and no narrowing
    /// cast exists that a 2³²-th address could wrap.
    slots: HashMap<Address, usize, BuildHasherDefault<AddressHasher>>,
}

impl AddressIndex {
    /// An empty index.
    pub fn new() -> Self {
        AddressIndex::default()
    }

    /// The slot of `address`, assigning the next free one (`len()` before
    /// the call) when the address is new.
    pub fn intern(&mut self, address: Address) -> usize {
        let next = self.slots.len();
        *self.slots.entry(address).or_insert(next)
    }

    /// The slot of `address`, if it was ever interned.
    pub fn get(&self, address: &Address) -> Option<usize> {
        self.slots.get(address).copied()
    }

    /// Number of distinct addresses interned — one past the largest slot.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Per-address values in a dense `Vec`, keyed through an [`AddressIndex`].
///
/// The one place that keeps `values.len() == index.len()`: an address gets
/// its value the moment it gets its slot. Lookups cost one hash probe;
/// [`AddressSlots::values`] walks in first-seen order, never hash order.
#[derive(Clone, Debug)]
pub struct AddressSlots<V> {
    index: AddressIndex,
    values: Vec<V>,
}

impl<V> Default for AddressSlots<V> {
    fn default() -> Self {
        AddressSlots {
            index: AddressIndex::new(),
            values: Vec::new(),
        }
    }
}

impl<V> AddressSlots<V> {
    /// An empty map.
    pub fn new() -> Self {
        AddressSlots::default()
    }

    /// The value of `address`, created by `default` on first sight.
    pub fn entry(&mut self, address: Address, default: impl FnOnce() -> V) -> &mut V {
        self.slot_entry(address, default).1
    }

    /// [`AddressSlots::entry`] together with the address's slot: the index
    /// of its value in [`AddressSlots::values`], so a later read of the
    /// same value costs no hash probe.
    pub fn slot_entry(&mut self, address: Address, default: impl FnOnce() -> V) -> (usize, &mut V) {
        let slot = self.index.intern(address);
        if slot == self.values.len() {
            self.values.push(default());
        }
        (slot, &mut self.values[slot])
    }

    /// The value of `address`, if it was ever entered.
    pub fn get(&self, address: &Address) -> Option<&V> {
        self.index.get(address).map(|slot| &self.values[slot])
    }

    /// Number of distinct addresses entered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been entered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Every value, in first-seen order of its address.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Every value, mutably, in first-seen order of its address.
    pub fn values_mut(&mut self) -> &mut [V] {
        &mut self.values
    }
}

/// Folded 64×64→128 multiply: both halves of the product reach the
/// result, so input entropy moves down as well as up.
fn folded_mul(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The index's hasher: one folded multiply per 8 key bytes.
///
/// Derived addresses ([`Address::user`]) are a tag byte plus a big-endian
/// counter, so consecutive keys differ only in their *last* bytes. A plain
/// multiply hash (Fx-style) moves entropy upward only and would leave the
/// table's bucket bits constant on such keys; the fold is what spreads
/// them (pinned by `sequential_addresses_spread_over_the_buckets`).
#[derive(Clone, Copy, Debug, Default)]
struct AddressHasher(u64);

impl Hasher for AddressHasher {
    fn write(&mut self, bytes: &[u8]) {
        // 2⁶⁴ / φ, the usual odd multiplier.
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = folded_mul(self.0 ^ u64::from_le_bytes(word), K);
        }
    }

    /// The slice-length prefix `[u8; 20]` hashes first: the same for every
    /// key, so it carries nothing.
    fn write_usize(&mut self, _: usize) {}

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn slots_are_dense_and_first_seen_ordered() {
        let mut index = AddressIndex::new();
        assert!(index.is_empty());
        assert_eq!(index.get(&Address::user(7)), None);
        assert_eq!(index.intern(Address::user(7)), 0);
        assert_eq!(index.intern(Address::contract(7)), 1);
        assert_eq!(index.intern(Address::user(3)), 2);
        // Re-interning returns the slot already assigned.
        assert_eq!(index.intern(Address::user(7)), 0);
        assert_eq!(index.get(&Address::contract(7)), Some(1));
        assert_eq!(index.get(&Address::miner(7)), None);
        assert_eq!(index.len(), 3);
    }

    #[test]
    fn a_slot_wider_than_32_bits_is_kept_whole() {
        // The spam flood mints a fresh address per transaction, so slots
        // must span the host's whole index space: a `u32` slot would wrap
        // at the 2³²-th address and alias two accounts' records. 2³²
        // interns do not fit in a test; what does is that the table holds
        // and returns the widest slot unchanged, and that `intern` hands
        // out `len()` itself from there, never a cast of it.
        let mut slots = HashMap::default();
        slots.insert(Address::SYSTEM, usize::MAX);
        let mut index = AddressIndex { slots };
        assert_eq!(index.get(&Address::SYSTEM), Some(usize::MAX));
        assert_eq!(index.intern(Address::SYSTEM), usize::MAX);
        let next: usize = index.len();
        assert_eq!(index.intern(Address::user(0)), next);
    }

    #[test]
    fn slot_values_are_created_once_and_walk_in_first_seen_order() {
        let mut counts: AddressSlots<u32> = AddressSlots::new();
        assert!(counts.is_empty());
        for k in [7, 3, 7, 9, 7] {
            *counts.entry(Address::user(k), || 0) += 1;
        }
        // The default runs only for a new address.
        *counts.entry(Address::user(3), || 100) += 1;
        assert_eq!(counts.len(), 3);
        assert_eq!(counts.values(), [3, 2, 1]);
        // The slot handed back indexes `values`.
        let (slot, count) = counts.slot_entry(Address::user(9), || 100);
        assert_eq!((slot, *count), (2, 1));
        assert_eq!(counts.slot_entry(Address::user(4), || 5).0, 3);
        assert_eq!(counts.values()[3], 5);
        assert_eq!(counts.get(&Address::user(9)), Some(&1));
        assert_eq!(counts.get(&Address::user(8)), None);
        counts.values_mut()[2] = 0;
        assert_eq!(counts.get(&Address::user(9)), Some(&0));
    }

    fn hash_of(address: Address) -> u64 {
        BuildHasherDefault::<AddressHasher>::default().hash_one(address)
    }

    /// Share of the 2¹⁶ low-bit buckets and of the 2⁷ top-bit control
    /// tags (the two things hashbrown takes from a hash) that `keys` hit.
    fn spread(keys: impl Iterator<Item = Address>) -> (f64, f64) {
        let mut buckets = vec![false; 1 << 16];
        let mut tags = [false; 1 << 7];
        for key in keys {
            let h = hash_of(key);
            buckets[(h & 0xffff) as usize] = true;
            tags[(h >> 57) as usize] = true;
        }
        let share = |hit: &[bool]| hit.iter().filter(|&&b| b).count() as f64 / hit.len() as f64;
        (share(&buckets), share(&tags))
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn sequential_addresses_spread_over_the_buckets() {
        // The two key families the streams generate: community members
        // `user(k)` and the spam flood's `user(SPAM_BASE + 2k)`. 10⁵
        // uniformly random keys would hit 78 % of 2¹⁶ buckets.
        const SPAM_BASE: u64 = 1 << 41;
        let members = spread((0..100_000).map(Address::user));
        let spam = spread((0..100_000).map(|k| Address::user(SPAM_BASE + 2 * k)));
        for (label, (buckets, tags)) in [("user(k)", members), ("spam", spam)] {
            assert!(buckets >= 0.6, "{label}: {buckets:.3} of the buckets");
            assert!(tags >= 0.99, "{label}: {tags:.3} of the control tags");
        }
    }

    #[test]
    fn the_hash_is_a_function_of_the_key_alone() {
        // No per-process or per-table seed: separately built hashers agree.
        assert_eq!(hash_of(Address::user(1)), hash_of(Address::user(1)));
        assert_ne!(hash_of(Address::user(1)), hash_of(Address::user(2)));
        assert_ne!(hash_of(Address::user(1)), hash_of(Address::contract(1)));
    }
}
