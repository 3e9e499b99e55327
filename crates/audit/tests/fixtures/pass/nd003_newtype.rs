// ND003 pass fixture: a hash table behind a newtype that offers lookups
// and no iterator. Ordered walks go over the slot-indexed `Vec` beside it,
// in first-seen order.
use std::collections::HashMap;

pub struct Index {
    slots: HashMap<u64, usize>,
}

impl Index {
    pub fn intern(&mut self, key: u64) -> usize {
        let next = self.slots.len();
        *self.slots.entry(key).or_insert(next)
    }

    pub fn get(&self, key: u64) -> Option<usize> {
        self.slots.get(&key).copied()
    }
}

pub struct Table {
    index: Index,
    rows: Vec<u64>,
}

impl Table {
    pub fn total(&self) -> u64 {
        self.rows.iter().sum()
    }

    pub fn row(&self, key: u64) -> Option<u64> {
        self.index.get(key).map(|slot| self.rows[slot])
    }
}
