// ND003 fail fixture: a newtype over a hash table that hands its hash
// order out — through an iterator method, and through a walk over the
// borrowed table.
use std::collections::HashMap;

pub struct Index {
    slots: HashMap<u64, usize>,
}

impl Index {
    pub fn keys(&self) -> impl Iterator<Item = &u64> + '_ {
        self.slots.keys()
    }
}

pub fn first_seen(table: &HashMap<u64, usize>) -> Vec<u64> {
    let mut order = Vec::new();
    for (key, _) in table {
        order.push(*key);
    }
    order
}
