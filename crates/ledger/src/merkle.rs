//! Binary Merkle tree over transaction ids.
//!
//! Block headers commit to their transaction list through the root computed
//! here. The construction is the Bitcoin-style binary tree with the last
//! node duplicated on odd levels, plus domain-separated leaf/node hashing to
//! rule out second-preimage tricks between leaves and interior nodes.

use cshard_crypto::sha256_concat;
use cshard_primitives::Hash32;

/// Root of an empty tree — a fixed domain-separated constant so that an
/// empty block still has a well-defined commitment.
pub fn empty_root() -> Hash32 {
    sha256_concat(&[b"cshard-merkle-empty".as_slice()])
}

fn leaf(id: &Hash32) -> Hash32 {
    sha256_concat(&[b"cshard-merkle-leaf".as_slice(), id.as_bytes()])
}

fn node(left: &Hash32, right: &Hash32) -> Hash32 {
    sha256_concat(&[
        b"cshard-merkle-node".as_slice(),
        left.as_bytes(),
        right.as_bytes(),
    ])
}

/// Computes the Merkle root of a list of transaction ids.
pub fn merkle_root(ids: &[Hash32]) -> Hash32 {
    if ids.is_empty() {
        return empty_root();
    }
    let mut level: Vec<Hash32> = ids.iter().map(leaf).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            let right = pair.get(1).unwrap_or(&pair[0]);
            next.push(node(&pair[0], right));
        }
        level = next;
    }
    level[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_crypto::sha256;

    fn ids(n: usize) -> Vec<Hash32> {
        (0..n as u64).map(|i| sha256(i.to_be_bytes())).collect()
    }

    #[test]
    fn empty_root_is_stable_and_distinct() {
        assert_eq!(merkle_root(&[]), empty_root());
        assert_ne!(merkle_root(&[]), merkle_root(&ids(1)));
    }

    #[test]
    fn single_leaf_root_is_not_the_leaf_id() {
        let v = ids(1);
        assert_ne!(merkle_root(&v), v[0]);
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let mut v = ids(5);
        let r0 = merkle_root(&v);
        v[3] = sha256(b"mutated");
        assert_ne!(merkle_root(&v), r0);
    }

    #[test]
    fn root_depends_on_order() {
        let v = ids(4);
        let mut w = v.clone();
        w.swap(0, 1);
        assert_ne!(merkle_root(&v), merkle_root(&w));
    }
}
