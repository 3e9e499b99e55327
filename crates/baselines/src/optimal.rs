//! Oracle solutions the large-scale simulations compare against (Sec. VI-E).

pub use cshard_games::merging::optimal_new_shard_count as optimal_new_shards;
pub use cshard_games::selection::optimal_distinct_sets;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts() {
        assert_eq!(optimal_new_shards(&[6; 12], 22), 3);
        assert_eq!(optimal_distinct_sets(200, 9, 10), 9);
    }
}
