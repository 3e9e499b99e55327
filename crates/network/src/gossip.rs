//! Gossip (flooding) propagation over a random peer graph.
//!
//! The runtime's conflict window abstracts "how long until the whole shard
//! has seen a block". This module computes that quantity from first
//! principles: nodes flood messages to their peers over per-link delays,
//! and [`GossipNet::broadcast`] returns each node's delivery time. The
//! `abl-window` ablation uses the resulting delay spread to justify the
//! window parameter; tests pin the classic O(log n) depth behaviour.

use crate::latency::LatencyModel;
use cshard_primitives::SimTime;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BinaryHeap;

/// A static random-regular-ish peer graph with per-link latency.
#[derive(Clone, Debug)]
pub struct GossipNet {
    /// Adjacency lists.
    peers: Vec<Vec<usize>>,
    latency: LatencyModel,
    seed: u64,
}

impl GossipNet {
    /// Builds a connected graph of `nodes` nodes where each node picks
    /// `degree` random outgoing peers (links are used bidirectionally, so
    /// effective degree ≈ 2·degree). A ring backbone guarantees
    /// connectivity.
    pub fn random(nodes: usize, degree: usize, latency: LatencyModel, seed: u64) -> Self {
        assert!(nodes >= 2, "a network needs at least two nodes");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut peers = vec![Vec::new(); nodes];
        // Ring backbone.
        for i in 0..nodes {
            let j = (i + 1) % nodes;
            peers[i].push(j);
            peers[j].push(i);
        }
        // Random extra links.
        for i in 0..nodes {
            for _ in 0..degree {
                let j = rng.gen_range(0..nodes);
                if j != i && !peers[i].contains(&j) {
                    peers[i].push(j);
                    peers[j].push(i);
                }
            }
        }
        GossipNet {
            peers,
            latency,
            seed,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True when the network has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Floods a message from `origin`; returns per-node delivery times
    /// (origin = 0). Deterministic per (graph seed, message id).
    pub fn broadcast(&self, origin: usize, message_id: u64) -> Vec<SimTime> {
        assert!(origin < self.len());
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ message_id.wrapping_mul(0x9E37));
        let mut delivered: Vec<Option<SimTime>> = vec![None; self.len()];
        // Min-heap on (time, node) via Reverse.
        let mut heap: BinaryHeap<std::cmp::Reverse<(SimTime, usize)>> = BinaryHeap::new();
        heap.push(std::cmp::Reverse((SimTime::ZERO, origin)));
        while let Some(std::cmp::Reverse((t, node))) = heap.pop() {
            if delivered[node].is_some() {
                continue;
            }
            delivered[node] = Some(t);
            for &peer in &self.peers[node] {
                if delivered[peer].is_none() {
                    let hop = self.latency.delay(rng.gen::<f64>() * 0.999_999);
                    heap.push(std::cmp::Reverse((t.saturating_add(hop), peer)));
                }
            }
        }
        delivered
            .into_iter()
            .map(|d| d.expect("ring backbone keeps the graph connected"))
            .collect()
    }

    /// The time by which every node has the message — the natural conflict
    /// window of a shard using this network.
    pub fn full_coverage_time(&self, origin: usize, message_id: u64) -> SimTime {
        self.broadcast(origin, message_id)
            .into_iter()
            .max()
            .expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: usize) -> GossipNet {
        GossipNet::random(
            nodes,
            3,
            LatencyModel::constant(SimTime::from_millis(100)),
            7,
        )
    }

    #[test]
    fn everyone_receives() {
        let g = net(50);
        let times = g.broadcast(0, 1);
        assert_eq!(times.len(), 50);
        assert_eq!(times[0], SimTime::ZERO);
        assert!(times.iter().skip(1).all(|&t| t > SimTime::ZERO));
    }

    #[test]
    fn deterministic_per_message() {
        let g = net(30);
        assert_eq!(g.broadcast(3, 9), g.broadcast(3, 9));
        // With jitter, different messages draw different hop delays.
        let j = GossipNet::random(30, 3, LatencyModel::wide_area(), 7);
        assert_eq!(j.broadcast(3, 9), j.broadcast(3, 9));
        assert_ne!(j.broadcast(3, 9), j.broadcast(3, 10));
    }

    #[test]
    fn coverage_grows_logarithmically() {
        // With constant 100 ms hops, coverage time ≈ eccentricity × 100 ms;
        // doubling nodes four times should much-less-than-double it.
        let small = net(32).full_coverage_time(0, 1);
        let large = net(512).full_coverage_time(0, 1);
        assert!(
            large < small.saturating_add(small),
            "32: {small}, 512: {large}"
        );
        // And both are a small number of hops.
        assert!(large <= SimTime::from_millis(100 * 12), "{large}");
    }

    #[test]
    fn jitter_spreads_delivery() {
        let g = GossipNet::random(100, 3, LatencyModel::wide_area(), 5);
        let mut times = g.broadcast(0, 2);
        times.sort_unstable();
        let median = times[times.len() / 2];
        assert!(times[times.len() - 1] > median);
    }

    #[test]
    fn origin_choice_does_not_break_coverage() {
        let g = net(40);
        for origin in [0usize, 17, 39] {
            let t = g.full_coverage_time(origin, 3);
            assert!(t > SimTime::ZERO);
        }
    }

    #[test]
    fn hop_sums_saturate_at_the_end_of_time() {
        // `LatencyModel::delay` saturates at `SimTime::MAX`; a second hop
        // on top of a saturated one stays there instead of overflowing.
        let g = GossipNet::random(4, 0, LatencyModel::constant(SimTime::MAX), 1);
        let times = g.broadcast(0, 1);
        assert_eq!(times[0], SimTime::ZERO);
        assert!(times[1..].iter().all(|&t| t == SimTime::MAX), "{times:?}");
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn degenerate_network_rejected() {
        GossipNet::random(1, 2, LatencyModel::constant(SimTime::ZERO), 0);
    }
}
