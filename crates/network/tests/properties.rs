//! Property tests for the network layer: the latency model and gossip
//! flood must be pure functions of their seeds, never produce negative or
//! wrapped delays, and respect their own declared bounds. These are the
//! schedule-level invariants the fault subsystem leans on — a partition
//! or delay rule composed over a latency model inherits them.

use cshard_network::{Blackouts, GossipNet, LatencyModel};
use cshard_primitives::SimTime;
use proptest::prelude::*;

fn arb_latency() -> impl Strategy<Value = LatencyModel> {
    // Millisecond ranges up to ~28 hours keep products far from
    // saturation so the bound checks below are exact.
    (0u64..100_000_000, 0u64..100_000_000).prop_map(|(base, jitter)| LatencyModel {
        base: SimTime::from_millis(base),
        jitter: SimTime::from_millis(jitter),
    })
}

proptest! {
    /// `delay(u)` stays inside `[base, base + jitter]` for every valid
    /// draw — never negative (SimTime is unsigned by construction, so the
    /// real hazard is wrap-around) and never past `base + jitter`.
    #[test]
    fn delay_is_bounded_by_base_and_max(model in arb_latency(), u_m in 0u64..1_000_000) {
        let u = u_m as f64 / 1_000_000.0;
        let d = model.delay(u);
        prop_assert!(d >= model.base);
        prop_assert!(d <= model.base + model.jitter);
    }

    /// `delay` is monotone in the uniform draw: a larger draw never means
    /// a shorter delay (the jitter term is a scaled identity).
    #[test]
    fn delay_is_monotone_in_the_draw(model in arb_latency(), a_m in 0u64..1_000_000, b_m in 0u64..1_000_000) {
        let (a, b) = (a_m as f64 / 1_000_000.0, b_m as f64 / 1_000_000.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(model.delay(lo) <= model.delay(hi));
    }

    /// Saturation: even at `SimTime::MAX` base, any draw yields `MAX`,
    /// not a wrapped small value.
    #[test]
    fn extreme_models_saturate(u_m in 0u64..1_000_000, jitter in 0u64..10_000_000) {
        let u = u_m as f64 / 1_000_000.0;
        let m = LatencyModel { base: SimTime::MAX, jitter: SimTime::from_millis(jitter) };
        prop_assert_eq!(m.delay(u), SimTime::MAX);
    }

    /// The same `(graph seed, message id)` pair produces an identical
    /// delivery schedule — the determinism contract replays rely on.
    #[test]
    fn gossip_schedule_is_a_pure_function_of_seeds(
        nodes in 2usize..60,
        degree in 0usize..5,
        seed in any::<u64>(),
        msg in any::<u64>(),
    ) {
        let net = GossipNet::random(nodes, degree, LatencyModel::wide_area(), seed);
        let a = net.broadcast(0, msg);
        let b = net.broadcast(0, msg);
        prop_assert_eq!(a, b);
        // Rebuilding the graph from the same seed reproduces it too.
        let rebuilt = GossipNet::random(nodes, degree, LatencyModel::wide_area(), seed);
        prop_assert_eq!(net.broadcast(0, msg), rebuilt.broadcast(0, msg));
    }

    /// Every node is reached (the ring backbone keeps the graph
    /// connected), the origin at time zero and everyone else strictly
    /// later under a positive-delay model.
    #[test]
    fn gossip_reaches_every_node(
        nodes in 2usize..60,
        degree in 0usize..5,
        seed in any::<u64>(),
        origin in 0usize..60,
    ) {
        let origin = origin % nodes;
        let net = GossipNet::random(nodes, degree, LatencyModel::wide_area(), seed);
        let times = net.broadcast(origin, 1);
        prop_assert_eq!(times.len(), nodes);
        prop_assert_eq!(times[origin], SimTime::ZERO);
        for (i, &t) in times.iter().enumerate() {
            if i != origin {
                prop_assert!(t > SimTime::ZERO, "node {} free delivery", i);
            }
        }
    }

    /// A partition never delivers *into* a blackout window, and deliveries
    /// are never earlier than the base model alone would schedule them.
    #[test]
    fn partition_defers_but_never_hastens(
        base_ms in 1u64..5_000,
        now_s in 0u64..100,
        from_s in 0u64..100,
        span_s in 1u64..100,
        u_m in 0u64..1_000_000,
    ) {
        let u = u_m as f64 / 1_000_000.0;
        let hop = LatencyModel::constant(SimTime::from_millis(base_ms)).delay(u);
        let (from, until) = (SimTime::from_secs(from_s), SimTime::from_secs(from_s + span_s));
        let blackouts = Blackouts::new([(from, until)]).expect("one window is valid");
        let now = SimTime::from_secs(now_s);
        let at = blackouts.delivery(now, hop);
        prop_assert!(at >= hop + now, "partition hastened a delivery");
        prop_assert!(
            !(from <= at && at < until),
            "delivered at {} inside blackout [{}, {})", at, from, until
        );
    }
}
