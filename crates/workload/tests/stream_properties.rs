//! Property tests for the streaming workload generator — the three
//! invariants the scale experiments lean on:
//!
//! * **Seeded determinism** — a stream is a pure function of its
//!   configuration: the same seed replays the identical `(time, tx)`
//!   sequence (ND002: no ambient entropy).
//! * **Zipf rank-frequency monotonicity** — hotter contract ranks draw at
//!   least as much traffic as colder ones (within sampling noise), for any
//!   positive exponent.
//! * **Bursts never reorder sim time** — burst episodes scale the arrival
//!   *rate*, never the clock, so timestamps stay monotone non-decreasing
//!   under arbitrary episode layouts.

use cshard_primitives::SimTime;
use cshard_workload::{BurstEpisode, StreamConfig, TxStream};
use proptest::prelude::*;

fn config_with_seed(seed: u64) -> StreamConfig {
    StreamConfig {
        seed,
        ..StreamConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn same_seed_replays_the_identical_stream(seed in any::<u64>()) {
        let a: Vec<_> = TxStream::new(config_with_seed(seed)).take(300).collect();
        let b: Vec<_> = TxStream::new(config_with_seed(seed)).take(300).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn zipf_rank_frequency_is_monotone(
        seed in any::<u64>(),
        // Exponent in [0.5, 2.5), sampled in millis (the vendored
        // proptest has no float range strategy).
        s_milli in 500u64..2_500,
    ) {
        let s = s_milli as f64 / 1_000.0;
        // Pure contract traffic over 8 ranks, 20k draws: rank k must not
        // be (significantly) colder than rank k+1. The slack term absorbs
        // multinomial sampling noise (≈ 4σ of a 20k-draw bucket), so the
        // property is about the distribution, not one sample path.
        let stream = TxStream::new(StreamConfig {
            contracts: 8,
            zipf_s: s,
            direct_fraction: 0.0,
            diversify: 0.0,
            seed,
            ..StreamConfig::default()
        });
        let n = 20_000usize;
        let mut counts = vec![0i64; 8];
        for (_, tx) in stream.take(n) {
            let c = tx.kind.contract().expect("pure contract traffic");
            counts[c.0 as usize] += 1;
        }
        let slack = 4.0 * (n as f64 / 8.0).sqrt();
        for k in 0..7 {
            prop_assert!(
                counts[k] as f64 + slack >= counts[k + 1] as f64,
                "rank {k} ({}) colder than rank {} ({}), exponent {s}",
                counts[k], k + 1, counts[k + 1]
            );
        }
        // And the head is strictly hot: rank 0 beats the coldest rank.
        prop_assert!(counts[0] > counts[7], "no concentration: {counts:?}");
    }

    #[test]
    fn bursts_never_reorder_sim_time(
        seed in any::<u64>(),
        // Arbitrary (possibly overlapping) episode layout: offsets in
        // seconds, multipliers spanning lulls (0.1×) to floods (50×),
        // sampled in percent (no float range strategy in the vendored
        // proptest).
        episodes in proptest::collection::vec(
            (0u64..300, 1u64..120, 10u64..5_000),
            0..4,
        ),
    ) {
        let bursts: Vec<BurstEpisode> = episodes
            .into_iter()
            .map(|(start, len, mult_pct)| BurstEpisode {
                start: SimTime::from_secs(start),
                end: SimTime::from_secs(start + len),
                rate_multiplier: mult_pct as f64 / 100.0,
            })
            .collect();
        let stream = TxStream::new(StreamConfig {
            bursts,
            seed,
            ..StreamConfig::default()
        });
        let mut last = SimTime::ZERO;
        for (at, _) in stream.take(2_000) {
            prop_assert!(at >= last, "clock rewound: {last} -> {at}");
            last = at;
        }
    }
}
