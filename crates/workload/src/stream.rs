//! Streaming transaction generation: million-user workloads as a lazy,
//! sim-time-stamped iterator.
//!
//! The eager [`crate::Workload`] constructors materialize every
//! transaction up front — fine at the paper's 160-user scale, fatal at the
//! ROADMAP's million-user north star.
//! [`TxStream`] inverts that: it is an allocation-light iterator over
//! `(SimTime, Transaction)` pairs whose memory footprint scales with the
//! transactions *emitted* (a lazy per-sender nonce map), never with the
//! configured account space. A `10⁶`-account stream costs the same to
//! construct as a 10-account one.
//!
//! The arrival process is fully seeded (ND002: no ambient
//! entropy) and clock-free (ND001: sim time is *generated*, never read):
//!
//! * **Poisson arrivals** — inter-arrival gaps are exponential with a
//!   configurable mean, so transaction injection is a Poisson process like
//!   the PoW block-discovery model it feeds.
//! * **Zipf-hot contracts** — contract `k` is drawn with probability
//!   ∝ `k^-s`, echoing the paper's Sec. II-A mainnet statistics. Each
//!   contract owns a disjoint slice of the account space (its community);
//!   hot contracts therefore have hot, *repeating* senders.
//! * **Burst episodes** — inside a [`BurstEpisode`] window the arrival
//!   rate is multiplied; timestamps stay monotone non-decreasing because
//!   only the gap distribution changes, never the clock.
//! * **Spam floods** — inside a [`SpamFlood`] window, a configurable
//!   fraction of arrivals is adversarial: minimum-fee direct transfers
//!   from fresh throwaway accounts that never repeat (the classifier sees
//!   an unbounded stream of new MaxShard senders).
//!
//! The eager constructors are unchanged (their RNG draw order is pinned by
//! the golden fingerprints); the stream is the scalable path beside them.

use crate::fees::FeeDistribution;
use cshard_ledger::Transaction;
use cshard_primitives::{Address, AddressSlots, Amount, ContractId, SimTime};
use cshard_sim::SimRng;

/// Value carried by every streamed transfer (mirrors the eager
/// generators: metrics never depend on transfer size).
const TX_VALUE: Amount = Amount(1_000);
/// User-index base for adversarial throwaway accounts. Far above any
/// configurable account space (`accounts` is capped below it).
const SPAM_BASE: u64 = 1 << 41;

/// A window during which the arrival rate is multiplied (a traffic burst).
///
/// Bursts change the *gap distribution only*: the stream's clock still
/// advances by non-negative exponential delays, so timestamps never
/// reorder — a property test pins this.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstEpisode {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Arrival-rate multiplier inside the window (≥ 1 is a burst; values
    /// in (0, 1) model lulls).
    pub rate_multiplier: f64,
}

/// An adversarial spam-flood window: a fraction of arrivals becomes
/// minimum-fee direct transfers from fresh, never-repeating accounts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpamFlood {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Probability an arrival inside the window is spam (clamped to
    /// `[0, 1]`).
    pub fraction: f64,
}

/// Configuration of a [`TxStream`].
#[derive(Clone, Debug, PartialEq)]
pub struct StreamConfig {
    /// Size of the sender account space. Only accounts that actually send
    /// are ever materialized, so `10⁶+` is cheap.
    pub accounts: u64,
    /// Number of registered contracts. Each owns `accounts / contracts`
    /// users as its community.
    pub contracts: u32,
    /// Zipf exponent for contract popularity (> 0; larger = hotter head).
    pub zipf_s: f64,
    /// Mean inter-arrival gap of the Poisson process.
    pub mean_interarrival: SimTime,
    /// Probability an arrival is a direct user-to-user transfer
    /// (MaxShard-bound traffic).
    pub direct_fraction: f64,
    /// Probability a contract call diversifies to a *second* contract —
    /// the churn knob: a diversified sender becomes multi-contract and
    /// must be reclassified.
    pub diversify: f64,
    /// Fee model for non-spam traffic (spam always pays the minimum fee).
    pub fees: FeeDistribution,
    /// Burst episodes, evaluated against the stream clock.
    pub bursts: Vec<BurstEpisode>,
    /// Optional adversarial spam-flood window.
    pub spam: Option<SpamFlood>,
    /// Master seed; the entire stream is a pure function of it.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            accounts: 1_000,
            contracts: 8,
            zipf_s: 1.1,
            mean_interarrival: SimTime::from_millis(500),
            direct_fraction: 0.1,
            diversify: 0.02,
            fees: FeeDistribution::Uniform { lo: 1, hi: 100 },
            bursts: Vec::new(),
            spam: None,
            seed: 0,
        }
    }
}

/// A deterministic, allocation-light stream of timestamped transactions.
///
/// Implements `Iterator<Item = (SimTime, Transaction)>`; the stream is
/// infinite — bound it with [`Iterator::take`] or [`Iterator::take_while`]
/// on the timestamp.
#[derive(Debug)]
pub struct TxStream {
    config: StreamConfig,
    clock: SimTime,
    /// Inter-arrival gaps only — independent of the shape draws, so the
    /// arrival *process* is unchanged by mix parameters.
    arrivals: SimRng,
    /// Contract / sender / spam / diversify picks.
    shape: SimRng,
    /// Fee draws.
    fee_rng: SimRng,
    /// Cumulative (unnormalized) Zipf weights per contract rank.
    contract_cdf: Vec<f64>,
    /// Lazy per-sender nonces: grows with *emitted* senders only.
    nonces: AddressSlots<u64>,
    /// Next throwaway spam account index.
    spam_next: u64,
}

impl TxStream {
    /// Builds a stream from its configuration.
    ///
    /// # Panics
    /// Panics on a malformed configuration (zero accounts/contracts,
    /// non-positive Zipf exponent or mean gap, account space colliding
    /// with the reserved spam index range) — mirroring the eager
    /// generators' input validation.
    pub fn new(config: StreamConfig) -> TxStream {
        assert!(config.accounts >= 1, "need at least one account");
        assert!(config.contracts >= 1, "need at least one contract");
        assert!(config.accounts < SPAM_BASE, "account space too large");
        assert!(
            config.zipf_s > 0.0 && config.zipf_s.is_finite(),
            "zipf exponent must be positive"
        );
        assert!(
            config.mean_interarrival > SimTime::ZERO,
            "mean inter-arrival gap must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&config.direct_fraction),
            "direct_fraction is a probability"
        );
        assert!(
            (0.0..=1.0).contains(&config.diversify),
            "diversify is a probability"
        );
        for b in &config.bursts {
            assert!(b.start < b.end, "burst window is empty");
            assert!(
                b.rate_multiplier > 0.0 && b.rate_multiplier.is_finite(),
                "burst multiplier must be positive"
            );
        }
        let mut cum = 0.0;
        let contract_cdf = (1..=config.contracts as u64)
            .map(|k| {
                cum += (k as f64).powf(-config.zipf_s);
                cum
            })
            .collect();
        let mut root = SimRng::new(config.seed);
        let arrivals = root.fork(0);
        let shape = root.fork(1);
        let fee_rng = root.fork(2);
        TxStream {
            config,
            clock: SimTime::ZERO,
            arrivals,
            shape,
            fee_rng,
            contract_cdf,
            nonces: AddressSlots::new(),
            spam_next: 0,
        }
    }

    /// The stream's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The arrival-rate multiplier in effect at `at` (product of all
    /// covering burst episodes; 1.0 outside every window).
    fn rate_multiplier(&self, at: SimTime) -> f64 {
        self.config
            .bursts
            .iter()
            .filter(|b| b.start <= at && at < b.end)
            .map(|b| b.rate_multiplier)
            .product()
    }

    /// Draws a contract rank from the Zipf CDF (0 = hottest).
    fn draw_contract(&mut self) -> u32 {
        let total = match self.contract_cdf.last() {
            Some(&t) => t,
            None => return 0,
        };
        let u = self.shape.unit() * total;
        u32::try_from(self.contract_cdf.partition_point(|&c| c < u)).unwrap_or(u32::MAX)
    }

    /// Users per contract community (at least 1).
    fn pool(&self) -> u64 {
        (self.config.accounts / self.config.contracts as u64).max(1)
    }

    /// Draws a sender from contract `c`'s community. Communities are
    /// disjoint account slices (`c * pool .. (c + 1) * pool`); when the
    /// account space is smaller than the contract count the slices wrap
    /// and overlapping members become multi-contract — a degenerate but
    /// well-defined edge.
    fn draw_member(&mut self, c: u32) -> Address {
        let pool = self.pool();
        let base = (c as u64 * pool) % self.config.accounts;
        Address::user(base + self.shape.below(pool))
    }

    fn next_nonce(&mut self, sender: Address) -> u64 {
        let n = self.nonces.entry(sender, || 0);
        let v = *n;
        *n += 1;
        v
    }

    fn fee(&mut self) -> Amount {
        Amount::from_raw(self.config.fees.sample(self.fee_rng.raw()))
    }
}

impl Iterator for TxStream {
    type Item = (SimTime, Transaction);

    fn next(&mut self) -> Option<(SimTime, Transaction)> {
        // Advance the Poisson clock: the burst multiplier scales the rate
        // at the *current* time, the gap is exponential, and the clock
        // only ever moves forward (gaps are non-negative by construction).
        let mean_s = self.config.mean_interarrival.as_secs_f64();
        let rate = self.rate_multiplier(self.clock) / mean_s;
        let gap = SimTime::from_secs_f64(self.arrivals.exponential(rate));
        self.clock = self.clock.saturating_add(gap);
        let now = self.clock;

        // Spam flood: fresh throwaway sender, minimum fee, never repeats.
        if let Some(spam) = self.config.spam {
            if spam.start <= now && now < spam.end && self.shape.coin(spam.fraction) {
                let sender = Address::user(SPAM_BASE + 2 * self.spam_next);
                let sink = Address::user(SPAM_BASE + 2 * self.spam_next + 1);
                self.spam_next += 1;
                return Some((
                    now,
                    Transaction::direct(sender, 0, sink, TX_VALUE, Amount::from_raw(1)),
                ));
            }
        }

        // Organic traffic: a community member transfers directly, or calls
        // its home contract (occasionally diversifying to a second one).
        let tx = if self.shape.coin(self.config.direct_fraction) {
            let c = self.draw_contract();
            let sender = self.draw_member(c);
            let to = self.draw_member(c);
            let (nonce, fee) = (self.next_nonce(sender), self.fee());
            Transaction::direct(sender, nonce, to, TX_VALUE, fee)
        } else {
            let c = self.draw_contract();
            let sender = self.draw_member(c);
            let called = if self.shape.coin(self.config.diversify) {
                ContractId::new((c + 1) % self.config.contracts)
            } else {
                ContractId::new(c)
            };
            let (nonce, fee) = (self.next_nonce(sender), self.fee());
            Transaction::call(sender, nonce, called, TX_VALUE, fee)
        };
        Some((now, tx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_ledger::TxKind;
    use std::collections::BTreeMap;

    fn collect_n(config: StreamConfig, n: usize) -> Vec<(SimTime, Transaction)> {
        TxStream::new(config).take(n).collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let a = collect_n(StreamConfig::default(), 500);
        let b = collect_n(StreamConfig::default(), 500);
        assert_eq!(a, b);
        let c = collect_n(
            StreamConfig {
                seed: 1,
                ..StreamConfig::default()
            },
            500,
        );
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn timestamps_are_monotone_non_decreasing() {
        let txs = collect_n(
            StreamConfig {
                bursts: vec![BurstEpisode {
                    start: SimTime::from_secs(10),
                    end: SimTime::from_secs(20),
                    rate_multiplier: 50.0,
                }],
                ..StreamConfig::default()
            },
            2_000,
        );
        for w in txs.windows(2) {
            assert!(w[0].0 <= w[1].0, "reordered: {:?} -> {:?}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn bursts_compress_inter_arrival_gaps() {
        let window = (SimTime::from_secs(60), SimTime::from_secs(120));
        let txs = collect_n(
            StreamConfig {
                mean_interarrival: SimTime::from_millis(200),
                bursts: vec![BurstEpisode {
                    start: window.0,
                    end: window.1,
                    rate_multiplier: 10.0,
                }],
                ..StreamConfig::default()
            },
            5_000,
        );
        let inside = txs
            .iter()
            .filter(|(t, _)| window.0 <= *t && *t < window.1)
            .count();
        let outside_same_span = txs
            .iter()
            .filter(|(t, _)| *t < window.0 && *t >= SimTime::ZERO)
            .count()
            .max(1);
        // 60 s of burst at 10× vs the first 60 s at 1×.
        assert!(
            inside > 3 * outside_same_span,
            "burst invisible: {inside} inside vs {outside_same_span} before"
        );
    }

    #[test]
    fn million_account_stream_is_cheap_and_lazy() {
        let mut s = TxStream::new(StreamConfig {
            accounts: 1_000_000,
            contracts: 64,
            ..StreamConfig::default()
        });
        let txs: Vec<_> = s.by_ref().take(1_000).collect();
        assert_eq!(txs.len(), 1_000);
        // Memory scales with emitted senders, not the account space.
        assert!(s.nonces.len() <= 1_000);
    }

    #[test]
    fn hot_contracts_dominate() {
        let stream = TxStream::new(StreamConfig {
            contracts: 16,
            zipf_s: 1.2,
            direct_fraction: 0.0,
            diversify: 0.0,
            ..StreamConfig::default()
        });
        let mut counts = vec![0u64; 16];
        for (_, tx) in stream.take(8_000) {
            if let Some(c) = tx.kind.contract() {
                counts[c.0 as usize] += 1;
            }
        }
        assert!(
            counts[0] > counts[15] * 4,
            "no zipf concentration: {counts:?}"
        );
    }

    #[test]
    fn spam_flood_uses_fresh_min_fee_accounts() {
        let window = SpamFlood {
            start: SimTime::ZERO,
            end: SimTime::MAX,
            fraction: 1.0,
        };
        let txs = collect_n(
            StreamConfig {
                spam: Some(window),
                ..StreamConfig::default()
            },
            200,
        );
        let mut seen = std::collections::BTreeSet::new();
        for (_, tx) in &txs {
            assert!(matches!(tx.kind, TxKind::DirectTransfer { .. }));
            assert_eq!(tx.fee, Amount::from_raw(1), "spam pays the minimum fee");
            assert!(seen.insert(tx.sender), "spam sender repeated");
        }
    }

    #[test]
    fn repeat_senders_get_sequential_nonces() {
        // A tiny account space forces repeats quickly.
        let txs = collect_n(
            StreamConfig {
                accounts: 4,
                contracts: 2,
                direct_fraction: 0.0,
                diversify: 0.0,
                ..StreamConfig::default()
            },
            100,
        );
        let mut last: BTreeMap<Address, u64> = BTreeMap::new();
        for (_, tx) in &txs {
            let expect = last.get(&tx.sender).map_or(0, |n| n + 1);
            assert_eq!(tx.nonce, expect, "nonce gap for {:?}", tx.sender);
            last.insert(tx.sender, tx.nonce);
        }
    }

    #[test]
    fn stream_prefix_validates_against_a_funded_genesis() {
        let txs: Vec<Transaction> = TxStream::new(StreamConfig::default())
            .take(300)
            .map(|(_, tx)| tx)
            .collect();
        crate::assert_validates(&txs);
    }

    #[test]
    fn diversified_senders_touch_two_contracts() {
        let txs = collect_n(
            StreamConfig {
                accounts: 32,
                contracts: 4,
                direct_fraction: 0.0,
                diversify: 0.5,
                ..StreamConfig::default()
            },
            600,
        );
        let mut per_sender: BTreeMap<Address, std::collections::BTreeSet<u32>> = BTreeMap::new();
        for (_, tx) in &txs {
            if let Some(c) = tx.kind.contract() {
                per_sender.entry(tx.sender).or_default().insert(c.0);
            }
        }
        assert!(
            per_sender.values().any(|s| s.len() > 1),
            "diversification never happened"
        );
    }

    #[test]
    #[should_panic(expected = "zipf exponent")]
    fn zero_zipf_exponent_rejected() {
        TxStream::new(StreamConfig {
            zipf_s: 0.0,
            ..StreamConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "burst window")]
    fn empty_burst_window_rejected() {
        TxStream::new(StreamConfig {
            bursts: vec![BurstEpisode {
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(5),
                rate_multiplier: 2.0,
            }],
            ..StreamConfig::default()
        });
    }
}
