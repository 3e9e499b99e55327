//! Network latency model for block propagation.
//!
//! Table I's plateau comes from propagation: two blocks found within the
//! propagation window of each other are in conflict, and since vanilla
//! miners select identical transaction sets the loser's work is pure waste.
//! The model here is the standard constant-plus-jitter link delay.

use cshard_primitives::SimTime;

/// A broadcast latency model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Fixed one-way propagation delay.
    pub base: SimTime,
    /// Additional uniform jitter in `[0, jitter]`, sampled per delivery.
    pub jitter: SimTime,
}

impl LatencyModel {
    /// A typical wide-area blockchain gossip delay: ~2 s base with up to
    /// 1 s jitter (block relay measurements for Ethereum-like networks).
    pub fn wide_area() -> Self {
        LatencyModel {
            base: SimTime::from_millis(2000),
            jitter: SimTime::from_millis(1000),
        }
    }

    /// A constant-delay model.
    pub fn constant(delay: SimTime) -> Self {
        LatencyModel {
            base: delay,
            jitter: SimTime::ZERO,
        }
    }

    /// Samples one delivery delay given a uniform draw `u ∈ [0, 1)`.
    ///
    /// Taking the draw as a parameter (rather than an RNG) keeps this type
    /// pure and lets callers use their own seeded streams. Extreme models
    /// saturate at [`SimTime::MAX`] instead of overflowing — a delay can
    /// push an event past the end of representable time, never wrap it.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "`u` lies in [0, 1), so the product lies in [0, jitter)"
    )]
    pub fn delay(&self, u: f64) -> SimTime {
        assert!((0.0..1.0).contains(&u), "u must be in [0,1)");
        self.base.saturating_add(SimTime::from_millis(
            (self.jitter.as_millis() as f64 * u) as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_has_no_jitter() {
        let m = LatencyModel::constant(SimTime::from_millis(500));
        assert_eq!(m.delay(0.0), SimTime::from_millis(500));
        assert_eq!(m.delay(0.999), SimTime::from_millis(500));
    }

    #[test]
    fn jitter_spans_the_range() {
        let m = LatencyModel::wide_area();
        assert_eq!(m.delay(0.0), SimTime::from_millis(2000));
        let top = m.delay(0.999_999);
        assert!(top >= SimTime::from_millis(2990));
        assert!(top <= SimTime::from_millis(3000));
    }

    #[test]
    fn delay_is_monotone_in_u() {
        let m = LatencyModel::wide_area();
        assert!(m.delay(0.2) <= m.delay(0.8));
    }

    #[test]
    #[should_panic(expected = "u must be in")]
    fn out_of_range_draw_panics() {
        LatencyModel::wide_area().delay(1.0);
    }

    #[test]
    fn extreme_latencies_saturate_instead_of_overflowing() {
        let m = LatencyModel {
            base: SimTime::MAX,
            jitter: SimTime::from_secs(1),
        };
        assert_eq!(m.delay(0.999), SimTime::MAX);
    }
}
