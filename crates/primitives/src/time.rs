//! Simulated time.

use std::fmt;

/// A point in simulated time, in integer **milliseconds** since the start of
/// the simulation.
///
/// Milliseconds give a total order (needed by the event queue) while being
/// fine-grained enough for sub-second block intervals (the ChainSpace
/// comparison runs at 76 tx/s).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The end of simulated time (`u64::MAX` milliseconds).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Builds a time from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1000)
    }

    /// Builds a time from fractional seconds, rounding to milliseconds
    /// (half away from zero, saturating at [`SimTime::MAX`]).
    ///
    /// # Panics
    /// Panics on negative or non-finite input — simulated time never runs
    /// backwards.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the assert keeps `secs` finite and non-negative; past `u64` the cast saturates, as wanted"
    )]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "time must be finite and non-negative, got {secs}"
        );
        // `f64::round` is a libm call on baseline x86-64 (no `roundsd`),
        // and every mining tick passes through here. This is the same
        // rounding without it: below 2^53 the fraction `ms - t` is exact,
        // from 2^53 on `ms` is an integer (fraction 0), and past `u64`
        // both `as u64` and the saturating add stop at `u64::MAX`.
        let ms = secs * 1000.0;
        let t = ms as u64;
        SimTime(t.saturating_add(u64::from(ms - t as f64 >= 0.5)))
    }

    /// Raw milliseconds.
    pub const fn as_millis(&self) -> u64 {
        self.0
    }

    /// Time as fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating sum: clamps at [`SimTime::MAX`] instead of overflowing.
    pub fn saturating_add(&self, delay: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(delay.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_millis(), 1500);
        assert_eq!(SimTime::from_millis(250).as_secs_f64(), 0.25);
    }

    #[test]
    fn rounding_to_millis() {
        assert_eq!(SimTime::from_secs_f64(0.0004).as_millis(), 0);
        assert_eq!(SimTime::from_secs_f64(0.0006).as_millis(), 1);

        // The branch-free rounding equals the libm reference bit for bit.
        let reference = |secs: f64| (secs * 1000.0).round() as u64;
        let check = |secs: f64| {
            assert_eq!(
                SimTime::from_secs_f64(secs).as_millis(),
                reference(secs),
                "secs = {secs:e}"
            );
        };
        // Ties at x.5 milliseconds, from the first few to past 2^51 ms
        // (where the fraction is still representable); count the exact
        // ties so the grid provably contains some.
        let mut ties = 0;
        for k in (0..2_000u64).chain((1u64 << 51) - 1_000..(1u64 << 51) + 1_000) {
            let secs = (k as f64 + 0.5) / 1000.0;
            ties += usize::from((secs * 1000.0).fract() == 0.5);
            check(secs);
            check(f64::from_bits(secs.to_bits() + 1));
            check(f64::from_bits(secs.to_bits() - 1));
        }
        assert!(ties > 1_000, "only {ties} exact ties");
        // The largest double below 0.5, as seconds and as milliseconds.
        check(0.499_999_999_999_999_94);
        check(0.499_999_999_999_999_94 / 1000.0);
        // Milliseconds in [2^52, 2^53): every double there is an integer.
        let base = (1u64 << 52) as f64;
        for k in 0..1_000u64 {
            check((base + (k * 4_503_599_627) as f64) / 1000.0);
        }
        check(((1u64 << 53) as f64 - 1.0) / 1000.0);
        // Saturation: 2^64 - 2048 ms (the last double below 2^64) and far
        // beyond, as milliseconds and as seconds.
        let below_2_64 = 18_446_744_073_709_549_568.0_f64;
        check(below_2_64 / 1000.0);
        check(below_2_64);
        check(1e300);
        assert_eq!(SimTime::from_secs_f64(1e300), SimTime::MAX);
        // Exponential tick delays at the calibrations the runtime uses:
        // 1 ms, the ChainSpace 132 ms, the paper's 60 s and an hour.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for mean in [0.001, 0.132, 60.0, 3_600.0] {
            for _ in 0..1_000_000 {
                // SplitMix64 → a uniform in [0, 1) → Exp(mean).
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let u = (z ^ (z >> 31)) >> 11;
                let unit = u as f64 / (1u64 << 53) as f64;
                check(-(1.0 - unit).ln() * mean);
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_panics() {
        SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(100);
        let b = SimTime::from_millis(40);
        assert_eq!(a.saturating_add(b), SimTime::from_millis(140));
        assert_eq!(SimTime::MAX.saturating_add(a), SimTime::MAX);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert_eq!(SimTime::ZERO, SimTime::from_secs(0));
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
    }
}
