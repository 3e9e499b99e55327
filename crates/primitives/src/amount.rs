//! Coin amounts with checked arithmetic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A coin amount (balance, fee or transfer value) in the chain's smallest unit.
///
/// Arithmetic via `+`/`-` panics on overflow/underflow in all build profiles
/// — a ledger must never silently wrap. Use [`Amount::checked_sub`] where an
/// insufficient balance is an expected, recoverable condition.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Amount(pub u64);

impl Amount {
    /// Zero coins.
    pub const ZERO: Amount = Amount(0);

    /// One whole coin, in base units (10^9, a gwei-like granularity).
    pub const COIN: Amount = Amount(1_000_000_000);

    /// Builds an amount from raw base units.
    pub const fn from_raw(units: u64) -> Self {
        Amount(units)
    }

    /// Builds an amount from whole coins.
    ///
    /// Saturates at [`u64::MAX`] base units if `coins * 10^9` overflows —
    /// configuration-scale inputs never get near that, and saturation keeps
    /// this constructor off the panic path.
    pub fn from_coins(coins: u64) -> Self {
        Amount(coins.saturating_mul(Self::COIN.0))
    }

    /// Raw base units.
    pub const fn raw(&self) -> u64 {
        self.0
    }

    /// Returns `self - rhs`, or `None` when the balance is insufficient.
    pub fn checked_sub(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_sub(rhs.0).map(Amount)
    }

    /// Returns `self + rhs`, or `None` on overflow.
    pub fn checked_add(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_add(rhs.0).map(Amount)
    }

    /// Saturating addition — used by reward accounting where clamping at
    /// `u64::MAX` is preferable to a panic.
    pub fn saturating_add(self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_add(rhs.0))
    }

    /// True when the amount is zero.
    pub const fn is_zero(&self) -> bool {
        self.0 == 0
    }

    /// The amount as an `f64` — for expected-utility computations in the
    /// game layer, which work with fractional expected fees.
    pub fn as_f64(&self) -> f64 {
        self.0 as f64
    }
}

impl Add for Amount {
    type Output = Amount;
    fn add(self, rhs: Amount) -> Amount {
        Amount(self.0.checked_add(rhs.0).expect("Amount addition overflow"))
    }
}

impl AddAssign for Amount {
    fn add_assign(&mut self, rhs: Amount) {
        *self = *self + rhs;
    }
}

impl Sub for Amount {
    type Output = Amount;
    fn sub(self, rhs: Amount) -> Amount {
        Amount(
            self.0
                .checked_sub(rhs.0)
                .expect("Amount subtraction underflow"),
        )
    }
}

impl SubAssign for Amount {
    fn sub_assign(&mut self, rhs: Amount) {
        *self = *self - rhs;
    }
}

impl Sum for Amount {
    fn sum<I: Iterator<Item = Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = self.0 / Self::COIN.0;
        let frac = self.0 % Self::COIN.0;
        if frac == 0 {
            write!(f, "{whole} coin")
        } else {
            write!(f, "{whole}.{frac:09} coin")
        }
    }
}

impl fmt::Debug for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Amount({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coin_conversion() {
        assert_eq!(Amount::from_coins(2).raw(), 2_000_000_000);
        assert_eq!(Amount::from_coins(0), Amount::ZERO);
    }

    #[test]
    fn arithmetic_works() {
        let a = Amount::from_raw(5);
        let b = Amount::from_raw(3);
        assert_eq!(a + b, Amount::from_raw(8));
        assert_eq!(a - b, Amount::from_raw(2));
        let mut c = a;
        c += b;
        c -= Amount::from_raw(1);
        assert_eq!(c, Amount::from_raw(7));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = Amount::from_raw(1) - Amount::from_raw(2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn addition_overflow_panics() {
        let _ = Amount::from_raw(u64::MAX) + Amount::from_raw(1);
    }

    #[test]
    fn checked_ops() {
        assert_eq!(Amount::from_raw(1).checked_sub(Amount::from_raw(2)), None);
        assert_eq!(
            Amount::from_raw(3).checked_sub(Amount::from_raw(2)),
            Some(Amount::from_raw(1))
        );
        assert_eq!(
            Amount::from_raw(u64::MAX).checked_add(Amount::from_raw(1)),
            None
        );
        assert_eq!(
            Amount::from_raw(u64::MAX).saturating_add(Amount::from_raw(1)),
            Amount::from_raw(u64::MAX)
        );
    }

    #[test]
    fn sum_of_amounts() {
        let total: Amount = (1..=4u64).map(Amount::from_raw).sum();
        assert_eq!(total, Amount::from_raw(10));
    }

    #[test]
    fn display_formats_coins() {
        assert_eq!(Amount::from_coins(2).to_string(), "2 coin");
        assert_eq!(
            Amount::from_raw(1_500_000_000).to_string(),
            "1.500000000 coin"
        );
    }
}
