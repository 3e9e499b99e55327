//! Coin amounts with checked arithmetic.

use std::fmt;

/// A coin amount (balance, fee or transfer value) in the chain's smallest unit.
///
/// There are no `+`/`-` operators: a ledger must never wrap, and an
/// operator could only panic on overflow. Arithmetic is
/// [`Amount::checked_add`] and [`Amount::checked_sub`], whose `None` the
/// caller turns into a typed error.
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

    /// The amount as an `f64` — for expected-utility computations in the
    /// game layer, which work with fractional expected fees.
    pub fn as_f64(&self) -> f64 {
        self.0 as f64
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
    fn display_formats_coins() {
        assert_eq!(Amount::from_coins(2).to_string(), "2 coin");
        assert_eq!(
            Amount::from_raw(1_500_000_000).to_string(),
            "1.500000000 coin"
        );
    }
}
