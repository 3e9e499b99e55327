//! The settlement knob set, threaded through `RuntimeConfig` and
//! `SystemBuilder`: off by default, bit-invisible until a run opts in.

use cshard_primitives::{Error, SimTime};

/// Batched-settlement configuration.
///
/// The defaults mirror the Vision-Node crosslink calibration (~100
/// transfers per crosslink, 500 ms flush timeout) but stay **disabled**:
/// a default config books one message per transfer, which is the per-tx
/// 2PC ledger every golden experiment pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SettleConfig {
    /// Whether flushes are batched at all. `false` settles each transfer
    /// individually the instant it confirms — the unbatched ledger, and
    /// the behaviour `batch_cap = 1` must reproduce tx-for-tx.
    pub enabled: bool,
    /// Transfers per destination shard that force a flush. A full batch
    /// flushes synchronously inside the submitting event.
    pub batch_cap: usize,
    /// Simulated-time bound on how long the first transfer of a batch may
    /// wait before a flush is forced (armed as a runtime event by the
    /// caller — never a wall clock).
    pub timeout: SimTime,
}

impl SettleConfig {
    /// The off switch: per-transfer settlement, no batching state at all.
    pub const fn disabled() -> Self {
        SettleConfig {
            enabled: false,
            batch_cap: 100,
            timeout: SimTime::from_millis(500),
        }
    }

    /// Batched settlement at `batch_cap` with the default 500 ms timeout.
    pub const fn batched(batch_cap: usize) -> Self {
        SettleConfig {
            enabled: true,
            batch_cap,
            timeout: SimTime::from_millis(500),
        }
    }

    /// Validates the knob set: an enabled config needs a positive cap and
    /// a positive timeout (a zero timeout would flush every batch in the
    /// submitting event and silently degenerate to `batch_cap = 1`).
    pub fn validate(&self) -> Result<(), Error> {
        if !self.enabled {
            return Ok(());
        }
        if self.batch_cap == 0 {
            return Err(Error::Config {
                field: "settle.batch_cap",
                reason: "must be at least 1 when settlement is enabled".into(),
            });
        }
        if self.timeout == SimTime::ZERO {
            return Err(Error::Config {
                field: "settle.timeout",
                reason: "must be positive when settlement is enabled".into(),
            });
        }
        Ok(())
    }
}

impl Default for SettleConfig {
    fn default() -> Self {
        SettleConfig::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_valid() {
        let c = SettleConfig::default();
        assert!(!c.enabled);
        assert_eq!(c, SettleConfig::disabled());
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn batched_uses_vision_node_timeout() {
        let c = SettleConfig::batched(100);
        assert!(c.enabled);
        assert_eq!(c.batch_cap, 100);
        assert_eq!(c.timeout, SimTime::from_millis(500));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn enabled_zero_cap_rejected() {
        let c = SettleConfig {
            enabled: true,
            batch_cap: 0,
            timeout: SimTime::from_millis(500),
        };
        assert!(matches!(
            c.validate(),
            Err(Error::Config {
                field: "settle.batch_cap",
                ..
            })
        ));
    }

    #[test]
    fn enabled_zero_timeout_rejected() {
        let c = SettleConfig {
            enabled: true,
            batch_cap: 10,
            timeout: SimTime::ZERO,
        };
        assert!(matches!(
            c.validate(),
            Err(Error::Config {
                field: "settle.timeout",
                ..
            })
        ));
    }

    #[test]
    fn disabled_is_valid_regardless_of_knobs() {
        let c = SettleConfig {
            enabled: false,
            batch_cap: 0,
            timeout: SimTime::ZERO,
        };
        assert_eq!(c.validate(), Ok(()));
    }
}
