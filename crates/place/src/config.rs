//! Placement knobs, off by default.

use cshard_primitives::Error;

/// Configuration for the cross-epoch placement engine.
///
/// Like `SettleConfig`, the disabled configuration is the [`Default`] and
/// is bit-invisible: with `enabled == false` the merge stage recomputes
/// from scratch every epoch, the placement stage emits no work and no
/// migration ever reaches the runtime, so every golden fingerprint is
/// byte-identical to a build without the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlacementConfig {
    /// Master switch. When `false` every other knob is ignored. When
    /// `true` the merge stage carries its groups across epochs
    /// (re-validating each against the new shard sizes, re-running the
    /// replicator dynamics only where a group went out of bounds) and the
    /// placement stage proposes migrations.
    pub enabled: bool,
    /// A MaxShard-routed sender is migration-eligible only when at least
    /// this percentage of its observed contract calls target one
    /// contract. Must lie in `1..=100` when enabled.
    pub min_dominance_percent: u32,
    /// Minimum observed contract calls before a sender is considered at
    /// all; filters one-shot senders. Must be at least 1 when enabled.
    pub min_account_txs: u64,
    /// Upper bound on migrations proposed per epoch. Zero is legal and
    /// means "carry merge groups but never move an account".
    pub max_moves_per_epoch: usize,
}

impl PlacementConfig {
    /// Placement switched off: the pipeline behaves exactly as if the
    /// engine did not exist.
    pub const fn disabled() -> Self {
        PlacementConfig {
            enabled: false,
            min_dominance_percent: 0,
            min_account_txs: 0,
            max_moves_per_epoch: 0,
        }
    }

    /// The engaged profile used by the experiments: carry merge groups
    /// and migrate senders with a 60%-dominant contract, at least four
    /// observed calls, at most sixteen moves per epoch.
    pub const fn engaged() -> Self {
        PlacementConfig {
            enabled: true,
            min_dominance_percent: 60,
            min_account_txs: 4,
            max_moves_per_epoch: 16,
        }
    }

    /// Validates the knobs. A disabled configuration is always valid —
    /// the other fields are dead state, mirroring `SettleConfig`.
    pub fn validate(&self) -> Result<(), Error> {
        if !self.enabled {
            return Ok(());
        }
        if self.min_dominance_percent == 0 || self.min_dominance_percent > 100 {
            return Err(Error::Config {
                field: "placement.min_dominance_percent",
                reason: format!(
                    "dominance must lie in 1..=100, got {}",
                    self.min_dominance_percent
                ),
            });
        }
        if self.min_account_txs == 0 {
            return Err(Error::Config {
                field: "placement.min_account_txs",
                reason: "a sender needs at least one observed call".into(),
            });
        }
        Ok(())
    }
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_valid_regardless_of_knobs() {
        let mut cfg = PlacementConfig::disabled();
        cfg.min_dominance_percent = 9999;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn engaged_profile_is_valid() {
        assert!(PlacementConfig::engaged().validate().is_ok());
    }

    #[test]
    fn zero_moves_is_legal_carry_only_mode() {
        let cfg = PlacementConfig {
            max_moves_per_epoch: 0,
            ..PlacementConfig::engaged()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn bad_knobs_are_rejected_with_the_field_name() {
        let field = |cfg: PlacementConfig| match cfg.validate() {
            Err(Error::Config { field, .. }) => field,
            other => panic!("expected config error, got {other:?}"),
        };
        assert_eq!(
            field(PlacementConfig {
                min_dominance_percent: 0,
                ..PlacementConfig::engaged()
            }),
            "placement.min_dominance_percent"
        );
        assert_eq!(
            field(PlacementConfig {
                min_dominance_percent: 101,
                ..PlacementConfig::engaged()
            }),
            "placement.min_dominance_percent"
        );
        assert_eq!(
            field(PlacementConfig {
                min_account_txs: 0,
                ..PlacementConfig::engaged()
            }),
            "placement.min_account_txs"
        );
    }

    #[test]
    fn default_is_disabled() {
        assert_eq!(PlacementConfig::default(), PlacementConfig::disabled());
        assert!(!PlacementConfig::default().enabled);
    }
}
