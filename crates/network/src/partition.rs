//! Blackout windows: spans during which a link cannot deliver.
//!
//! The paper's unification scheme assumes broadcasts eventually reach every
//! miner (Sec. IV-C); the fault-injection subsystem needs the complement —
//! spans during which a shard's traffic *cannot* complete, and during
//! which a crashed miner cannot mine. [`Blackouts`] is that rule written
//! once, as a table of half-open windows `[from, until)`, and three
//! consumers read it: block propagation ([`Blackouts::delivery`]: a
//! broadcast that starts or lands inside a window reaches the shard only
//! after the heal, plus the link delay), crosslink settlement
//! ([`Blackouts::heal`]: a flush or a migration apply inside a window
//! defers to the heal) and a miner's downtime ([`Blackouts::heal`]: a
//! block-found tick inside a window is swallowed and the next one fires at
//! the heal). The table is a pure function of `t` — no state, no clocks —
//! so faulted runs replay bit-identically like everything else.

use cshard_primitives::{Error, SimTime};

/// A table of blackout windows, sorted by start time.
///
/// Overlapping windows are merged into their union. Touching windows
/// (`[a, b)` and `[b, c)`) stay separate on purpose: a delivery deferred to
/// `b + hop` may jump the second window when `hop ≥ c − b`, where one
/// merged window would hold it until `c + hop`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Blackouts {
    windows: Vec<(SimTime, SimTime)>,
}

impl Blackouts {
    /// The table that blacks out nothing.
    pub const NONE: Blackouts = Blackouts {
        windows: Vec::new(),
    };

    /// Builds the table from `[from, until)` windows in any order,
    /// rejecting an empty window (`from >= until`) with a typed error.
    pub fn new(windows: impl IntoIterator<Item = (SimTime, SimTime)>) -> Result<Self, Error> {
        let windows: Vec<(SimTime, SimTime)> = windows.into_iter().collect();
        if let Some(&(from, until)) = windows.iter().find(|(from, until)| from >= until) {
            return Err(Error::Config {
                field: "partition_window",
                reason: format!("empty window: from {from} to {until}"),
            });
        }
        Ok(Blackouts::merged(windows))
    }

    /// Sorts non-empty windows and merges the overlapping ones.
    fn merged(mut windows: Vec<(SimTime, SimTime)>) -> Self {
        windows.sort_unstable();
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(windows.len());
        for (from, until) in windows {
            match merged.last_mut() {
                Some(last) if from < last.1 => last.1 = last.1.max(until),
                _ => merged.push((from, until)),
            }
        }
        Blackouts { windows: merged }
    }

    /// Every instant blacked out in either table.
    pub fn union(&self, other: &Blackouts) -> Blackouts {
        Blackouts::merged(self.windows.iter().chain(&other.windows).copied().collect())
    }

    /// Whether the table blacks out nothing.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The end of the window containing `t`, if one does.
    fn end_of(&self, t: SimTime) -> Option<SimTime> {
        let i = self.windows.partition_point(|&(from, _)| from <= t);
        let (_, until) = *self.windows.get(i.checked_sub(1)?)?;
        (t < until).then_some(until)
    }

    /// If `t` is blacked out, the instant the blackout heals, chained
    /// through touching windows (the heal of one may open the next).
    pub fn heal(&self, t: SimTime) -> Option<SimTime> {
        let mut at = self.end_of(t)?;
        while let Some(until) = self.end_of(at) {
            at = until;
        }
        Some(at)
    }

    /// When a broadcast started at `now` over a link of delay `hop`
    /// completes.
    ///
    /// Outside every window this is `now + hop`. A broadcast started
    /// inside a window — or whose arrival would land inside one — completes
    /// only after the heal, plus the same link delay (the healed shard
    /// re-floods over the same links), and an arrival re-deferred into a
    /// later window keeps getting deferred. Saturates at [`SimTime::MAX`].
    pub fn delivery(&self, now: SimTime, hop: SimTime) -> SimTime {
        let mut at = self.end_of(now).unwrap_or(now).saturating_add(hop);
        while let Some(until) = self.end_of(at) {
            at = until.saturating_add(hop);
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn table(windows: &[(u64, u64)]) -> Blackouts {
        Blackouts::new(windows.iter().map(|&(from, until)| (ms(from), ms(until))))
            .expect("valid windows")
    }

    const HOP: SimTime = SimTime::from_millis(100);

    #[test]
    fn no_windows_is_the_bare_link() {
        let b = table(&[]);
        assert_eq!(b.delivery(ms(500), HOP), ms(600));
        assert_eq!(b.heal(ms(500)), None);
    }

    #[test]
    fn broadcast_inside_a_window_waits_for_the_heal() {
        let b = table(&[(1000, 5000)]);
        // Found at t=2s, mid-partition: delivers at heal + link delay.
        assert_eq!(b.delivery(ms(2000), HOP), ms(5100));
        // Found after the heal: base behaviour again.
        assert_eq!(b.delivery(ms(5000), HOP), ms(5100));
    }

    #[test]
    fn delivery_landing_inside_a_window_is_deferred() {
        let b = table(&[(1000, 5000)]);
        // Found at t=950ms, nominal delivery 1050ms lands in the blackout.
        assert_eq!(b.delivery(ms(950), HOP), ms(5100));
        // Found at t=890ms, nominal delivery 990ms beats the partition.
        assert_eq!(b.delivery(ms(890), HOP), ms(990));
    }

    #[test]
    fn chained_windows_defer_repeatedly() {
        let b = table(&[(1000, 5000), (5050, 6000)]);
        // Deferred past the first heal (5100) → lands in the second
        // window → deferred past its heal too.
        assert_eq!(b.delivery(ms(2000), HOP), ms(6100));
        // A delivery broadcast at the first window's start waits both out.
        assert_eq!(b.delivery(ms(1000), HOP), ms(6100));
    }

    #[test]
    fn heal_chains_through_touching_windows_only() {
        let b = table(&[(100, 600), (600, 800), (900, 950)]);
        assert_eq!(b.heal(ms(500)), Some(ms(800)));
        assert_eq!(b.heal(ms(800)), None);
        assert_eq!(b.heal(ms(920)), Some(ms(950)));
    }

    #[test]
    fn touching_windows_stay_separate_and_a_long_hop_jumps_the_gap() {
        let b = table(&[(1000, 5000), (5000, 5050)]);
        assert_ne!(b, table(&[(1000, 5050)]));
        // Deferred to 5100, past the short second window.
        assert_eq!(b.delivery(ms(2000), HOP), ms(5100));
    }

    #[test]
    fn overlapping_windows_merge_into_their_union() {
        let b = table(&[(30, 90), (10, 60)]);
        assert_eq!(b, table(&[(10, 90)]));
        assert_eq!(b.heal(ms(20)), Some(ms(90)));
        let u = table(&[(0, 10)]).union(&table(&[(5, 20), (30, 40)]));
        assert_eq!(u, table(&[(0, 20), (30, 40)]));
    }

    #[test]
    fn empty_windows_rejected() {
        let err = Blackouts::new([(ms(5), ms(5))]).expect_err("empty window");
        assert!(matches!(
            err,
            Error::Config {
                field: "partition_window",
                ..
            }
        ));
    }

    #[test]
    fn windows_are_sorted_on_construction() {
        let b = table(&[(5000, 6000), (1000, 2000)]);
        assert_eq!(b, table(&[(1000, 2000), (5000, 6000)]));
        assert_eq!(b.heal(ms(1500)), Some(ms(2000)));
        assert_eq!(b.heal(ms(5500)), Some(ms(6000)));
    }
}
