//! How found blocks become visible to a shard's other miners.

use cshard_network::{Blackouts, LatencyModel};
use cshard_primitives::SimTime;
use cshard_sim::SimRng;

/// The block-propagation regime of a run.
///
/// Table I's plateau comes from propagation: a block found before a
/// competing confirmation has reached the whole shard duplicates that
/// confirmation's selection and is wasted. The variants model the
/// "not yet everywhere" span differently:
#[derive(Clone, Debug, PartialEq)]
pub enum PropagationModel {
    /// The legacy fixed conflict window: a block found within this span
    /// of a competing confirmation sees the pre-confirmation queue. No
    /// delivery time is drawn — visibility is a pure time check — so runs
    /// under this model are bit-identical to the pre-refactor simulator
    /// (the golden fingerprints assert exactly that).
    Window(SimTime),
    /// Network-backed propagation: when a block confirms, its delivery
    /// time is drawn once — the latency model's link delay, deferred past
    /// any blackout window it starts or lands in. Until that time the
    /// other miners keep mining against the pre-confirmation queue. A plain
    /// latency network has no blackouts; the fault harness adds its
    /// plan's partitions here.
    Network {
        /// Link delay while the shard is connected.
        latency: LatencyModel,
        /// Spans during which deliveries cannot complete.
        blackouts: Blackouts,
    },
}

impl PropagationModel {
    /// When a block broadcast at `now` reaches the whole shard, its link
    /// delay drawn from `rng` — or `None` under the legacy window model,
    /// which draws nothing, so window-model trajectories stay
    /// bit-identical to the pre-refactor simulator.
    pub fn delivery_time(&self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        match self {
            PropagationModel::Window(_) => None,
            PropagationModel::Network { latency, blackouts } => {
                Some(blackouts.delivery(now, latency.delay(rng.unit())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn network(latency: LatencyModel, windows: &[(SimTime, SimTime)]) -> PropagationModel {
        PropagationModel::Network {
            latency,
            blackouts: Blackouts::new(windows.iter().copied()).expect("valid windows"),
        }
    }

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    #[test]
    fn window_schedules_no_deliveries() {
        let w = PropagationModel::Window(SimTime::from_secs(60));
        let mut drawn = rng();
        assert_eq!(w.delivery_time(SimTime::from_secs(5), &mut drawn), None);
        assert_eq!(drawn.below(u64::MAX), rng().below(u64::MAX));
    }

    #[test]
    fn latency_delivery_is_now_plus_delay() {
        let m = network(LatencyModel::constant(SimTime::from_millis(250)), &[]);
        assert_eq!(
            m.delivery_time(SimTime::from_secs(1), &mut rng()),
            Some(SimTime::from_millis(1250))
        );
    }

    #[test]
    fn partition_defers_past_the_heal() {
        let p = network(
            LatencyModel::constant(SimTime::from_millis(100)),
            &[(SimTime::from_millis(1000), SimTime::from_millis(5000))],
        );
        assert_eq!(
            p.delivery_time(SimTime::from_millis(2000), &mut rng()),
            Some(SimTime::from_millis(5100))
        );
    }
}
