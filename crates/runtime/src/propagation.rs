//! How found blocks become visible to a shard's other miners.

use cshard_network::{LatencyModel, PartitionModel};
use cshard_primitives::SimTime;

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
    /// delivery events are scheduled — visibility is a pure time check —
    /// so runs under this model are bit-identical to the pre-refactor
    /// simulator (the golden fingerprints assert exactly that).
    Window(SimTime),
    /// Explicit network-backed propagation: each confirming block's
    /// delivery delay is drawn from the latency model and materialized
    /// as an [`crate::Event::BlockDelivered`] event; until it fires, the
    /// other miners keep mining against the pre-confirmation queue.
    Latency(LatencyModel),
    /// Latency-backed propagation overlaid with partition blackout
    /// windows: deliveries that would complete while the shard is
    /// partitioned are deferred past the heal time. Used by the
    /// fault-injection subsystem; with no windows it is exactly
    /// [`PropagationModel::Latency`] over the model's base.
    Partition(PartitionModel),
}

impl PropagationModel {
    /// The worst-case span during which a found block can conflict with
    /// an earlier confirmation — the window itself, or the network
    /// model's maximum delivery delay.
    pub fn conflict_window(&self) -> SimTime {
        match self {
            PropagationModel::Window(w) => *w,
            PropagationModel::Latency(m) => m.max_delay(),
            PropagationModel::Partition(m) => m.max_delay(),
        }
    }

    /// When a block broadcast at `now` reaches the whole shard, given a
    /// uniform draw `u ∈ [0, 1)` — or `None` under the legacy window
    /// model, which schedules no delivery events at all. Callers must
    /// only burn an RNG draw when this can return `Some`, so window-model
    /// trajectories stay bit-identical to the pre-refactor simulator.
    pub fn delivery_time(&self, now: SimTime, u: f64) -> Option<SimTime> {
        match self {
            PropagationModel::Window(_) => None,
            PropagationModel::Latency(m) => Some(now.saturating_add(m.delay(u))),
            PropagationModel::Partition(m) => Some(m.delivery_at(now, u)),
        }
    }

    /// Whether this model materializes deliveries as events (everything
    /// except the legacy window).
    pub fn schedules_deliveries(&self) -> bool {
        !matches!(self, PropagationModel::Window(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_network::PartitionWindow;

    #[test]
    fn window_reports_itself() {
        let w = PropagationModel::Window(SimTime::from_secs(60));
        assert_eq!(w.conflict_window(), SimTime::from_secs(60));
    }

    #[test]
    fn latency_reports_max_delay() {
        let m = PropagationModel::Latency(LatencyModel::wide_area());
        assert_eq!(m.conflict_window(), LatencyModel::wide_area().max_delay());
    }

    #[test]
    fn window_schedules_no_deliveries() {
        let w = PropagationModel::Window(SimTime::from_secs(60));
        assert_eq!(w.delivery_time(SimTime::from_secs(5), 0.5), None);
        assert!(!w.schedules_deliveries());
    }

    #[test]
    fn latency_delivery_is_now_plus_delay() {
        let m = PropagationModel::Latency(LatencyModel::constant(SimTime::from_millis(250)));
        assert_eq!(
            m.delivery_time(SimTime::from_secs(1), 0.0),
            Some(SimTime::from_millis(1250))
        );
        assert!(m.schedules_deliveries());
    }

    #[test]
    fn partition_defers_past_the_heal() {
        let model = PartitionModel::new(
            LatencyModel::constant(SimTime::from_millis(100)),
            vec![PartitionWindow {
                from: SimTime::from_millis(1000),
                until: SimTime::from_millis(5000),
            }],
        )
        .expect("valid windows");
        let p = PropagationModel::Partition(model);
        assert_eq!(
            p.delivery_time(SimTime::from_millis(2000), 0.0),
            Some(SimTime::from_millis(5100))
        );
        assert_eq!(p.conflict_window(), SimTime::from_millis(100 + 4000),);
    }
}
