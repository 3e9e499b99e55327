//! How found blocks become visible to a shard's other miners.

use cshard_network::{Blackouts, LatencyModel};
use cshard_primitives::SimTime;
use cshard_sim::SimRng;

/// The block-propagation regime of a run.
///
/// Table I's plateau comes from propagation: a block found before a
/// competing confirmation has reached the whole shard duplicates that
/// confirmation's selection and is wasted. Visibility has one rule: a
/// confirming block's delivery time, drawn once — the link delay, deferred
/// past any blackout window the broadcast starts or lands in.
#[derive(Clone, Debug, PartialEq)]
pub enum PropagationModel {
    /// A fixed conflict window `w`: exactly
    /// `Network { latency: LatencyModel::constant(w), blackouts: Blackouts::NONE }`
    /// (a constant delay ignores its draw, so both run one trajectory).
    Window(SimTime),
    /// A link with blackouts; a fault plan's partitions are unioned onto
    /// them ([`PropagationModel::with_blackouts`]).
    Network {
        /// Link delay while the shard is connected.
        latency: LatencyModel,
        /// Spans during which deliveries cannot complete.
        blackouts: Blackouts,
    },
}

impl PropagationModel {
    /// The model as a link: its delay and its blackouts.
    fn link(&self) -> (LatencyModel, &Blackouts) {
        static NONE: Blackouts = Blackouts::NONE;
        match self {
            PropagationModel::Window(w) => (LatencyModel::constant(*w), &NONE),
            PropagationModel::Network { latency, blackouts } => (*latency, blackouts),
        }
    }

    /// When a block broadcast at `now` reaches the whole shard.
    pub fn delivery_time(&self, now: SimTime, rng: &mut SimRng) -> SimTime {
        let (latency, blackouts) = self.link();
        blackouts.delivery(now, latency.delay(rng.unit()))
    }

    /// This model's link with `extra` unioned onto its blackouts.
    pub fn with_blackouts(&self, extra: &Blackouts) -> PropagationModel {
        let (latency, blackouts) = self.link();
        PropagationModel::Network {
            latency,
            blackouts: blackouts.union(extra),
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

    /// A window schedules no delivery event: its delivery is a time, the
    /// constant link's — `w` after the block confirms, whatever its draw.
    #[test]
    fn window_schedules_no_deliveries() {
        let w = SimTime::from_secs(60);
        let window = PropagationModel::Window(w);
        let link = network(LatencyModel::constant(w), &[]);
        let mut rng = rng();
        for now in [0, 5, 1000].map(SimTime::from_secs) {
            let at = window.delivery_time(now, &mut rng);
            assert_eq!(at, now.saturating_add(w));
            assert_eq!(at, link.delivery_time(now, &mut rng));
        }
    }

    #[test]
    fn latency_delivery_is_now_plus_delay() {
        let m = network(LatencyModel::constant(SimTime::from_millis(250)), &[]);
        assert_eq!(
            m.delivery_time(SimTime::from_secs(1), &mut rng()),
            SimTime::from_millis(1250)
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
            SimTime::from_millis(5100)
        );
    }

    /// Added blackouts keep the model's own link and windows.
    #[test]
    fn added_blackouts_keep_the_own_link() {
        let ms = SimTime::from_millis;
        let own = network(LatencyModel::wide_area(), &[(ms(4000), ms(9000))]);
        let extra = Blackouts::new([(ms(1000), ms(5000))]).expect("valid");
        let both = network(LatencyModel::wide_area(), &[(ms(1000), ms(9000))]);
        assert_eq!(own.with_blackouts(&extra), both);
    }
}
