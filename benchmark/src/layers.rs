//! From one traced replay — its spans and the counts taken at the same
//! boundaries — to the per-layer metrics. Plain arithmetic; nothing here
//! touches the system under test.

use crate::metrics::span;
use crate::stats::{median, percentile};
use crate::trace::{by_name, Layer, Span, ROOT};
use std::collections::BTreeMap;

/// Work counted at the layer boundaries of one replay's timed region.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Transactions through the timed region.
    pub txs: u64,
    /// Epochs (streams), independent runs (paper), arms (settle).
    pub units: u64,
    pub injected: u64,
    pub confirmed: u64,
    pub stream_events: u64,
    pub stream_batches: u64,
    pub reclassified: u64,
    pub carried: u64,
    pub merge_iterations: u64,
    pub merge_warm_hits: u64,
    pub unify_iterations: u64,
    pub runtime_events: u64,
    /// Σ `ShardReport::wall` of the shard drivers.
    pub driver_wall_ns: u64,
    pub blocks: u64,
    pub empty_blocks: u64,
    pub stale_blocks: u64,
    pub tasks_scheduled: u64,
    pub tasks_skipped: u64,
    /// Scheduler turns of the runs the benchmark launches itself; Unify's
    /// inner run reports admissions only.
    pub turns: u64,
    pub moves: u64,
    pub settle_batches: u64,
    pub settle_txs: u64,
    /// `CommStats` total.
    pub messages: u64,
    /// What `messages` is divided by: transactions, or cross-shard
    /// transactions on the settlement workload.
    pub message_base: u64,
    /// Shards that ran, per epoch or run.
    pub shard_counts: Vec<u64>,
    pub maxshard_txs: u64,
    /// Σ and count of per-epoch throughput improvements over one chain.
    pub gain_sum: f64,
    pub gain_n: u64,
}

/// Direct calls into single layers, on inputs captured from the workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Probes {
    pub observe_ns_per_tx: f64,
    pub callgraph_senders: u64,
    pub full_classify_ns_per_tx: f64,
    pub merge_ns_per_call: f64,
    pub select_ns_per_call: f64,
    pub select_rounds_per_call: f64,
    pub drain_us: f64,
    pub queue_ns_per_event: f64,
    pub engine_observe_ns_per_tx: f64,
    pub batcher_ns_per_submit: f64,
}

fn per(numerator: f64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator / denominator as f64
    }
}

/// The simulated outcomes of a replay, under their end-to-end names.
pub fn outcomes(c: &Counts) -> BTreeMap<&'static str, f64> {
    use crate::metrics::*;
    BTreeMap::from([
        (SIM_THROUGHPUT_GAIN, per(c.gain_sum, c.gain_n)),
        (MAXSHARD_FRAC, per(c.maxshard_txs as f64, c.txs)),
        (
            EMPTY_BLOCKS_PER_KTX,
            per(c.empty_blocks as f64 * 1000.0, c.txs),
        ),
        (XSHARD_MSGS_PER_TX, per(c.messages as f64, c.message_base)),
    ])
}

/// The timed region of one replay: nanoseconds inside layer spans, and in
/// all. Over the untraced wall time these give coverage and 1 + overhead.
pub fn root_ns(spans: &[Span]) -> (f64, f64) {
    by_name(spans).get(ROOT).map_or((0.0, 0.0), |root| {
        ((root.total_ns - root.self_ns) as f64, root.total_ns as f64)
    })
}

/// Every span- and count-derived per-layer metric of one replay.
pub fn metrics(spans: &[Span], c: &Counts) -> BTreeMap<&'static str, f64> {
    let layers = by_name(spans);
    let none = Layer::default();
    let of = |name: &str| layers.get(name).unwrap_or(&none);
    let total = |name: &str| of(name).total_ns as f64;

    // One epoch of a stream and one independent run of the paper workloads
    // are the same unit of work: six stages plus glue.
    let unit = if of(span::EPOCH).count > 0 {
        of(span::EPOCH)
    } else {
        of(span::SYSTEM_RUN)
    };
    let unit_ms: Vec<f64> = unit
        .durations_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let shard_counts: Vec<f64> = c.shard_counts.iter().map(|&s| s as f64).collect();
    let chainspace_ns = total(span::CHAINSPACE_DRIVERS) + c.driver_wall_ns as f64;
    let on_settle = of(span::CHAINSPACE_DRIVERS).count > 0;

    let mut m = BTreeMap::from([
        ("workload.gen_ns_per_tx", per(total(span::GEN), c.txs)),
        ("workload.eager_build_ms", total(span::EAGER_BUILD) / 1e6),
        (
            "runtime.stream.seal_ns_per_tx",
            per(total(span::SEAL), c.txs),
        ),
        ("runtime.stream.events", c.stream_events as f64),
        ("runtime.stream.epochs", c.stream_batches as f64),
        ("core.classify.ns_per_tx", per(total(span::CLASSIFY), c.txs)),
        ("core.classify.reclassified", c.reclassified as f64),
        ("core.classify.carried", c.carried as f64),
        (
            "core.classify.carried_frac",
            per(c.carried as f64, c.carried + c.reclassified),
        ),
        ("core.form.ns_per_tx", per(total(span::FORM), c.txs)),
        (
            "core.select.ns_per_epoch",
            per(total(span::SELECT), c.units),
        ),
        ("core.merge.ns_per_epoch", per(total(span::MERGE), c.units)),
        ("core.merge.iterations", c.merge_iterations as f64),
        ("core.merge.warm_hits", c.merge_warm_hits as f64),
        ("core.unify.ns_per_tx", per(total(span::UNIFY), c.txs)),
        (
            "core.unify.overhead_ns_per_epoch",
            if of(span::UNIFY).count > 0 {
                per(total(span::UNIFY) - c.driver_wall_ns as f64, c.units)
            } else {
                0.0
            },
        ),
        ("core.unify.iterations", c.unify_iterations as f64),
        ("runtime.events", c.runtime_events as f64),
        (
            "runtime.driver_ns_per_event",
            per(c.driver_wall_ns as f64, c.runtime_events),
        ),
        ("runtime.blocks", c.blocks as f64),
        ("runtime.empty_blocks", c.empty_blocks as f64),
        ("runtime.stale_blocks", c.stale_blocks as f64),
        (
            "runtime.useful_block_frac",
            per(
                c.blocks.saturating_sub(c.empty_blocks + c.stale_blocks) as f64,
                c.blocks,
            ),
        ),
        ("sim.scheduler.tasks_scheduled", c.tasks_scheduled as f64),
        ("sim.scheduler.tasks_skipped", c.tasks_skipped as f64),
        ("sim.scheduler.turns", c.turns as f64),
        ("core.place.ns_per_tx", per(total(span::PLACE), c.txs)),
        ("core.place.moves", c.moves as f64),
        ("settle.batches", c.settle_batches as f64),
        (
            "settle.avg_fill",
            per(c.settle_txs as f64, c.settle_batches),
        ),
        ("network.comm.messages", c.messages as f64),
        (
            "baselines.chainspace.ns_per_event",
            if on_settle {
                per(chainspace_ns, c.runtime_events)
            } else {
                0.0
            },
        ),
        (
            "core.epoch.elect_ns_per_epoch",
            per(total(span::ELECT), c.units),
        ),
        (
            "runtime.ethereum.ns_per_tx",
            per(total(span::ETHEREUM), c.txs),
        ),
        (
            "core.longrun.glue_ns_per_tx",
            per(unit.self_ns as f64, c.txs),
        ),
        (
            "core.system.build_us",
            per(
                total(span::SYSTEM_BUILD) / 1e3,
                of(span::SYSTEM_BUILD).count,
            ),
        ),
        ("core.epoch.ms_p50", percentile(&unit_ms, 50.0)),
        ("core.epoch.ms_p95", percentile(&unit_ms, 95.0)),
        ("core.shards_per_epoch", median(&shard_counts)),
    ]);
    m.extend(outcomes(c));
    m
}

/// The probe results under their per-layer names.
pub fn probe_metrics(p: &Probes) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("ledger.callgraph.observe_ns_per_tx", p.observe_ns_per_tx),
        ("ledger.callgraph.senders", p.callgraph_senders as f64),
        (
            "core.formation.full_classify_ns_per_tx",
            p.full_classify_ns_per_tx,
        ),
        ("games.merge.ns_per_call", p.merge_ns_per_call),
        ("games.select.ns_per_call", p.select_ns_per_call),
        ("games.select.rounds_per_call", p.select_rounds_per_call),
        ("sim.scheduler.drain_us", p.drain_us),
        ("sim.queue.ns_per_event", p.queue_ns_per_event),
        ("place.engine.observe_ns_per_tx", p.engine_observe_ns_per_tx),
        ("settle.batcher.ns_per_submit", p.batcher_ns_per_submit),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            epoch: None,
        }
    }

    #[test]
    fn root_splits_into_layer_time_and_unattributed_time() {
        // rep 1000 ns, of which 900 sit inside layer spans.
        let spans = vec![
            s(ROOT, 0, 1000, None),
            s(span::GEN, 0, 300, Some(0)),
            s(span::EPOCH, 350, 950, Some(0)),
            s(span::CLASSIFY, 400, 900, Some(2)),
        ];
        assert_eq!(root_ns(&spans), (900.0, 1000.0));
        assert_eq!(root_ns(&[]), (0.0, 0.0));
    }

    #[test]
    fn metrics_divide_span_time_by_the_matching_count() {
        let spans = vec![
            s(ROOT, 0, 1000, None),
            s(span::EPOCH, 0, 400, Some(0)),
            s(span::CLASSIFY, 0, 300, Some(1)),
            s(span::EPOCH, 400, 1000, Some(0)),
            s(span::UNIFY, 400, 900, Some(3)),
        ];
        let c = Counts {
            txs: 100,
            units: 2,
            carried: 30,
            reclassified: 10,
            driver_wall_ns: 100,
            runtime_events: 50,
            blocks: 20,
            empty_blocks: 4,
            stale_blocks: 1,
            messages: 8,
            message_base: 100,
            shard_counts: vec![3, 9],
            gain_sum: 5.0,
            gain_n: 2,
            ..Counts::default()
        };
        let m = metrics(&spans, &c);
        assert_eq!(m["core.classify.ns_per_tx"], 3.0);
        assert_eq!(m["core.classify.carried_frac"], 0.75);
        assert_eq!(m["core.unify.overhead_ns_per_epoch"], 200.0);
        assert_eq!(m["runtime.driver_ns_per_event"], 2.0);
        assert_eq!(m["runtime.useful_block_frac"], 0.75);
        // Glue = the epochs' self time: (400-300) + (600-500).
        assert_eq!(m["core.longrun.glue_ns_per_tx"], 2.0);
        assert_eq!(m["core.shards_per_epoch"], 6.0);
        assert_eq!(m[crate::metrics::SIM_THROUGHPUT_GAIN], 2.5);
        assert_eq!(m[crate::metrics::XSHARD_MSGS_PER_TX], 0.08);
        assert_eq!(m[crate::metrics::EMPTY_BLOCKS_PER_KTX], 40.0);
        // Layers that never ran read zero, not NaN.
        assert_eq!(m["settle.avg_fill"], 0.0);
        assert_eq!(m["baselines.chainspace.ns_per_event"], 0.0);
        assert!(m.values().all(|v| v.is_finite()));
    }
}
