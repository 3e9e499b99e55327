//! The fixed vocabulary of the benchmark: workload names and why each
//! exists, every metric's name, unit, direction and regression bound, and
//! the span names the traced replay records. Later issues cite these names;
//! `BENCHMARK.json` at the repository root is checked against this file by
//! a unit test.

/// One named workload and the reason it is in the set.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const STREAM_STEADY: &str = "stream_steady";
pub const STREAM_CHURN: &str = "stream_churn";
pub const STREAM_PLACED: &str = "stream_placed";
pub const PAPER_EPOCHS: &str = "paper_epochs";
pub const PAPER_EPOCHS_MT: &str = "paper_epochs_mt";
pub const XSHARD_SETTLE: &str = "xshard_settle";

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: STREAM_STEADY,
        why: "recurring zipf-hot senders, ~90% of classifications carried: workload, runtime.stream and core.classify do the work",
    },
    Workload {
        name: STREAM_CHURN,
        why: "spam flood of never-repeating senders: the classifier and call graph as a write path, nothing to carry, memory grows",
    },
    Workload {
        name: STREAM_PLACED,
        why: "placement engaged: the only workload where core.place, place.engine and carried merge groups run",
    },
    Workload {
        name: PAPER_EPOCHS,
        why: "the paper's Sec. VI scale: small cold epochs where games, driver construction and sim.scheduler dominate; caches bypassed",
    },
    Workload {
        name: PAPER_EPOCHS_MT,
        why: "paper_epochs at threads 2: the same WorkScheduler through its pooled path; outputs must equal paper_epochs bit for bit",
    },
    Workload {
        name: XSHARD_SETTLE,
        why: "ChainSpace 2PC vs batched crosslinks, ~3 events per tx and nothing from core: sim.queue, network, baselines, settle",
    },
];

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the base median by which the metric
    /// may worsen before `compare` calls it a regression. `Some(0.0)` marks
    /// a simulated outcome that must repeat exactly at equal seed.
    pub bound: Option<f64>,
    /// The workloads the metric is defined on (it reads 0 elsewhere).
    pub on: &'static [&'static str],
}

impl Metric {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }
}

const ALL: &[&str] = &[
    STREAM_STEADY,
    STREAM_CHURN,
    STREAM_PLACED,
    PAPER_EPOCHS,
    PAPER_EPOCHS_MT,
    XSHARD_SETTLE,
];
const STREAMS: &[&str] = &[STREAM_STEADY, STREAM_CHURN, STREAM_PLACED];
const PAPER: &[&str] = &[PAPER_EPOCHS, PAPER_EPOCHS_MT];
const PIPELINE: &[&str] = &[
    STREAM_STEADY,
    STREAM_CHURN,
    STREAM_PLACED,
    PAPER_EPOCHS,
    PAPER_EPOCHS_MT,
];
const EAGER: &[&str] = &[PAPER_EPOCHS, PAPER_EPOCHS_MT, XSHARD_SETTLE];
const PLACED: &[&str] = &[STREAM_PLACED];
const SETTLE: &[&str] = &[XSHARD_SETTLE];
const DIRECT_RUNS: &[&str] = &[STREAM_STEADY, STREAM_CHURN, STREAM_PLACED, XSHARD_SETTLE];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        on,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        on,
    }
}

pub const TX_PER_S: &str = "tx_per_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const FAILED_FRAC: &str = "failed_frac";
pub const SIM_THROUGHPUT_GAIN: &str = "sim_throughput_gain";
pub const MAXSHARD_FRAC: &str = "maxshard_frac";
pub const EMPTY_BLOCKS_PER_KTX: &str = "empty_blocks_per_ktx";
pub const XSHARD_MSGS_PER_TX: &str = "xshard_msgs_per_tx";

/// What a user of the system sees, per workload.
pub const END_TO_END: [Metric; 8] = [
    e2e(TX_PER_S, "1/s", Better::Higher, 0.25, ALL),
    e2e(SETUP_S, "s", Better::Lower, 0.25, ALL),
    e2e(PEAK_RSS_MB, "MB", Better::Lower, 0.10, ALL),
    e2e(FAILED_FRAC, "frac", Better::Lower, 0.0, ALL),
    e2e(SIM_THROUGHPUT_GAIN, "x", Better::Higher, 0.0, PIPELINE),
    e2e(MAXSHARD_FRAC, "frac", Better::Lower, 0.0, STREAMS),
    e2e(EMPTY_BLOCKS_PER_KTX, "1/ktx", Better::Lower, 0.0, PIPELINE),
    e2e(XSHARD_MSGS_PER_TX, "1/tx", Better::Lower, 0.0, ALL),
];

use Better::{Higher, Lower};

/// One layer each (layer = crate[.module]); README.md says which end-to-end
/// metric each should move, and on which workload.
pub const PER_LAYER: [Metric; 57] = [
    layer("workload.gen_ns_per_tx", "ns/tx", Lower, STREAMS),
    layer("workload.eager_build_ms", "ms", Lower, EAGER),
    layer("runtime.stream.seal_ns_per_tx", "ns/tx", Lower, STREAMS),
    layer("runtime.stream.events", "count", Lower, STREAMS),
    layer("runtime.stream.epochs", "count", Lower, STREAMS),
    layer("core.classify.ns_per_tx", "ns/tx", Lower, PIPELINE),
    layer("core.classify.reclassified", "count", Lower, PIPELINE),
    layer("core.classify.carried", "count", Higher, PIPELINE),
    layer("core.classify.carried_frac", "frac", Higher, PIPELINE),
    layer(
        "ledger.callgraph.observe_ns_per_tx",
        "ns/tx",
        Lower,
        PIPELINE,
    ),
    layer("ledger.callgraph.senders", "count", Lower, PIPELINE),
    layer(
        "core.formation.full_classify_ns_per_tx",
        "ns/tx",
        Lower,
        PIPELINE,
    ),
    layer("core.form.ns_per_tx", "ns/tx", Lower, PIPELINE),
    layer("core.select.ns_per_epoch", "ns/epoch", Lower, PIPELINE),
    layer("core.merge.ns_per_epoch", "ns/epoch", Lower, PIPELINE),
    layer("core.merge.iterations", "count", Lower, PIPELINE),
    layer("core.merge.warm_hits", "count", Higher, PIPELINE),
    layer("games.merge.ns_per_call", "ns/call", Lower, PIPELINE),
    layer("games.select.ns_per_call", "ns/call", Lower, PAPER),
    layer("games.select.rounds_per_call", "count", Lower, PAPER),
    layer("core.unify.ns_per_tx", "ns/tx", Lower, PIPELINE),
    layer(
        "core.unify.overhead_ns_per_epoch",
        "ns/epoch",
        Lower,
        PIPELINE,
    ),
    layer("core.unify.iterations", "count", Lower, PIPELINE),
    layer("runtime.events", "count", Lower, ALL),
    layer("runtime.driver_ns_per_event", "ns/event", Lower, ALL),
    layer("runtime.blocks", "count", Lower, ALL),
    layer("runtime.empty_blocks", "count", Lower, ALL),
    layer("runtime.stale_blocks", "count", Lower, ALL),
    layer("runtime.useful_block_frac", "frac", Higher, ALL),
    layer("sim.scheduler.drain_us", "us", Lower, ALL),
    layer("sim.scheduler.tasks_scheduled", "count", Lower, ALL),
    layer("sim.scheduler.tasks_skipped", "count", Higher, ALL),
    layer("sim.scheduler.turns", "count", Lower, DIRECT_RUNS),
    layer("sim.queue.ns_per_event", "ns/event", Lower, ALL),
    layer("core.place.ns_per_tx", "ns/tx", Lower, PLACED),
    layer("core.place.moves", "count", Higher, PLACED),
    layer("place.engine.observe_ns_per_tx", "ns/tx", Lower, PLACED),
    layer("settle.batcher.ns_per_submit", "ns/submit", Lower, SETTLE),
    layer("settle.batches", "count", Lower, SETTLE),
    layer("settle.avg_fill", "tx/batch", Higher, SETTLE),
    layer("network.comm.messages", "count", Lower, ALL),
    layer(
        "baselines.chainspace.ns_per_event",
        "ns/event",
        Lower,
        SETTLE,
    ),
    layer("core.epoch.elect_ns_per_epoch", "ns/epoch", Lower, STREAMS),
    layer("runtime.ethereum.ns_per_tx", "ns/tx", Lower, PIPELINE),
    layer("core.longrun.glue_ns_per_tx", "ns/tx", Lower, PIPELINE),
    layer("core.system.build_us", "us", Lower, PAPER),
    layer("core.epoch.ms_p50", "ms", Lower, PIPELINE),
    layer("core.epoch.ms_p95", "ms", Lower, PIPELINE),
    layer("core.shards_per_epoch", "count", Higher, PIPELINE),
    layer("host.cpu_ns_per_tx", "ns/tx", Lower, ALL),
    layer("bench.trace_overhead_frac", "frac", Lower, ALL),
    layer("bench.trace_coverage_frac", "frac", Higher, ALL),
    // The end-to-end metrics the driver cannot bound (zero when nothing
    // fails, or defined on some workloads only) ride along with the traced
    // run under their end-to-end names, so its records keep them too.
    layer(FAILED_FRAC, "frac", Lower, ALL),
    layer(SIM_THROUGHPUT_GAIN, "x", Higher, PIPELINE),
    layer(MAXSHARD_FRAC, "frac", Lower, STREAMS),
    layer(EMPTY_BLOCKS_PER_KTX, "1/ktx", Lower, PIPELINE),
    layer("bench.untraced_wall_ms", "ms", Lower, ALL),
];

/// The end-to-end metrics `BENCHMARK.json` lists: defined on every
/// workload, never zero, and steady from one seed to the next.
pub const DRIVER_END_TO_END: [&str; 4] = [TX_PER_S, SETUP_S, PEAK_RSS_MB, XSHARD_MSGS_PER_TX];

/// Span names of the traced replay, one per layer boundary.
pub mod span {
    pub const SETUP: &str = "setup";
    pub const EAGER_BUILD: &str = "workload.eager_build";
    pub const GEN: &str = "workload.gen";
    pub const SEAL: &str = "runtime.stream.seal";
    pub const EPOCH: &str = "core.longrun.epoch";
    pub const ELECT: &str = "core.epoch.elect";
    pub const CLASSIFY: &str = "core.classify";
    pub const FORM: &str = "core.form";
    pub const MERGE: &str = "core.merge";
    pub const SELECT: &str = "core.select";
    pub const UNIFY: &str = "core.unify";
    pub const PLACE: &str = "core.place";
    pub const ETHEREUM: &str = "runtime.ethereum";
    pub const SYSTEM_RUN: &str = "core.system.run";
    pub const SYSTEM_BUILD: &str = "core.system.build";
    pub const CHAINSPACE_DRIVERS: &str = "baselines.chainspace.drivers";
    pub const RUN: &str = "runtime.run";
    pub const RUN_ACTIVE: &str = "runtime.run.active";
    pub const RUN_IDLE_DRAIN: &str = "runtime.run.idle_drain";
}

#[cfg(test)]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_use_the_allowed_charset_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name), "workload {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter() {
            assert!(well_formed(m.name), "metric {}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let mut seen = BTreeSet::new();
        for m in PER_LAYER.iter() {
            assert!(well_formed(m.name), "metric {}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(!well_formed("has space"));
        assert!(!well_formed(".leading"));
        assert!(!well_formed("slash/ed"));
    }

    #[test]
    fn units_use_the_allowed_charset() {
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                m.unit,
                m.name
            );
        }
    }

    #[test]
    fn metrics_apply_only_to_known_workloads() {
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!m.on.is_empty(), "{} applies nowhere", m.name);
            for w in m.on {
                assert!(workload(w).is_some(), "{} names unknown {w}", m.name);
            }
        }
        for name in DRIVER_END_TO_END {
            let m = end_to_end(name).expect("listed metric exists");
            assert_eq!(m.on.len(), WORKLOADS.len(), "{name} must apply everywhere");
        }
    }
}
