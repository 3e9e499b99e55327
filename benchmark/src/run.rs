//! One workload, one process: warm-up, timed repetitions, output checks.
//!
//! Closed loop, one client: each repetition sets the workload up afresh
//! (timed as `setup_s`), then pushes its transactions through the system
//! (timed as the region `tx_per_s` is taken over). Repetitions are
//! identical — same seed, same inputs — so every one must produce the same
//! output digest, and every timing metric is the median over them.

use crate::layers::{self, Probes};
use crate::metrics::{self, Metric};
use crate::stats::{median, Digest, Summary};
use crate::sut::{Captured, Outputs, Plan, Replay};
use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fewest timed repetitions behind a reported median.
pub const MIN_REPS: usize = 5;
/// A traced run splits its time: untraced repetitions for the reference
/// wall time, traced replays, then the probes.
const MIN_TRACED_PAIRS: usize = 3;
const TRACED_SHARE: f64 = 0.80;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long to keep measuring.
    pub seconds: f64,
    pub traced: bool,
    /// Multiplies every workload size; 1.0 outside the unit tests.
    pub scale: f64,
}

/// One reported number, with the spread of its samples where it has any.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: Option<Summary>,
}

impl Value {
    fn exact(value: f64) -> Value {
        Value {
            value,
            samples: None,
        }
    }

    fn median_of(samples: &[f64]) -> Value {
        let summary = Summary::of(samples);
        Value {
            value: summary.median,
            samples: Some(summary),
        }
    }
}

/// Everything one run established.
#[derive(Clone, Debug)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub threads: usize,
    /// Timed repetitions behind the medians.
    pub reps: usize,
    /// Transactions pushed through the timed repetitions.
    pub attempted: u64,
    /// Transactions that failed; every one of them when a check fails.
    pub failed: u64,
    pub outputs_digest: String,
    /// Output checks; `None` where a check does not apply to the workload.
    pub checks: Vec<(&'static str, Option<bool>)>,
    pub metrics: BTreeMap<&'static str, Value>,
    /// Set when the system returned an error and the run stopped.
    pub error: Option<String>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.error.is_none()
            && self.failed == 0
            && self.checks.iter().all(|(_, ok)| *ok != Some(false))
    }
}

struct Rep {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    outputs: Outputs,
}

fn one_rep(plan: &Plan) -> Result<Rep, String> {
    let start = Instant::now();
    let ready = plan.set_up()?;
    let setup_s = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds();
    let start = Instant::now();
    let outputs = ready.run()?;
    Ok(Rep {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu,
        setup_s,
        outputs,
    })
}

/// Repeats until `until` has passed since `started` and at least `at_least`
/// repetitions are in.
fn repeat<T>(
    started: Instant,
    until: Duration,
    at_least: usize,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut reps = Vec::new();
    while reps.len() < at_least || started.elapsed() < until {
        reps.push(rep()?);
    }
    Ok(reps)
}

/// Process CPU time (user + system, all threads) from `/proc/self/stat`,
/// at the kernel's 100 Hz tick; zero where that file does not exist.
fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// The process's peak resident set (`VmHWM`) in MB; zero where
/// `/proc/self/status` does not exist.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checks every run makes on a replay whose digest the user path's
/// repetitions are compared with.
fn check(
    plan: &Plan,
    reps: &[Rep],
    replays: &[Replay],
    captured: &Captured,
    probes: &mut Probes,
) -> Result<Vec<(&'static str, Option<bool>)>, String> {
    let Outputs { txs, digest: first } = reps.first().ok_or("no repetition ran")?.outputs;
    let threads_agree = match plan.sequential_twin() {
        Some(twin) => Some(twin.set_up()?.run()?.digest == first),
        None => None,
    };
    Ok(vec![
        (
            "reps_agree",
            Some(reps.iter().all(|r| r.outputs.digest == first)),
        ),
        (
            "replay_matches_user_path",
            Some(replays.iter().all(|r| r.digest == first)),
        ),
        (
            "confirmed_equals_injected",
            Some(
                replays
                    .iter()
                    .all(|r| r.counts.confirmed == r.counts.injected && r.counts.injected == txs),
            ),
        ),
        (
            "plans_partition_batches",
            Some(replays.iter().all(|r| r.partitions)),
        ),
        (
            "incremental_equals_full_classification",
            captured.check_classification(probes),
        ),
        ("threads_agree", threads_agree),
    ])
}

/// A record for a run the system refused.
fn refused(opts: &Options, threads: usize, error: String) -> Record {
    Record {
        workload: opts.workload.clone(),
        seed: opts.seed,
        traced: opts.traced,
        threads,
        reps: 0,
        attempted: 1,
        failed: 1,
        outputs_digest: Digest::default().hex(),
        checks: Vec::new(),
        metrics: BTreeMap::new(),
        error: Some(error),
    }
}

/// Runs one workload. A traced run also hands back the spans of its last
/// replay. `None` for a workload name the benchmark does not have.
pub fn run(opts: &Options) -> Option<(Record, Vec<Span>)> {
    let plan = Plan::new(&opts.workload, opts.seed, opts.scale)?;
    let measured = if opts.traced {
        traced(opts, &plan)
    } else {
        untraced(opts, &plan).map(|record| (record, Vec::new()))
    };
    Some(measured.unwrap_or_else(|e| (refused(opts, plan.threads(), e), Vec::new())))
}

fn assemble(
    opts: &Options,
    plan: &Plan,
    reps: &[Rep],
    checks: Vec<(&'static str, Option<bool>)>,
    values: BTreeMap<&'static str, Value>,
    listed: &[Metric],
) -> Record {
    let attempted: u64 = reps.iter().map(|r| r.outputs.txs).sum();
    let failed = if checks.iter().any(|(_, ok)| *ok == Some(false)) {
        attempted
    } else {
        0
    };
    // A metric reads zero on a workload it is not defined on.
    let mut metrics: BTreeMap<&'static str, Value> = listed
        .iter()
        .map(|m| {
            let measured = values.get(m.name).filter(|_| m.applies_to(&opts.workload));
            (m.name, measured.copied().unwrap_or(Value::exact(0.0)))
        })
        .collect();
    metrics.insert(
        metrics::FAILED_FRAC,
        Value::exact(failed as f64 / attempted.max(1) as f64),
    );
    Record {
        workload: opts.workload.clone(),
        seed: opts.seed,
        traced: opts.traced,
        threads: plan.threads(),
        reps: reps.len(),
        attempted: attempted.max(1),
        failed,
        outputs_digest: reps
            .first()
            .map_or_else(|| Digest::default().hex(), |r| r.outputs.digest.hex()),
        checks,
        metrics,
        error: None,
    }
}

fn untraced(opts: &Options, plan: &Plan) -> Result<Record, String> {
    one_rep(plan)?; // caches, allocator and page cache warm; discarded
    let reps = repeat(
        Instant::now(),
        Duration::from_secs_f64(opts.seconds),
        MIN_REPS,
        || one_rep(plan),
    )?;
    // Read before the replay, whose materialised stream and captured
    // batches are the benchmark's memory, not the system's.
    let peak = peak_rss_mb();

    let replays = [plan.replay(&mut Tracer::default())?];
    let captured = &replays[0].captured;
    let checks = check(plan, &reps, &replays, captured, &mut Probes::default())?;

    let per_s: Vec<f64> = reps
        .iter()
        .map(|r| r.outputs.txs as f64 / r.wall_s)
        .collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut values = BTreeMap::from([
        (metrics::TX_PER_S, Value::median_of(&per_s)),
        (metrics::SETUP_S, Value::median_of(&setup)),
        (metrics::PEAK_RSS_MB, Value::exact(peak)),
    ]);
    for (name, value) in layers::outcomes(&replays[0].counts) {
        values.insert(name, Value::exact(value));
    }
    let listed: Vec<Metric> = metrics::END_TO_END
        .iter()
        .filter(|m| m.applies_to(&opts.workload))
        .copied()
        .collect();
    Ok(assemble(opts, plan, &reps, checks, values, &listed))
}

fn traced(opts: &Options, plan: &Plan) -> Result<(Record, Vec<Span>), String> {
    one_rep(plan)?;
    // Pairs of one untraced repetition and one traced replay, so that both
    // sides of the overhead and coverage ratios see the same machine.
    let mut reps = Vec::new();
    let mut spans = Vec::new();
    let mut captured = Captured::default();
    let mut roots = Vec::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let until = Duration::from_secs_f64(opts.seconds * TRACED_SHARE);
    let replays = repeat(Instant::now(), until, MIN_TRACED_PAIRS, || {
        reps.push(one_rep(plan)?);
        let mut tracer = Tracer::default();
        let mut replay = plan.replay(&mut tracer)?;
        for (name, value) in layers::metrics(tracer.spans(), &replay.counts) {
            samples.entry(name).or_default().push(value);
        }
        roots.push(layers::root_ns(tracer.spans()));
        spans = tracer.spans().to_vec();
        // Only the last replay's captured inputs are probed; holding every
        // replay's would grow the heap under the later ones.
        captured = std::mem::take(&mut replay.captured);
        Ok(replay)
    })?;
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s * 1e9).collect();
    let untraced_wall_ns = median(&walls);
    for (covered_ns, total_ns) in roots {
        let mut push = |name, value| samples.entry(name).or_default().push(value);
        push("bench.trace_coverage_frac", covered_ns / untraced_wall_ns);
        push(
            "bench.trace_overhead_frac",
            total_ns / untraced_wall_ns - 1.0,
        );
    }

    let mut probes = Probes::default();
    let checks = check(plan, &reps, &replays, &captured, &mut probes)?;
    captured.probe(&mut probes);
    if opts.workload == metrics::XSHARD_SETTLE {
        crate::sut::probe_batcher(&mut probes);
    }

    let mut values: BTreeMap<&'static str, Value> = samples
        .iter()
        .map(|(&name, v)| (name, Value::median_of(v)))
        .collect();
    for (name, value) in layers::probe_metrics(&probes) {
        values.insert(name, Value::exact(value));
    }
    let cpu_s: f64 = reps.iter().map(|r| r.cpu_s).sum();
    let pushed: u64 = reps.iter().map(|r| r.outputs.txs).sum();
    values.insert(
        "host.cpu_ns_per_tx",
        Value::exact(cpu_s * 1e9 / pushed.max(1) as f64),
    );
    values.insert(
        "bench.untraced_wall_ms",
        Value::median_of(&walls.iter().map(|ns| ns / 1e6).collect::<Vec<_>>()),
    );
    Ok((
        assemble(opts, plan, &reps, checks, values, &metrics::PER_LAYER),
        spans,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, seed: u64, traced: bool) -> Record {
        let opts = Options {
            workload: workload.into(),
            seed,
            seconds: 0.0,
            traced,
            scale: 0.04,
        };
        run(&opts).expect("known workload").0
    }

    #[test]
    fn every_workload_passes_its_checks_at_a_non_default_seed() {
        for w in &metrics::WORKLOADS {
            let record = tiny(w.name, 23, false);
            assert!(record.correct(), "{}: {record:?}", w.name);
            assert_eq!(record.reps, MIN_REPS);
            assert!(record.attempted > 1 && record.failed == 0);
            for m in metrics::END_TO_END.iter().filter(|m| m.applies_to(w.name)) {
                assert!(
                    record.metrics.contains_key(m.name),
                    "{} lacks {}",
                    w.name,
                    m.name
                );
            }
            for name in metrics::DRIVER_END_TO_END {
                let v = record.metrics[name].value;
                assert!(v > 0.0 && v.is_finite(), "{} {name} = {v}", w.name);
            }
        }
    }

    #[test]
    fn digests_repeat_per_seed_differ_across_seeds_and_across_thread_counts_agree() {
        let a = tiny(metrics::PAPER_EPOCHS, 5, false);
        let b = tiny(metrics::PAPER_EPOCHS, 5, false);
        let c = tiny(metrics::PAPER_EPOCHS, 6, false);
        let mt = tiny(metrics::PAPER_EPOCHS_MT, 5, false);
        assert_eq!(a.outputs_digest, b.outputs_digest);
        assert_ne!(a.outputs_digest, c.outputs_digest);
        assert_eq!(a.outputs_digest, mt.outputs_digest);
        assert!(mt.checks.contains(&("threads_agree", Some(true))));
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric_and_spans() {
        let opts = Options {
            workload: metrics::STREAM_STEADY.into(),
            seed: 3,
            seconds: 0.0,
            traced: true,
            scale: 0.04,
        };
        let (record, spans) = run(&opts).expect("known workload");
        assert!(record.correct(), "{record:?}");
        for m in &metrics::PER_LAYER {
            let v = record.metrics[m.name].value;
            assert!(v.is_finite(), "{} = {v}", m.name);
        }
        assert!(record.metrics["core.classify.ns_per_tx"].value > 0.0);
        assert!(record.metrics["core.classify.carried"].value > 0.0);
        assert!(spans.iter().any(|s| s.name == crate::trace::ROOT));
        assert!(spans.iter().any(|s| s.name == metrics::span::CLASSIFY));
        assert!(run(&Options {
            workload: "nope".into(),
            ..opts
        })
        .is_none());
    }
}
