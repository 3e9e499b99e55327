//! Records as text and as JSON: the one-line result the driver reads, the
//! per-run record a child process leaves for `all`, `results.json`, and the
//! span dump of a traced run.

use crate::metrics::{self, Metric};
use crate::run::{Record, Value};
use crate::sut::json::{self, ObjectBuilder, Value as Json};
use crate::trace::{self_times, Span};
use std::path::{Path, PathBuf};

/// Where the benchmark writes: `benchmark/out`, beside its manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn registry(record: &Record) -> &'static [Metric] {
    if record.traced {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    }
}

fn unit_of(record: &Record, name: &str) -> &'static str {
    registry(record)
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn metric_json(unit: &str, v: &Value) -> Json {
    let object = ObjectBuilder::new()
        .field("value", v.value)
        .field("unit", unit);
    let object = match v.samples {
        Some(s) => object
            .field("n", s.n)
            .field("min", s.min)
            .field("q1", s.q1)
            .field("q3", s.q3)
            .field("max", s.max),
        None => object,
    };
    object.build()
}

/// The last line of a driver-mode run: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding exactly the metrics
/// `BENCHMARK.json` lists for the mode.
pub fn result_line(record: &Record) -> String {
    let listed = |name: &str| record.traced || metrics::DRIVER_END_TO_END.contains(&name);
    let shown = record
        .metrics
        .iter()
        .filter(|(name, _)| listed(name))
        .map(|(name, v)| {
            let entry = ObjectBuilder::new()
                .field("value", v.value)
                .field("unit", unit_of(record, name))
                .build();
            (name.to_string(), entry)
        })
        .collect();
    ObjectBuilder::new()
        .field("correct", record.correct())
        .field("attempted", record.attempted)
        .field("failed", record.failed)
        .field("metrics", Json::Object(shown))
        .build()
        .to_string_compact()
}

/// Everything a run established, for `results.json`.
pub fn record_json(record: &Record) -> Json {
    let checks = record
        .checks
        .iter()
        .map(|(name, ok)| (name.to_string(), ok.map_or(Json::Null, Json::Bool)))
        .collect();
    let shown = record
        .metrics
        .iter()
        .map(|(name, v)| (name.to_string(), metric_json(unit_of(record, name), v)))
        .collect();
    ObjectBuilder::new()
        .field("workload", record.workload.as_str())
        .field("seed", record.seed)
        .field("traced", record.traced)
        .field("threads", record.threads)
        .field("reps", record.reps)
        .field("attempted", record.attempted)
        .field("failed", record.failed)
        .field("correct", record.correct())
        .field("outputs_digest", record.outputs_digest.as_str())
        .field(
            "error",
            record.error.as_deref().map_or(Json::Null, Json::from),
        )
        .field("checks", Json::Object(checks))
        .field("metrics", Json::Object(shown))
        .build()
}

/// Every metric by name with its unit, then the checks.
pub fn print_record(record: &Record) {
    let mode = if record.traced { "traced" } else { "untraced" };
    println!(
        "== {} ({mode}, seed {}, threads {}, {} reps, {} txs)",
        record.workload, record.seed, record.threads, record.reps, record.attempted
    );
    for m in registry(record) {
        let Some(v) = record.metrics.get(m.name) else {
            continue;
        };
        match v.samples {
            Some(s) => println!(
                "  {:<40} {:>16.4} {:<9} q1 {:.4}  q3 {:.4}  n {}",
                m.name, v.value, m.unit, s.q1, s.q3, s.n
            ),
            None => println!("  {:<40} {:>16.4} {}", m.name, v.value, m.unit),
        }
    }
    for (name, ok) in &record.checks {
        let verdict = match ok {
            Some(true) => "ok",
            Some(false) => "FAILED",
            None => "n/a",
        };
        println!("  check {name:<42} {verdict}");
    }
    if let Some(e) = &record.error {
        println!("  error: {e}");
    }
    println!("  outputs_digest {}", record.outputs_digest);
}

/// The spans of one replay, self times included.
pub fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let own = self_times(spans);
    let entries: Vec<Json> = spans
        .iter()
        .zip(own)
        .map(|(s, self_ns)| {
            ObjectBuilder::new()
                .field("name", s.name)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("self_ns", self_ns)
                .field("parent", s.parent.map_or(Json::Null, Json::from))
                .field("epoch", s.epoch.map_or(Json::Null, Json::from))
                .build()
        })
        .collect();
    ObjectBuilder::new()
        .field("workload", workload)
        .field("seed", seed)
        .field("spans", Json::Array(entries))
        .build()
}

pub fn write(path: &Path, value: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.to_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use std::collections::BTreeMap;

    fn record(traced: bool) -> Record {
        let listed: &[Metric] = if traced {
            &metrics::PER_LAYER
        } else {
            &metrics::END_TO_END
        };
        let mut values: BTreeMap<&'static str, Value> = listed
            .iter()
            .map(|m| {
                let v = Value {
                    value: 1.5,
                    samples: None,
                };
                (m.name, v)
            })
            .collect();
        if !traced {
            values.insert(
                metrics::TX_PER_S,
                Value {
                    value: 1234.5678,
                    samples: Some(Summary::of(&[1000.0, 1234.5678, 1500.0])),
                },
            );
        }
        Record {
            workload: metrics::STREAM_STEADY.into(),
            seed: 11,
            traced,
            threads: 1,
            reps: 3,
            attempted: 900,
            failed: 0,
            outputs_digest: "00".into(),
            checks: vec![("reps_agree", Some(true)), ("threads_agree", None)],
            metrics: values,
            error: None,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_listed_metrics() {
        let line = result_line(&record(false));
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        let shown = parsed
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        let mut names: Vec<&str> = shown.iter().map(|(k, _)| k.as_str()).collect();
        names.sort_unstable();
        let mut want = metrics::DRIVER_END_TO_END.to_vec();
        want.sort_unstable();
        assert_eq!(names, want);
        let tx = parsed.get("metrics").and_then(|m| m.get(metrics::TX_PER_S));
        assert_eq!(
            tx.and_then(|t| t.get("value")).and_then(Json::as_f64),
            Some(1234.5678)
        );
        assert_eq!(
            tx.and_then(|t| t.get("unit")).and_then(Json::as_str),
            Some("1/s")
        );

        let traced = json::parse(&result_line(&record(true))).expect("valid JSON");
        let shown = traced
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        assert_eq!(shown.len(), metrics::PER_LAYER.len());
    }

    #[test]
    fn a_failed_check_makes_the_record_incorrect() {
        let mut r = record(false);
        assert!(r.correct());
        r.checks.push(("replay_matches_user_path", Some(false)));
        assert!(!r.correct());
        assert!(result_line(&r).starts_with("{\"correct\":false"));
    }

    #[test]
    fn record_json_keeps_quartiles_and_null_checks() {
        let j = record_json(&record(false));
        let tx = j
            .get("metrics")
            .and_then(|m| m.get(metrics::TX_PER_S))
            .expect("tx_per_s");
        assert_eq!(tx.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(tx.get("q1").and_then(Json::as_f64), Some(1000.0));
        let checks = j.get("checks").expect("checks");
        assert_eq!(checks.get("reps_agree").and_then(Json::as_bool), Some(true));
        assert!(checks.get("threads_agree").is_some_and(Json::is_null));
    }
}
