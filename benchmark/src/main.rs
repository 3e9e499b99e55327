//! The repository's end-to-end + per-layer benchmark. See README.md.
//!
//! ```text
//! cshard-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cshard-benchmark all        [--seed <n>] [--seconds <s>] [--out <results.json>]
//! cshard-benchmark trace <workload> [--seed <n>] [--seconds <s>]
//! cshard-benchmark compare <a.json> <b.json>
//! cshard-benchmark selfcheck  [--seed <n>] [--seconds <s>]
//! ```

mod compare;
mod layers;
mod metrics;
mod report;
mod run;
mod stats;
mod sut;
mod trace;

use run::{Options, Record};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use sut::json::{ObjectBuilder, Value as Json};

const DEFAULT_SEED: u64 = 11;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 16.0;

const USAGE: &str = "usage:
  cshard-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  cshard-benchmark all [--seed <n>] [--seconds <s>] [--out <results.json>]
  cshard-benchmark trace <workload> [--seed <n>] [--seconds <s>]
  cshard-benchmark compare <a.json> <b.json>
  cshard-benchmark selfcheck [--seed <n>] [--seconds <s>]";

/// Positional words and `--flag value` pairs, in any order.
struct Args {
    words: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut raw = raw;
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = raw.next().ok_or(format!("--{flag} needs a value"))?;
                    args.flags.insert(flag.to_string(), value);
                }
                None => args.words.push(arg),
            }
        }
        Ok(args)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("--{flag} {v}: not a number")),
            None => Ok(default),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        self.number("seed", DEFAULT_SEED)
    }

    fn seconds(&self) -> Result<f64, String> {
        let s: f64 = self.number("seconds", DEFAULT_SECONDS)?;
        if s.is_finite() && s >= 0.0 {
            Ok(s)
        } else {
            Err(format!("--seconds {s}: must be a non-negative number"))
        }
    }
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)` when the command ran and found something wrong.
fn dispatch(args: &Args) -> Result<bool, String> {
    let word = |i: usize| args.words.get(i).map(String::as_str);
    match (word(0), args.flags.get("workload")) {
        (None, Some(workload)) => {
            let traced = match args.flags.get("trace").map(String::as_str) {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
            };
            let record = one(workload, args.seed()?, args.seconds()?, traced)?;
            if let Some(path) = args.flags.get("record") {
                report::write(Path::new(path), &report::record_json(&record))?;
            }
            // The driver reads `correct` from this line; a printed result
            // is a finished run, whatever it found.
            println!("{}", report::result_line(&record));
            Ok(true)
        }
        (Some("trace"), None) => {
            let workload = word(1).ok_or("trace needs a workload name")?;
            let record = one(workload, args.seed()?, args.seconds()?, true)?;
            Ok(record.correct())
        }
        (Some("all"), None) => {
            let out = args
                .flags
                .get("out")
                .map_or_else(|| report::out_dir().join("results.json"), PathBuf::from);
            all(args.seed()?, args.seconds()?, &out)
        }
        (Some("compare"), None) => {
            let (Some(a), Some(b)) = (word(1), word(2)) else {
                return Err("compare needs two results.json files".into());
            };
            let rows = compare::print(&report::read(Path::new(a))?, &report::read(Path::new(b))?);
            Ok(rows
                .iter()
                .all(|r| r.verdict != compare::Verdict::Regressed))
        }
        (Some("selfcheck"), None) => selfcheck(args.seed()?, args.seconds()?),
        _ => Err("unrecognised command".into()),
    }
}

/// One workload in this process: every metric by name, the checks, and for
/// a traced run the span dump.
fn one(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Record, String> {
    let opts = Options {
        workload: workload.to_string(),
        seed,
        seconds,
        traced,
        scale: 1.0,
    };
    let (record, spans) = run::run(&opts).ok_or_else(|| {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {workload}; one of {}", names.join(", "))
    })?;
    report::print_record(&record);
    if traced {
        let path = report::out_dir().join(format!("trace-{workload}.json"));
        report::write(&path, &report::spans_json(workload, seed, &spans))?;
        println!("  spans written to {}", path.display());
    }
    Ok(record)
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Every workload, untraced then traced, each in a child process of its
/// own (so `peak_rss_mb` is per workload), one at a time.
fn all(seed: u64, seconds: f64, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = report::out_dir();
    let mut workloads: Vec<(String, Json)> = Vec::new();
    let mut digests: BTreeMap<&str, String> = BTreeMap::new();
    let mut correct = true;
    for w in &metrics::WORKLOADS {
        let mut entry = ObjectBuilder::new().field("why", w.why);
        for (mode, trace) in [("untraced", "0"), ("traced", "1")] {
            let record = dir.join(format!("run-{}-{mode}.json", w.name));
            let status = Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .arg("--record")
                .arg(&record)
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} ({mode}) exited with {status}", w.name));
            }
            let json = report::read(&record)?;
            let digest = json
                .get("outputs_digest")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            correct &= json.get("correct").and_then(Json::as_bool) == Some(true);
            // Traced and untraced runs of one workload saw the same inputs.
            let first = digests.entry(w.name).or_insert_with(|| digest.clone());
            if *first != digest {
                println!("MISMATCH: {} traced and untraced digests differ", w.name);
                correct = false;
            }
            entry = entry.field(mode, json);
        }
        workloads.push((w.name.to_string(), entry.build()));
    }
    if digests.get(metrics::PAPER_EPOCHS) != digests.get(metrics::PAPER_EPOCHS_MT) {
        println!("MISMATCH: paper_epochs and paper_epochs_mt digests differ");
        correct = false;
    }

    println!("== outputs_digest per workload (equal across commits iff outputs are)");
    for (name, digest) in &digests {
        println!("  {name:<18} {digest}");
    }
    let results = ObjectBuilder::new()
        .field("schema", 1u64)
        .field("seed", seed)
        .field("seconds", seconds)
        .field("available_parallelism", parallelism())
        .field("correct", correct)
        .field("workloads", Json::Object(workloads))
        .field("claim", Json::Null)
        .build();
    report::write(out, &results)?;
    let summary = ObjectBuilder::new()
        .field("results", out.display().to_string())
        .field("workloads", metrics::WORKLOADS.len())
        .field("available_parallelism", parallelism())
        .field("correct", correct)
        .field("claim", Json::Null)
        .build();
    println!("{}", summary.to_string_compact());
    Ok(correct)
}

/// `all` twice on this commit. The two disagree where a row resolves to a
/// difference beyond its bound; a row whose own spread is wider than the
/// bound is printed as unresolved and decides nothing.
fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    let dir = report::out_dir();
    let (a, b) = (dir.join("selfcheck-a.json"), dir.join("selfcheck-b.json"));
    let mut correct = all(seed, seconds, &a)?;
    correct &= all(seed, seconds, &b)?;
    let rows = compare::print(&report::read(&a)?, &report::read(&b)?);
    let resolved = [compare::Verdict::Improved, compare::Verdict::Regressed];
    for row in rows.iter().filter(|r| resolved.contains(&r.verdict)) {
        println!(
            "DISAGREE: {} {} {} vs {}",
            row.workload, row.metric.name, row.a.value, row.b.value
        );
        correct = false;
    }
    println!("selfcheck: {}", if correct { "passed" } else { "FAILED" });
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_and_words_parse_in_any_order() {
        let a = args("--seed 7 trace stream_steady --seconds 2.5").expect("parses");
        assert_eq!(a.words, ["trace", "stream_steady"]);
        assert_eq!(a.seed(), Ok(7));
        assert_eq!(a.seconds(), Ok(2.5));
        let d = args("all").expect("parses");
        assert_eq!(d.seed(), Ok(DEFAULT_SEED));
        assert_eq!(d.seconds(), Ok(DEFAULT_SECONDS));
        assert!(args("--seed").is_err());
        assert!(args("--seed x").expect("parses").seed().is_err());
        assert!(args("--seconds -1").expect("parses").seconds().is_err());
        assert!(dispatch(&args("frobnicate").expect("parses")).is_err());
        assert!(dispatch(&args("--workload nope --trace 0 --seconds 0").expect("parses")).is_err());
        assert!(dispatch(&args("--workload paper_epochs --trace 2").expect("parses")).is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; this file's registry is
    /// what the program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = report::read(&path).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let registry: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), registry);
        assert_eq!(names("end_to_end"), metrics::DRIVER_END_TO_END);
        let layers: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names("per_layer"), layers);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );

        for listed in spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("array")
        {
            let name = listed.get("name").and_then(Json::as_str).expect("name");
            let why = listed.get("why").and_then(Json::as_str).expect("why");
            assert_eq!(metrics::workload(name).expect("known").why, why);
        }
        for key in ["end_to_end", "per_layer"] {
            for listed in spec.get(key).and_then(Json::as_array).expect("array") {
                let name = listed.get("name").and_then(Json::as_str).expect("name");
                let m = metrics::END_TO_END
                    .iter()
                    .filter(|_| key == "end_to_end")
                    .chain(metrics::PER_LAYER.iter().filter(|_| key == "per_layer"))
                    .find(|m| m.name == name)
                    .expect("known metric");
                assert_eq!(
                    listed.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{name}"
                );
                assert_eq!(
                    listed.get("better").and_then(Json::as_str),
                    Some(m.better.as_str()),
                    "{name}"
                );
                if key == "end_to_end" {
                    let bound = listed.get("bound").and_then(Json::as_f64).expect("bound");
                    assert!(bound <= 0.25, "{name}");
                }
            }
        }
    }
}
