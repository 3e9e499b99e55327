//! The machine-readable audit report and its baseline gate.
//!
//! `cshard-audit --json <path>` serialises the scan outcome — findings
//! *and* call-graph statistics — as stable, sorted JSON: object keys are
//! insertion-ordered, findings arrive pre-sorted by `(path, line,
//! rule)`, and every number is an integer (the resolution ratio is
//! per-mille, never a float), so the report is byte-identical across
//! reruns at a fixed commit.
//!
//! `--baseline <path>` then diffs the fresh report against the committed
//! one (`results/audit/AUDIT_baseline.json`): any finding not in the
//! baseline, a resolution-coverage drop of more than
//! [`PERMILLE_TOLERANCE`]‰, or more than [`ARITY_MISS_TOLERANCE`] new
//! arity misses fails loudly. Findings that *disappear* are fine — the
//! gate ratchets one way; regenerate with `just audit-baseline` after
//! intentional changes.

use crate::rules::Finding;
use crate::scan::ScanReport;
use cshard_json::{parse, ObjectBuilder, Value};

/// Allowed drop in `resolution_permille` before the gate fails: small
/// refactors shift a call or two between resolved and external without
/// meaning coverage rot.
pub const PERMILLE_TOLERANCE: u64 = 20;

/// Allowed rise in `calls_arity_miss` before the gate fails: new code
/// calls std methods that share a workspace name, but a jump means edges
/// are being dropped.
pub const ARITY_MISS_TOLERANCE: u64 = 20;

/// Builds the stable JSON document for a scan.
pub fn report_json(report: &ScanReport) -> Value {
    let findings: Vec<Value> = report.findings.iter().map(finding_json).collect();
    let stats = ObjectBuilder::new()
        .field("files_scanned", report.files_scanned)
        .field("functions", report.stats.functions)
        .field("edges", report.stats.edges)
        .field("calls_total", report.stats.calls_total)
        .field("calls_resolved", report.stats.calls_resolved)
        .field("calls_external", report.stats.calls_external)
        .field("calls_arity_miss", report.stats.calls_arity_miss)
        .field("calls_ambiguous", report.stats.calls_ambiguous)
        .field("resolution_permille", report.stats.resolution_permille())
        .build();
    ObjectBuilder::new()
        .field("schema", 2u64)
        .field("findings", Value::Array(findings))
        .field("stats", stats)
        .build()
}

fn finding_json(f: &Finding) -> Value {
    ObjectBuilder::new()
        .field("rule", f.rule)
        .field("path", f.path.as_str())
        .field("line", f.line)
        .field("message", f.message.as_str())
        .build()
}

/// Renders the report document; ends with a newline so the file is
/// POSIX-friendly and `git diff`s cleanly.
pub fn render(doc: &Value) -> String {
    let mut s = doc.to_string_pretty();
    s.push('\n');
    s
}

/// Compares a fresh report against the committed baseline. Returns the
/// list of regressions (empty = gate passes); `Err` when the baseline
/// cannot be parsed.
pub fn baseline_regressions(current: &Value, baseline_text: &str) -> Result<Vec<String>, String> {
    let baseline = parse(baseline_text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let mut regressions = Vec::new();
    let known: Vec<(String, u64, String)> = finding_keys(&baseline);
    for key in finding_keys(current) {
        if !known.contains(&key) {
            regressions.push(format!(
                "new finding not in baseline: {}:{}: {}",
                key.2, key.1, key.0
            ));
        }
    }
    let now = stat(current, "resolution_permille").unwrap_or(1000);
    let then = stat(&baseline, "resolution_permille").unwrap_or(1000);
    if now + PERMILLE_TOLERANCE < then {
        regressions.push(format!(
            "call resolution coverage dropped: {now}\u{2030} now vs {then}\u{2030} in baseline \
             (tolerance {PERMILLE_TOLERANCE}\u{2030})"
        ));
    }
    let now = stat(current, "calls_arity_miss").unwrap_or(0);
    let then = stat(&baseline, "calls_arity_miss").unwrap_or(0);
    if now > then + ARITY_MISS_TOLERANCE {
        regressions.push(format!(
            "arity misses rose: {now} now vs {then} in baseline \
             (tolerance {ARITY_MISS_TOLERANCE})"
        ));
    }
    Ok(regressions)
}

/// `(rule, line, path)` per finding — the identity the gate keys on.
/// Messages are excluded so rewording a description is not a regression.
fn finding_keys(doc: &Value) -> Vec<(String, u64, String)> {
    let Some(findings) = doc.get("findings").and_then(Value::as_array) else {
        return Vec::new();
    };
    findings
        .iter()
        .filter_map(|f| {
            Some((
                f.get("rule")?.as_str()?.to_string(),
                f.get("line")?.as_u64()?,
                f.get("path")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

fn stat(doc: &Value, key: &str) -> Option<u64> {
    doc.get("stats")?.get(key)?.as_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ScanReport {
        let f = Finding::new("DC001", "crates/x/src/a.rs", 7, "dead".to_string());
        ScanReport {
            findings: vec![f],
            files_scanned: 4,
            ..ScanReport::default()
        }
    }

    #[test]
    fn report_is_byte_stable_across_renders() {
        let report = sample_report();
        let a = render(&report_json(&report));
        let b = render(&report_json(&report));
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.contains("\"resolution_permille\": 1000"), "{a}");
        assert!(a.contains("\"calls_arity_miss\": 0"), "{a}");
    }

    #[test]
    fn identical_report_passes_the_gate() {
        let doc = report_json(&sample_report());
        let regressions = baseline_regressions(&doc, &render(&doc)).unwrap();
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn new_finding_fails_the_gate_and_removed_finding_does_not() {
        let with = report_json(&sample_report());
        let without = report_json(&ScanReport {
            files_scanned: 4,
            ..ScanReport::default()
        });
        // Baseline empty, report has a finding: regression.
        let r = baseline_regressions(&with, &render(&without)).unwrap();
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("DC001"), "{r:?}");
        // Baseline has it, report clean: ratchet tightens silently.
        let r = baseline_regressions(&without, &render(&with)).unwrap();
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn coverage_drop_beyond_tolerance_fails_the_gate() {
        let mut current = sample_report();
        current.findings.clear();
        current.stats.calls_resolved = 90;
        current.stats.calls_ambiguous = 10; // 900‰
        let mut baseline = ScanReport {
            files_scanned: 4,
            ..ScanReport::default()
        };
        baseline.stats.calls_resolved = 100; // 1000‰
        let r =
            baseline_regressions(&report_json(&current), &render(&report_json(&baseline))).unwrap();
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("coverage dropped"), "{r:?}");
    }

    #[test]
    fn arity_miss_rise_beyond_tolerance_fails_the_gate() {
        let baseline = ScanReport::default();
        let mut current = ScanReport::default();
        let tolerance = usize::try_from(ARITY_MISS_TOLERANCE).unwrap();
        current.stats.calls_arity_miss = tolerance;
        let gate = |current: &ScanReport| {
            baseline_regressions(&report_json(current), &render(&report_json(&baseline))).unwrap()
        };
        assert!(gate(&current).is_empty());
        current.stats.calls_arity_miss = tolerance + 1;
        let r = gate(&current);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("arity misses rose"), "{r:?}");
    }

    #[test]
    fn garbage_baseline_is_an_error_not_a_pass() {
        let doc = report_json(&sample_report());
        assert!(baseline_regressions(&doc, "not json").is_err());
    }
}
