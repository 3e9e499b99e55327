//! The `cshard-audit` binary: load `policy.toml`, scan, report, gate.
//!
//! Exit codes: `0` clean, `1` findings or a baseline regression, `2`
//! setup error (policy missing, unparseable, or a workspace crate
//! covered by neither `[audit] crates` nor `[audit] exempt`).
//! Run from anywhere inside the workspace (`just audit`).
//!
//! `--json <path>` writes the stable `AUDIT_report.json`; `--baseline
//! <path>` additionally diffs it against the committed baseline and
//! fails on any new finding, resolution-coverage drop or arity-miss
//! rise.

use cshard_audit::report::{baseline_regressions, render, report_json};
use cshard_audit::{scan_workspace, uncovered_crates, Policy};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_out = args.next().map(PathBuf::from),
            "--baseline" => baseline = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "usage: cshard-audit [--root <workspace-dir>] \
                     [--json <report-path>] [--baseline <baseline-path>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("cshard-audit: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("cshard-audit: no policy.toml found here or in any parent directory");
            return ExitCode::from(2);
        }
    };
    let policy_path = root.join("policy.toml");
    let text = match std::fs::read_to_string(&policy_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cshard-audit: cannot read {}: {e}", policy_path.display());
            return ExitCode::from(2);
        }
    };
    let policy = match Policy::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            // The parse error already carries `policy.toml:<line>`.
            eprintln!("cshard-audit: {e}");
            return ExitCode::from(2);
        }
    };
    let uncovered = uncovered_crates(&root, &policy);
    if !uncovered.is_empty() {
        for krate in &uncovered {
            eprintln!(
                "cshard-audit: crate `crates/{krate}` is in neither [audit] crates nor \
                 [audit] exempt — add it to policy.toml (scanned, or exempt with a reason)"
            );
        }
        return ExitCode::from(2);
    }
    let report = scan_workspace(&root, &policy);
    for finding in &report.findings {
        println!("{finding}");
    }
    let doc = report_json(&report);
    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, render(&doc)) {
            eprintln!("cshard-audit: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let mut regressions = Vec::new();
    if let Some(path) = &baseline {
        let baseline_text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "cshard-audit: cannot read baseline {}: {e} \
                     (generate it with `just audit-baseline`)",
                    path.display()
                );
                return ExitCode::from(2);
            }
        };
        match baseline_regressions(&doc, &baseline_text) {
            Ok(r) => regressions = r,
            Err(e) => {
                eprintln!("cshard-audit: {e}");
                return ExitCode::from(2);
            }
        }
        for r in &regressions {
            eprintln!("cshard-audit: baseline regression: {r}");
        }
    }
    if report.findings.is_empty() && regressions.is_empty() {
        println!(
            "cshard-audit: clean — {} files across {} crates; call graph: {} fns, {} edges, \
             {}\u{2030} resolved, {} arity misses",
            report.files_scanned,
            policy.crates.len(),
            report.stats.functions,
            report.stats.edges,
            report.stats.resolution_permille(),
            report.stats.calls_arity_miss
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "cshard-audit: {} finding(s), {} baseline regression(s) in {} files scanned",
            report.findings.len(),
            regressions.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory to the first `policy.toml`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("policy.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
