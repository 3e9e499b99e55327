//! The `cshard-audit` binary: load `policy.toml`, scan, report, gate.
//!
//! Exit codes: `0` clean, `1` findings or a baseline regression, `2`
//! setup error (policy missing, unparseable, a workspace crate covered
//! by neither `[audit] crates` nor `[audit] exempt`, a call the
//! resolver cannot settle without a `[callgraph] resolve` override, a
//! `[callgraph] resolve` entry no call falls through to, or a
//! `[callgraph] sinks` entry that roots nothing).
//! Run from anywhere inside the workspace (`just audit`).
//!
//! `--json <path>` writes the stable `AUDIT_report.json`; `--baseline
//! <path>` additionally diffs it against the committed baseline and
//! fails on any new finding or resolution-coverage drop.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

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
    // An unresolved call is a hole in the reachability argument: taint
    // cannot flow through an edge the resolver never drew. Setup error.
    if !report.ambiguous.is_empty() {
        for amb in &report.ambiguous {
            eprintln!(
                "cshard-audit: ambiguous call `{}` ({} args) at {}:{} — candidates: {}",
                amb.name,
                amb.arity,
                amb.path,
                amb.line,
                amb.candidates.join(", ")
            );
            eprintln!(
                "cshard-audit:   settle it in policy.toml: [callgraph] resolve = \
                 [\"{}/{} -> <id-suffix>|*|external\"]",
                amb.name, amb.arity
            );
        }
        return ExitCode::from(2);
    }
    // An override no call falls through to settles nothing; left in, it
    // would silently settle a future call it was never written for.
    if !report.dead_resolves.is_empty() {
        for entry in &report.dead_resolves {
            eprintln!(
                "cshard-audit: [callgraph] resolve entry `{entry}` settles no call (every \
                 call of that name and arity resolves without it) — delete it in policy.toml"
            );
        }
        return ExitCode::from(2);
    }
    // A sink spec that roots nothing leaves the bodies it was written for
    // unchecked while the audit still reads clean. Setup error.
    if !report.dead_sinks.is_empty() {
        for spec in &report.dead_sinks {
            eprintln!(
                "cshard-audit: [callgraph] sinks entry `{spec}` roots no bodied non-test \
                 function (expected `Trait::method` or `calls:Owner::method` naming one that \
                 exists) — fix or delete it in policy.toml"
            );
        }
        return ExitCode::from(2);
    }
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
             {}\u{2030} resolved, {} sink roots reach {} fns",
            report.files_scanned,
            policy.crates.len(),
            report.stats.functions,
            report.stats.edges,
            report.stats.resolution_permille(),
            report.sink_roots,
            report.reachable
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
