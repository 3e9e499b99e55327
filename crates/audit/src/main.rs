//! The `cshard-audit` binary: scan the workspace it was built from under
//! [`Policy::workspace`], print each finding, check the resolver gates.
//!
//! Exit codes: `0` clean, `1` findings or a failed gate. Run it with
//! `cargo run --release -p cshard-audit` (`just audit`).

use cshard_audit::policy::gate_failures;
use cshard_audit::{scan_workspace, Policy};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let report = scan_workspace(root, &Policy::workspace());
    for finding in &report.findings {
        println!("{finding}");
    }
    let failures = gate_failures(&report.stats);
    for failure in &failures {
        eprintln!("cshard-audit: gate failed: {failure}");
    }
    if report.findings.is_empty() && failures.is_empty() {
        println!(
            "cshard-audit: clean — {} files across {} crates; call graph: {} fns, {} edges, \
             {}\u{2030} resolved, {} arity misses",
            report.files_scanned,
            report.crates_scanned,
            report.stats.functions,
            report.stats.edges,
            report.stats.resolution_permille(),
            report.stats.calls_arity_miss
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "cshard-audit: {} finding(s), {} failed gate(s) in {} files scanned",
            report.findings.len(),
            failures.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}
