//! Walking the workspace and applying the policy.
//!
//! Each policy-listed crate's `.rs` files are read and lexed **once**
//! into [`FileTokens`]; the file-scoped token rules run over each
//! stream, then the three interprocedural passes run over all of them
//! together: symbol table ([`crate::symbols`]), call graph
//! ([`crate::callgraph`]) and taint propagation ([`crate::taint`]).

use crate::callgraph::{AmbiguousCall, CallGraph, GraphStats};
use crate::policy::Policy;
use crate::rules::{apply_token_rule, Finding, TOKEN_RULES};
use crate::symbols::{FileTokens, SymbolTable};
use crate::taint;
use std::fs;
use std::path::{Path, PathBuf};

/// The outcome of a workspace scan.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// All findings, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Call-graph resolution statistics.
    pub stats: GraphStats,
    /// Protocol sink roots the taint pass started from.
    pub sink_roots: usize,
    /// Functions reachable from any sink root (roots included).
    pub reachable: usize,
    /// Calls the resolver could not settle — a `[callgraph] resolve`
    /// override is required; the binary treats these as setup errors.
    pub ambiguous: Vec<AmbiguousCall>,
    /// `[callgraph] sinks` entries that are malformed or root no bodied
    /// non-test function — also setup errors for the binary.
    pub dead_sinks: Vec<String>,
    /// `[callgraph] resolve` entries (`name/arity`) no call falls through
    /// to — setup errors as well.
    pub dead_resolves: Vec<String>,
}

/// Scans every policy-listed crate under `root` and returns the findings.
///
/// IO errors (an unreadable file, a crate directory missing) are reported
/// as findings under the synthetic `AUDIT` rule rather than aborting: the
/// gate's job is to fail loudly with diagnostics, not to crash.
pub fn scan_workspace(root: &Path, policy: &Policy) -> ScanReport {
    let mut report = ScanReport::default();
    let mut file_tokens: Vec<FileTokens> = Vec::new();
    for krate in &policy.crates {
        let src_dir = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files, &mut report.findings);
        files.sort();
        for file in files {
            if let Some(ft) = scan_file(root, krate, &file, policy, &mut report) {
                file_tokens.push(ft);
            }
        }
        check_crate_headers(root, krate, policy, &mut report.findings);
    }
    // Interprocedural passes over every scanned file at once — symbols
    // and edges cross crate boundaries, so they cannot run per-crate.
    let symbols = SymbolTable::build(&file_tokens);
    let graph = CallGraph::build(&file_tokens, &symbols, &policy.callgraph);
    let taint = taint::analyze(&file_tokens, &symbols, &graph, policy);
    report.stats = graph.stats;
    report.ambiguous = graph.ambiguous;
    report.dead_resolves = graph.dead_resolves;
    report.sink_roots = taint.sink_roots.len();
    report.reachable = taint.reachable;
    report.dead_sinks = taint.dead_sinks;
    report.findings.extend(taint.findings);
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
}

/// Workspace crates the policy covers in neither `[audit] crates` nor
/// `[audit] exempt`: directories under `crates/` that contain a
/// `Cargo.toml`. A non-empty result is a coverage gap — a new crate was
/// added without deciding whether the determinism contract binds it — and
/// the audit binary treats it as a setup error (exit 2).
pub fn uncovered_crates(root: &Path, policy: &Policy) -> Vec<String> {
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return Vec::new();
    };
    let mut uncovered: Vec<String> = entries
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            if !path.is_dir() || !path.join("Cargo.toml").is_file() {
                return None;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let covered = policy.crates.contains(&name) || policy.exempt.contains(&name);
            (!covered).then_some(name)
        })
        .collect();
    uncovered.sort();
    uncovered
}

/// Reads, lexes and token-rule-checks one file; returns its tokens for
/// the interprocedural passes (or `None` when unreadable).
fn scan_file(
    root: &Path,
    krate: &str,
    file: &Path,
    policy: &Policy,
    report: &mut ScanReport,
) -> Option<FileTokens> {
    let rel = workspace_relative(root, file);
    let source = match fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            report.findings.push(io_finding(&rel, e));
            return None;
        }
    };
    report.files_scanned += 1;
    let ft = FileTokens::new(krate, &rel, &source);
    for rule in TOKEN_RULES {
        let Some(rp) = policy.rules.get(rule) else {
            continue; // a rule absent from the policy is switched off
        };
        if !rp.applies_to(krate, &policy.crates) || rp.is_allowed(&rel) {
            continue;
        }
        report
            .findings
            .extend(apply_token_rule(rule, rp, &rel, &ft.tokens));
    }
    Some(ft)
}

/// AH001: every protocol crate's `src/lib.rs` must carry the lint headers
/// the policy requires (`required`, plus `required_<crate>` extras), so
/// attribute hygiene cannot silently drift.
fn check_crate_headers(root: &Path, krate: &str, policy: &Policy, findings: &mut Vec<Finding>) {
    let Some(rp) = policy.rules.get("AH001") else {
        return;
    };
    if !rp.applies_to(krate, &policy.crates) {
        return;
    }
    let lib = root.join("crates").join(krate).join("src").join("lib.rs");
    let rel = workspace_relative(root, &lib);
    if rp.is_allowed(&rel) {
        return;
    }
    let source = match fs::read_to_string(&lib) {
        Ok(s) => s,
        Err(e) => {
            findings.push(io_finding(&rel, e));
            return;
        }
    };
    let mut required: Vec<&String> = rp.lists.get("required").into_iter().flatten().collect();
    if let Some(extra) = rp
        .lists
        .get(&format!("required_{}", krate.replace('-', "_")))
    {
        required.extend(extra);
    }
    for header in required {
        if !source.contains(header.as_str()) {
            findings.push(Finding::new(
                "AH001",
                &rel,
                1,
                format!(
                    "missing required crate header `{header}` — {}",
                    rp.description
                ),
            ));
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>, findings: &mut Vec<Finding>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            findings.push(io_finding(&dir.display().to_string(), e));
            return;
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out, findings);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn io_finding(path: &str, e: std::io::Error) -> Finding {
    Finding::new("AUDIT", path, 0, format!("io error: {e}"))
}

fn workspace_relative(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_crate_directory_is_a_finding_not_a_crash() {
        let policy = Policy::parse("[audit]\ncrates = [\"no-such-crate\"]\n").unwrap();
        let report = scan_workspace(Path::new("/nonexistent-root"), &policy);
        assert_eq!(report.files_scanned, 0);
        assert!(report.findings.iter().any(|f| f.rule == "AUDIT"));
    }
}
