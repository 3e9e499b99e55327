//! Walking the workspace and applying the policy.
//!
//! Each policy-listed crate's `.rs` files are read and lexed **once**
//! into [`FileTokens`]; the file-scoped token rules run over each
//! stream, then the three interprocedural passes run over all of them
//! together: symbol table ([`crate::symbols`]), call graph
//! ([`crate::callgraph`]) and DC001 ([`crate::dead`]).

use crate::callgraph::{CallGraph, GraphStats};
use crate::dead;
use crate::policy::Policy;
use crate::rules::{apply_token_rule, Finding, TOKEN_RULES};
use crate::symbols::{FileTokens, SymbolTable};
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
        let mut crate_files: Vec<FileTokens> = files
            .iter()
            .filter_map(|file| lex_file(root, krate, file, &mut report.findings))
            .collect();
        report.files_scanned += crate_files.len();
        // The file behind an out-of-line `#[cfg(test)] mod name;` is test
        // code as a whole, like an inline test module's body.
        let test_files: Vec<String> = crate_files
            .iter()
            .flat_map(FileTokens::test_mod_files)
            .collect();
        for ft in &mut crate_files {
            if test_files.contains(&ft.rel) {
                ft.mark_test_only();
            } else {
                apply_token_rules(ft, policy, &mut report.findings);
            }
        }
        file_tokens.extend(crate_files);
    }
    // Interprocedural passes over every scanned file at once — symbols
    // and edges cross crate boundaries, so they cannot run per-crate.
    let symbols = SymbolTable::build(&file_tokens);
    let graph = CallGraph::build(&file_tokens, &symbols);
    let callers = caller_files(root, policy, &mut report.findings);
    report.findings.extend(dead::test_only_fns(
        &file_tokens,
        &symbols,
        &graph,
        &callers,
        policy,
    ));
    report.stats = graph.stats;
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
}

/// The caller-only files DC001 reads: every `.rs` file under the
/// directories its `callers` list names (a directory that does not exist
/// holds no caller). Their calls keep a function alive; no rule checks
/// them.
fn caller_files(root: &Path, policy: &Policy, findings: &mut Vec<Finding>) -> Vec<FileTokens> {
    let Some(dirs) = policy
        .rules
        .get("DC001")
        .and_then(|rp| rp.lists.get("callers"))
    else {
        return Vec::new();
    };
    let mut files = Vec::new();
    for dir in dirs.iter().map(|d| root.join(d)).filter(|d| d.is_dir()) {
        collect_rs_files(&dir, &mut files, findings);
    }
    files.sort();
    files
        .iter()
        .filter_map(|file| {
            // `crates/bench/src/..` is `bench`; `tests/..` is `tests`.
            let rel = workspace_relative(root, file);
            let tail = rel.strip_prefix("crates/").unwrap_or(&rel);
            let krate = tail.split('/').next().unwrap_or_default();
            lex_file(root, krate, file, findings)
        })
        .collect()
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

/// Reads and lexes one file (or `None` when unreadable).
fn lex_file(
    root: &Path,
    krate: &str,
    file: &Path,
    findings: &mut Vec<Finding>,
) -> Option<FileTokens> {
    let rel = workspace_relative(root, file);
    match fs::read_to_string(file) {
        Ok(source) => Some(FileTokens::new(krate, &rel, &source)),
        Err(e) => {
            findings.push(io_finding(&rel, e));
            None
        }
    }
}

/// Runs the file-scoped token rules the policy enables over one file.
fn apply_token_rules(ft: &FileTokens, policy: &Policy, findings: &mut Vec<Finding>) {
    for rule in TOKEN_RULES {
        let Some(rp) = policy.rules.get(rule) else {
            continue; // a rule absent from the policy is switched off
        };
        if !rp.applies_to(&ft.krate, &policy.crates) || rp.is_allowed(&ft.rel) {
            continue;
        }
        findings.extend(apply_token_rule(rule, rp, &ft.rel, &ft.tokens));
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
