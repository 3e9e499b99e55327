//! Walking the workspace and applying the policy.
//!
//! Each scanned crate's `.rs` files are read and lexed **once** into
//! [`FileTokens`]; FD001 runs over each stream, then the three
//! interprocedural passes run over all of them together: symbol table
//! ([`crate::symbols`]), call graph ([`crate::callgraph`]) and DC001
//! ([`crate::dead`]).

use crate::callgraph::{CallGraph, GraphStats};
use crate::dead;
use crate::policy::Policy;
use crate::rules::{float_compares, Finding};
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
    /// Number of crates scanned.
    pub crates_scanned: usize,
    /// Call-graph resolution statistics.
    pub stats: GraphStats,
}

/// Scans every crate under `root/crates` the policy does not exempt and
/// returns the findings.
///
/// IO errors (an unreadable file, a crate without `src/`) are reported
/// as findings under the synthetic `AUDIT` rule rather than aborting: the
/// gate's job is to fail loudly with diagnostics, not to crash.
pub fn scan_workspace(root: &Path, policy: &Policy) -> ScanReport {
    let mut report = ScanReport::default();
    let mut file_tokens: Vec<FileTokens> = Vec::new();
    for krate in scanned_crates(root, policy, &mut report.findings) {
        let src_dir = root.join("crates").join(&krate).join("src");
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files, &mut report.findings);
        files.sort();
        let mut crate_files: Vec<FileTokens> = files
            .iter()
            .filter_map(|file| lex_file(root, &krate, file, &mut report.findings))
            .collect();
        report.files_scanned += crate_files.len();
        report.crates_scanned += 1;
        // The file behind an out-of-line `#[cfg(test)] mod name;` is test
        // code as a whole, like an inline test module's body.
        let test_files: Vec<String> = crate_files
            .iter()
            .flat_map(FileTokens::test_mod_files)
            .collect();
        for ft in &mut crate_files {
            if test_files.contains(&ft.rel) {
                ft.mark_test_only();
            } else if !policy.fd001_allow.contains(&ft.rel.as_str()) {
                report.findings.extend(float_compares(&ft.rel, &ft.tokens));
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

/// Every directory under `root/crates` the policy does not exempt,
/// sorted: a new crate is scanned unless an exemption names it.
fn scanned_crates(root: &Path, policy: &Policy, findings: &mut Vec<Finding>) -> Vec<String> {
    let dir = root.join("crates");
    let entries = match fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => {
            findings.push(io_finding(&dir.display().to_string(), e));
            return Vec::new();
        }
    };
    let mut crates: Vec<String> = entries
        .flatten()
        .filter(|entry| entry.path().is_dir())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| !policy.exempt.contains(&name.as_str()))
        .collect();
    crates.sort();
    crates
}

/// The caller-only files DC001 reads: every `.rs` file under the
/// policy's caller directories (a directory that does not exist holds
/// no caller). Their calls keep a function alive; no rule checks them.
fn caller_files(root: &Path, policy: &Policy, findings: &mut Vec<Finding>) -> Vec<FileTokens> {
    let mut files = Vec::new();
    for dir in policy
        .dc001_callers
        .iter()
        .map(|d| root.join(d))
        .filter(|d| d.is_dir())
    {
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
        let report = scan_workspace(Path::new("/nonexistent-root"), &Policy::workspace());
        assert_eq!(report.files_scanned, 0);
        assert!(report.findings.iter().any(|f| f.rule == "AUDIT"));
    }
}
