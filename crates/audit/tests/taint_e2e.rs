//! End-to-end coverage for the reachability-scoped rules (`ND101`,
//! `PH101`, `CL001`, `DP001`) over miniature workspaces, plus the three
//! exit-2 contracts of the `cshard-audit` binary: an ambiguous edge, a
//! resolve override no call falls through to, and a sink spec that roots
//! nothing.
//!
//! Each reachability rule has a pass and a fail fixture under
//! `tests/fixtures/`: the fail fixture plants a source N hops below a
//! sink root and must yield exactly one finding with a full
//! source→…→sink call chain; the pass fixture keeps the sink path clean
//! while leaving the same source in a fn no sink can reach — proving
//! the rules are reachability-scoped, not whole-file lints.

use cshard_audit::{scan_workspace, Policy, ScanReport};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(kind: &str, name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Builds `<tmp>/<name>/crates/core/src/lib.rs` and returns the root.
fn mini_workspace(name: &str, lib_rs: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = root.join("crates/core/src");
    fs::create_dir_all(&src).expect("mkdir fixture workspace");
    fs::write(src.join("lib.rs"), lib_rs).expect("write fixture lib.rs");
    root
}

/// A policy enabling one reachability rule over one sink spec.
fn reach_policy(rule: &str, sink: &str) -> Policy {
    Policy::parse(&format!(
        "[audit]\ncrates = [\"core\"]\n\
         [callgraph]\nsinks = [\"{sink}\"]\n\
         [rules.{rule}]\ndescription = \"fixture policy\"\n"
    ))
    .expect("fixture policy parses")
}

fn scan_fixture(test: &str, kind: &str, file: &str, rule: &str, sink: &str) -> ScanReport {
    let root = mini_workspace(test, &fixture(kind, file));
    let report = scan_workspace(&root, &reach_policy(rule, sink));
    assert!(
        report.ambiguous.is_empty(),
        "{test}: unexpected ambiguity: {:?}",
        report.ambiguous
    );
    report
}

#[test]
fn nd101_two_hop_wall_clock_reports_the_full_chain() {
    let report = scan_fixture(
        "taint-nd101-fail",
        "fail",
        "nd101.rs",
        "ND101",
        "ProtocolDriver::on_event",
    );
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "ND101");
    assert_eq!(f.path, "crates/core/src/lib.rs");
    assert_eq!(f.line, 15, "the Instant::now() call is on line 15");
    // Chain: sink root, then one hop per call down to the source fn.
    assert_eq!(f.chain.len(), 3, "{:?}", f.chain);
    assert!(f.chain[0].contains("on_event"), "{:?}", f.chain);
    assert!(f.chain[1].contains("helper"), "{:?}", f.chain);
    assert!(f.chain[2].contains("stamp"), "{:?}", f.chain);
    // Every hop carries a `file:line` location and renders indented.
    let rendered = f.to_string();
    assert_eq!(rendered.matches("-> ").count(), 2, "{rendered}");
    assert_eq!(
        rendered.matches("crates/core/src/lib.rs:").count(),
        4,
        "head + 3 chain locations: {rendered}"
    );
}

#[test]
fn nd101_ignores_wall_clocks_no_sink_can_reach() {
    let report = scan_fixture(
        "taint-nd101-pass",
        "pass",
        "nd101.rs",
        "ND101",
        "ProtocolDriver::on_event",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.sink_roots, 1);
}

#[test]
fn ph101_flags_unwrap_below_a_stage_sink() {
    let report = scan_fixture(
        "taint-ph101-fail",
        "fail",
        "ph101.rs",
        "PH101",
        "PipelineStage::run",
    );
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "PH101");
    assert!(f.chain.len() >= 2, "{:?}", f.chain);
}

#[test]
fn ph101_ignores_unwrap_outside_the_sink_cone() {
    let report = scan_fixture(
        "taint-ph101-pass",
        "pass",
        "ph101.rs",
        "PH101",
        "PipelineStage::run",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn cl001_flags_narrowing_cast_below_a_sink() {
    let report = scan_fixture(
        "taint-cl001-fail",
        "fail",
        "cl001.rs",
        "CL001",
        "PipelineStage::run",
    );
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "CL001");
}

#[test]
fn cl001_accepts_try_from_and_widening_casts() {
    let report = scan_fixture(
        "taint-cl001-pass",
        "pass",
        "cl001.rs",
        "CL001",
        "PipelineStage::run",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn dp001_flags_calls_to_deprecated_items_everywhere() {
    // DP001 needs no sink: any resolved edge into a deprecated item counts.
    let root = mini_workspace("taint-dp001-fail", &fixture("fail", "dp001.rs"));
    let policy = Policy::parse(
        "[audit]\ncrates = [\"core\"]\n[rules.DP001]\ndescription = \"fixture policy\"\n",
    )
    .expect("parses");
    let report = scan_workspace(&root, &policy);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "DP001");
    assert!(f.message.contains("schedule"), "{f}");

    let root = mini_workspace("taint-dp001-pass", &fixture("pass", "dp001.rs"));
    let report = scan_workspace(&root, &policy);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

/// The acceptance-criterion shape: the sink impl lives in one file, the
/// helper and the wall-clock source in another — taint must propagate
/// through the cross-file call edge and the chain must span both files.
#[test]
fn two_hop_taint_propagates_across_files() {
    let root = mini_workspace(
        "taint-cross-file",
        "//! sink side\nmod util;\n\npub struct Driver;\n\n\
         impl ProtocolDriver for Driver {\n    fn on_event(&mut self, ev: u64) -> u64 {\n        util::helper(ev)\n    }\n}\n",
    );
    fs::write(
        root.join("crates/core/src/util.rs"),
        "//! helper side\npub fn helper(ev: u64) -> u64 {\n    stamp().wrapping_add(ev)\n}\n\n\
         fn stamp() -> u64 {\n    std::time::Instant::now().elapsed().as_secs()\n}\n",
    )
    .expect("write util.rs");
    let report = scan_workspace(&root, &reach_policy("ND101", "ProtocolDriver::on_event"));
    assert!(report.ambiguous.is_empty(), "{:?}", report.ambiguous);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.path, "crates/core/src/util.rs");
    assert_eq!(f.chain.len(), 3, "{:?}", f.chain);
    assert!(
        f.chain[0].contains("crates/core/src/lib.rs:"),
        "{:?}",
        f.chain
    );
    assert!(
        f.chain[1].contains("helper") && f.chain[1].contains("crates/core/src/lib.rs:"),
        "hop 1 is the cross-file call site: {:?}",
        f.chain
    );
    assert!(
        f.chain[2].contains("stamp") && f.chain[2].contains("crates/core/src/util.rs:"),
        "{:?}",
        f.chain
    );
}

/// Two same-name same-arity methods behind an untyped receiver: the
/// `a.poll()` call needs a `poll/1` resolve override.
const TWO_POLLS: &str = "//! two same-name same-arity methods, untyped receiver\n\
                         pub struct A;\npub struct B;\n\
                         impl A {\n    pub fn poll(&self) -> u32 {\n        1\n    }\n}\n\
                         impl B {\n    pub fn poll(&self) -> u32 {\n        2\n    }\n}\n\
                         pub fn tick(a: &A) -> u32 {\n    a.poll()\n}\n";

/// An unresolvable call is a setup error: the binary must exit 2 with a
/// diagnostic naming the call site and the `[callgraph] resolve` override
/// syntax — and the suggested override must actually clear it.
#[test]
fn ambiguous_call_exits_2_until_a_resolve_override_settles_it() {
    let root = mini_workspace("taint-ambiguous", TWO_POLLS);
    fs::write(root.join("policy.toml"), "[audit]\ncrates = [\"core\"]\n").expect("write policy");

    let out = Command::new(env!("CARGO_BIN_EXE_cshard-audit"))
        .args(["--root", root.to_str().expect("utf-8 tmp path")])
        .output()
        .expect("run cshard-audit");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ambiguous call `poll`"), "{stderr}");
    assert!(stderr.contains("crates/core/src/lib.rs:"), "{stderr}");
    assert!(
        stderr.contains("resolve = [\"poll/1 -> <id-suffix>|*|external\"]"),
        "hint must quote the override syntax: {stderr}"
    );

    // Taking the hint settles the run.
    fs::write(
        root.join("policy.toml"),
        "[audit]\ncrates = [\"core\"]\n[callgraph]\nresolve = [\"poll/1 -> *\"]\n",
    )
    .expect("write policy");
    let out = Command::new(env!("CARGO_BIN_EXE_cshard-audit"))
        .args(["--root", root.to_str().expect("utf-8 tmp path")])
        .output()
        .expect("run cshard-audit");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// A `[callgraph] sinks` entry that roots nothing — a trait method no
/// impl defines (the spec a deleted trait leaves behind), a `calls:`
/// target nobody calls, or a spec without `::` — is a setup error: the
/// scan names each one, and the binary exits 2 quoting them. With only
/// the live spec left, the same workspace scans clean.
#[test]
fn dead_sink_spec_exits_2_naming_the_spec() {
    let root = mini_workspace("taint-dead-sink", &fixture("pass", "nd101.rs"));
    let sinks = [
        "ProtocolDriver::on_event",
        "GameDynamics::step",
        "calls:Nobody::home",
        "on_event",
    ];
    let report = scan_workspace(&root, &reach_policy("ND101", &sinks.join("\", \"")));
    assert_eq!(report.sink_roots, 1);
    assert_eq!(report.dead_sinks, &sinks[1..]);

    let policy = |sinks: &[&str]| {
        format!(
            "[audit]\ncrates = [\"core\"]\n[callgraph]\nsinks = [\"{}\"]\n",
            sinks.join("\", \"")
        )
    };
    fs::write(root.join("policy.toml"), policy(&sinks)).expect("write policy");
    let out = Command::new(env!("CARGO_BIN_EXE_cshard-audit"))
        .args(["--root", root.to_str().expect("utf-8 tmp path")])
        .output()
        .expect("run cshard-audit");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for dead in &sinks[1..] {
        assert!(
            stderr.contains(&format!("entry `{dead}` roots no")),
            "{stderr}"
        );
    }
    assert!(!stderr.contains("`ProtocolDriver::on_event`"), "{stderr}");

    fs::write(root.join("policy.toml"), policy(&sinks[..1])).expect("write policy");
    let out = Command::new(env!("CARGO_BIN_EXE_cshard-audit"))
        .args(["--root", root.to_str().expect("utf-8 tmp path")])
        .output()
        .expect("run cshard-audit");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// A `[callgraph] resolve` entry no call falls through to — the override
/// a deleted call or a now-unique name leaves behind — is a setup error:
/// the scan names it, and the binary exits 2 quoting it. With only the
/// consulted entry left, the same workspace scans clean.
#[test]
fn dead_resolve_entry_exits_2_naming_it() {
    let root = mini_workspace("taint-dead-resolve", TWO_POLLS);
    let policy = |entries: &[&str]| {
        format!(
            "[audit]\ncrates = [\"core\"]\n[callgraph]\nresolve = [\"{}\"]\n",
            entries.join("\", \"")
        )
    };
    let entries = ["poll/1 -> *", "len/1 -> *", "tick/1 -> external"];
    let parsed = Policy::parse(&policy(&entries)).expect("policy parses");
    let report = scan_workspace(&root, &parsed);
    assert!(report.ambiguous.is_empty(), "{:?}", report.ambiguous);
    assert_eq!(report.dead_resolves, ["len/1", "tick/1"]);

    fs::write(root.join("policy.toml"), policy(&entries)).expect("write policy");
    let out = Command::new(env!("CARGO_BIN_EXE_cshard-audit"))
        .args(["--root", root.to_str().expect("utf-8 tmp path")])
        .output()
        .expect("run cshard-audit");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for dead in ["len/1", "tick/1"] {
        assert!(
            stderr.contains(&format!("resolve entry `{dead}` settles no call")),
            "{stderr}"
        );
    }
    assert!(!stderr.contains("`poll/1`"), "{stderr}");

    fs::write(root.join("policy.toml"), policy(&entries[..1])).expect("write policy");
    let out = Command::new(env!("CARGO_BIN_EXE_cshard-audit"))
        .args(["--root", root.to_str().expect("utf-8 tmp path")])
        .output()
        .expect("run cshard-audit");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
