//! Every rule id has a pass and a fail fixture under `tests/fixtures/`.
//!
//! The fail fixture must produce at least one finding of exactly that rule
//! with a real line number; the pass fixture must produce none. Further
//! end-to-end tests build miniature workspaces in the cargo temp dir: a
//! float comparison seeded into a protocol crate fails the scan with a
//! `file:line` diagnostic naming the rule, unless the policy allowlists
//! the file. The last one scans the workspace itself.

use cshard_audit::lexer::lex;
use cshard_audit::policy::{gate_failures, MAX_ARITY_MISSES, MIN_RESOLUTION_PERMILLE};
use cshard_audit::rules::float_compares;
use cshard_audit::{scan_workspace, Policy};
use std::fs;
use std::path::Path;

fn fixture(kind: &str, name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn fd001_has_a_failing_and_passing_fixture() {
    let (rule, file) = ("FD001", "fd001.rs");
    let fail = float_compares(file, &lex(&fixture("fail", file)));
    assert!(
        !fail.is_empty(),
        "{rule}: fail fixture produced no findings"
    );
    for f in &fail {
        assert_eq!(f.rule, rule);
        assert!(f.line > 0, "{rule}: finding without a line: {f}");
        // The diagnostic format is `file:line: RULE message`.
        let rendered = f.to_string();
        assert!(
            rendered.starts_with(&format!("{}:{}: {}", file, f.line, rule)),
            "{rule}: unexpected diagnostic format: {rendered}"
        );
    }

    let pass = float_compares(file, &lex(&fixture("pass", file)));
    assert!(pass.is_empty(), "{rule}: pass fixture flagged: {pass:?}");
}

/// Builds `<tmp>/<name>/crates/core/src/lib.rs` with the given source and
/// returns the workspace root.
fn mini_workspace(name: &str, lib_rs: &str) -> std::path::PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = root.join("crates/core/src");
    fs::create_dir_all(&src).expect("mkdir fixture workspace");
    fs::write(src.join("lib.rs"), lib_rs).expect("write fixture lib.rs");
    root
}

#[test]
fn allowlisted_file_is_exempt() {
    let root = mini_workspace(
        "audit-allow",
        "//! doc\nfn is_unit(p: f64) -> bool {\n    p == 1.0\n}\n",
    );
    let report = scan_workspace(&root, &Policy::default());
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(
        report.findings[0]
            .to_string()
            .starts_with("crates/core/src/lib.rs:3: FD001"),
        "{}",
        report.findings[0]
    );

    let lenient = Policy {
        fd001_allow: &["crates/core/src/lib.rs"], // fixture: sanctioned exact comparison
        ..Policy::default()
    };
    assert!(scan_workspace(&root, &lenient).findings.is_empty());
}

/// A crate no list names is scanned: a float comparison in a new
/// `crates/newcrate` is an FD001 finding, and exempting the crate clears
/// it.
#[test]
fn a_crate_no_list_names_is_scanned() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit-new-crate");
    let src = root.join("crates/newcrate/src");
    fs::create_dir_all(&src).expect("mkdir fixture workspace");
    fs::write(
        src.join("lib.rs"),
        "//! doc\nfn half(x: f64) -> bool {\n    x == 0.5\n}\n",
    )
    .expect("write fixture lib.rs");
    let report = scan_workspace(&root, &Policy::default());
    assert_eq!(report.crates_scanned, 1);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(
        report.findings[0]
            .to_string()
            .starts_with("crates/newcrate/src/lib.rs:3: FD001"),
        "{}",
        report.findings[0]
    );
    let exempt = Policy {
        exempt: &["newcrate"], // fixture
        ..Policy::default()
    };
    let report = scan_workspace(&root, &exempt);
    assert_eq!(report.crates_scanned, 0);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

/// The workspace meets its own policy: no finding, and both resolver
/// gates hold.
#[test]
fn the_workspace_passes_its_own_audit() {
    let ws_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = scan_workspace(ws_root, &Policy::workspace());
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert!(
        report.stats.resolution_permille() >= MIN_RESOLUTION_PERMILLE,
        "{:?}",
        report.stats
    );
    assert!(
        report.stats.calls_arity_miss <= MAX_ARITY_MISSES,
        "{:?}",
        report.stats
    );
    assert!(gate_failures(&report.stats).is_empty());
}

/// The body of an out-of-line `#[cfg(test)] mod` (`name.rs` or
/// `name/mod.rs`) is test code: its float comparison raises no FD001,
/// while the same body behind a plain `mod` does.
#[test]
fn out_of_line_test_module_files_are_test_code() {
    // The tmp workspace persists across runs; start it clean.
    let _ = fs::remove_dir_all(Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit-test-mod"));
    let root = mini_workspace(
        "audit-test-mod",
        "//! doc\n#[cfg(test)]\nmod mc;\n#[cfg(test)]\nmod deep;\nmod real;\n",
    );
    let src = root.join("crates/core/src");
    fs::create_dir_all(src.join("deep")).expect("mkdir deep/");
    let body = "fn f(x: f64) -> bool {\n    x == 0.5\n}\n";
    for file in ["mc.rs", "deep/mod.rs", "real.rs"] {
        fs::write(src.join(file), body).expect("write module");
    }
    let report = scan_workspace(&root, &Policy::default());
    let paths: Vec<&str> = report.findings.iter().map(|f| f.path.as_str()).collect();
    assert_eq!(paths, ["crates/core/src/real.rs"], "{:?}", report.findings);
}

/// A DC001 policy whose caller-only files live under `tests/`.
fn dc001_policy(allow: &'static [&'static str]) -> Policy {
    Policy {
        dc001_callers: &["tests"],
        dc001_allow: allow,
        ..Policy::default()
    }
}

#[test]
fn dc001_flags_a_pub_fn_only_test_code_calls() {
    let root = mini_workspace("audit-dc001-fail", &fixture("fail", "dc001.rs"));
    // Unit tests in another file and in a caller directory are test code
    // too: neither keeps the function alive.
    let unit_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                     assert_eq!(core::only_tested(1), 2);\n    }\n}\n";
    fs::write(root.join("crates/core/src/other.rs"), unit_test).expect("write other.rs");
    fs::create_dir_all(root.join("tests")).expect("mkdir tests/");
    fs::write(root.join("tests/it.rs"), unit_test).expect("write tests/it.rs");
    let report = scan_workspace(&root, &dc001_policy(&[]));
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!((f.rule, f.line), ("DC001", 3));
    assert!(f.message.contains("`core::only_tested`"), "{f}");
    // An allow entry names the function by its id.
    let report = scan_workspace(&root, &dc001_policy(&["core::only_tested"]));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn dc001_passes_fns_with_another_caller_or_outside_the_rule() {
    let root = mini_workspace("audit-dc001-pass", &fixture("pass", "dc001.rs"));
    fs::create_dir_all(root.join("tests")).expect("mkdir tests/");
    fs::write(
        root.join("tests/it.rs"),
        "#[test]\nfn integration() {\n    assert_eq!(core::entry(&core::Meter), [2]);\n}\n",
    )
    .expect("write tests/it.rs");
    let report = scan_workspace(&root, &dc001_policy(&[]));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

/// A receiver typed by its constructor (`let mut s = Stats::new();
/// s.merge(..)`) keeps `Stats::merge` alive, not the `Other::merge` that
/// sits in the caller's own module: DC001 names the decoy. Resolved by
/// location instead, the call would keep the decoy alive and DC001 would
/// name `Stats::merge`.
#[test]
fn dc001_follows_a_typed_receiver_not_a_same_module_decoy() {
    let lib = "//! the caller and the decoy\nmod stats;\npub use stats::Stats;\n\n\
               pub struct Other;\n\n\
               impl Other {\n    pub fn merge(&mut self, ev: u64) -> u64 {\n        ev\n    }\n}\n\n\
               pub struct Driver;\n\n\
               impl ProtocolDriver for Driver {\n    fn on_event(&mut self, ev: u64) -> u64 {\n        \
               let mut s = Stats::new();\n        s.merge(ev)\n    }\n}\n";
    let stats = "//! the typed callee\npub struct Stats;\n\n\
                 impl Stats {\n    pub fn new() -> Stats {\n        Stats\n    }\n\n    \
                 pub fn merge(&mut self, ev: u64) -> u64 {\n        ev + 1\n    }\n}\n";
    let root = mini_workspace("audit-dc001-typed-receiver", lib);
    fs::write(root.join("crates/core/src/stats.rs"), stats).expect("write stats.rs");
    let report = scan_workspace(&root, &dc001_policy(&[]));
    let named: Vec<(&str, usize, &str)> = report
        .findings
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.message.as_str()))
        .collect();
    assert_eq!(named.len(), 1, "{:?}", report.findings);
    assert_eq!((named[0].0, named[0].1), ("crates/core/src/lib.rs", 8));
    assert!(named[0].2.contains("`core::Other::merge`"), "{named:?}");
}

/// A call no rule settles (a closure parameter states no type, and two
/// types define `poll`) fans out: both candidates stay alive, and only
/// the uncalled `tick` is dead.
#[test]
fn dc001_keeps_every_candidate_of_an_ambiguous_call_alive() {
    let lib = "//! two same-name same-arity methods, untyped receiver\n\
               pub struct A;\npub struct B;\n\
               impl A {\n    pub fn poll(&self) -> u32 {\n        1\n    }\n}\n\
               impl B {\n    pub fn poll(&self) -> u32 {\n        2\n    }\n}\n\
               pub fn tick(all: &[A]) -> u32 {\n    all.iter().map(|a| a.poll()).sum()\n}\n";
    let root = mini_workspace("audit-dc001-ambiguous", lib);
    let report = scan_workspace(&root, &dc001_policy(&[]));
    assert_eq!(report.stats.calls_ambiguous, 1);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(
        report.findings[0].message.contains("`core::tick`"),
        "{}",
        report.findings[0]
    );
}
