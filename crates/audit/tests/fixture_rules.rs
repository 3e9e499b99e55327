//! Every rule id has a pass and a fail fixture under `tests/fixtures/`.
//!
//! The fail fixture must produce at least one finding of exactly that rule
//! with a real line number; the pass fixture must produce none. Further
//! end-to-end tests build miniature workspaces in the cargo temp dir: a
//! float comparison seeded into a protocol crate fails the scan with a
//! `file:line` diagnostic naming the rule, unless the policy allowlists
//! the file.

use cshard_audit::lexer::lex;
use cshard_audit::rules::{apply_token_rule, TOKEN_RULES};
use cshard_audit::{scan_workspace, uncovered_crates, Policy};
use std::fs;
use std::path::Path;

fn fixture(kind: &str, name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn policy_for(rule: &str) -> Policy {
    let text =
        format!("[audit]\ncrates = [\"core\"]\n[rules.{rule}]\ndescription = \"fixture policy\"\n");
    Policy::parse(&text).expect("fixture policy parses")
}

#[test]
fn every_token_rule_has_a_failing_and_passing_fixture() {
    for rule in TOKEN_RULES {
        let file = format!("{}.rs", rule.to_lowercase());
        let policy = policy_for(rule);
        let rp = &policy.rules[rule];

        let fail = apply_token_rule(rule, rp, &file, &lex(&fixture("fail", &file)));
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

        let pass = apply_token_rule(rule, rp, &file, &lex(&fixture("pass", &file)));
        assert!(pass.is_empty(), "{rule}: pass fixture flagged: {pass:?}");
    }
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
        "//! doc\npub fn is_unit(p: f64) -> bool {\n    p == 1.0\n}\n",
    );
    let strict = Policy::parse(
        "[audit]\ncrates = [\"core\"]\n[rules.FD001]\ndescription = \"no float ==\"\n",
    )
    .expect("parses");
    let report = scan_workspace(&root, &strict);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(
        report.findings[0]
            .to_string()
            .starts_with("crates/core/src/lib.rs:3: FD001"),
        "{}",
        report.findings[0]
    );

    let lenient = Policy::parse(
        "[audit]\ncrates = [\"core\"]\n[rules.FD001]\ndescription = \"no float ==\"\n\
         allow = [\"crates/core/src/lib.rs\"]  # fixture: sanctioned exact comparison\n",
    )
    .expect("parses");
    assert!(scan_workspace(&root, &lenient).findings.is_empty());
}

#[test]
fn policy_parse_error_is_a_diagnostic_not_a_panic() {
    let err = Policy::parse("[audit]\ncrates = [\"core\"]\n[rules.X]\nnot a toml line\n")
        .expect_err("malformed policy must be rejected");
    assert_eq!(err.line, 4);
    let rendered = err.to_string();
    assert!(rendered.starts_with("policy.toml:4:"), "{rendered}");
}

/// A workspace crate (a `crates/<name>/Cargo.toml`) named by neither
/// `[audit] crates` nor `[audit] exempt` is a coverage gap: the scan must
/// report it so the binary can refuse to run (exit 2).
#[test]
fn uncovered_crate_with_manifest_is_detected_and_exempt_clears_it() {
    // The tmp workspace persists across runs; drop the manifest this test
    // writes below so the no-manifest assertion holds on reruns.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit-coverage");
    let _ = fs::remove_dir_all(&root);
    let root = mini_workspace("audit-coverage", "//! covered crate\n");
    // `core` has a src/ but no manifest yet — not a crate, not a gap.
    let policy = Policy::parse("[audit]\ncrates = [\"other\"]\n").expect("parses");
    assert!(uncovered_crates(&root, &policy).is_empty());
    // Give it a manifest: now it is an uncovered workspace crate.
    fs::write(
        root.join("crates/core/Cargo.toml"),
        "[package]\nname = \"core\"\n",
    )
    .expect("write manifest");
    assert_eq!(uncovered_crates(&root, &policy), vec!["core".to_string()]);
    // Listing it as scanned or exempt both clear the gap.
    let scanned = Policy::parse("[audit]\ncrates = [\"core\"]\n").expect("parses");
    assert!(uncovered_crates(&root, &scanned).is_empty());
    let exempt = Policy::parse("[audit]\ncrates = [\"other\"]\nexempt = [\"core\"] # fixture\n")
        .expect("parses");
    assert!(uncovered_crates(&root, &exempt).is_empty());
}

/// The real workspace policy must parse and keep covering the real crates —
/// a drifted `policy.toml` fails here before it fails in CI.
#[test]
fn workspace_policy_parses_and_names_existing_crates() {
    let ws_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let text = fs::read_to_string(ws_root.join("policy.toml")).expect("policy.toml exists");
    let policy = Policy::parse(&text).expect("workspace policy parses");
    for krate in &policy.crates {
        assert!(
            ws_root
                .join("crates")
                .join(krate)
                .join("src/lib.rs")
                .is_file(),
            "policy names missing crate `{krate}`"
        );
    }
    // Every token rule is configured.
    for rule in TOKEN_RULES {
        assert!(policy.rules.contains_key(rule), "missing [rules.{rule}]");
    }
    // The real workspace has no coverage gap: every crate is scanned or
    // exempt (with a reason) — the audit binary exits 2 otherwise.
    let gaps = uncovered_crates(ws_root, &policy);
    assert!(gaps.is_empty(), "uncovered workspace crates: {gaps:?}");
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
    let body = "pub fn f(x: f64) -> bool {\n    x == 0.5\n}\n";
    for file in ["mc.rs", "deep/mod.rs", "real.rs"] {
        fs::write(src.join(file), body).expect("write module");
    }
    let report = scan_workspace(&root, &policy_for("FD001"));
    let paths: Vec<&str> = report.findings.iter().map(|f| f.path.as_str()).collect();
    assert_eq!(paths, ["crates/core/src/real.rs"], "{:?}", report.findings);
}

/// A DC001 policy whose caller-only files live under `tests/`.
fn dc001_policy(allow: &str) -> Policy {
    Policy::parse(&format!(
        "[audit]\ncrates = [\"core\"]\n[rules.DC001]\ndescription = \"fixture policy\"\n\
         callers = [\"tests\"]\nallow = [{allow}]\n"
    ))
    .expect("fixture policy parses")
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
    let report = scan_workspace(&root, &dc001_policy(""));
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!((f.rule, f.line), ("DC001", 3));
    assert!(f.message.contains("`core::only_tested`"), "{f}");
    // An allow entry names the function by its id.
    let report = scan_workspace(&root, &dc001_policy("\"core::only_tested\""));
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
    let report = scan_workspace(&root, &dc001_policy(""));
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}
