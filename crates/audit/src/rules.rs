//! The audit rules, applied to a lexed token stream.
//!
//! Every rule is identified by a stable id (`ND001`, ...), is configured
//! by an entry in `policy.toml`, and reports findings as `file:line`
//! diagnostics. The rules are token-level heuristics — deliberately
//! conservative, so a finding is near-certainly real; the `allow` lists in
//! the policy handle the residue, each entry with a comment saying why.
//! See DESIGN.md "Determinism invariants" for the rationale per rule.

use crate::lexer::{Token, TokenKind};
use crate::policy::RulePolicy;
use std::fmt;

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`ND001`, `PH001`, ...).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human explanation.
    pub message: String,
    /// For reachability-scoped rules (`ND101`, ...): the sink→source
    /// call chain, one `id (file:line)` hop per element, sink root
    /// first. Empty for file-scoped rules.
    pub chain: Vec<String>,
}

impl Finding {
    /// A chainless (file-scoped) finding.
    pub fn new(rule: &'static str, path: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message,
            chain: Vec::new(),
        }
    }
}

impl fmt::Display for Finding {
    /// `file:line: RULE msg` head line, then one indented line per
    /// call-chain hop (sink root first, `->`-prefixed below it).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.path, self.line, self.rule, self.message
        )?;
        for (i, hop) in self.chain.iter().enumerate() {
            let arrow = if i == 0 { "" } else { "-> " };
            write!(f, "\n    {arrow}{hop}")?;
        }
        Ok(())
    }
}

/// Ids of every token-level rule, in reporting order. `AH001` is file-level
/// (crate headers) and lives in [`crate::scan`]; the reachability-scoped
/// rules (`ND101`...) live in [`crate::taint`].
pub const TOKEN_RULES: [&str; 6] = ["ND001", "ND002", "ND003", "PH001", "FD001", "AR001"];

/// Token index spans (half-open) covered by `#[cfg(test)] mod ... { }`.
///
/// Rules skip these: tests may use wall clocks, `unwrap` and unordered
/// iteration freely — the determinism contract binds protocol code only.
/// The file behind an out-of-line `#[cfg(test)] mod name;` is test code
/// as a whole ([`test_mod_decls`] names it; the scanner marks it).
pub fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some(open) = cfg_test_mod_at(tokens, i).map(|m| m + 2) {
            if tokens[open].is_punct("{") {
                let mut depth = 0usize;
                let mut k = open;
                while k < tokens.len() {
                    if tokens[k].is_punct("{") {
                        depth += 1;
                    } else if tokens[k].is_punct("}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                spans.push((i, k + 1));
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// Names of the out-of-line `#[cfg(test)] mod name;` declarations.
pub fn test_mod_decls(tokens: &[Token]) -> Vec<String> {
    (0..tokens.len())
        .filter_map(|i| cfg_test_mod_at(tokens, i))
        .filter(|&m| tokens[m + 2].is_punct(";"))
        .map(|m| tokens[m + 1].text.clone())
        .collect()
}

/// When a `#[cfg(test)]` attribute starts at `i` and heads (past any
/// further `#[...]` attributes) `mod <name>` followed by `{` or `;`: the
/// index of `mod`.
fn cfg_test_mod_at(tokens: &[Token], i: usize) -> Option<usize> {
    if !is_cfg_test_attr(tokens, i) {
        return None;
    }
    let mut j = skip_attr(tokens, i);
    while j < tokens.len() && tokens[j].is_punct("#") {
        j = skip_attr(tokens, j);
    }
    (j + 2 < tokens.len()
        && tokens[j].is_ident("mod")
        && tokens[j + 1].kind == TokenKind::Ident
        && (tokens[j + 2].is_punct("{") || tokens[j + 2].is_punct(";")))
    .then_some(j)
}

fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    // `#` `[` `cfg` `(` `test` `)` `]`
    tokens.len() > i + 6
        && tokens[i].is_punct("#")
        && tokens[i + 1].is_punct("[")
        && tokens[i + 2].is_ident("cfg")
        && tokens[i + 3].is_punct("(")
        && tokens[i + 4].is_ident("test")
        && tokens[i + 5].is_punct(")")
        && tokens[i + 6].is_punct("]")
}

/// Returns the token index just past the attribute starting at `i` (which
/// must point at `#`).
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1; // at `[`
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct("[") {
            depth += 1;
        } else if tokens[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

fn in_spans(spans: &[(usize, usize)], i: usize) -> bool {
    spans.iter().any(|&(a, b)| i >= a && i < b)
}

/// Applies one token rule to a file. `path` is workspace-relative; the
/// caller has already checked the rule applies to this crate and that the
/// path is not allowlisted.
pub fn apply_token_rule(
    rule: &'static str,
    policy: &RulePolicy,
    path: &str,
    tokens: &[Token],
) -> Vec<Finding> {
    let spans = test_spans(tokens);
    let mut findings = Vec::new();
    let mut emit = |line: usize, message: String| {
        findings.push(Finding::new(rule, path, line, message));
    };
    match rule {
        "ND001" => {
            for (i, t) in tokens.iter().enumerate() {
                if in_spans(&spans, i) {
                    continue;
                }
                if t.is_ident("Instant") || t.is_ident("SystemTime") {
                    emit(
                        t.line,
                        format!(
                            "wall-clock API `{}` in protocol code — {}",
                            t.text, policy.description
                        ),
                    );
                }
            }
        }
        "ND002" => {
            const BANNED: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "getrandom"];
            for (i, t) in tokens.iter().enumerate() {
                if in_spans(&spans, i) {
                    continue;
                }
                if BANNED.iter().any(|b| t.is_ident(b)) {
                    emit(
                        t.line,
                        format!("ambient randomness `{}` — {}", t.text, policy.description),
                    );
                }
            }
        }
        "ND003" => {
            for site in hash_iteration_sites(tokens) {
                if in_spans(&spans, site.index) {
                    continue;
                }
                emit(site.line, format!("{} — {}", site.what, policy.description));
            }
        }
        "PH001" => {
            for (i, t) in tokens.iter().enumerate() {
                if in_spans(&spans, i) {
                    continue;
                }
                let dotted = i > 0 && tokens[i - 1].is_punct(".");
                let called = tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
                let banged = tokens.get(i + 1).is_some_and(|n| n.is_punct("!"));
                if dotted && called && (t.is_ident("unwrap") || t.is_ident("expect")) {
                    emit(
                        t.line,
                        format!("`.{}()` in protocol code — {}", t.text, policy.description),
                    );
                }
                if banged
                    && ["panic", "unreachable", "todo", "unimplemented"]
                        .iter()
                        .any(|m| t.is_ident(m))
                {
                    emit(
                        t.line,
                        format!("`{}!` in protocol code — {}", t.text, policy.description),
                    );
                }
            }
        }
        "AR001" => {
            let types = policy
                .lists
                .get("types")
                .cloned()
                .unwrap_or_else(|| vec!["SimTime".to_string()]);
            let idents = policy.lists.get("idents").cloned().unwrap_or_default();
            for site in unchecked_arith_sites(tokens, &types, &idents) {
                if in_spans(&spans, site.index) {
                    continue;
                }
                emit(site.line, format!("{} — {}", site.what, policy.description));
            }
        }
        "FD001" => {
            for (i, t) in tokens.iter().enumerate() {
                if in_spans(&spans, i) {
                    continue;
                }
                if !(t.is_punct("==") || t.is_punct("!=")) {
                    continue;
                }
                let prev_float = i > 0 && is_float_token(&tokens[i - 1]);
                // Allow a unary minus before the literal on the right.
                let next = if tokens.get(i + 1).is_some_and(|n| n.is_punct("-")) {
                    tokens.get(i + 2)
                } else {
                    tokens.get(i + 1)
                };
                let next_float = next.is_some_and(is_float_token);
                if prev_float || next_float {
                    emit(
                        t.line,
                        format!("float compared with `{}` — {}", t.text, policy.description),
                    );
                }
            }
        }
        other => return unreachable_rule(other),
    }
    findings
}

// A rule id outside TOKEN_RULES is a programming error in the scanner, not
// a data error — but the audit must never panic, so surface it as text.
fn unreachable_rule(rule: &str) -> Vec<Finding> {
    vec![Finding::new(
        "AUDIT",
        "",
        0,
        format!("internal error: unknown token rule id `{rule}`"),
    )]
}

fn is_float_token(t: &Token) -> bool {
    matches!(t.kind, TokenKind::Number { is_float: true })
}

/// One matched site within a token stream: shared currency between the
/// file-scoped rules here and the reachability-scoped rules in
/// [`crate::taint`], which filters sites by function-body span instead of
/// by test span.
#[derive(Clone, Debug)]
pub struct Site {
    /// Token index of the match (for span filtering).
    pub index: usize,
    /// 1-based line.
    pub line: usize,
    /// What matched, message-ready (`"iteration `.keys()` over ..."`).
    pub what: String,
}

/// ND003/ND103 detector: iteration over names declared with a
/// `HashMap`/`HashSet` type (method iteration and `for` loops).
pub fn hash_iteration_sites(tokens: &[Token]) -> Vec<Site> {
    let names = hash_typed_names(tokens);
    const ITERS: [&str; 8] = [
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "into_keys",
        "into_values",
    ];
    let mut sites = Vec::new();
    for i in 0..tokens.len() {
        // `name . method (` where `name` has a hash-container type.
        if i + 3 < tokens.len()
            && tokens[i].kind == TokenKind::Ident
            && tokens[i + 1].is_punct(".")
            && tokens[i + 2].kind == TokenKind::Ident
            && tokens[i + 3].is_punct("(")
            && names.iter().any(|n| n == &tokens[i].text)
            && ITERS.iter().any(|m| tokens[i + 2].is_ident(m))
        {
            sites.push(Site {
                index: i,
                line: tokens[i].line,
                what: format!(
                    "iteration `.{}()` over hash container `{}`",
                    tokens[i + 2].text,
                    tokens[i].text
                ),
            });
        }
        // `for <pat> in [&][mut] name {` over a hash container.
        if tokens[i].is_ident("for") {
            if let Some(j) = find_for_target(tokens, i) {
                if names.iter().any(|n| n == &tokens[j].text) {
                    sites.push(Site {
                        index: j,
                        line: tokens[j].line,
                        what: format!("`for` loop over hash container `{}`", tokens[j].text),
                    });
                }
            }
        }
    }
    sites
}

/// AR001 detector: bare `+`/`-`/`*` where either operand is a name with a
/// guarded type ascription (`types`, e.g. `SimTime`) or a guarded counter
/// name (`idents`, e.g. `epoch`). Guarded arithmetic must go through the
/// `saturating_*`/`checked_*` methods, which carry no bare operator.
pub fn unchecked_arith_sites(tokens: &[Token], types: &[String], idents: &[String]) -> Vec<Site> {
    let mut guarded = typed_names(tokens, types);
    for extra in idents {
        if !guarded.iter().any(|g| g == extra) {
            guarded.push(extra.clone());
        }
    }
    if guarded.is_empty() {
        return Vec::new();
    }
    let mut sites = Vec::new();
    for i in 1..tokens.len() {
        let t = &tokens[i];
        if !(t.is_punct("+") || t.is_punct("-") || t.is_punct("*")) {
            continue;
        }
        // Binary position only: the left neighbour must be a value end
        // (name, literal, `)`/`]`), never `=`/`(`/`,`/operator — that
        // excludes unary minus, deref `*p` and `&`-of.
        let prev = &tokens[i - 1];
        let value_end = prev.kind == TokenKind::Ident
            || matches!(prev.kind, TokenKind::Number { .. })
            || prev.is_punct(")")
            || prev.is_punct("]");
        if !value_end {
            continue;
        }
        let left_hit = prev.kind == TokenKind::Ident && guarded.iter().any(|g| g == &prev.text);
        let right_hit = tokens
            .get(i + 1)
            .is_some_and(|n| n.kind == TokenKind::Ident && guarded.iter().any(|g| g == &n.text));
        if left_hit || right_hit {
            let name = if left_hit {
                &prev.text
            } else {
                &tokens[i + 1].text
            };
            sites.push(Site {
                index: i,
                line: t.line,
                what: format!(
                    "unchecked `{}` on guarded counter `{}` (use `saturating_*`/`checked_*`)",
                    t.text, name
                ),
            });
        }
    }
    sites
}

/// Names declared (via `:` ascription or `let ... = Type...`) with any of
/// the given type names — the generic engine behind [`hash_typed_names`]
/// and the AR001 guarded-type tracking.
fn typed_names(tokens: &[Token], types: &[String]) -> Vec<String> {
    let mut names = Vec::new();
    let mut push = |s: &str| {
        if !names.iter().any(|n| n == s) {
            names.push(s.to_string());
        }
    };
    let is_type = |t: &Token| t.kind == TokenKind::Ident && types.iter().any(|y| y == &t.text);
    for i in 0..tokens.len() {
        // `name : [path ::] Type` — fields, params, ascriptions.
        if tokens[i].kind == TokenKind::Ident && tokens.get(i + 1).is_some_and(|t| t.is_punct(":"))
        {
            let mut j = i + 2;
            let mut hops = 0;
            while j < tokens.len() && hops < 8 {
                if is_type(&tokens[j]) {
                    push(&tokens[i].text);
                    break;
                }
                // Only walk through borrows and path segments
                // (`& mut std :: collections ::`).
                if tokens[j].kind == TokenKind::Ident
                    || tokens[j].is_punct("::")
                    || tokens[j].is_punct("&")
                {
                    j += 1;
                    hops += 1;
                } else {
                    break;
                }
            }
        }
        // `let [mut] name = ... Type ... ;` (constructor calls).
        if tokens[i].is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = tokens.get(j) else { continue };
            if name.kind != TokenKind::Ident {
                continue;
            }
            if !tokens.get(j + 1).is_some_and(|t| t.is_punct("=")) {
                continue; // typed `let` handled by the `:` pattern above
            }
            // Only the initializer's top nesting level names the binding's
            // type (`let t = SimTime::from_nanos(x)`); a type mentioned
            // inside nested braces/parens (`let b = Block { at: SimTime::ZERO }`)
            // types a *field*, not the binding.
            let mut k = j + 2;
            let mut depth = 0i32;
            while k < tokens.len() {
                let t = &tokens[k];
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                    depth -= 1;
                } else if depth == 0 && t.is_punct(";") {
                    break;
                } else if depth == 0 && is_type(t) {
                    push(&name.text);
                    break;
                }
                k += 1;
            }
        }
    }
    names
}

/// Collects identifiers declared (as `let` bindings, fields or parameters)
/// with a `HashMap`/`HashSet` type, plus `HashMap::new()`-style bindings.
fn hash_typed_names(tokens: &[Token]) -> Vec<String> {
    typed_names(tokens, &["HashMap".to_string(), "HashSet".to_string()])
}

/// For a `for` token at `i`, finds the index of the loop-target identifier
/// when the target is a plain (possibly borrowed) name: `for p in &name {`.
fn find_for_target(tokens: &[Token], i: usize) -> Option<usize> {
    // Find `in` within a short window (patterns are usually small).
    let mut j = i + 1;
    let mut hops = 0;
    while j < tokens.len() && hops < 12 {
        if tokens[j].is_ident("in") {
            let mut k = j + 1;
            while k < tokens.len() && (tokens[k].is_punct("&") || tokens[k].is_ident("mut")) {
                k += 1;
            }
            let name = tokens.get(k)?;
            // Must be a bare name followed by `{` — method calls and
            // ranges are someone else's business.
            if name.kind == TokenKind::Ident && tokens.get(k + 1).is_some_and(|t| t.is_punct("{")) {
                return Some(k);
            }
            return None;
        }
        j += 1;
        hops += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::policy::RulePolicy;

    fn rule(desc: &str) -> RulePolicy {
        RulePolicy {
            description: desc.to_string(),
            ..RulePolicy::default()
        }
    }

    fn run(id: &'static str, src: &str) -> Vec<Finding> {
        apply_token_rule(id, &rule("policy says no"), "x.rs", &lex(src))
    }

    #[test]
    fn nd001_flags_instant_but_not_in_tests_or_strings() {
        let src = r#"
            use std::time::Instant;
            fn f() { let s = "Instant"; }
            #[cfg(test)]
            mod tests {
                use std::time::Instant;
            }
        "#;
        let f = run("ND001", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn nd002_flags_thread_rng() {
        let f = run("ND002", "fn f() { let mut r = rand::thread_rng(); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("thread_rng"));
    }

    #[test]
    fn nd003_needs_a_hash_typed_name() {
        let src = "
            struct S { m: HashMap<u32, u32>, v: Vec<u32> }
            fn f(s: &S) {
                for x in s.v.iter() {}
                let total: u32 = s.m.values().sum();
            }
        ";
        let f = run("ND003", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("values"));
    }

    #[test]
    fn nd003_flags_for_loops_over_hash_sets() {
        let src = "
            fn f() {
                let mut seen = std::collections::HashSet::new();
                for s in &seen {}
                let v = vec![1];
                for s in &v {}
            }
        ";
        let f = run("ND003", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("seen"));
    }

    #[test]
    fn nd003_tracks_borrowed_hash_parameters() {
        let src = "
            fn f(seen: &HashSet<u64>, by_id: &mut std::collections::HashMap<u64, u64>, v: &Vec<u64>) {
                for s in seen {}
                for x in v {}
                for n in by_id.values_mut() {}
                let n = by_id.len();
            }
        ";
        let f = run("ND003", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("seen"));
        assert!(f[1].message.contains("by_id"));
    }

    #[test]
    fn ph001_flags_unwrap_and_macros_outside_tests() {
        let src = "
            fn f(x: Option<u32>) -> u32 { x.unwrap() }
            fn g() { panic!(\"boom\"); }
            #[cfg(test)]
            mod tests {
                fn h(x: Option<u32>) -> u32 { x.expect(\"fine in tests\") }
            }
        ";
        let f = run("PH001", src);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn ph001_ignores_idents_that_merely_resemble() {
        // `unwrap_or` is fine; a field named `expect` without a call is fine.
        let f = run("PH001", "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn fd001_flags_float_literal_comparison() {
        let f = run("FD001", "fn f(x: f64) -> bool { x == 0.5 || x != -1.5 }");
        assert_eq!(f.len(), 2, "{f:?}");
        let g = run("FD001", "fn f(x: u64) -> bool { x == 5 }");
        assert!(g.is_empty(), "{g:?}");
    }

    #[test]
    fn ar001_flags_bare_arithmetic_on_guarded_types() {
        let src = "
            fn f(now: SimTime, delta: u64) -> SimTime {
                let later = now + delta;
                later
            }
            fn g(now: SimTime, delta: u64) -> SimTime {
                now.saturating_add(delta)
            }
        ";
        let f = run("AR001", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains('+'), "{f:?}");
        assert!(f[0].message.contains("now"), "{f:?}");
    }

    #[test]
    fn ar001_tracks_policy_idents_and_skips_unary_contexts() {
        let mut pol = rule("no bare arith");
        pol.lists
            .insert("idents".to_string(), vec!["epoch".to_string()]);
        pol.lists.insert("types".to_string(), Vec::new());
        let src = "
            fn f(epoch: u64) -> u64 { epoch + 1 }
            fn g(epoch: u64) -> u64 { epoch.saturating_add(1) }
            fn h(p: &u64) -> u64 { *p }
            fn neg(x: i64) -> i64 { -x }
        ";
        let f = apply_token_rule("AR001", &pol, "x.rs", &lex(src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn ar001_is_silent_without_guarded_operands() {
        let f = run("AR001", "fn f(a: u64, b: u64) -> u64 { a + b * 2 }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn finding_display_renders_call_chain_hops() {
        let mut f = Finding::new("ND101", "crates/x/src/a.rs", 7, "wall clock".to_string());
        f.chain = vec![
            "cshard_x::a::Driver::on_event (crates/x/src/a.rs:3)".to_string(),
            "cshard_x::a::helper (called at crates/x/src/a.rs:5)".to_string(),
        ];
        let s = f.to_string();
        assert!(
            s.starts_with("crates/x/src/a.rs:7: ND101 wall clock\n"),
            "{s}"
        );
        assert!(s.contains("\n    cshard_x::a::Driver::on_event"), "{s}");
        assert!(s.contains("\n    -> cshard_x::a::helper"), "{s}");
    }

    #[test]
    fn test_spans_cover_nested_braces() {
        let toks = lex("#[cfg(test)] mod t { fn a() { if x { } } } fn tail() {}");
        let spans = test_spans(&toks);
        assert_eq!(spans.len(), 1);
        let tail_idx = toks.iter().position(|t| t.is_ident("tail")).unwrap();
        assert!(!in_spans(&spans, tail_idx));
    }

    #[test]
    fn out_of_line_test_mods_are_named_not_spanned() {
        let toks =
            lex("#[cfg(test)]\n#[allow(dead_code)]\nmod mc;\nmod real;\n#[cfg(test)] mod t {}");
        assert_eq!(test_mod_decls(&toks), ["mc"]);
        assert_eq!(test_spans(&toks).len(), 1);
    }
}
