//! The audit rules, applied to a lexed token stream.
//!
//! Every rule is identified by a stable id (`FD001`, ...), is configured
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
    /// Rule id (`FD001`, `DC001`, or `AUDIT` for an IO error).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human explanation.
    pub message: String,
}

impl Finding {
    /// A finding of `rule` at `path:line`.
    pub fn new(rule: &'static str, path: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message,
        }
    }
}

impl fmt::Display for Finding {
    /// `file:line: RULE msg`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Ids of every token-level rule, in reporting order. `DC001` lives in
/// [`crate::dead`].
pub const TOKEN_RULES: [&str; 1] = ["FD001"];

/// Token index spans (half-open) covered by `#[cfg(test)] mod ... { }`.
///
/// Rules skip these: tests may compare floats exactly, and a unit test
/// keeps no function alive.
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
/// must point at its `#`, or at the `!` of `#!`).
pub(crate) fn skip_attr(tokens: &[Token], i: usize) -> usize {
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
    if rule != "FD001" {
        // A rule id outside TOKEN_RULES is a programming error in the
        // scanner, not a data error — but the audit must never panic, so
        // surface it as text.
        return vec![Finding::new(
            "AUDIT",
            "",
            0,
            format!("internal error: unknown token rule id `{rule}`"),
        )];
    }
    let spans = test_spans(tokens);
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if in_spans(&spans, i) || !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let prev_float = i > 0 && is_float_token(&tokens[i - 1]);
        // Allow a unary minus before the literal on the right.
        let next = if tokens.get(i + 1).is_some_and(|n| n.is_punct("-")) {
            tokens.get(i + 2)
        } else {
            tokens.get(i + 1)
        };
        if prev_float || next.is_some_and(is_float_token) {
            findings.push(Finding::new(
                rule,
                path,
                t.line,
                format!("float compared with `{}` — {}", t.text, policy.description),
            ));
        }
    }
    findings
}

fn is_float_token(t: &Token) -> bool {
    matches!(t.kind, TokenKind::Number { is_float: true })
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
    fn fd001_flags_float_literal_comparison() {
        let f = run("FD001", "fn f(x: f64) -> bool { x == 0.5 || x != -1.5 }");
        assert_eq!(f.len(), 2, "{f:?}");
        let g = run("FD001", "fn f(x: u64) -> bool { x == 5 }");
        assert!(g.is_empty(), "{g:?}");
        // Neither a string nor a test module is protocol code.
        let src = r#"
            fn f() -> &'static str { "x == 0.5" }
            #[cfg(test)]
            mod tests {
                fn g(x: f64) -> bool { x == 0.5 }
            }
        "#;
        let h = run("FD001", src);
        assert!(h.is_empty(), "{h:?}");
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
