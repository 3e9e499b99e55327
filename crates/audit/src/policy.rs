//! The data-driven audit policy: `policy.toml` at the workspace root.
//!
//! The workspace has no TOML dependency (the build is fully offline), so
//! this module parses the narrow dialect the policy actually uses:
//!
//! * `#` comments, blank lines;
//! * `[table]` / `[table.sub]` headers;
//! * `key = "string"`, `key = true|false`, `key = 123`;
//! * `key = ["a", "b", ...]` — arrays of strings, single- or multi-line.
//!
//! Anything outside the dialect is a [`PolicyError`] with the offending
//! line — never a panic — so a typo in the policy fails the audit run
//! with a diagnostic instead of taking the gate down with a backtrace.

use std::collections::BTreeMap;
use std::fmt;

/// A policy file failed to parse or validate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyError {
    /// 1-based line in `policy.toml` (0 when the error is file-level).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "policy.toml: {}", self.message)
        } else {
            write!(f, "policy.toml:{}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for PolicyError {}

fn err(line: usize, message: impl Into<String>) -> PolicyError {
    PolicyError {
        line,
        message: message.into(),
    }
}

/// A parsed TOML-subset value.
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Str(String),
    Bool(bool),
    Int(i64),
    Array(Vec<String>),
}

/// One rule's policy entry.
#[derive(Clone, Debug, Default)]
pub struct RulePolicy {
    /// Human description, echoed in diagnostics.
    pub description: String,
    /// Crate names (directory names under `crates/`) the rule applies to.
    /// Empty means "every crate in `[audit] crates`".
    pub crates: Vec<String>,
    /// Workspace-relative file paths exempt from the rule. Each entry in
    /// `policy.toml` carries a `#` comment stating *why* it is exempt.
    pub allow: Vec<String>,
    /// Extra rule-specific string lists (the `callers` directories of
    /// DC001), keyed by the TOML key.
    pub lists: BTreeMap<String, Vec<String>>,
}

impl RulePolicy {
    /// Whether `path` (workspace-relative, `/`-separated) is allowlisted.
    pub fn is_allowed(&self, path: &str) -> bool {
        self.allow.iter().any(|a| a == path)
    }

    /// Whether the rule applies to `krate`, given the audit-wide default
    /// crate list.
    pub fn applies_to(&self, krate: &str, default_crates: &[String]) -> bool {
        if self.crates.is_empty() {
            default_crates.iter().any(|c| c == krate)
        } else {
            self.crates.iter().any(|c| c == krate)
        }
    }
}

/// The whole audit policy.
#[derive(Clone, Debug, Default)]
pub struct Policy {
    /// Crates scanned by default (directory names under `crates/`).
    pub crates: Vec<String>,
    /// Crates deliberately outside the determinism contract (directory
    /// names under `crates/`). Every workspace crate must appear in
    /// exactly one of `crates` or `exempt`; a crate in neither is a
    /// coverage gap and the audit binary refuses to run.
    pub exempt: Vec<String>,
    /// Per-rule entries, keyed by rule id (`FD001`, ...).
    pub rules: BTreeMap<String, RulePolicy>,
}

impl Policy {
    /// Parses a policy document.
    pub fn parse(text: &str) -> Result<Policy, PolicyError> {
        let mut policy = Policy::default();
        let mut table: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| err(lineno, "unterminated table header"))?
                    .trim();
                if name.is_empty() {
                    return Err(err(lineno, "empty table header"));
                }
                table = Some(name.to_string());
                continue;
            }
            let (key, mut value_text) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
            let key = key.trim();
            if key.is_empty() {
                return Err(err(lineno, "missing key before `=`"));
            }
            // Multi-line arrays: keep consuming lines until the brackets
            // balance (strings in the policy dialect never contain `[`/`]`).
            let mut joined = value_text.trim().to_string();
            while joined.starts_with('[') && !brackets_balanced(&joined) {
                let Some((_, next)) = lines.next() else {
                    return Err(err(lineno, format!("unterminated array for key `{key}`")));
                };
                joined.push(' ');
                joined.push_str(strip_comment(next).trim());
            }
            value_text = &joined;
            let value = parse_value(value_text.trim(), lineno)?;
            policy.insert(table.as_deref(), key, value, lineno)?;
        }
        policy.validate()?;
        Ok(policy)
    }

    fn insert(
        &mut self,
        table: Option<&str>,
        key: &str,
        value: Value,
        lineno: usize,
    ) -> Result<(), PolicyError> {
        match table {
            Some("audit") => match (key, value) {
                ("crates", Value::Array(v)) => {
                    self.crates = v;
                    Ok(())
                }
                ("crates", _) => Err(err(lineno, "`crates` must be an array of strings")),
                ("exempt", Value::Array(v)) => {
                    self.exempt = v;
                    Ok(())
                }
                ("exempt", _) => Err(err(lineno, "`exempt` must be an array of strings")),
                (other, _) => Err(err(lineno, format!("unknown key `{other}` in [audit]"))),
            },
            Some(t) if t.starts_with("rules.") => {
                let id = &t["rules.".len()..];
                if id.is_empty() {
                    return Err(err(lineno, "empty rule id in [rules.] header"));
                }
                let rule = self.rules.entry(id.to_string()).or_default();
                match (key, value) {
                    ("description", Value::Str(s)) => rule.description = s,
                    ("crates", Value::Array(v)) => rule.crates = v,
                    ("allow", Value::Array(v)) => rule.allow = v,
                    (_, Value::Array(v)) => {
                        rule.lists.insert(key.to_string(), v);
                    }
                    (k, _) => {
                        return Err(err(
                            lineno,
                            format!("rule key `{k}` must be a string or array of strings"),
                        ))
                    }
                }
                Ok(())
            }
            Some(other) => Err(err(lineno, format!("unknown table `[{other}]`"))),
            None => Err(err(
                lineno,
                format!("key `{key}` outside any table — expected [audit] or [rules.<ID>]"),
            )),
        }
    }

    fn validate(&self) -> Result<(), PolicyError> {
        if self.crates.is_empty() {
            return Err(err(0, "[audit] crates list is missing or empty"));
        }
        if let Some(both) = self.exempt.iter().find(|e| self.crates.contains(e)) {
            return Err(err(
                0,
                format!("crate `{both}` is both scanned ([audit] crates) and exempt"),
            ));
        }
        for (id, rule) in &self.rules {
            for c in &rule.crates {
                if !self.crates.iter().any(|k| k == c) {
                    return Err(err(
                        0,
                        format!("rule {id} names crate `{c}` not in [audit] crates"),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Strips a `#` comment, respecting `"..."` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn brackets_balanced(s: &str) -> bool {
    let (mut opens, mut closes, mut in_str) = (0usize, 0usize, false);
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => opens += 1,
            ']' if !in_str => closes += 1,
            _ => {}
        }
    }
    opens <= closes
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, PolicyError> {
    if text.is_empty() {
        return Err(err(lineno, "missing value after `=`"));
    }
    if let Some(rest) = text.strip_prefix('[') {
        let inner = rest
            .strip_suffix(']')
            .ok_or_else(|| err(lineno, "unterminated array"))?;
        let mut items = Vec::new();
        for part in split_array_items(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part, lineno)? {
                Value::Str(s) => items.push(s),
                _ => return Err(err(lineno, "arrays may only contain strings")),
            }
        }
        return Ok(Value::Array(items));
    }
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| err(lineno, "unterminated string"))?;
        if inner.contains('"') {
            return Err(err(lineno, "unexpected `\"` inside string"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    text.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| err(lineno, format!("cannot parse value `{text}`")))
}

/// Splits array contents on commas outside strings.
fn split_array_items(inner: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&inner[start..]);
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r##"
# a comment
[audit]
crates = ["core", "games"]

[rules.FD001]
description = "no float =="
crates = ["core"]
allow = [
    "crates/core/src/a.rs",  # why: exact endpoints
    "crates/core/src/b.rs",
]

[rules.DC001]
description = "dead code"
callers = ["tests"]
"##;

    #[test]
    fn parses_the_dialect() {
        let p = Policy::parse(GOOD).unwrap();
        assert_eq!(p.crates, vec!["core", "games"]);
        let fd = &p.rules["FD001"];
        assert_eq!(fd.description, "no float ==");
        assert_eq!(fd.crates, vec!["core"]);
        assert_eq!(fd.allow.len(), 2);
        assert!(fd.is_allowed("crates/core/src/a.rs"));
        assert!(!fd.is_allowed("crates/core/src/c.rs"));
        let dc = &p.rules["DC001"];
        assert_eq!(dc.lists["callers"], vec!["tests"]);
    }

    #[test]
    fn applies_to_defaults_to_audit_crates() {
        let p = Policy::parse(GOOD).unwrap();
        assert!(p.rules["DC001"].applies_to("games", &p.crates));
        assert!(!p.rules["FD001"].applies_to("games", &p.crates));
    }

    #[test]
    fn error_reports_the_line() {
        let e = Policy::parse("[audit]\ncrates = [\"a\"]\n\n[rules.X]\nboom\n").unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.to_string().contains("policy.toml:5"), "{e}");
    }

    #[test]
    fn unknown_table_rejected() {
        let e = Policy::parse("[nonsense]\nx = 1\n").unwrap_err();
        assert!(e.message.contains("unknown table"), "{e}");
    }

    #[test]
    fn missing_crates_rejected() {
        let e = Policy::parse("[rules.X]\ndescription = \"d\"\n").unwrap_err();
        assert!(e.message.contains("crates list"), "{e}");
    }

    #[test]
    fn rule_crate_must_exist() {
        let e = Policy::parse("[audit]\ncrates = [\"a\"]\n[rules.X]\ncrates = [\"zzz\"]\n")
            .unwrap_err();
        assert!(e.message.contains("zzz"), "{e}");
    }

    #[test]
    fn exempt_list_parses() {
        let p =
            Policy::parse("[audit]\ncrates = [\"a\"]\nexempt = [\"tools\", \"bench\"]\n").unwrap();
        assert_eq!(p.exempt, vec!["tools", "bench"]);
    }

    #[test]
    fn crate_cannot_be_both_scanned_and_exempt() {
        let e = Policy::parse("[audit]\ncrates = [\"a\", \"b\"]\nexempt = [\"b\"]\n").unwrap_err();
        assert!(e.message.contains("both scanned"), "{e}");
    }

    #[test]
    fn comments_inside_arrays_are_stripped() {
        let p = Policy::parse("[audit]\ncrates = [\n  \"a\", # one\n  \"b\",\n]\n").unwrap();
        assert_eq!(p.crates, vec!["a", "b"]);
    }
}
