//! Pass 3 of the interprocedural analysis: DC001, a `pub fn` only test
//! code calls.
//!
//! A function's callers are the call graph's edges ([`crate::callgraph`])
//! out of non-test bodies, plus the calls of the caller-only files the
//! policy names (binaries, the facade's integration tests, examples, the
//! benchmark). A function nothing else calls is dead weight that its
//! own tests keep compiling.

use crate::callgraph::{callees, CallGraph};
use crate::lexer::{Token, TokenKind};
use crate::policy::Policy;
use crate::rules::Finding;
use crate::symbols::{FileTokens, FnDef, SymbolTable};

/// DC001: every non-test `pub fn` outside a trait impl that nothing
/// calls but test code. Callers are the graph's edges (non-test bodies)
/// and every fn of the caller-only files (binaries, the facade's
/// integration tests, examples, the benchmark) outside a
/// `#[cfg(test)] mod`, so a function only they call stays alive. A
/// unit test, in any file, keeps nothing alive. A caller the resolver
/// leaves ambiguous keeps every candidate alive.
pub fn test_only_fns(
    files: &[FileTokens],
    symbols: &SymbolTable,
    graph: &CallGraph,
    callers: &[FileTokens],
    policy: &Policy,
) -> Vec<Finding> {
    // Per fn: whether anything but test code calls it.
    let mut alive = vec![false; symbols.fns.len()];
    for (caller, edges) in graph.edges.iter().enumerate() {
        for e in edges.iter().filter(|e| e.callee != caller) {
            alive[e.callee] = true;
        }
    }
    let caller_table = SymbolTable::build(callers);
    let in_unit_test = |d: &FnDef| d.body.is_some_and(|(a, _)| callers[d.file].in_test_span(a));
    for def in caller_table.fns.iter().filter(|d| !in_unit_test(d)) {
        for callee in callees(callers, def, symbols) {
            alive[callee] = true;
        }
    }
    // A fn passed by path (`.and_then(Value::as_bool)`) is used, not
    // called: every fn of that name stays alive unless the path sits in
    // a unit test.
    for ft in files.iter().chain(callers) {
        for (k, name) in path_refs(&ft.tokens) {
            if !ft.in_test_span(k) {
                for &i in symbols.by_name.get(name).into_iter().flatten() {
                    alive[i] = true;
                }
            }
        }
    }
    symbols
        .fns
        .iter()
        .enumerate()
        .filter(|&(i, d)| {
            !alive[i]
                && d.is_pub
                && !d.is_test
                && d.trait_name.is_none()
                && !policy.dc001_allow.contains(&d.id().as_str())
        })
        .map(|(_, d)| {
            Finding::new(
                "DC001",
                &d.path,
                d.line,
                format!(
                    "`{}` has no caller outside test code — a pub fn only test code \
                     calls is dead code; wire it in or delete it",
                    d.id()
                ),
            )
        })
        .collect()
}

/// `(index, name)` of every `Q::name` path that is not called, outside
/// `use` declarations.
fn path_refs(tokens: &[Token]) -> Vec<(usize, &str)> {
    let mut refs = Vec::new();
    let mut in_use = false;
    for (k, t) in tokens.iter().enumerate() {
        if t.is_ident("use") {
            in_use = true;
        } else if t.is_punct(";") {
            in_use = false;
        } else if !in_use
            && k >= 2
            && t.kind == TokenKind::Ident
            && tokens[k - 1].is_punct("::")
            && tokens[k - 2].kind == TokenKind::Ident
            && !tokens
                .get(k + 1)
                .is_some_and(|n| ["(", "::", "!", "{"].iter().any(|p| n.is_punct(p)))
        {
            refs.push((k, t.text.as_str()));
        }
    }
    refs
}
