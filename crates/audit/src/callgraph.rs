//! Pass 2 of the interprocedural analysis: the workspace call graph,
//! which DC001 reads to tell a function's callers.
//!
//! For every function body in the symbol table, call sites are extracted
//! from the token stream (`helper(...)`, `recv.method(...)`,
//! `Type::assoc(...)`, turbofish variants) and resolved against the
//! table by **name + arity**, refined by the receiver's type or the
//! qualifier, the caller's module and crate, and trait membership:
//!
//! 1. candidates = same name, same arity (receiver counted), non-test;
//! 2. a receiver whose type the token stream states keeps the candidates
//!    owned by that type (or, for a trait object, by its trait): `self`
//!    and `Self::` are the caller's `impl` type, `self.a.b` folds through
//!    the struct declarations' field types, and a local takes its latest
//!    binding before the call — a parameter `x: T` / `&T` / `&mut T`,
//!    `let x: T`, `let x = T::ctor(..)` or `let x = T { .. }`;
//! 3. `Q::m(...)` keeps candidates whose owner, module tail or crate
//!    matches `Q`;
//! 4. a unique survivor resolves the edge; where the type is unknown or
//!    owns no candidate (a std container, a type parameter, a call's
//!    result), prefer the unique same-module, then same-crate candidate;
//! 5. candidates that are all impls of one trait method become a
//!    fan-out edge to *every* impl (class-hierarchy style);
//! 6. what remains is **ambiguous**: a fan-out edge to every bodied
//!    candidate. A spurious edge can only keep a function alive, so
//!    DC001 stays sound; it loses precision, which the counts measure.
//!
//! Calls that match no workspace symbol at all are *external*
//! (`std`/vendored); calls to a workspace name at no arity it is
//! defined with are *arity misses* (mostly std methods sharing a
//! workspace name, but a miss can also be a dropped edge that hides a
//! DC001 caller). Both are only counted. The resolution ratio
//! (`resolved / (resolved + ambiguous)`, reported per-mille) and the
//! arity misses are part of the JSON report, so a precision drop fails
//! the baseline gate.

use crate::lexer::{Token, TokenKind};
use crate::rules::skip_attr;
use crate::symbols::{
    ascriptions, closure_opens, count_params, named_type, type_name, FileTokens, FnDef, SymbolTable,
};

/// One resolved call edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Callee index into [`SymbolTable::fns`].
    pub callee: usize,
    /// 1-based line of the call site.
    pub line: usize,
}

/// Aggregate resolution statistics, reported in `AUDIT_report.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Function definitions in the symbol table (non-test, with a body).
    pub functions: usize,
    /// Resolved caller→callee edges (fan-outs count each target).
    pub edges: usize,
    /// Call sites examined.
    pub calls_total: usize,
    /// Call sites resolved to their workspace definitions.
    pub calls_resolved: usize,
    /// Call sites matching no workspace symbol (std/vendored).
    pub calls_external: usize,
    /// Call sites naming a workspace fn at no arity it is defined with.
    pub calls_arity_miss: usize,
    /// Call sites fanned out to every candidate, unresolved.
    pub calls_ambiguous: usize,
}

impl GraphStats {
    /// `resolved / (resolved + ambiguous)`, in per-mille (deterministic
    /// integer — no float formatting in the stable report). External
    /// calls are excluded: they are out of scope, not unresolved.
    pub fn resolution_permille(&self) -> u64 {
        let in_scope = self.calls_resolved + self.calls_ambiguous;
        if in_scope == 0 {
            return 1000;
        }
        (self.calls_resolved as u64 * 1000) / in_scope as u64
    }
}

/// The workspace call graph over a [`SymbolTable`].
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Outgoing edges per function index, sorted by (callee, line).
    pub edges: Vec<Vec<Edge>>,
    /// Resolution statistics.
    pub stats: GraphStats,
}

impl CallGraph {
    /// Builds the graph: extracts and resolves every call site in every
    /// non-test function body.
    pub fn build(files: &[FileTokens], symbols: &SymbolTable) -> CallGraph {
        let mut graph = CallGraph {
            edges: vec![Vec::new(); symbols.fns.len()],
            ..CallGraph::default()
        };
        graph.stats.functions = symbols
            .fns
            .iter()
            .filter(|d| d.body.is_some() && !d.is_test)
            .count();
        for (caller_idx, def) in symbols.fns.iter().enumerate() {
            if def.is_test {
                continue;
            }
            for (call, resolution) in resolve_body(files, def, symbols) {
                graph.stats.calls_total += 1;
                let targets = match resolution {
                    Resolution::Edges(targets) => {
                        graph.stats.calls_resolved += 1;
                        targets
                    }
                    Resolution::Ambiguous(targets) => {
                        graph.stats.calls_ambiguous += 1;
                        targets
                    }
                    Resolution::External => {
                        graph.stats.calls_external += 1;
                        continue;
                    }
                    Resolution::ArityMiss => {
                        graph.stats.calls_arity_miss += 1;
                        continue;
                    }
                };
                let line = call.line;
                graph.edges[caller_idx]
                    .extend(targets.into_iter().map(|callee| Edge { callee, line }));
            }
        }
        for edges in &mut graph.edges {
            edges.sort_by_key(|e| (e.callee, e.line));
            edges.dedup();
        }
        graph.stats.edges = graph.edges.iter().map(Vec::len).sum();
        graph
    }
}

/// Every workspace fn a call in `def`'s body may reach: each resolved
/// edge and each fan-out. DC001's caller census reads test bodies and
/// caller-only files this way.
pub fn callees(files: &[FileTokens], def: &FnDef, symbols: &SymbolTable) -> Vec<usize> {
    resolve_body(files, def, symbols)
        .into_iter()
        .flat_map(|(_, resolution)| match resolution {
            Resolution::Edges(t) | Resolution::Ambiguous(t) => t,
            Resolution::External | Resolution::ArityMiss => Vec::new(),
        })
        .collect()
}

/// Every call site in `def`'s body, with its resolution.
fn resolve_body(
    files: &[FileTokens],
    def: &FnDef,
    symbols: &SymbolTable,
) -> Vec<(CallSite, Resolution)> {
    let Some((start, end)) = def.body else {
        return Vec::new();
    };
    let ft = &files[def.file];
    let locals = local_types(&ft.tokens, def);
    extract_calls(ft, start, end)
        .into_iter()
        .map(|call| {
            let recv = receiver_type(&call, def, &locals, symbols);
            let resolution = resolve_call(&call, def, recv.as_deref(), symbols);
            (call, resolution)
        })
        .collect()
}

/// One extracted call site, before resolution.
#[derive(Clone, Debug)]
struct CallSite {
    name: String,
    /// `Some("Q")` for `Q::m(...)`.
    path: Option<String>,
    /// The receiver of `a.b.m(...)` when it is a chain of names, root
    /// first (`["self"]` for `self.m(...)`); empty otherwise.
    recv: Vec<String>,
    /// Receiver counted: `x.m(a)` has arity 2.
    arity: usize,
    /// Token index of the called name.
    index: usize,
    line: usize,
}

/// Rust keywords that can directly precede `(` in expression position.
const CALLISH_KEYWORDS: [&str; 12] = [
    "if", "while", "match", "return", "for", "in", "loop", "move", "break", "continue", "as",
    "await",
];

fn extract_calls(ft: &FileTokens, start: usize, end: usize) -> Vec<CallSite> {
    let tokens = &ft.tokens;
    let mut calls = Vec::new();
    let mut i = start;
    while i < end.min(tokens.len()) {
        let t = &tokens[i];
        // An attribute (`#[expect(..)]`, `#![allow(..)]`) is not a call.
        if t.is_punct("#") {
            let bang = usize::from(tokens.get(i + 1).is_some_and(|n| n.is_punct("!")));
            if tokens.get(i + 1 + bang).is_some_and(|n| n.is_punct("[")) {
                i = skip_attr(tokens, i + bang);
                continue;
            }
        }
        if t.kind != TokenKind::Ident || CALLISH_KEYWORDS.iter().any(|k| t.is_ident(k)) {
            i += 1;
            continue;
        }
        // The argument list opens either directly (`name(`) or after a
        // turbofish (`name::<T>(`).
        let open = if tokens.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            Some(i + 1)
        } else if tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct("<"))
        {
            skip_angles_fwd(tokens, i + 2)
                .filter(|&j| tokens.get(j).is_some_and(|n| n.is_punct("(")))
        } else {
            None
        };
        let Some(open) = open else {
            i += 1;
            continue;
        };
        // Definitions (`fn name(`) are not calls; macro names never reach
        // here (`name!` has no direct `(`), but macro *arguments* are
        // still walked for calls within.
        if i > 0 && tokens[i - 1].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some((args, _)) = count_params(tokens, open) else {
            i += 1;
            continue;
        };
        let is_method = i > 0 && tokens[i - 1].is_punct(".");
        // `self::`, `super::` and `crate::` name the caller's own crate.
        let path = (!is_method
            && i >= 2
            && tokens[i - 1].is_punct("::")
            && tokens[i - 2].kind == TokenKind::Ident
            && !["self", "super", "crate"]
                .iter()
                .any(|k| tokens[i - 2].is_ident(k)))
        .then(|| tokens[i - 2].text.clone());
        calls.push(CallSite {
            name: t.text.clone(),
            path,
            recv: if is_method {
                receiver_chain(tokens, i - 1)
            } else {
                Vec::new()
            },
            arity: args + usize::from(is_method),
            index: i,
            line: t.line,
        });
        i += 1;
    }
    calls
}

/// The names of the receiver `a.b` ending before the `.` at `dot`, root
/// first; empty when the receiver is anything else (a call, an index, a
/// path, a tuple field).
fn receiver_chain(tokens: &[Token], mut dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    while dot >= 1 && tokens[dot - 1].kind == TokenKind::Ident {
        chain.push(tokens[dot - 1].text.clone());
        if dot < 2 || !tokens[dot - 2].is_punct(".") {
            if dot >= 2 && tokens[dot - 2].is_punct("::") {
                break;
            }
            chain.reverse();
            return chain;
        }
        dot -= 2;
    }
    Vec::new()
}

/// One local name's stated type, `(from, name, type)`: in effect after
/// token index `from`, `None` where the binding states no type (so an
/// untyped binding shadows a typed one).
type Binding = (usize, String, Option<String>);

/// The bindings `def` states, in token order: parameters `x: T` / `&T` /
/// `&mut T`, `let x: T`, `let x = T::ctor(..)` and `let x = T { .. }`
/// carry their type ([`type_name`]); every other `let`, `for` and closure
/// binding shadows without one.
fn local_types(tokens: &[Token], def: &FnDef) -> Vec<Binding> {
    let owner = def.owner.as_deref();
    let (start, end) = def.params;
    let mut out: Vec<Binding> = ascriptions(tokens, start, end)
        .into_iter()
        .map(|k| {
            (
                start,
                tokens[k].text.clone(),
                type_name(tokens, k + 2, owner),
            )
        })
        .collect();
    let Some((start, end)) = def.body else {
        return out;
    };
    // A binding needs a name and what follows it inside the body.
    for k in start..end.min(tokens.len()).saturating_sub(3) {
        let t = &tokens[k];
        let stops: &[&str] = if t.is_ident("let") {
            &["=", ";"]
        } else if t.is_ident("for") {
            &["in"]
        } else if t.is_punct("|") && closure_opens(tokens, k) {
            &["|"]
        } else {
            continue;
        };
        let j = k + 1 + usize::from(tokens[k + 1].is_ident("mut"));
        let (colon, eq) = (tokens[j + 1].is_punct(":"), tokens[j + 1].is_punct("="));
        if t.is_ident("let") && tokens[j].kind == TokenKind::Ident && (colon || eq) {
            let ty = if colon {
                type_name(tokens, j + 2, owner)
            } else {
                init_type(tokens, j + 2, owner)
            };
            out.push((k, tokens[j].text.clone(), ty));
            continue;
        }
        let pattern = tokens[k + 1..end]
            .iter()
            .take_while(|n| !stops.contains(&n.text.as_str()));
        for name in pattern.filter(|n| n.text.starts_with(|c: char| c.is_ascii_lowercase())) {
            out.push((k, name.text.clone(), None));
        }
    }
    out
}

/// The type the initialiser at `j` states: `T { .. }`, or
/// `[path::]T::ctor(..)` ending the statement (`?` aside).
fn init_type(tokens: &[Token], mut j: usize, owner: Option<&str>) -> Option<String> {
    while tokens.get(j + 2)?.kind == TokenKind::Ident && tokens[j + 1].is_punct("::") {
        j += 2;
    }
    let next = tokens.get(j + 1)?;
    let ty = if next.is_punct("{") {
        j
    } else if next.is_punct("(") && tokens[j - 1].is_punct("::") {
        let close = count_params(tokens, j + 1)?.1;
        let close = close + usize::from(tokens.get(close)?.is_punct("?"));
        tokens.get(close)?.is_punct(";").then(|| j - 2)?
    } else {
        return None;
    };
    named_type(&tokens[ty].text, owner)
}

/// The type of `call`'s receiver, folded through the struct fields its
/// chain names: `self` and `Self::` are the caller's `impl` type, a local
/// its latest binding before the call.
fn receiver_type(
    call: &CallSite,
    caller: &FnDef,
    locals: &[Binding],
    symbols: &SymbolTable,
) -> Option<String> {
    if call.path.as_deref() == Some("Self") {
        return caller.owner.clone();
    }
    let (root, fields) = call.recv.split_first()?;
    let root_type = if root == "self" {
        caller.owner.clone()
    } else {
        let binding = locals
            .iter()
            .rev()
            .find(|(from, name, _)| *from < call.index && name == root);
        binding?.2.clone()
    };
    fields.iter().try_fold(root_type?, |ty, field| {
        symbols.field_type(&ty, field).map(str::to_string)
    })
}

fn skip_angles_fwd(tokens: &[crate::lexer::Token], mut j: usize) -> Option<usize> {
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct("<") {
            depth += 1;
        } else if tokens[j].is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        } else if tokens[j].is_punct(";") || tokens[j].is_punct("{") {
            return None;
        }
        j += 1;
    }
    None
}

enum Resolution {
    /// Resolved to these definitions.
    Edges(Vec<usize>),
    /// No workspace fn of this name.
    External,
    /// Workspace fns of this name, none at this arity.
    ArityMiss,
    /// Unresolved: fanned out to every bodied candidate.
    Ambiguous(Vec<usize>),
}

fn resolve_call(
    call: &CallSite,
    caller: &FnDef,
    recv_type: Option<&str>,
    symbols: &SymbolTable,
) -> Resolution {
    let Some(all) = symbols.by_name.get(&call.name) else {
        return Resolution::External;
    };
    let all: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| !symbols.fns[i].is_test)
        .collect();
    if all.is_empty() {
        return Resolution::External;
    }
    let mut c: Vec<usize> = all
        .into_iter()
        .filter(|&i| symbols.fns[i].arity == call.arity)
        .collect();
    if c.is_empty() {
        return Resolution::ArityMiss;
    }
    // A known receiver type keeps its own methods, or its trait's
    // declaration and impls when it is a trait object; a type that owns
    // none of the candidates (a type parameter, a std type) selects
    // nothing, and the steps below decide. Else a qualifier filters.
    if let Some(ty) = recv_type {
        let owned: Vec<usize> = c
            .iter()
            .copied()
            .filter(|&i| {
                let d = &symbols.fns[i];
                d.owner.as_deref() == Some(ty) || d.trait_name.as_deref() == Some(ty)
            })
            .collect();
        if !owned.is_empty() {
            c = owned;
        }
    } else if let Some(q) = call.path.as_deref() {
        let crate_of = q.strip_prefix("cshard_").unwrap_or(q);
        let qualified: Vec<usize> = c
            .iter()
            .copied()
            .filter(|&i| {
                let d = &symbols.fns[i];
                d.owner.as_deref() == Some(q)
                    || d.module == q
                    || d.module.ends_with(&format!("::{q}"))
                    || d.krate == crate_of
            })
            .collect();
        if qualified.is_empty() {
            // An explicit qualifier naming no workspace owner, module
            // or crate is a std/vendored path (`Vec::new`,
            // `BTreeMap::new`) that happens to share a method name
            // with workspace types.
            return Resolution::External;
        }
        c = qualified;
    }
    let bodied = |v: &[usize]| -> Vec<usize> {
        v.iter()
            .copied()
            .filter(|&i| symbols.fns[i].body.is_some())
            .collect()
    };
    if c.len() == 1 {
        let b = bodied(&c);
        // A lone trait declaration fans out to that trait's impls.
        if b.is_empty() {
            if let Some(tn) = &symbols.fns[c[0]].trait_name {
                let impls = symbols.trait_impls(tn, &call.name);
                if !impls.is_empty() {
                    return Resolution::Edges(impls);
                }
            }
            return Resolution::External;
        }
        return Resolution::Edges(b);
    }
    // Prefer the caller's own module, then crate.
    let same_module: Vec<usize> = c
        .iter()
        .copied()
        .filter(|&i| symbols.fns[i].krate == caller.krate && symbols.fns[i].module == caller.module)
        .collect();
    if same_module.len() == 1 && symbols.fns[same_module[0]].body.is_some() {
        return Resolution::Edges(same_module);
    }
    let same_crate: Vec<usize> = c
        .iter()
        .copied()
        .filter(|&i| symbols.fns[i].krate == caller.krate)
        .collect();
    if same_crate.len() == 1 && symbols.fns[same_crate[0]].body.is_some() {
        return Resolution::Edges(same_crate);
    }
    // Trait fan-out: every candidate belongs to one trait method.
    let traits: Vec<&str> = c
        .iter()
        .filter_map(|&i| symbols.fns[i].trait_name.as_deref())
        .collect();
    if traits.len() == c.len() {
        let first = traits[0];
        if traits.iter().all(|&t| t == first) {
            let impls = bodied(&c);
            if !impls.is_empty() {
                return Resolution::Edges(impls);
            }
            return Resolution::External;
        }
    }
    // What remains fans out to every bodied candidate.
    let b = bodied(&c);
    if b.is_empty() {
        Resolution::External
    } else {
        Resolution::Ambiguous(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(srcs: &[(&str, &str, &str)]) -> (Vec<FileTokens>, SymbolTable, CallGraph) {
        let files: Vec<FileTokens> = srcs
            .iter()
            .map(|(k, rel, src)| FileTokens::new(k, rel, src))
            .collect();
        let symbols = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &symbols);
        (files, symbols, graph)
    }

    fn edge_between(symbols: &SymbolTable, graph: &CallGraph, from: &str, to: &str) -> bool {
        let f = symbols.fns.iter().position(|d| d.name == from).unwrap();
        graph.edges[f]
            .iter()
            .any(|e| symbols.fns[e.callee].name == to)
    }

    #[test]
    fn free_call_resolves_across_files() {
        let (_, s, g) = build(&[
            (
                "core",
                "crates/core/src/a.rs",
                "pub fn entry() { helper(1); }",
            ),
            (
                "core",
                "crates/core/src/b.rs",
                "pub fn helper(x: u32) -> u32 { x }",
            ),
        ]);
        assert!(edge_between(&s, &g, "entry", "helper"));
        assert_eq!(g.stats.calls_resolved, 1);
        assert_eq!(g.stats.calls_ambiguous, 0);
    }

    #[test]
    fn a_sole_group_argument_counts_toward_arity() {
        // `[x]`, `(x, x)` and `{ x }` are one argument each, first or last.
        let src = "
            struct G;
            impl G {
                fn one(&mut self, x: u32) {
                    self.all([x]);
                    self.pair((x, x));
                    self.block({ x });
                    self.tail(x, [x]);
                }
                fn all(&mut self, xs: [u32; 1]) {}
                fn pair(&mut self, p: (u32, u32)) {}
                fn block(&mut self, x: u32) {}
                fn tail(&mut self, x: u32, xs: [u32; 1]) {}
            }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        let one = s.fns.iter().position(|d| d.name == "one").unwrap();
        assert_eq!(g.edges[one].len(), 4, "{:?}", g.edges[one]);
    }

    #[test]
    fn self_method_prefers_own_impl() {
        let src = "
            struct A; struct B;
            impl A { fn go(&self) { self.helper(); } fn helper(&self) {} }
            impl B { fn helper(&self) {} }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        let go = s.fns.iter().position(|d| d.name == "go").unwrap();
        assert_eq!(g.edges[go].len(), 1);
        let callee = &s.fns[g.edges[go][0].callee];
        assert_eq!(callee.owner.as_deref(), Some("A"));
    }

    #[test]
    fn trait_method_fans_out_to_every_impl() {
        let src = "
            trait Stage { fn run(&mut self, x: u32) -> u32; }
            struct S1; struct S2;
            impl Stage for S1 { fn run(&mut self, x: u32) -> u32 { x } }
            impl Stage for S2 { fn run(&mut self, x: u32) -> u32 { x + 1 } }
            fn driver(s: &mut dyn Stage) { s.run(7); }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        let driver = s.fns.iter().position(|d| d.name == "driver").unwrap();
        assert_eq!(g.edges[driver].len(), 2, "{:?}", g.edges[driver]);
        assert_eq!(g.stats.calls_resolved, 1);
    }

    #[test]
    fn unrelated_same_name_same_arity_fans_out_as_ambiguous() {
        let src = "
            mod x { pub fn go(a: u32) {} }
            mod y { pub fn go(a: u32) {} }
            fn entry() { go(1); }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        assert_eq!(g.stats.calls_ambiguous, 1);
        assert_eq!(g.stats.calls_resolved, 0);
        let entry = s.fns.iter().position(|d| d.name == "entry").unwrap();
        assert_eq!(g.edges[entry].len(), 2, "an edge to each candidate");
    }

    #[test]
    fn std_calls_are_external_and_arity_misses_counted_apart() {
        let src = "
            pub fn len(a: u32, b: u32) -> usize { 0 }
            fn entry(v: Vec<u32>) -> usize { v.len() + v.first().map_or(0, |_| 1) }
        ";
        let (_, _, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        // `v.len()` names the workspace's `len` at arity 1, not 2.
        assert_eq!(g.stats.calls_arity_miss, 1);
        assert_eq!(g.stats.calls_external, 2);
        assert_eq!(g.stats.calls_ambiguous, 0);
    }

    #[test]
    fn qualified_call_filters_by_owner() {
        let src = "
            struct A; struct B;
            impl A { fn new(x: u32) -> A { A } }
            impl B { fn new(x: u32) -> B { B } }
            fn entry() { let a = A::new(1); }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        let entry = s.fns.iter().position(|d| d.name == "entry").unwrap();
        assert_eq!(g.edges[entry].len(), 1);
        assert_eq!(s.fns[g.edges[entry][0].callee].owner.as_deref(), Some("A"));
    }

    #[test]
    fn attributes_are_not_calls() {
        let src = "
            fn expect(a: u32, b: u32) {}
            fn entry(x: u64) -> u32 {
                #[expect(clippy::cast_possible_truncation, reason = \"fits\")]
                let y = x as u32;
                y
            }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        assert!(!edge_between(&s, &g, "entry", "expect"));
        assert_eq!(g.stats.calls_total, 0);
    }

    #[test]
    fn macro_names_are_not_calls_but_their_args_are_walked() {
        let src = "
            fn helper(x: u32) -> u32 { x }
            fn entry() { println!(\"{}\", helper(1)); }
        ";
        let (_, s, g) = build(&[("core", "crates/core/src/a.rs", src)]);
        assert!(edge_between(&s, &g, "entry", "helper"));
    }

    /// Location-picked false edges: `settle.merge(..)` on a constructor-bound
    /// local and `comm.merge(..)` on a parameter, whose types live in another
    /// crate beside a same-crate `merge`, and a forwarding `self.inner.m()`.
    #[test]
    fn typed_receivers_resolve_by_type_not_location() {
        let stats = "pub struct SettleStats; pub struct CommStats;
            impl SettleStats { pub fn new() -> SettleStats { SettleStats }
                               pub fn merge(&mut self, o: &SettleStats) {} }
            impl CommStats { pub fn merge(&mut self, o: &CommStats) {} }";
        let runtime = "pub struct MigrationStats;
            impl MigrationStats { pub fn merge(&mut self, o: &MigrationStats) {} }
            pub fn run(stats: &SettleStats, comm: &mut CommStats, other: &CommStats) {
                let mut settle = SettleStats::new();
                settle.merge(stats);
                comm.merge(other);
            }
            pub struct Settling { inner: contract::Driver }
            impl Settling { pub fn ticks(&self) -> usize { self.inner.ticks() } }
            mod contract { pub struct Driver; impl Driver { pub fn ticks(&self) -> usize { 0 } } }";
        let (_, s, g) = build(&[
            ("settle", "crates/settle/src/lib.rs", stats),
            ("runtime", "crates/runtime/src/lib.rs", runtime),
        ]);
        assert_eq!(g.stats.calls_ambiguous, 0);
        let callees = |caller: &str| -> Vec<String> {
            let f = s.fns.iter().position(|d| d.id() == caller).unwrap();
            g.edges[f].iter().map(|e| s.fns[e.callee].id()).collect()
        };
        let merges = [
            "settle::SettleStats::new",
            "settle::SettleStats::merge",
            "settle::CommStats::merge",
        ];
        assert_eq!(callees("runtime::run"), merges);
        assert_eq!(
            callees("runtime::Settling::ticks"),
            ["runtime::contract::Driver::ticks"]
        );
    }

    #[test]
    fn resolution_permille_is_deterministic() {
        let stats = GraphStats {
            calls_resolved: 7,
            calls_ambiguous: 1,
            ..GraphStats::default()
        };
        assert_eq!(stats.resolution_permille(), 875);
        assert_eq!(GraphStats::default().resolution_permille(), 1000);
    }
}
