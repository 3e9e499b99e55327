//! Pass 3 of the interprocedural analysis: panic and narrowing taint.
//!
//! Typed-error hygiene is a property of the *replay path*, not of
//! individual files: an `unwrap` inside a helper three calls below
//! `ProtocolDriver::on_event` aborts a replay exactly as much as one
//! inside the driver itself, whichever crate the helper lives in. This
//! pass therefore walks the call graph ([`crate::callgraph`]) from the
//! protocol **sink roots** the policy names (`[callgraph] sinks`) and
//! flags every panic or lossy-cast **source** inside a reachable function
//! body, printing the full sink→source call chain with `file:line` per
//! hop.
//!
//! Sink specs come in two forms:
//!
//! * `"Trait::method"` — every bodied, non-test impl of that trait
//!   method is a root (`ProtocolDriver::on_event`,
//!   `ProtocolDriver::idle_turn`);
//! * `"calls:Owner::method"` — every function with a resolved edge to
//!   that method is a root. Closures inline into the enclosing
//!   function's body span, so this captures task bodies handed to
//!   `WorkScheduler::drain` via the function that passes them, and the
//!   epoch's six stage calls via `EpochPipeline::run_epoch_observed`.
//!
//! Both game bodies are reached without a root of their own: the merge
//! game's `run` below the epoch's merge stage, the selection game's
//! below `ProtocolDriver::on_event`. A spec that is malformed or roots
//! no bodied non-test function is reported back as dead, and the binary
//! exits 2 naming it, so a spec left behind by a deleted item cannot
//! shrink the checked cone silently.
//!
//! Reachability-scoped rules (the compile-time PH001 lints cover the four
//! crates that host the event loop; PH101 extends the net to *any*
//! workspace crate a sink can reach):
//!
//! | id    | source                                                    |
//! |-------|-----------------------------------------------------------|
//! | PH101 | `unwrap`/`expect`/`panic!`-class exits (opt-in: indexing) |
//! | CL001 | lossy `as` narrowing casts                                |
//!
//! `DC001` (a `pub fn` only test code calls) also lives here — it needs
//! the resolved edges, not reachability.

use crate::callgraph::{callees, CallGraph};
use crate::lexer::{Token, TokenKind};
use crate::policy::{Policy, RulePolicy};
use crate::rules::Finding;
use crate::symbols::{FileTokens, FnDef, SymbolTable};
use std::collections::{BTreeSet, VecDeque};

/// The outcome of the taint pass.
#[derive(Debug, Default)]
pub struct TaintReport {
    /// Reachability findings, unsorted (the scanner sorts globally).
    pub findings: Vec<Finding>,
    /// Sink-root function indices, sorted by display id.
    pub sink_roots: Vec<usize>,
    /// Functions reachable from any root (roots included).
    pub reachable: usize,
    /// Sink specs that root nothing (see [`sink_roots`]).
    pub dead_sinks: Vec<String>,
}

/// Runs taint propagation over the call graph.
pub fn analyze(
    files: &[FileTokens],
    symbols: &SymbolTable,
    graph: &CallGraph,
    policy: &Policy,
) -> TaintReport {
    let (roots, dead_sinks) = sink_roots(symbols, graph, &policy.callgraph.sinks);
    let (parent, order) = bfs(symbols, graph, &roots);
    let mut report = TaintReport {
        sink_roots: roots,
        reachable: order.len(),
        dead_sinks,
        ..TaintReport::default()
    };
    let mut seen: BTreeSet<(&'static str, String, usize, String)> = BTreeSet::new();
    for &fn_idx in &order {
        let def = &symbols.fns[fn_idx];
        let Some((start, end)) = def.body else {
            continue;
        };
        let ft = &files[def.file];
        for rule in REACH_RULES {
            let Some(rp) = policy.rules.get(rule) else {
                continue;
            };
            if !rp.applies_to(&def.krate, &policy.crates) || rp.is_allowed(&def.path) {
                continue;
            }
            for site in source_sites(rule, rp, ft, start, end) {
                let key = (rule, def.path.clone(), site.line, site.what.clone());
                if !seen.insert(key) {
                    continue;
                }
                let mut f = Finding::new(
                    rule,
                    &def.path,
                    site.line,
                    format!("{} — {}", site.what, rp.description),
                );
                f.chain = chain_to(symbols, &parent, fn_idx);
                report.findings.push(f);
            }
        }
    }
    report
}

/// Resolves the policy's sink specs to function indices, sorted by
/// display id (so BFS tie-breaking — and with it chain selection — is
/// deterministic across runs), plus the specs that root nothing: a
/// malformed spec, or one whose matches include no bodied non-test
/// function. A dead spec is a hole in the reachability argument — the
/// bodies it was written to cover go unchecked — so the binary treats
/// it as a setup error (exit 2).
pub fn sink_roots(
    symbols: &SymbolTable,
    graph: &CallGraph,
    sinks: &[String],
) -> (Vec<usize>, Vec<String>) {
    let mut roots: Vec<usize> = Vec::new();
    let mut dead: Vec<String> = Vec::new();
    for spec in sinks {
        let hits = if let Some(target) = spec.strip_prefix("calls:") {
            target.split_once("::").map(|(owner, method)| {
                let targets: Vec<usize> = symbols
                    .fns
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.name == method && d.owner.as_deref() == Some(owner))
                    .map(|(i, _)| i)
                    .collect();
                graph.callers_of(&targets)
            })
        } else {
            spec.split_once("::")
                .map(|(trait_name, method)| symbols.trait_impls(trait_name, method))
        };
        let mut rooted = false;
        for i in hits.into_iter().flatten() {
            if symbols.fns[i].body.is_some() && !symbols.fns[i].is_test {
                rooted = true;
                if !roots.contains(&i) {
                    roots.push(i);
                }
            }
        }
        if !rooted {
            dead.push(spec.clone());
        }
    }
    roots.sort_by_key(|&i| symbols.fns[i].id());
    (roots, dead)
}

/// Breadth-first search from all roots at once: shortest chains, ties
/// broken by root id order. Returns the parent map (caller index + call
/// line per reached function; `None` at roots) and the visit order.
#[allow(clippy::type_complexity)]
fn bfs(
    symbols: &SymbolTable,
    graph: &CallGraph,
    roots: &[usize],
) -> (Vec<Option<(usize, usize)>>, Vec<usize>) {
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; symbols.fns.len()];
    let mut visited = vec![false; symbols.fns.len()];
    let mut order = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in roots {
        if !visited[r] {
            visited[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(f) = queue.pop_front() {
        order.push(f);
        for e in &graph.edges[f] {
            if visited[e.callee] || symbols.fns[e.callee].is_test {
                continue;
            }
            visited[e.callee] = true;
            parent[e.callee] = Some((f, e.line));
            queue.push_back(e.callee);
        }
    }
    (parent, order)
}

/// The sink→source call chain for `fn_idx`: element 0 is the root
/// (`id (file:line)` of its definition), each further element one hop
/// (`id (called at file:line)` — the line is the call site in the
/// *previous* hop's body).
fn chain_to(
    symbols: &SymbolTable,
    parent: &[Option<(usize, usize)>],
    fn_idx: usize,
) -> Vec<String> {
    // Walk source → root, then reverse.
    let mut hops: Vec<(usize, Option<usize>)> = Vec::new();
    let mut cur = fn_idx;
    hops.push((cur, None));
    while let Some((caller, line)) = parent[cur] {
        hops.last_mut().expect("non-empty").1 = Some(line);
        hops.push((caller, None));
        cur = caller;
    }
    hops.reverse();
    let mut chain = Vec::with_capacity(hops.len());
    for (i, (idx, _)) in hops.iter().enumerate() {
        let def = &symbols.fns[*idx];
        if i == 0 {
            chain.push(format!("{} ({}:{})", def.id(), def.path, def.line));
        } else {
            // The call line travels with the callee hop: it was recorded
            // on that element while walking upwards.
            let (_, call_line) = hops[i];
            let caller = &symbols.fns[hops[i - 1].0];
            let line = call_line.unwrap_or(def.line);
            chain.push(format!("{} (called at {}:{})", def.id(), caller.path, line));
        }
    }
    chain
}

/// The reachability-scoped rule ids, in reporting order.
pub const REACH_RULES: [&str; 2] = ["PH101", "CL001"];

/// One source matched inside a reachable body.
struct Site {
    /// 1-based line.
    line: usize,
    /// What matched, message-ready (`"panic source `.unwrap()`"`).
    what: String,
}

/// Panic or narrowing sources of `rule` within `[start, end)` of `ft`.
fn source_sites(
    rule: &str,
    rp: &RulePolicy,
    ft: &FileTokens,
    start: usize,
    end: usize,
) -> Vec<Site> {
    let end = end.min(ft.tokens.len());
    match rule {
        "PH101" => panic_sites(rp, ft, start, end),
        "CL001" => narrowing_cast_sites(rp, ft, start, end),
        _ => Vec::new(),
    }
}

/// PH101 sources. The `sources` policy list selects which classes fire;
/// by default everything but `index` (index panics are deterministic —
/// the PH rules are typed-error hygiene — so indexing is opt-in for
/// codebases that want the stricter contract).
fn panic_sites(rp: &RulePolicy, ft: &FileTokens, start: usize, end: usize) -> Vec<Site> {
    let default: Vec<String> = [
        "unwrap",
        "expect",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let sources = rp.lists.get("sources").unwrap_or(&default);
    let on = |s: &str| sources.iter().any(|x| x == s);
    let tokens = &ft.tokens;
    let mut sites = Vec::new();
    for i in start..end {
        let t = &tokens[i];
        let dotted = i > 0 && tokens[i - 1].is_punct(".");
        let called = tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
        let banged = tokens.get(i + 1).is_some_and(|n| n.is_punct("!"));
        if dotted && called && (t.is_ident("unwrap") || t.is_ident("expect")) && on(&t.text) {
            sites.push(Site {
                line: t.line,
                what: format!("panic source `.{}()`", t.text),
            });
        }
        if banged
            && ["panic", "unreachable", "todo", "unimplemented"]
                .iter()
                .any(|m| t.is_ident(m))
            && on(&t.text)
        {
            sites.push(Site {
                line: t.line,
                what: format!("panic source `{}!`", t.text),
            });
        }
        // Indexing `name[...]` — opt-in via `sources = [..., "index"]`.
        if on("index")
            && t.is_punct("[")
            && i > start
            && tokens[i - 1].kind == TokenKind::Ident
            && !tokens[i - 1].is_ident("in")
        {
            sites.push(Site {
                line: t.line,
                what: format!("panic source: indexing `{}[..]`", tokens[i - 1].text),
            });
        }
    }
    sites
}

/// CL001 sources: `as T` where `T` is in the `narrow` list (defaults to
/// the types that can silently drop bits on 64-bit event data; `usize`
/// is excluded — it is the native width).
fn narrowing_cast_sites(rp: &RulePolicy, ft: &FileTokens, start: usize, end: usize) -> Vec<Site> {
    let default: Vec<String> = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let narrow = rp.lists.get("narrow").unwrap_or(&default);
    let tokens = &ft.tokens;
    let mut sites = Vec::new();
    for i in start..end {
        if !tokens[i].is_ident("as") {
            continue;
        }
        let Some(ty) = tokens.get(i + 1) else {
            continue;
        };
        if narrow.iter().any(|n| ty.is_ident(n)) {
            sites.push(Site {
                line: tokens[i].line,
                what: format!("lossy `as {}` narrowing cast", ty.text),
            });
        }
    }
    sites
}

/// DC001: every non-test `pub fn` outside a trait impl that nothing
/// calls but test code. Callers are the graph's edges (non-test bodies)
/// and every fn of the caller-only `callers` files (binaries, the
/// facade's integration tests, examples, the benchmark) outside a
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
    let Some(rp) = policy.rules.get("DC001") else {
        return Vec::new();
    };
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
        for callee in callees(callers, def, symbols, &policy.callgraph) {
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
                && rp.applies_to(&d.krate, &policy.crates)
                && !rp.is_allowed(&d.id())
        })
        .map(|(_, d)| {
            Finding::new(
                "DC001",
                &d.path,
                d.line,
                format!(
                    "`{}` has no caller outside test code — {}",
                    d.id(),
                    rp.description
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;

    /// A two-file mini-workspace: a driver impl whose helper (in another
    /// file) unwraps two hops down.
    fn two_hop_fixture() -> (Vec<FileTokens>, SymbolTable, CallGraph, Policy) {
        let driver = "
            struct MyDriver;
            impl ProtocolDriver for MyDriver {
                fn on_event(&mut self, t: u64, ev: u32) -> bool {
                    stamp(ev) > 0
                }
            }
        ";
        let helper = "
            pub fn stamp(ev: u32) -> u64 {
                decode(ev) + 1
            }
            fn decode(ev: u32) -> u64 {
                u64::try_from(ev).ok().unwrap()
            }
        ";
        let files = vec![
            FileTokens::new("proto", "crates/proto/src/driver.rs", driver),
            FileTokens::new("util", "crates/util/src/clock.rs", helper),
        ];
        let symbols = SymbolTable::build(&files);
        let policy = Policy::parse(
            "
            [audit]
            crates = [\"proto\", \"util\"]
            [callgraph]
            sinks = [\"ProtocolDriver::on_event\"]
            [rules.PH101]
            description = \"typed errors only\"
            ",
        )
        .unwrap();
        let graph = CallGraph::build(&files, &symbols, &policy.callgraph);
        (files, symbols, graph, policy)
    }

    #[test]
    fn two_hop_taint_builds_the_full_chain() {
        let (files, symbols, graph, policy) = two_hop_fixture();
        let report = analyze(&files, &symbols, &graph, &policy);
        assert_eq!(report.sink_roots.len(), 1);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let f = &report.findings[0];
        assert_eq!(f.rule, "PH101");
        assert_eq!(f.path, "crates/util/src/clock.rs");
        assert!(f.message.contains("unwrap"), "{f:?}");
        assert_eq!(f.chain.len(), 3, "{:?}", f.chain);
        assert!(
            f.chain[0].contains("MyDriver::on_event (crates/proto/src/driver.rs:"),
            "{:?}",
            f.chain
        );
        assert!(
            f.chain[1].contains("stamp (called at crates/proto/src/driver.rs:"),
            "{:?}",
            f.chain
        );
        assert!(
            f.chain[2].contains("decode (called at crates/util/src/clock.rs:"),
            "{:?}",
            f.chain
        );
    }

    #[test]
    fn unreachable_sources_stay_silent() {
        let (files, symbols, graph, mut policy) = two_hop_fixture();
        policy.callgraph.sinks.clear();
        let report = analyze(&files, &symbols, &graph, &policy);
        assert_eq!(report.sink_roots.len(), 0);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn calls_sink_spec_roots_the_calling_function() {
        let src = "
            struct WorkScheduler;
            impl WorkScheduler {
                fn drain(&mut self, f: F) { }
            }
            fn execute(s: &mut WorkScheduler, x: Option<u32>) {
                s.drain(|| { });
                let v = x.unwrap();
            }
        ";
        let files = vec![FileTokens::new("rt", "crates/rt/src/h.rs", src)];
        let symbols = SymbolTable::build(&files);
        let policy = Policy::parse(
            "
            [audit]
            crates = [\"rt\"]
            [callgraph]
            sinks = [\"calls:WorkScheduler::drain\"]
            [rules.PH101]
            description = \"typed errors only\"
            ",
        )
        .unwrap();
        let graph = CallGraph::build(&files, &symbols, &policy.callgraph);
        let report = analyze(&files, &symbols, &graph, &policy);
        let execute = symbols
            .fns
            .iter()
            .position(|d| d.name == "execute")
            .unwrap();
        assert_eq!(report.sink_roots, vec![execute]);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert!(report.findings[0].message.contains("unwrap"));
        // The source sits in the root itself: single-hop chain.
        assert_eq!(report.findings[0].chain.len(), 1);
    }

    #[test]
    fn ph101_sources_list_gates_indexing() {
        let src = "
            struct D;
            impl Dyn for D {
                fn step(&mut self) { let x = self.v[3]; }
            }
        ";
        let files = vec![FileTokens::new("games", "crates/games/src/g.rs", src)];
        let symbols = SymbolTable::build(&files);
        let mk = |sources: &str| {
            Policy::parse(&format!(
                "
                [audit]
                crates = [\"games\"]
                [callgraph]
                sinks = [\"Dyn::step\"]
                [rules.PH101]
                description = \"d\"
                {sources}
                "
            ))
            .unwrap()
        };
        let without = mk("");
        let graph = CallGraph::build(&files, &symbols, &without.callgraph);
        assert!(analyze(&files, &symbols, &graph, &without)
            .findings
            .is_empty());
        let with = mk("sources = [\"index\"]");
        let report = analyze(&files, &symbols, &graph, &with);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert!(report.findings[0].message.contains("indexing"));
    }

    #[test]
    fn cl001_flags_only_reachable_narrowing_casts() {
        let src = "
            struct S;
            impl Stage for S {
                fn run(&mut self, x: u64) -> u32 { x as u32 }
            }
            fn unrelated(x: u64) -> u32 { x as u32 }
        ";
        let files = vec![FileTokens::new("core", "crates/core/src/s.rs", src)];
        let symbols = SymbolTable::build(&files);
        let policy = Policy::parse(
            "
            [audit]
            crates = [\"core\"]
            [callgraph]
            sinks = [\"Stage::run\"]
            [rules.CL001]
            description = \"narrowing drops bits\"
            ",
        )
        .unwrap();
        let graph = CallGraph::build(&files, &symbols, &policy.callgraph);
        let report = analyze(&files, &symbols, &graph, &policy);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].line, 4);
    }

    #[test]
    fn rule_allow_list_silences_the_source_file() {
        let (files, symbols, graph, _) = two_hop_fixture();
        let policy = Policy::parse(
            "
            [audit]
            crates = [\"proto\", \"util\"]
            [callgraph]
            sinks = [\"ProtocolDriver::on_event\"]
            [rules.PH101]
            description = \"d\"
            allow = [\"crates/util/src/clock.rs\"]
            ",
        )
        .unwrap();
        let report = analyze(&files, &symbols, &graph, &policy);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }
}
