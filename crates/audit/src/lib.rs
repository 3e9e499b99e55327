//! `cshard-audit` — the workspace checks no compiler lint can make.
//!
//! The paper's parameter-unification scheme (Sec. IV-C) requires every
//! miner to replay Algorithms 1–3 and obtain byte-identical results, so
//! any nondeterministic API reaching protocol code is a correctness bug.
//! The compiler enforces most of that contract from resolved types (see
//! DESIGN.md "Determinism invariants"): `clippy.toml` bans wall clocks,
//! ambient hash seeds and hash containers by path (ND001–ND003), the
//! event-loop crates deny panic-class exits at their roots (PH001), the
//! workspace lint table denies `unsafe` and warns on missing docs, and
//! `SimTime` has no panicking operators. This crate keeps the checks that
//! need the whole workspace's call graph or a test-code exemption, as a
//! CI gate that fails with `file:line` diagnostics.
//!
//! The analysis is token-level and multi-pass: a hand-rolled lexer
//! ([`lexer`]) feeds a workspace symbol table ([`symbols`]), a name+arity
//! call graph ([`callgraph`]), and a source→sink reachability pass
//! ([`taint`]) beside the per-line matcher ([`rules`]), all configured by
//! the `policy.toml` at the workspace root ([`policy`]); [`scan`] walks
//! the crates the policy lists and [`report`] renders the stable
//! `AUDIT_report.json` plus the baseline gate. There is no `syn` here on
//! purpose — the workspace builds fully offline from an in-tree
//! dependency set, and the rules only need token structure, not a full
//! AST.
//!
//! | id    | what it forbids                                              |
//! |-------|--------------------------------------------------------------|
//! | FD001 | `==`/`!=` against float literals outside tests (clippy's `float_cmp` cannot exempt test code) |
//! | PH101 | panic-class exits below a sink, in any crate (class list in the policy) |
//! | CL001 | lossy `as` narrowing casts below a sink                      |
//! | DC001 | a `pub fn` nothing calls but test code                       |
//!
//! PH101 and CL001 are reachability-scoped: a source counts only when a
//! `[callgraph] sinks` root reaches it, and the finding carries the full
//! source→…→sink call chain with `file:line` per hop. `#[cfg(test)] mod`
//! bodies (inline, or the file behind an out-of-line `#[cfg(test)] mod
//! name;`) are exempt everywhere; residual exceptions live in the
//! policy's `allow` lists, each with a comment saying why.

pub mod callgraph;
pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;
pub mod scan;
pub mod symbols;
pub mod taint;

pub use policy::{Policy, PolicyError};
pub use rules::Finding;
pub use scan::{scan_workspace, uncovered_crates, ScanReport};
