//! `cshard-audit` — workspace determinism & safety lints.
//!
//! The paper's parameter-unification scheme (Sec. IV-C) requires every
//! miner to replay Algorithms 1–3 and obtain byte-identical results, so
//! any nondeterministic API reaching protocol code is a correctness bug.
//! PR 1 and PR 2 made that contract real (PRF-seeded per-shard RNG
//! streams, golden fingerprints, wall-clock reads confined to the
//! `Runtime` harness); this crate enforces it at the source level, as a
//! CI gate that fails with `file:line` diagnostics.
//!
//! The analysis is token-level and multi-pass: a hand-rolled lexer
//! ([`lexer`]) feeds a workspace symbol table ([`symbols`]), a name+arity
//! call graph ([`callgraph`]), and a source→sink reachability pass
//! ([`taint`]) on top of the per-line matchers ([`rules`]), all
//! configured by the `policy.toml` at the workspace root ([`policy`]);
//! [`scan`] walks the crates the policy lists and [`report`] renders the
//! stable `AUDIT_report.json` plus the baseline gate. There is no `syn`
//! here on purpose — the workspace builds fully offline from an in-tree
//! dependency set, and the rules only need token structure, not a full
//! AST.
//!
//! Line-scoped rules (`0xx` — see DESIGN.md "Determinism invariants"):
//!
//! | id    | what it forbids                                             |
//! |-------|-------------------------------------------------------------|
//! | ND001 | wall-clock APIs (`Instant`, `SystemTime`) in protocol code  |
//! | ND002 | ambient randomness (`thread_rng`, `from_entropy`, `OsRng`)  |
//! | ND003 | iteration over `HashMap`/`HashSet` (unordered => replay-unsafe) |
//! | PH001 | `unwrap`/`expect`/`panic!`-class exits in driver/event code |
//! | FD001 | `==`/`!=` against float literals (tolerance helpers instead) |
//! | AR001 | bare `+`/`-`/`*` on `SimTime`/epoch counters (overflow)     |
//! | AH001 | missing required lint headers in protocol crate roots       |
//!
//! Reachability-scoped rules (`1xx` — a source counts only when a
//! `[callgraph] sinks` root reaches it; findings carry the full
//! source→…→sink call chain with `file:line` per hop):
//!
//! | id    | what it forbids on sink-reachable paths                     |
//! |-------|-------------------------------------------------------------|
//! | ND101 | wall-clock reads any number of helper calls below a sink    |
//! | ND102 | ambient entropy below a sink                                |
//! | ND103 | hash-order iteration below a sink                           |
//! | PH101 | panic-class exits below a sink (class list in the policy)   |
//! | CL001 | lossy `as` narrowing casts below a sink                     |
//! | DP001 | calls to `#[deprecated]` workspace items (reachability-free)|
//! | DC001 | a `pub fn` nothing calls but its own file's unit tests      |
//!
//! `#[cfg(test)] mod` bodies (inline, or the file behind an out-of-line
//! `#[cfg(test)] mod name;`) are exempt everywhere; residual exceptions
//! live in the policy's `allow` lists, each with a comment saying why.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

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
