//! The evaluation harness: regenerates every table and figure of the
//! paper's Sec. VI.
//!
//! Each experiment in [`experiments`] returns an [`report::ExperimentResult`]
//! — named series of `(x, y)` points plus headline notes — which the
//! `experiments` binary renders as a text table and, on request, as JSON.
//! The per-experiment parameters mirror the paper's (transaction counts,
//! block rates, shard counts, repeat counts); every deviation and
//! calibration is listed in the experiment's `notes` and in EXPERIMENTS.md.

pub mod experiments;
pub mod plot;
pub mod report;

pub use report::{ExperimentResult, Series};
