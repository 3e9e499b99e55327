//! One module per paper artefact. See DESIGN.md §3 for the full index.

pub mod ablations;
pub mod faults;
pub mod fig1d;
pub mod fig3ab;
pub mod fig3cg;
pub mod fig3h;
pub mod fig4;
pub mod fig5;
pub mod migrate;
pub mod sched;
pub mod sec4d;
pub mod settle;
pub mod table1;

use crate::report::ExperimentResult;
use cshard_sim::{SchedulerConfig, WorkScheduler};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads for parallelizing independent experiment grid points
/// (0 = one per core). Grid points are seeded independently, so the
/// results are bit-identical at any setting — only wall-clock changes.
static GRID_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the grid-point worker count (the driver's `--threads` flag).
/// `1` forces the original sequential sweeps; `0` uses every core.
pub fn set_grid_threads(threads: usize) {
    GRID_THREADS.store(threads, Ordering::Relaxed);
}

/// The shared scheduler configuration every experiment reads — the one
/// place the driver's `--threads` flag lands, whether an experiment fans
/// grid points out ([`grid_scheduler`]) or threads the config into a
/// protocol run's `Runtime::builder()`.
pub fn grid_config() -> SchedulerConfig {
    SchedulerConfig::new(GRID_THREADS.load(Ordering::Relaxed))
}

/// The scheduler experiments fan their independent grid points out on,
/// consuming [`grid_config`].
pub fn grid_scheduler() -> WorkScheduler {
    WorkScheduler::new(grid_config())
}

/// All experiment ids, in paper order.
pub const ALL: &[&str] = &[
    "table1", "fig1d", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig3g", "fig3h",
    "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "sec4d", "faults", "sched", "settle", "migrate",
];

/// The ids whose quick-mode JSON is committed under `results/golden/`
/// and must regenerate byte-identically at every `--threads` value (run
/// with `experiments golden --quick`): the paper artefacts cheap enough
/// for a debug-mode test, then the four beyond-paper grids.
pub const GOLDEN: &[&str] = &[
    "table1", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig3g", "fig3h", "fig4a",
    "fig4b", "fig4c", "faults", "sched", "settle", "migrate",
];

/// The ablation studies of DESIGN.md §8 (run with `experiments ablations`
/// or by id).
pub const ABLATIONS: &[&str] = &[
    "abl-eta",
    "abl-window",
    "abl-fees",
    "abl-pool",
    "abl-alloc",
    "abl-threshold",
];

/// Runs one experiment by id. `quick` shrinks repeat counts and sweep sizes
/// (used by CI-ish runs); the default reproduces the paper-scale settings.
pub fn run(id: &str, quick: bool) -> Option<ExperimentResult> {
    Some(match id {
        "table1" => table1::run(quick),
        "fig1d" => fig1d::run(),
        "fig3a" => fig3ab::run_a(quick),
        "fig3b" => fig3ab::run_b(quick),
        "fig3c" => fig3cg::run(quick).c,
        "fig3d" => fig3cg::run(quick).d,
        "fig3e" => fig3cg::run(quick).e,
        "fig3f" => fig3cg::run(quick).f,
        "fig3g" => fig3cg::run(quick).g,
        "fig3h" => fig3h::run(quick),
        "fig4a" => fig4::run_a(quick),
        "fig4b" => fig4::run_b(quick),
        "fig4c" => fig4::run_c(quick),
        "fig5a" => fig5::run_a(quick),
        "fig5b" => fig5::run_b(quick),
        "sec4d" => sec4d::run(),
        "faults" => faults::run(quick),
        "sched" => sched::run(quick),
        "settle" => settle::run(quick),
        "migrate" => migrate::run(quick),
        "abl-eta" => ablations::run_eta(quick),
        "abl-window" => ablations::run_window(quick),
        "abl-fees" => ablations::run_fees(quick),
        "abl-pool" => ablations::run_pool(quick),
        "abl-alloc" => ablations::run_alloc(quick),
        "abl-threshold" => ablations::run_threshold(quick),
        _ => return None,
    })
}

/// The fee model shared by the throughput experiments (uniform, as the
/// paper's injections do not stress fee structure; the security analysis
/// uses its own binomial model).
pub fn default_fees() -> cshard_workload::FeeDistribution {
    cshard_workload::FeeDistribution::Uniform { lo: 1, hi: 100 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_id_runs_quick() {
        // fig3c..g share one computation; run() must succeed for each id.
        for id in ALL {
            let r = run(id, true).unwrap_or_else(|| panic!("unknown id {id}"));
            assert_eq!(&r.id, id);
            assert!(!r.series.is_empty(), "{id} has no series");
            assert!(
                r.series.iter().any(|s| !s.points.is_empty()),
                "{id} has no data"
            );
        }
    }

    #[test]
    fn every_ablation_runs_quick() {
        for id in ABLATIONS {
            let r = run(id, true).unwrap_or_else(|| panic!("unknown id {id}"));
            assert_eq!(&r.id, id);
            assert!(!r.series.is_empty(), "{id} has no series");
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run("fig9z", true).is_none());
    }
}
