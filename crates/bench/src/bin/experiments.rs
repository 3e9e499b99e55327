//! The evaluation driver: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <id>... [--quick] [--threads <n>] [--json <dir>] [--svg <dir>]
//! experiments all|golden|ablations [--quick] [--threads <n>] [--json <dir>] [--svg <dir>]
//! experiments list
//! ```
//!
//! Ids: table1, fig1d, fig3a..fig3h, fig4a..fig4c, fig5a, fig5b, sec4d,
//! faults, sched, settle, migrate and the `abl-*` ablations. `golden` is
//! the ids whose quick-mode JSON is committed under `results/golden/`.
//! `--quick` shrinks repeat counts (same sweeps, noisier averages);
//! `--threads <n>` caps the workers used for independent grid points
//! (default 0 = one per core; 1 = sequential — results are identical
//! either way, only wall-clock changes);
//! `--json <dir>` additionally writes `<dir>/<id>.json` per experiment.

use cshard_bench::experiments;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut quick = false;
    let mut json_dir: Option<String> = None;
    let mut svg_dir: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => experiments::set_grid_threads(n),
                None => {
                    eprintln!("--threads needs a worker count (0 = one per core)");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => match it.next() {
                Some(dir) => json_dir = Some(dir),
                None => {
                    eprintln!("--json needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--svg" => match it.next() {
                Some(dir) => svg_dir = Some(dir),
                None => {
                    eprintln!("--svg needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "list" => {
                for id in experiments::ALL.iter().chain(experiments::ABLATIONS) {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(experiments::ALL.iter().map(|s| s.to_string())),
            "golden" => ids.extend(experiments::GOLDEN.iter().map(|s| s.to_string())),
            "ablations" => ids.extend(experiments::ABLATIONS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: experiments <id>...|all|golden|ablations [--quick] [--threads <n>] [--json <dir>]"
        );
        eprintln!("ids: {}", experiments::ALL.join(", "));
        eprintln!("ablations: {}", experiments::ABLATIONS.join(", "));
        return ExitCode::FAILURE;
    }

    for dir in json_dir.iter().chain(svg_dir.iter()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    for id in &ids {
        let Some(result) = experiments::run(id, quick) else {
            eprintln!("unknown experiment id: {id}");
            return ExitCode::FAILURE;
        };
        println!("{}", result.to_table());
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{id}.json");
            if let Err(e) = std::fs::write(&path, result.to_json()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("  (json written to {path})");
        }
        if let Some(dir) = &svg_dir {
            let path = format!("{dir}/{id}.svg");
            let svg = cshard_bench::plot::render_svg(&result, cshard_bench::plot::options_for(id));
            if let Err(e) = std::fs::write(&path, svg) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("  (svg written to {path})");
        }
    }
    ExitCode::SUCCESS
}
