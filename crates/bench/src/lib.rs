//! # `ufotm-bench` — the benchmark harness
//!
//! One bench target per table/figure of the paper's evaluation (run with
//! `cargo bench`):
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `table4`          | Table 4 (simulation parameters) |
//! | `fig5_speedup`    | Figure 5 (speedup vs. sequential, per workload × system × threads) |
//! | `fig6_aborts`     | Figure 6 (hardware abort-reason breakdown per hybrid) |
//! | `fig7_failover`   | Figure 7a/7b (microbenchmark speedup vs. failover rate, 0 % overheads, UFO/HyTM crossover) |
//! | `fig8_sensitivity`| Figure 8 (contention-management policy sensitivity) |
//! | `appendix_swap`   | Appendix A (UFO bits across paging; all-clear fast path) |
//! | `ablation_cache`  | §5.2 ablation: transactional-cache capacity vs. overflow failovers |
//! | `ablation_otable` | §4.1/§5 ablation: ownership-table size vs. aliasing conflicts |
//! | `ssca2_extension` | extension workload: ssca2-style graph construction on every system |
//!
//! A target builds its figure as a list of [`Cell`]s and prints its tables
//! from what [`run_cells`] returns; that runs the cells one per host core
//! and writes a byte-deterministic `BENCH_<name>.json` into
//! `$UFOTM_BENCH_OUT`. None of it measures host time — that is
//! `benchmark/`'s job (`benchmark/README.md`).
//!
//! Set `UFOTM_BENCH_QUICK=1` to shrink sweeps for smoke runs.
//!
//! Absolute simulated-cycle numbers differ from the paper's testbed; the
//! *shapes* (orderings, crossovers, degradation modes) are the reproduction
//! target — see EXPERIMENTS.md for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use ufotm_core::{json_escape, SystemKind, ABORT_TAXONOMY};
use ufotm_stamp::genome::GenomeParams;
use ufotm_stamp::harness::{run_sim, RunOutcome, RunSpec};
use ufotm_stamp::kmeans::KmeansParams;
use ufotm_stamp::micro::{self, MicroParams};
use ufotm_stamp::ssca2::Ssca2Params;
use ufotm_stamp::vacation::VacationParams;

/// Whether quick (smoke-test) mode is requested.
#[must_use]
pub fn quick() -> bool {
    std::env::var("UFOTM_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// The thread counts swept by the figures.
#[must_use]
pub fn thread_counts() -> Vec<usize> {
    if quick() {
        vec![1, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// The systems plotted in Figure 5, in the paper's legend order. Figures 6
/// and 7 plot a prefix of it.
#[must_use]
pub fn fig5_systems() -> Vec<SystemKind> {
    vec![
        SystemKind::UnboundedHtm,
        SystemKind::UfoHybrid,
        SystemKind::HyTm,
        SystemKind::PhTm,
        SystemKind::UstmStrong,
        SystemKind::UstmWeak,
        SystemKind::Tl2,
    ]
}

/// One workload's parameters: the five `ufotm-stamp` workloads.
#[derive(Clone, Copy, Debug)]
pub enum Params {
    /// The software-failover microbenchmark (Figure 7).
    Micro(MicroParams),
    /// kmeans.
    Kmeans(KmeansParams),
    /// vacation.
    Vacation(VacationParams),
    /// genome.
    Genome(GenomeParams),
    /// ssca2 graph construction.
    Ssca2(Ssca2Params),
}

impl Params {
    /// Runs this workload under `spec` on the simulated machine.
    #[must_use]
    pub fn run(&self, spec: &RunSpec) -> RunOutcome {
        match self {
            Params::Micro(p) => micro::run(spec, p),
            Params::Kmeans(p) => run_sim(spec, p),
            Params::Vacation(p) => run_sim(spec, p),
            Params::Genome(p) => run_sim(spec, p),
            Params::Ssca2(p) => run_sim(spec, p),
        }
    }
}

/// The five STAMP configurations of Figures 5, 6 and 8, in the paper's
/// order. Quick mode runs a third of each.
#[must_use]
pub fn stamp_workloads() -> Vec<(&'static str, Params)> {
    let scale = |n: usize| if quick() { n / 3 } else { n };
    let kmeans = |p: KmeansParams| {
        let points = scale(p.points);
        Params::Kmeans(KmeansParams { points, ..p })
    };
    let vacation = |p: VacationParams| {
        let total_tasks = scale(p.total_tasks);
        Params::Vacation(VacationParams { total_tasks, ..p })
    };
    let genome = GenomeParams::standard();
    let segments = scale(genome.segments);
    let names = [
        "kmeans high contention",
        "kmeans low contention",
        "vacation high contention",
        "vacation low contention",
        "genome",
    ];
    let params = [
        kmeans(KmeansParams::high_contention()),
        kmeans(KmeansParams::low_contention()),
        vacation(VacationParams::high_contention()),
        vacation(VacationParams::low_contention()),
        Params::Genome(GenomeParams { segments, ..genome }),
    ];
    names.into_iter().zip(params).collect()
}

/// The [`stamp_workloads`] entry called `name`.
///
/// # Panics
///
/// Panics if no entry has that name.
#[must_use]
pub fn stamp_workload(name: &str) -> Params {
    let found = stamp_workloads().into_iter().find(|&(n, _)| n == name);
    found
        .unwrap_or_else(|| panic!("no STAMP workload named {name:?}"))
        .1
}

/// One figure cell: the run `params.run(&spec)`, recorded in the artifact
/// under `label` (like `"vacation/ufo-hybrid/4T"`).
#[derive(Debug)]
pub struct Cell {
    /// The run's label in `BENCH_<name>.json`.
    pub label: String,
    /// System, threads, policy, machine overrides and seed.
    pub spec: RunSpec,
    /// The workload and its parameters.
    pub params: Params,
}

impl Cell {
    /// A cell running `params` under `spec`, labelled `label`.
    #[must_use]
    pub fn new(label: impl Into<String>, spec: RunSpec, params: Params) -> Self {
        Cell {
            label: label.into(),
            spec,
            params,
        }
    }
}

/// Runs `cells` one per host core, checks each report's trace audit, and
/// writes the reports in cell order to `BENCH_<name>.json` in
/// `$UFOTM_BENCH_OUT` (default: the current directory). Simulated runs
/// are deterministic, so neither the artifact nor the returned outcomes
/// (in cell order) depend on the worker count.
///
/// # Panics
///
/// Panics, once every cell has finished and before the artifact is
/// written, if a cell panicked; or if the artifact cannot be written.
pub fn run_cells(name: &str, cells: &[Cell]) -> Vec<RunOutcome> {
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let outcomes = run_cells_on(workers, cells);
    write_artifact(&artifact_path(name), &artifact_json(name, cells, &outcomes));
    outcomes
}

/// [`run_cells`] on `workers` threads, the caller's included, which claim
/// cell indices from a shared counter; results are put back in cell order.
fn run_cells_on(workers: usize, cells: &[Cell]) -> Vec<RunOutcome> {
    // The counter only hands out indices; outcomes travel by `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(i) else {
                return done;
            };
            let out = cell.params.run(&cell.spec);
            out.report.assert_audit_clean();
            done.push((i, out));
        }
    };
    let mut done = thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(cells.len()))
            .map(|_| s.spawn(work))
            .collect();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().expect("a figure cell panicked"));
        }
        done
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Where `BENCH_<name>.json` goes.
fn artifact_path(name: &str) -> PathBuf {
    let dir = std::env::var("UFOTM_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    Path::new(&dir).join(format!("BENCH_{name}.json"))
}

/// The artifact body: each cell's label and serialized run report, in
/// cell order. Deterministic byte for byte: each report serializes
/// integers with fixed key order (`docs/RUN_REPORT.md`), and nothing in
/// it is host time.
fn artifact_json(name: &str, cells: &[Cell], outcomes: &[RunOutcome]) -> String {
    let runs: Vec<String> = cells
        .iter()
        .zip(outcomes)
        .map(|(cell, out)| {
            // Labels are bench-authored slugs, but escape fully anyway
            // (control characters included) so no label can corrupt the
            // artifact — same routine the run reports use.
            let label = json_escape(&cell.label);
            format!(
                "{{\"label\":\"{label}\",\"report\":{}}}",
                out.report.to_json()
            )
        })
        .collect();
    format!("{{\"bench\":\"{name}\",\"runs\":[{}]}}", runs.join(","))
}

/// Writes `json` to `path`, creating its directory if it is missing.
fn write_artifact(path: &Path, json: &str) {
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, json))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// Prints the line that closes a target's output: where [`run_cells`]
/// wrote its `runs` reports.
pub fn print_wrote(name: &str, runs: usize) {
    println!();
    println!("wrote {} ({runs} runs)", artifact_path(name).display());
}

/// Formats a speedup as the paper's figures would plot it.
#[must_use]
pub fn speedup(seq_makespan: u64, makespan: u64) -> f64 {
    seq_makespan as f64 / makespan.max(1) as f64
}

/// Figure 5's cells for one workload: the sequential run, then every
/// [`fig5_systems`] kind at each of the [`thread_counts`].
#[must_use]
pub fn speedup_cells(slug: &str, params: Params) -> Vec<Cell> {
    let seq = RunSpec::new(SystemKind::Sequential, 1);
    let mut cells = vec![Cell::new(format!("{slug}/sequential/1T"), seq, params)];
    for kind in fig5_systems() {
        for t in thread_counts() {
            let label = format!("{slug}/{}/{t}T", kind.label());
            cells.push(Cell::new(label, RunSpec::new(kind, t), params));
        }
    }
    cells
}

/// Prints one figure header.
pub fn header(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Prints [`speedup_cells`]' outcomes as a speedup table: rows = systems,
/// columns = thread counts.
pub fn print_speedup_table(workload: &str, outcomes: &[RunOutcome]) {
    let (seq, runs) = outcomes.split_first().expect("a sequential run");
    let threads = thread_counts();
    println!();
    println!("-- {workload}: speedup over sequential --");
    print!("{:<14}", "system");
    for t in &threads {
        print!("{t:>8}T");
    }
    println!();
    for row in runs.chunks(threads.len()) {
        print!("{:<14}", row[0].kind.label());
        for o in row {
            print!("{:>9.2}", speedup(seq.makespan, o.makespan));
        }
        println!();
    }
}

/// Prints the Figure 6 abort-breakdown table for a set of outcomes.
pub fn print_abort_breakdown(workload: &str, outcomes: &[RunOutcome]) {
    println!();
    println!("-- {workload}: HTM aborts per 100 committed txns --");
    print!("{:<14}", "system");
    for (name, _) in ABORT_TAXONOMY {
        print!("{name:>14}");
    }
    println!("{:>10}", "commits");
    for o in outcomes {
        print!("{:<14}", o.kind.label());
        let commits = o.total_commits().max(1) as f64;
        for (_, n) in o.report.abort_taxonomy() {
            print!("{:>14.1}", n as f64 * 100.0 / commits);
        }
        println!("{:>10}", o.total_commits());
    }
}

/// Summarizes an outcome into a one-line record (for EXPERIMENTS.md).
#[must_use]
pub fn one_line(o: &RunOutcome) -> String {
    format!(
        "{:<14} {}T makespan={:>12} hw={:>6} sw={:>6} aborts={:>6} failovers={:>4}",
        o.kind.label(),
        o.threads,
        o.makespan,
        o.hw_commits,
        o.sw_commits,
        o.total_aborts(),
        o.failovers.values().sum::<u64>() + o.forced_failovers,
    )
}

/// Turns a human title ("kmeans high contention") into an artifact label
/// segment ("kmeans-high-contention").
#[must_use]
pub fn slug(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_whitespace() { '-' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_cell(label: &str, threads: usize) -> Cell {
        let params = MicroParams {
            txns_per_thread: 2,
            ..MicroParams::with_rate(0.5)
        };
        let spec = RunSpec::new(SystemKind::UfoHybrid, threads);
        Cell::new(label, spec, Params::Micro(params))
    }

    #[test]
    fn artifact_labels_are_fully_escaped() {
        let cells = [micro_cell("weird \"label\"\\with\nnewline", 1)];
        let json = artifact_json("escape_test", &cells, &run_cells_on(1, &cells));
        assert!(json.contains(r#"weird \"label\"\\with\nnewline"#));
        // Nothing that would break a strict JSON parser survives: no raw
        // control characters anywhere in the artifact.
        assert!(json.chars().all(|c| c as u32 >= 0x20));
    }

    #[test]
    fn artifact_writer_creates_a_missing_output_directory() {
        let dir = std::env::temp_dir()
            .join(format!("ufotm-bench-out-{}", std::process::id()))
            .join("fresh/subdir");
        assert!(!dir.exists());
        let path = dir.join("BENCH_mkdir_test.json");
        let json = artifact_json("mkdir_test", &[], &[]);
        write_artifact(&path, &json);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap()).unwrap();
    }

    #[test]
    fn artifacts_do_not_depend_on_the_worker_count() {
        // Mixed thread counts finish out of cell order on several workers.
        let cells: Vec<Cell> = [4, 1, 3, 1, 2, 1, 4]
            .iter()
            .enumerate()
            .map(|(i, &t)| micro_cell(&format!("micro/{i}/{t}T"), t))
            .collect();
        let one = run_cells_on(1, &cells);
        let three = run_cells_on(3, &cells);
        let json = artifact_json("determinism_test", &cells, &one);
        assert_eq!(json, artifact_json("determinism_test", &cells, &three));
        // Each label names its cell's thread count; its outcome must match.
        for (cell, out) in cells.iter().zip(&three) {
            assert_eq!(out.threads, cell.spec.threads, "{}", cell.label);
        }
    }
}
