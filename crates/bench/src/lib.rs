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
//! Every target writes a byte-deterministic `BENCH_<name>.json`; none
//! measures host time — that is `benchmark/`'s job (`benchmark/README.md`).
//!
//! Set `UFOTM_BENCH_QUICK=1` to shrink sweeps for smoke runs.
//!
//! Absolute simulated-cycle numbers differ from the paper's testbed; the
//! *shapes* (orderings, crossovers, degradation modes) are the reproduction
//! target — see EXPERIMENTS.md for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use ufotm_core::{json_escape, SystemKind, ABORT_TAXONOMY};
use ufotm_stamp::harness::RunOutcome;

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

/// The systems plotted in Figure 5, in the paper's legend order.
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

/// Formats a speedup as the paper's figures would plot it.
#[must_use]
pub fn speedup(seq_makespan: u64, makespan: u64) -> f64 {
    seq_makespan as f64 / makespan.max(1) as f64
}

/// Prints one figure header.
pub fn header(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Prints a speedup table: rows = systems, columns = thread counts.
pub fn print_speedup_table(workload: &str, threads: &[usize], rows: &[(SystemKind, Vec<f64>)]) {
    println!();
    println!("-- {workload}: speedup over sequential --");
    print!("{:<14}", "system");
    for t in threads {
        print!("{t:>8}T");
    }
    println!();
    for (kind, speedups) in rows {
        print!("{:<14}", kind.label());
        for s in speedups {
            print!("{s:>9.2}");
        }
        println!();
    }
}

/// Prints the Figure 6 abort-breakdown table for a set of outcomes.
pub fn print_abort_breakdown(workload: &str, outcomes: &[&RunOutcome]) {
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

/// One recorded run: a label plus its serialized simulated report.
#[derive(Debug)]
struct RunRecord {
    label: String,
    report: String,
}

/// Accumulates [`RunReport`](ufotm_core::RunReport)s from a bench target
/// and writes them as one `BENCH_<name>.json` machine-readable artifact.
///
/// The artifact is deterministic byte-for-byte across same-seed runs: run
/// order is push order (the bench's fixed sweep order) and each report
/// serializes integers with fixed key order — see `docs/RUN_REPORT.md`.
/// Nothing in it is host time: that is measured in `benchmark/` only.
#[derive(Debug)]
pub struct ArtifactWriter {
    name: &'static str,
    runs: Vec<RunRecord>,
}

impl ArtifactWriter {
    /// Creates a writer for the bench target `name` (the file becomes
    /// `BENCH_<name>.json`).
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        ArtifactWriter {
            name,
            runs: Vec::new(),
        }
    }

    /// Records one run under a label like `"vacation/ufo-hybrid/4T"`.
    pub fn push(&mut self, label: impl Into<String>, outcome: &RunOutcome) {
        self.runs.push(RunRecord {
            label: label.into(),
            report: outcome.report.to_json(),
        });
    }

    /// The artifact body (deterministic JSON).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"bench\":\"");
        out.push_str(self.name);
        out.push_str("\",\"runs\":[");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":\"");
            // Labels are bench-authored slugs, but escape fully anyway
            // (control characters included) so no label can corrupt the
            // artifact — same routine the run reports use.
            out.push_str(&json_escape(&run.label));
            out.push_str("\",\"report\":");
            out.push_str(&run.report);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Writes `BENCH_<name>.json` into `$UFOTM_BENCH_OUT` (default: the
    /// current directory), creating that directory if it is missing, and
    /// returns the path.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written: a bench that silently drops
    /// its artifact would look like a passing run with missing data.
    pub fn finish(&self) -> std::path::PathBuf {
        let dir = std::env::var("UFOTM_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
        let path = self.write_into(std::path::Path::new(&dir));
        println!();
        println!("wrote {} ({} runs)", path.display(), self.runs.len());
        path
    }

    fn write_into(&self, dir: &std::path::Path) -> std::path::PathBuf {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.to_json()))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        path
    }
}

/// Accumulates measured series so benches can print a compact recap.
#[derive(Debug, Default)]
pub struct Recap {
    lines: BTreeMap<String, String>,
}

impl Recap {
    /// Creates an empty recap.
    #[must_use]
    pub fn new() -> Self {
        Recap::default()
    }

    /// Records a named measurement.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.lines.insert(key.to_string(), value.to_string());
    }

    /// Prints all recorded measurements.
    pub fn print(&self, title: &str) {
        println!();
        println!("-- {title}: recap --");
        for (k, v) in &self.lines {
            println!("  {k}: {v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufotm_stamp::harness::RunSpec;
    use ufotm_stamp::micro::{self, MicroParams};

    #[test]
    fn artifact_labels_are_fully_escaped() {
        let params = MicroParams {
            txns_per_thread: 1,
            ..MicroParams::with_rate(0.0)
        };
        let outcome = micro::run(&RunSpec::new(SystemKind::Sequential, 1), &params);
        let mut art = ArtifactWriter::new("escape_test");
        art.push("weird \"label\"\\with\nnewline", &outcome);
        let json = art.to_json();
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
        let art = ArtifactWriter::new("mkdir_test");
        let path = art.write_into(&dir);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), art.to_json());
        std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap()).unwrap();
    }
}
