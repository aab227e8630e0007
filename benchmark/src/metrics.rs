//! The metric registry: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repo root lists the same names; `run.py`
//! refuses a result whose names differ from that file, so the two cannot
//! drift apart silently.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Summary;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("commits_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). A metric
/// that does not apply to the workload (a `machine.` count on a native
/// workload, say) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // native TL2 fast path: step probes, then the workload's own counts.
    ("native.tl2.begin_ns", "ns"),
    ("native.tl2.read_ns", "ns"),
    ("native.tl2.write_ns", "ns"),
    ("native.tl2.commit_ns", "ns"),
    ("native.tl2.readonly_commit_ns", "ns"),
    ("native.tl2.txn_1r1w_ns", "ns"),
    ("native.tl2.begins", "count"),
    ("native.tl2.commits", "count"),
    ("native.tl2.aborts_read_validation", "count"),
    ("native.tl2.aborts_lock_busy", "count"),
    ("native.tl2.aborts_commit_validation", "count"),
    ("native.tl2.abort_ratio", "ratio"),
    ("native.tl2.orphan_steals", "count"),
    // native USTM slow path.
    ("native.ustm.begin_ns", "ns"),
    ("native.ustm.read_ns", "ns"),
    ("native.ustm.write_ns", "ns"),
    ("native.ustm.commit_ns", "ns"),
    ("native.ustm.commit_self_ns", "ns"),
    ("native.ustm.txn_1r1w_ns", "ns"),
    ("native.ustm.commits", "count"),
    ("native.ustm.aborts", "count"),
    ("native.ustm.abort_ratio", "ratio"),
    ("native.ustm.helper_completions", "count"),
    ("native.ustm.poison_recovered", "count"),
    ("native.ustm.owned_lines_residual", "count"),
    // mprotect guard.
    ("native.guard.guarded", "bool"),
    ("native.guard.window_ns", "ns"),
    ("native.guard.window_2t_ns", "ns"),
    ("native.guard.windows_opened", "count"),
    ("native.guard.windows_per_slow_commit", "ratio"),
    ("native.guard.faults_in_window", "count"),
    ("native.guard.faults_after_window", "count"),
    ("native.guard.busy_share", "ratio"),
    // failover driver.
    ("native.hybrid.fast_overhead_ns", "ns"),
    ("native.hybrid.slow_txn_ns", "ns"),
    ("native.hybrid.failover_penalty_ns", "ns"),
    ("native.hybrid.commits_per_s_1t", "1/s"),
    ("native.hybrid.commits_per_s_2t", "1/s"),
    ("native.hybrid.scale_2t_over_1t", "ratio"),
    ("native.hybrid.failovers", "count"),
    ("native.hybrid.forced_failovers", "count"),
    ("native.hybrid.slow_commits", "count"),
    ("native.hybrid.serial_commits", "count"),
    ("native.hybrid.serial_escalations", "count"),
    ("native.hybrid.fast_aborts", "count"),
    ("native.hybrid.slow_aborts", "count"),
    ("native.heap.new_ns", "ns"),
    ("native.heap.peek_ns", "ns"),
    ("native.heap.poke_ns", "ns"),
    // Native transaction latency, sampled 1 in 17 in the untraced window.
    ("native.txn_p50_ns", "ns"),
    ("native.txn_p99_ns", "ns"),
    ("native.txn_samples", "count"),
    ("native.workers_pinned", "bool"),
    ("ref.tl2.txn_1r1w_ns", "ns"),
    // simulator engine.
    ("sim.engine.op_ns_1cpu", "ns"),
    ("sim.engine.op_ns_2cpu", "ns"),
    ("sim.engine.handoff_ns", "ns"),
    ("sim.engine.handoff_share", "ratio"),
    ("sim.engine.pinned", "bool"),
    // Simulated results: exact for a given seed.
    ("sim.cycles", "cycles"),
    ("sim.ufo_over_hytm", "ratio"),
    ("machine.load_hit_ns", "ns"),
    ("machine.store_hit_ns", "ns"),
    ("machine.btm_txn_ns", "ns"),
    ("machine.accesses", "count"),
    ("machine.l1_misses", "count"),
    ("machine.l1_miss_ratio", "ratio"),
    ("machine.nacks", "count"),
    ("machine.ufo_faults", "count"),
    ("machine.stall_cycles", "cycles"),
    ("machine.nack_stall_cycles", "cycles"),
    ("ustm.sw_commits", "count"),
    ("ustm.sw_aborts", "count"),
    ("ustm.barrier_cycles", "cycles"),
    ("core.runtime_ns_per_access", "ns"),
    ("core.trace_ns_per_event", "ns"),
    ("core.hw_commits", "count"),
    ("core.sw_commits", "count"),
    ("core.failovers", "count"),
    ("core.forced_failovers", "count"),
    ("core.btm_aborts_total", "count"),
    ("core.backoff_cycles", "cycles"),
    ("core.serial_cycles", "cycles"),
    ("core.report_digest", "hash48"),
    ("stamp.bst_lookup_ns", "ns"),
    ("stamp.reads_per_txn", "ratio"),
    ("stamp.writes_per_txn", "ratio"),
    // Span aggregates of the traced windows (native workloads).
    ("trace.txn_ns", "ns"),
    ("trace.read_ns", "ns"),
    ("trace.write_ns", "ns"),
    ("trace.commit_self_ns", "ns"),
    ("bench.trace_overhead", "ratio"),
    ("bench.threads", "count"),
    ("bench.nproc", "count"),
];

/// Per-layer metrics an untraced run measures anyway. It prints them in
/// its table and sidecar (not in its result line), so the A/A mode can
/// hold the exact ones to identity and people see latency beside
/// throughput.
pub const ALSO_UNTRACED: &[&str] = &[
    "native.txn_p50_ns",
    "native.txn_p99_ns",
    "native.txn_samples",
    "sim.cycles",
    "core.report_digest",
];

/// Metrics that repeat exactly for a given seed on any host: a later
/// change may rest a claim on them as counts.
pub const EXACT: &[&str] = &[
    "sim.cycles",
    "sim.ufo_over_hytm",
    "machine.accesses",
    "machine.l1_misses",
    "machine.l1_miss_ratio",
    "machine.nacks",
    "machine.ufo_faults",
    "machine.stall_cycles",
    "machine.nack_stall_cycles",
    "ustm.sw_commits",
    "ustm.sw_aborts",
    "ustm.barrier_cycles",
    "core.hw_commits",
    "core.sw_commits",
    "core.failovers",
    "core.forced_failovers",
    "core.btm_aborts_total",
    "core.backoff_cycles",
    "core.serial_cycles",
    "core.report_digest",
];

/// One run's measured values, keyed by registry name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, Summary>);

impl Metrics {
    /// Records a metric summarised over several windows.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the registry (a typo in this program).
    pub fn set(&mut self, name: &'static str, s: Summary) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric {name} is not in the registry"
        );
        self.0.insert(name, s);
    }

    /// Records a metric measured once.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::single(value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |s| s.value)
    }

    fn summary(&self, name: &str) -> Summary {
        self.0.get(name).copied().unwrap_or(Summary::single(0.0))
    }

    /// The contract's result line: every metric of `registry`, in order.
    pub fn result_line(
        &self,
        registry: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, &(name, unit)) in registry.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = json_num(self.get(name));
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }

    /// The sidecar: the same values with window min/max, sample count,
    /// window spread (IQR / median) and the exact flag.
    pub fn detail_json(&self, registry: &[(&str, &str)], head: &str) -> String {
        let mut out = format!("{{{head}, \"metrics\": {{");
        for (i, &(name, unit)) in registry.iter().enumerate() {
            let s = self.summary(name);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\n  \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"min\": {}, \
                 \"max\": {}, \"n\": {}, \"window_spread\": {}, \"exact\": {}}}",
                json_num(s.value),
                json_num(s.min),
                json_num(s.max),
                s.n,
                json_num(s.spread),
                EXACT.contains(&name),
            )
            .expect("write to String");
        }
        out.push_str("\n}}\n");
        out
    }

    /// A table for people, on stderr.
    pub fn print_table(&self, registry: &[(&str, &str)]) {
        eprintln!(
            "  {:<40} {:>16} {:<7} {:>16} {:>16} {:>4}",
            "metric", "value", "unit", "min", "max", "n"
        );
        for &(name, unit) in registry {
            let s = self.summary(name);
            eprintln!(
                "  {name:<40} {:>16.4} {unit:<7} {:>16.4} {:>16.4} {:>4}",
                s.value, s.min, s.max, s.n
            );
        }
    }
}

/// JSON has no NaN or infinity; a value that is neither finite nor
/// meaningful prints as 0 and the run is marked incorrect by its caller.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
