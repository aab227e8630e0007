//! Regenerates Figure 8: sensitivity of the UFO hybrid to contention-
//! management policy choices, on the high-contention workloads.
//!
//! Bars (as in the paper):
//! 1. requester-wins hardware CM (+ failover after 5 contention aborts,
//!    which such policies need to avoid livelock),
//! 2. age-ordered CM but failing over on the 5th contention abort,
//! 3. as (2) but hardware transactions stall instead of aborting on UFO
//!    faults,
//! 4. limit study: UFO-bit sets only kill true conflicts,
//!
//! all against the paper's recommended baseline (age CM, never fail over
//! on contention, abort-and-retry on UFO faults).

use ufotm_bench::{header, print_wrote, quick, run_cells, slug, speedup, stamp_workload, Cell};
use ufotm_core::{BtmUfoFaultPolicy, HybridPolicy, SystemKind};
use ufotm_machine::{HwCmPolicy, UfoKillPolicy};
use ufotm_stamp::harness::RunSpec;

/// Figure 8's bars, baseline first.
const BARS: [&str; 6] = [
    "baseline (age CM, no contention failover)",
    "1: requester-wins HW CM (+failover@5)",
    "2: failover on 5th contention abort",
    "3: (2) + stall on UFO faults",
    "4: limit study, true-conflict UFO kills only",
    "5: owner-state UFO sets (the paper's proposed fix)",
];

/// The UFO hybrid's spec at `threads` for each of [`BARS`].
fn bar_specs(threads: usize) -> [RunSpec; 6] {
    use HwCmPolicy::{AgeOrdered as Age, RequesterWins};
    use UfoKillPolicy::{AllSpeculativeHolders as All, TrueConflictsOnly};
    let bar = |policy, hw_cm, ufo_kill, owner_state_sets| {
        let mut spec = RunSpec::new(SystemKind::UfoHybrid, threads);
        spec.policy = policy;
        spec.machine.hw_cm = hw_cm;
        spec.machine.ufo_kill_policy = ufo_kill;
        spec.machine.ufo_owner_state_sets = owner_state_sets;
        spec
    };
    let paper = HybridPolicy::default();
    let on5 = HybridPolicy::failover_on_nth_conflict(5);
    let mut stall = on5;
    stall.btm_ufo_fault = BtmUfoFaultPolicy::Stall;
    [
        bar(paper, Age, All, false),
        bar(on5, RequesterWins, All, false),
        bar(on5, Age, All, false),
        bar(stall, Age, All, false),
        bar(paper, Age, TrueConflictsOnly, false),
        bar(paper, Age, All, true),
    ]
}

fn main() {
    header("Figure 8 — contention-management sensitivity (UFO hybrid)");
    let threads = if quick() { 4 } else { 8 };
    let workloads = ["genome", "kmeans high contention"];
    let mut cells = Vec::new();
    for name in workloads {
        for (i, spec) in bar_specs(threads).into_iter().enumerate() {
            let label = format!("{}/config-{i}/{threads}T", slug(name));
            cells.push(Cell::new(label, spec, stamp_workload(name)));
        }
    }
    let outcomes = run_cells("fig8_sensitivity", &cells);
    for (name, outs) in workloads.iter().zip(outcomes.chunks(BARS.len())) {
        println!();
        println!("[{name}]");
        for (bar, out) in BARS.iter().zip(outs) {
            println!(
                "  {:<46} makespan={:>12}  rel. perf={:>6.2}x  sw={:>5} aborts={:>6}",
                bar,
                out.makespan,
                speedup(outs[0].makespan, out.makespan),
                out.sw_commits,
                out.total_aborts()
            );
        }
    }
    print_wrote("fig8_sensitivity", outcomes.len());
}
