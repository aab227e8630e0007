//! Explore the hybrid's contention-management policy space (paper §4.4 /
//! Figure 8) on the genome workload.
//!
//! ```sh
//! cargo run --release --example policy_explorer
//! ```

use ufotm::core::{BtmUfoFaultPolicy, HybridPolicy};
use ufotm::machine::{HwCmPolicy, UfoKillPolicy};
use ufotm::prelude::*;
use ufotm::stamp::genome::GenomeParams;
use ufotm::stamp::harness::run_sim;

fn main() {
    let params = GenomeParams {
        segments: 192,
        ..GenomeParams::standard()
    };
    let threads = 4;

    let configs: Vec<(&str, HybridPolicy, HwCmPolicy, UfoKillPolicy)> = vec![
        (
            "paper default: age CM, never fail over on contention",
            HybridPolicy::default(),
            HwCmPolicy::AgeOrdered,
            UfoKillPolicy::AllSpeculativeHolders,
        ),
        (
            "requester-wins hardware CM",
            HybridPolicy::failover_on_nth_conflict(5),
            HwCmPolicy::RequesterWins,
            UfoKillPolicy::AllSpeculativeHolders,
        ),
        (
            "fail over to software on the 3rd conflict abort",
            HybridPolicy::failover_on_nth_conflict(3),
            HwCmPolicy::AgeOrdered,
            UfoKillPolicy::AllSpeculativeHolders,
        ),
        (
            "stall (not abort) on UFO faults",
            HybridPolicy {
                btm_ufo_fault: BtmUfoFaultPolicy::Stall,
                ..HybridPolicy::default()
            },
            HwCmPolicy::AgeOrdered,
            UfoKillPolicy::AllSpeculativeHolders,
        ),
        (
            "limit study: only true-conflict UFO kills",
            HybridPolicy::default(),
            HwCmPolicy::AgeOrdered,
            UfoKillPolicy::TrueConflictsOnly,
        ),
    ];

    println!("genome, {threads} threads, UFO hybrid under different policies\n");
    let mut baseline = None;
    for (name, policy, hw_cm, ufo_kill) in configs {
        let mut spec = RunSpec::new(SystemKind::UfoHybrid, threads);
        spec.policy = policy;
        spec.machine.hw_cm = hw_cm;
        spec.machine.ufo_kill_policy = ufo_kill;
        let out = run_sim(&spec, &params);
        let base = *baseline.get_or_insert(out.makespan);
        println!(
            "{:<52} {:>10} cycles ({:>5.2}x)  hw={:<4} sw={:<4} aborts={}",
            name,
            out.makespan,
            base as f64 / out.makespan as f64,
            out.hw_commits,
            out.sw_commits,
            out.total_aborts()
        );
    }
    println!("\nThe paper's findings (§4.4): hardware CM quality is first-order;");
    println!("failing over on contention is metastable; false UFO-kill");
    println!("conflicts cost little.");
}
