//! A vacation-style reservation system: long, pointer-chasing transactions
//! over search trees, run on the paper's hybrid and its competitors.
//!
//! Shows the paper's central claim end-to-end: the UFO hybrid runs what it
//! can in hardware at full speed and fails over only the transactions that
//! genuinely need software (cache overflows, allocator syscalls), while
//! PhTM drags concurrent hardware work into its software phases.
//!
//! ```sh
//! cargo run --example reservation_system
//! ```

use ufotm::prelude::*;
use ufotm::stamp::harness::run_sim;
use ufotm::stamp::vacation::VacationParams;

fn main() {
    let params = VacationParams::low_contention();
    let threads = 4;
    println!(
        "vacation: {} relations/table, {} queries/txn, {} total tasks, {threads} threads\n",
        params.relations, params.queries, params.total_tasks
    );

    let seq = run_sim(&RunSpec::new(SystemKind::Sequential, 1), &params);
    println!("sequential: {} cycles\n", seq.makespan);

    println!(
        "{:<14} {:>9} {:>7} {:>7} {:>10} {:>10} {:>9}",
        "system", "speedup", "hw", "sw", "overflows", "syscalls", "aborts"
    );
    for kind in [
        SystemKind::UnboundedHtm,
        SystemKind::UfoHybrid,
        SystemKind::HyTm,
        SystemKind::PhTm,
        SystemKind::UstmStrong,
        SystemKind::GlobalLock,
    ] {
        let out = run_sim(&RunSpec::new(kind, threads), &params);
        println!(
            "{:<14} {:>8.2}x {:>7} {:>7} {:>10} {:>10} {:>9}",
            kind.label(),
            seq.makespan as f64 / out.makespan as f64,
            out.hw_commits,
            out.sw_commits,
            out.aborts_for(AbortReason::Overflow),
            out.aborts_for(AbortReason::Syscall),
            out.total_aborts(),
        );
    }
    println!("\nEvery run is verified: reservations in the tables exactly match");
    println!("the sums credited to customer records.");
}
