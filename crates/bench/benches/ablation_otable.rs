//! Ablation: ownership-table size vs. aliasing effects.
//!
//! The paper notes that "realistic implementations generally have at least
//! tens of thousands of entries to minimize aliasing" (§4.1) and that
//! HyTM's false conflicts arise when "unrelated STM accesses alias the same
//! otable rows previously read by HTM transactions" (§5). A small table
//! makes both effects visible: USTM transactions conflict on aliased bins
//! (stall polls rise), and HyTM hardware transactions abort more on bins
//! they read transactionally.

use ufotm_bench::{header, quick, ArtifactWriter};
use ufotm_core::SystemKind;
use ufotm_machine::AbortReason;
use ufotm_stamp::harness::RunSpec;
use ufotm_stamp::vacation::{self, VacationParams};

fn run_with_bins(
    kind: SystemKind,
    threads: usize,
    params: &VacationParams,
    bins: u64,
) -> ufotm_stamp::RunOutcome {
    let mut spec = RunSpec::new(kind, threads);
    // The standard layout's 16384 bins, overridden per sweep point.
    spec.otable_bins_override = Some(bins);
    vacation::run(&spec, params)
}

fn main() {
    header("Ablation — otable size vs. aliasing (vacation, high contention)");
    let threads = if quick() { 2 } else { 4 };
    let mut params = VacationParams::high_contention();
    if quick() {
        params.total_tasks /= 3;
    }
    println!();
    println!(
        "{:<12} {:>14} {:>16} {:>14} {:>16}",
        "otable bins", "chain walks", "USTM makespan", "HyTM bin-kills", "HyTM makespan"
    );
    let mut art = ArtifactWriter::new("ablation_otable");
    for bins in [256u64, 1024, 16 * 1024] {
        let ustm = run_with_bins(SystemKind::UstmStrong, threads, &params, bins);
        let hytm = run_with_bins(SystemKind::HyTm, threads, &params, bins);
        art.push(format!("vacation-high/ustm-strong/bins-{bins}"), &ustm);
        art.push(format!("vacation-high/hytm/bins-{bins}"), &hytm);
        println!(
            "{:<12} {:>14} {:>16} {:>14} {:>16}",
            bins,
            ustm.ustm.chain_walks,
            ustm.makespan,
            hytm.aborts_for(AbortReason::Explicit) + hytm.aborts_for(AbortReason::NonTConflict),
            hytm.makespan,
        );
    }
    println!();
    println!("Expected shape: chain walks (aliasing) shrink as the table grows");
    println!("toward the paper's 'tens of thousands of entries'. The measured");
    println!("makespans also expose the tradeoff this model makes explicit: a");
    println!("larger bin array has a larger cache footprint, so barrier traffic");
    println!("misses more — table sizing balances aliasing against locality.");
    art.finish();
}
