//! Ablation: ownership-table size vs. aliasing effects.
//!
//! The paper notes that "realistic implementations generally have at least
//! tens of thousands of entries to minimize aliasing" (§4.1) and that
//! HyTM's false conflicts arise when "unrelated STM accesses alias the same
//! otable rows previously read by HTM transactions" (§5). A small table
//! makes both effects visible: USTM transactions conflict on aliased bins
//! (stall polls rise), and HyTM hardware transactions abort more on bins
//! they read transactionally.

use ufotm_bench::{header, print_wrote, quick, run_cells, stamp_workload, Cell};
use ufotm_core::SystemKind;
use ufotm_machine::AbortReason;
use ufotm_stamp::harness::RunSpec;

fn main() {
    header("Ablation — otable size vs. aliasing (vacation, high contention)");
    let threads = if quick() { 2 } else { 4 };
    let params = stamp_workload("vacation high contention");
    // The standard layout's 16384 bins is the last sweep point.
    let sizes = [256u64, 1024, 16 * 1024];
    let mut cells = Vec::new();
    for bins in sizes {
        for (kind, system) in [
            (SystemKind::UstmStrong, "ustm-strong"),
            (SystemKind::HyTm, "hytm"),
        ] {
            let mut spec = RunSpec::new(kind, threads);
            spec.otable_bins_override = Some(bins);
            let label = format!("vacation-high/{system}/bins-{bins}");
            cells.push(Cell::new(label, spec, params));
        }
    }
    let outcomes = run_cells("ablation_otable", &cells);

    println!();
    println!(
        "{:<12} {:>14} {:>16} {:>14} {:>16}",
        "otable bins", "chain walks", "USTM makespan", "HyTM bin-kills", "HyTM makespan"
    );
    for (bins, pair) in sizes.iter().zip(outcomes.chunks(2)) {
        let (ustm, hytm) = (&pair[0], &pair[1]);
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
    print_wrote("ablation_otable", outcomes.len());
}
