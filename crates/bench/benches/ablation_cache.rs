//! Ablation: transactional-cache capacity vs. hybrid performance.
//!
//! The paper (§5.2) notes that vacation-low's hybrid/unbounded gap is
//! "largely due to the set overflows; when the transactional cache is made
//! sufficiently large to hold all of vacation low contention's
//! transactions, the hybrids perform (relative to the unbounded HTM) almost
//! exactly as they do for vacation high contention." This bench sweeps the
//! L1 size and shows overflow failovers vanishing and the UFO hybrid
//! closing on the unbounded HTM.

use ufotm_bench::{header, print_wrote, quick, run_cells, speedup, stamp_workload, Cell};
use ufotm_core::SystemKind;
use ufotm_machine::{AbortReason, CacheGeometry};
use ufotm_stamp::harness::RunSpec;

fn main() {
    header("Ablation — L1 capacity vs. vacation-low hybrid performance");
    let threads = if quick() { 2 } else { 4 };
    let params = stamp_workload("vacation low contention");
    let l1s = [
        ("8 KiB (32 sets x 4)", CacheGeometry::new(32, 4)),
        ("32 KiB (128 sets x 4, paper)", CacheGeometry::new(128, 4)),
        ("128 KiB (512 sets x 4)", CacheGeometry::new(512, 4)),
        ("512 KiB (1024 sets x 8)", CacheGeometry::new(1024, 8)),
    ];
    let mut cells = Vec::new();
    for (_, geo) in l1s {
        let kib = geo.capacity_bytes() / 1024;
        for (kind, system) in [
            (SystemKind::UnboundedHtm, "unbounded-htm"),
            (SystemKind::UfoHybrid, "ufo-hybrid"),
        ] {
            let mut spec = RunSpec::new(kind, threads);
            spec.machine.l1 = geo;
            let label = format!("vacation-low/{system}/l1-{kib}KiB");
            cells.push(Cell::new(label, spec, params));
        }
    }
    let outcomes = run_cells("ablation_cache", &cells);

    println!();
    println!(
        "{:<30} {:>14} {:>14} {:>10} {:>10}",
        "L1 size", "unbounded(cyc)", "ufo-hyb(cyc)", "rel.perf", "overflows"
    );
    for ((name, _), pair) in l1s.iter().zip(outcomes.chunks(2)) {
        let (unbounded, hybrid) = (&pair[0], &pair[1]);
        println!(
            "{:<30} {:>14} {:>14} {:>9.2}x {:>10}",
            name,
            unbounded.makespan,
            hybrid.makespan,
            speedup(unbounded.makespan, hybrid.makespan),
            hybrid.aborts_for(AbortReason::Overflow),
        );
    }
    println!();
    println!("Expected shape: overflows collapse as the cache grows, and the");
    println!("UFO hybrid converges on the unbounded HTM (rel.perf → ~1.0).");
    print_wrote("ablation_cache", outcomes.len());
}
