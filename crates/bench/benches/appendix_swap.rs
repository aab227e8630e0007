//! Regenerates Appendix A's measurement: the cost of preserving UFO bits
//! across paging, including the all-clear fast path.
//!
//! A one-CPU machine streams over more pages than it may keep resident,
//! so pages with live protection get swapped out and back in. We compare
//! against the same stream with no UFO bits anywhere, and report how often
//! the kernel model took the all-clear fast path vs. a real bit
//! save/restore.

use ufotm_bench::{header, print_wrote, quick, run_cells, Cell, Params};
use ufotm_core::SystemKind;
use ufotm_machine::{Addr, Machine, MachineConfig, SwapConfig, UfoBits, PAGE_BYTES};
use ufotm_stamp::harness::RunSpec;
use ufotm_stamp::kmeans::KmeansParams;

/// Pages streamed; a line in every fourth page may carry UFO bits.
const PAGES: u64 = 64;

/// A one-CPU machine with 8 resident pages that streams over all
/// [`PAGES`] twice (constant eviction), first protecting one line in
/// every fourth page if `protect`. Returns it and the stream's cycles.
fn thrash(protect: bool) -> (Machine, u64) {
    let mut cfg = MachineConfig::table4(1);
    cfg.memory_words = 1 << 18; // 512 pages
    let mut m = Machine::new(cfg);
    m.enable_swap(SwapConfig {
        max_resident_pages: 8,
    });
    if protect {
        for p in (0..PAGES).step_by(4) {
            m.set_ufo_bits(0, Addr(p * PAGE_BYTES), UfoBits::FAULT_ON_WRITE)
                .expect("protect");
        }
    }
    let before = m.now(0);
    for p in (0..PAGES).chain(0..PAGES) {
        m.load(0, Addr(p * PAGE_BYTES + 8)).expect("stream load");
    }
    let cycles = m.now(0) - before;
    (m, cycles)
}

fn main() {
    header("Appendix A — UFO bits across paging");

    // Direct machine-level measurement: protect lines, thrash pages, show
    // that protection survives and count fast-path evictions.
    let (mut m, cycles) = thrash(true);
    let s = m.swap_stats();
    println!("streamed {PAGES} pages x2 with 8 resident: {cycles} cycles");
    println!(
        "page-ins={} page-outs={} ufo-saves={} ufo-restores={} all-clear-fast-path={}",
        s.page_ins, s.page_outs, s.ufo_pages_saved, s.ufo_pages_restored, s.all_clear_fast_path
    );
    // Protection must have survived every round trip.
    m.set_ufo_enabled(0, true);
    let survived = (0..PAGES)
        .step_by(4)
        .filter(|p| m.store(0, Addr(p * PAGE_BYTES), 1).is_err())
        .count() as u64;
    println!(
        "protected lines still faulting after thrash: {survived}/{}",
        PAGES.div_ceil(4)
    );
    assert_eq!(survived, PAGES.div_ceil(4));

    // Overhead comparison: the same stream with no protection anywhere
    // (all-clear fast path only).
    let (m2, cycles2) = thrash(false);
    println!();
    println!(
        "same stream, no UFO bits: {cycles2} cycles (fast-path evictions={})",
        m2.swap_stats().all_clear_fast_path
    );
    let overhead = cycles as f64 / cycles2 as f64 - 1.0;
    println!("UFO-bit save/restore overhead under thrashing: {:.2}% (paper: ~8% worst case, negligible normally)", overhead * 100.0);

    // The raw-machine measurements above have no TM run to report; this
    // bench's artifact is the run report of one paging-sized kmeans run.
    let params = KmeansParams {
        points: if quick() { 256 } else { 512 },
        dims: 4,
        clusters: 16,
        iterations: 2,
    };
    let spec = RunSpec::new(SystemKind::UstmStrong, 2);
    let cell = Cell::new("kmeans/ustm-strong/2T", spec, Params::Kmeans(params));
    print_wrote("appendix_swap", run_cells("appendix_swap", &[cell]).len());
}
