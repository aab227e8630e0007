//! Regenerates Table 4: the simulated-system parameters.

use ufotm_bench::{header, ArtifactWriter};
use ufotm_machine::{cost, MachineConfig, L2};

fn main() {
    header("Table 4 — simulation parameters (modelled equivalents)");
    let cfg = MachineConfig::table4(16);
    println!("{:<34} {}", "CPUs (max modelled)", 64);
    println!(
        "{:<34} {} sets x {} ways x 64 B = {} KiB",
        "L1 data cache",
        cfg.l1.sets(),
        cfg.l1.ways(),
        cfg.l1.capacity_bytes() / 1024
    );
    println!(
        "{:<34} {} sets x {} ways x 64 B = {} KiB",
        "L2 unified cache",
        L2.sets(),
        L2.ways(),
        L2.capacity_bytes() / 1024
    );
    println!("{:<34} {} B", "cache line size", 64);
    println!(
        "{:<34} {} MiB",
        "physical memory",
        cfg.memory_words * 8 / (1 << 20)
    );
    println!(
        "{:<34} directory (MESI-like, owner+sharers)",
        "coherence protocol"
    );
    println!(
        "{:<34} 16384 bins x 16 B (standard layout)",
        "USTM otable size"
    );
    println!();
    println!("latencies (cycles):");
    println!("  {:<32} {}", "L1 hit", cost::L1_HIT);
    println!("  {:<32} {}", "L2 hit (fill)", cost::L2_HIT);
    println!("  {:<32} {}", "memory (fill)", cost::MEM);
    println!(
        "  {:<32} {}",
        "cache-to-cache transfer",
        cost::CACHE_TO_CACHE
    );
    println!("  {:<32} {}", "dirty writeback", cost::WRITEBACK);
    println!("  {:<32} {}", "nack retry (paper: 20)", cost::NACK_RETRY);
    println!("  {:<32} {}", "btm_begin / btm_end", cost::BTM_BEGIN);
    println!("  {:<32} {}", "btm abort handling", cost::BTM_ABORT);
    println!("  {:<32} {}", "UFO bit instruction", cost::UFO_OP);
    println!("  {:<32} {}", "fault dispatch", cost::FAULT_DISPATCH);
    println!(
        "  {:<32} {}",
        "timer interrupt service",
        cost::INTERRUPT_SERVICE
    );
    println!("  {:<32} {:?}", "timer quantum (cycles)", cfg.timer_quantum);
    println!(
        "  {:<32} {} / {}",
        "page in / page out",
        cost::PAGE_IN,
        cost::PAGE_OUT
    );
    // This target prints static parameters — the artifact exists (empty)
    // so every bench uniformly emits BENCH_<name>.json.
    ArtifactWriter::new("table4").finish();
}
