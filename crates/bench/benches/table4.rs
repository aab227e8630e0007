//! Regenerates Table 4: the simulated-system parameters.

use ufotm_bench::{header, print_wrote, run_cells};
use ufotm_machine::{cost, CacheGeometry, MachineConfig, L2};

fn main() {
    header("Table 4 — simulation parameters (modelled equivalents)");
    let cfg = MachineConfig::table4(16);
    let geometry = |g: CacheGeometry| {
        let kib = g.capacity_bytes() / 1024;
        format!("{} sets x {} ways x 64 B = {kib} KiB", g.sets(), g.ways())
    };
    let system = [
        ("CPUs (max modelled)", "64".to_string()),
        ("L1 data cache", geometry(cfg.l1)),
        ("L2 unified cache", geometry(L2)),
        ("cache line size", "64 B".to_string()),
        (
            "physical memory",
            format!("{} MiB", cfg.memory_words * 8 / (1 << 20)),
        ),
        (
            "coherence protocol",
            "directory (MESI-like, owner+sharers)".to_string(),
        ),
        (
            "USTM otable size",
            "16384 bins x 16 B (standard layout)".to_string(),
        ),
    ];
    for (name, value) in system {
        println!("{name:<34} {value}");
    }
    println!();
    println!("latencies (cycles):");
    let latencies = [
        ("L1 hit", cost::L1_HIT.to_string()),
        ("L2 hit (fill)", cost::L2_HIT.to_string()),
        ("memory (fill)", cost::MEM.to_string()),
        ("cache-to-cache transfer", cost::CACHE_TO_CACHE.to_string()),
        ("dirty writeback", cost::WRITEBACK.to_string()),
        ("nack retry (paper: 20)", cost::NACK_RETRY.to_string()),
        ("btm_begin / btm_end", cost::BTM_BEGIN.to_string()),
        ("btm abort handling", cost::BTM_ABORT.to_string()),
        ("UFO bit instruction", cost::UFO_OP.to_string()),
        ("fault dispatch", cost::FAULT_DISPATCH.to_string()),
        (
            "timer interrupt service",
            cost::INTERRUPT_SERVICE.to_string(),
        ),
        ("timer quantum (cycles)", format!("{:?}", cfg.timer_quantum)),
        (
            "page in / page out",
            format!("{} / {}", cost::PAGE_IN, cost::PAGE_OUT),
        ),
    ];
    for (name, value) in latencies {
        println!("  {name:<32} {value}");
    }
    // This target prints static parameters — the artifact exists (empty)
    // so every bench uniformly emits BENCH_<name>.json.
    print_wrote("table4", run_cells("table4", &[]).len());
}
