//! Extension workload: ssca2-style graph construction across all systems.
//!
//! Not a paper figure — a sanity extension at the low-contention,
//! tiny-transaction end of the spectrum: every system should scale, the
//! hybrids should commit essentially everything in hardware, and the STMs
//! should show their fixed per-barrier overhead and nothing else.

use ufotm_bench::{
    fig5_systems, header, print_speedup_table, quick, speedup, thread_counts, ArtifactWriter,
};
use ufotm_core::SystemKind;
use ufotm_stamp::harness::RunSpec;
use ufotm_stamp::ssca2::{self, Ssca2Params};

fn main() {
    header("Extension — ssca2 graph construction (not a paper figure)");
    let params = Ssca2Params {
        nodes: 256,
        edges: if quick() { 384 } else { 1024 },
    };
    let threads = thread_counts();
    let mut art = ArtifactWriter::new("ssca2_extension");
    let seq = ssca2::run(&RunSpec::new(SystemKind::Sequential, 1), &params);
    art.push("ssca2/sequential/1T", &seq);
    println!(
        "sequential makespan = {} cycles ({} edges)",
        seq.makespan, params.edges
    );
    let mut rows = Vec::new();
    for kind in fig5_systems() {
        let mut speedups = Vec::new();
        for &t in &threads {
            let out = ssca2::run(&RunSpec::new(kind, t), &params);
            speedups.push(speedup(seq.makespan, out.makespan));
            art.push(format!("ssca2/{}/{t}T", kind.label()), &out);
        }
        rows.push((kind, speedups));
    }
    print_speedup_table("ssca2", &threads, &rows);
    art.finish();
    println!();
    println!("Expected shape: everything scales; hybrids ≈ unbounded HTM; the");
    println!("gap to the STMs is their flat per-barrier overhead.");
}
