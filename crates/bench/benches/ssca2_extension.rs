//! Extension workload: ssca2-style graph construction across all systems.
//!
//! Not a paper figure — a sanity extension at the low-contention,
//! tiny-transaction end of the spectrum: every system should scale, the
//! hybrids should commit essentially everything in hardware, and the STMs
//! should show their fixed per-barrier overhead and nothing else.

use ufotm_bench::{
    header, print_speedup_table, print_wrote, quick, run_cells, speedup_cells, Params,
};
use ufotm_stamp::ssca2::Ssca2Params;

fn main() {
    header("Extension — ssca2 graph construction (not a paper figure)");
    let params = Ssca2Params {
        nodes: 256,
        edges: if quick() { 384 } else { 1024 },
    };
    let outcomes = run_cells(
        "ssca2_extension",
        &speedup_cells("ssca2", Params::Ssca2(params)),
    );
    println!(
        "sequential makespan = {} cycles ({} edges)",
        outcomes[0].makespan, params.edges
    );
    print_speedup_table("ssca2", &outcomes);
    print_wrote("ssca2_extension", outcomes.len());
    println!();
    println!("Expected shape: everything scales; hybrids ≈ unbounded HTM; the");
    println!("gap to the STMs is their flat per-barrier overhead.");
}
