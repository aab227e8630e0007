//! Regenerates Figure 5: speedup over sequential execution for every TM
//! system on the five STAMP configurations, across thread counts.

use ufotm_bench::{
    header, one_line, print_speedup_table, print_wrote, run_cells, slug, speedup_cells,
    stamp_workloads, Cell,
};

fn main() {
    header("Figure 5 — speedup relative to sequential execution");
    let workloads = stamp_workloads();
    let cells: Vec<Cell> = workloads
        .iter()
        .flat_map(|&(name, params)| speedup_cells(&slug(name), params))
        .collect();
    let outcomes = run_cells("fig5_speedup", &cells);
    let per_workload = outcomes.len() / workloads.len();
    for ((name, _), outs) in workloads.iter().zip(outcomes.chunks(per_workload)) {
        println!();
        println!("[{name}] sequential makespan = {} cycles", outs[0].makespan);
        print_speedup_table(name, outs);
        println!();
        println!("  details:");
        for o in &outs[1..] {
            println!("    {}", one_line(o));
        }
    }
    print_wrote("fig5_speedup", outcomes.len());
}
