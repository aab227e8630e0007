//! Regenerates Figure 6: why hardware transactions aborted, for each hybrid
//! (and the unbounded HTM for reference) on each workload.

use ufotm_bench::{
    fig5_systems, header, print_abort_breakdown, print_wrote, quick, run_cells, slug,
    stamp_workloads, Cell,
};
use ufotm_stamp::harness::RunSpec;

fn main() {
    header("Figure 6 — reasons hardware transactions aborted");
    let threads = if quick() { 4 } else { 8 };
    // The legend's first four: the unbounded HTM and the three hybrids.
    let systems = &fig5_systems()[..4];
    let workloads = stamp_workloads();
    let mut cells = Vec::new();
    for &(name, params) in &workloads {
        for &kind in systems {
            // Trace the run so the report's latency/retry histograms are
            // populated and the trace auditor checks it (host-side only;
            // simulated cycles are unchanged).
            let mut spec = RunSpec::new(kind, threads);
            spec.trace_cap = 1 << 18;
            let label = format!("{}/{}/{threads}T", slug(name), kind.label());
            cells.push(Cell::new(label, spec, params));
        }
    }
    let outcomes = run_cells("fig6_aborts", &cells);
    for ((name, _), outs) in workloads.iter().zip(outcomes.chunks(systems.len())) {
        print_abort_breakdown(name, outs);
    }
    print_wrote("fig6_aborts", outcomes.len());
}
