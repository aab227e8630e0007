//! Regenerates Figure 6: why hardware transactions aborted, for each hybrid
//! (and the unbounded HTM for reference) on each workload.

use ufotm_bench::{header, print_abort_breakdown, quick, slug, ArtifactWriter};
use ufotm_core::SystemKind;
use ufotm_stamp::harness::{RunOutcome, RunSpec};
use ufotm_stamp::{genome, kmeans, vacation};

fn main() {
    header("Figure 6 — reasons hardware transactions aborted");
    let threads = if quick() { 4 } else { 8 };
    let scale = |n: usize| if quick() { n / 3 } else { n };
    let systems = [
        SystemKind::UnboundedHtm,
        SystemKind::UfoHybrid,
        SystemKind::HyTm,
        SystemKind::PhTm,
    ];
    let mut art = ArtifactWriter::new("fig6_aborts");

    let run_all = |art: &mut ArtifactWriter, name: &str, f: &dyn Fn(&RunSpec) -> RunOutcome| {
        let outs: Vec<RunOutcome> = systems
            .iter()
            .map(|&k| {
                // Trace the run so the report's latency/retry histograms
                // are populated (host-side only; simulated cycles are
                // unchanged).
                let mut s = RunSpec::new(k, threads);
                s.trace_cap = 1 << 18;
                let out = f(&s);
                out.report.assert_audit_clean();
                art.push(format!("{}/{}/{threads}T", slug(name), k.label()), &out);
                out
            })
            .collect();
        let refs: Vec<&RunOutcome> = outs.iter().collect();
        print_abort_breakdown(name, &refs);
    };

    let km_high = kmeans::KmeansParams {
        points: scale(768),
        ..kmeans::KmeansParams::high_contention()
    };
    run_all(&mut art, "kmeans high contention", &|s| {
        kmeans::run(s, &km_high)
    });
    let km_low = kmeans::KmeansParams {
        points: scale(768),
        ..kmeans::KmeansParams::low_contention()
    };
    run_all(&mut art, "kmeans low contention", &|s| {
        kmeans::run(s, &km_low)
    });
    let vac_high = vacation::VacationParams {
        total_tasks: scale(96),
        ..vacation::VacationParams::high_contention()
    };
    run_all(&mut art, "vacation high contention", &|s| {
        vacation::run(s, &vac_high)
    });
    let vac_low = vacation::VacationParams {
        total_tasks: scale(96),
        ..vacation::VacationParams::low_contention()
    };
    run_all(&mut art, "vacation low contention", &|s| {
        vacation::run(s, &vac_low)
    });
    let gen = genome::GenomeParams {
        segments: scale(384),
        ..genome::GenomeParams::standard()
    };
    run_all(&mut art, "genome", &|s| genome::run(s, &gen));
    art.finish();
}
