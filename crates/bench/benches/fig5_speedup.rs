//! Regenerates Figure 5: speedup over sequential execution for every TM
//! system on the five STAMP configurations, across thread counts.

use ufotm_bench::{
    fig5_systems, header, one_line, print_speedup_table, quick, slug, speedup, thread_counts,
    ArtifactWriter,
};
use ufotm_core::SystemKind;
use ufotm_stamp::harness::{RunOutcome, RunSpec};
use ufotm_stamp::{genome, kmeans, vacation};

type Runner = Box<dyn Fn(&RunSpec) -> RunOutcome>;

fn workloads() -> Vec<(&'static str, Runner)> {
    let scale = |n: usize| if quick() { n / 3 } else { n };
    let km_high = kmeans::KmeansParams {
        points: scale(768),
        ..kmeans::KmeansParams::high_contention()
    };
    let km_low = kmeans::KmeansParams {
        points: scale(768),
        ..kmeans::KmeansParams::low_contention()
    };
    let vac_high = vacation::VacationParams {
        total_tasks: scale(96),
        ..vacation::VacationParams::high_contention()
    };
    let vac_low = vacation::VacationParams {
        total_tasks: scale(96),
        ..vacation::VacationParams::low_contention()
    };
    let gen = genome::GenomeParams {
        segments: scale(384),
        ..genome::GenomeParams::standard()
    };
    vec![
        (
            "kmeans high contention",
            Box::new(move |s: &RunSpec| kmeans::run(s, &km_high)) as Runner,
        ),
        (
            "kmeans low contention",
            Box::new(move |s: &RunSpec| kmeans::run(s, &km_low)),
        ),
        (
            "vacation high contention",
            Box::new(move |s: &RunSpec| vacation::run(s, &vac_high)),
        ),
        (
            "vacation low contention",
            Box::new(move |s: &RunSpec| vacation::run(s, &vac_low)),
        ),
        ("genome", Box::new(move |s: &RunSpec| genome::run(s, &gen))),
    ]
}

fn main() {
    header("Figure 5 — speedup relative to sequential execution");
    let threads = thread_counts();
    let mut art = ArtifactWriter::new("fig5_speedup");
    for (name, run) in workloads() {
        let seq = run(&RunSpec::new(SystemKind::Sequential, 1));
        art.push(format!("{}/sequential/1T", slug(name)), &seq);
        println!();
        println!("[{name}] sequential makespan = {} cycles", seq.makespan);
        let mut rows = Vec::new();
        let mut details = Vec::new();
        for kind in fig5_systems() {
            let mut speedups = Vec::new();
            for &t in &threads {
                let out = run(&RunSpec::new(kind, t));
                speedups.push(speedup(seq.makespan, out.makespan));
                details.push(one_line(&out));
                art.push(format!("{}/{}/{t}T", slug(name), kind.label()), &out);
            }
            rows.push((kind, speedups));
        }
        print_speedup_table(name, &threads, &rows);
        println!();
        println!("  details:");
        for d in details {
            println!("    {d}");
        }
    }
    art.finish();
}
