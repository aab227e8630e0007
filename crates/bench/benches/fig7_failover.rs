//! Regenerates Figure 7: microbenchmark speedup as a function of the
//! software-failover rate (7a = full range, 7b = low-rate zoom with the
//! 0 %-rate overheads of §5.3), plus the measured UFO/HyTM crossover.

use ufotm_bench::{header, quick, speedup, ArtifactWriter, Recap};
use ufotm_core::SystemKind;
use ufotm_stamp::harness::RunSpec;
use ufotm_stamp::micro::{self, MicroParams};

fn main() {
    header("Figure 7 — speedup vs. software failover rate (microbenchmark)");
    let threads = if quick() { 4 } else { 8 };
    let txns = if quick() { 80 } else { 200 };
    let rates: Vec<f64> = if quick() {
        vec![0.0, 0.25, 1.0]
    } else {
        vec![0.0, 0.02, 0.05, 0.10, 0.20, 0.30, 0.45, 0.60, 0.80, 1.00]
    };
    let systems = [
        SystemKind::UnboundedHtm,
        SystemKind::UfoHybrid,
        SystemKind::HyTm,
        SystemKind::PhTm,
        SystemKind::UstmStrong,
    ];

    let mut art = ArtifactWriter::new("fig7_failover");
    let params_at = |rate: f64| MicroParams {
        txns_per_thread: txns,
        ..MicroParams::with_rate(rate)
    };
    let seq = micro::run(&RunSpec::new(SystemKind::Sequential, 1), &params_at(0.0));
    art.push("micro/sequential/1T/rate-0", &seq);
    println!(
        "sequential makespan = {} cycles ({} txns)",
        seq.makespan, txns
    );
    println!("(speedup is throughput-normalized: threads x seq / makespan,");
    println!(" since each thread runs its own {txns}-txn stream)");

    // 7a: full sweep.
    println!();
    print!("{:<8}", "rate%");
    for k in systems {
        print!("{:>14}", k.label());
    }
    println!();
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];
    for &rate in &rates {
        print!("{:<8.0}", rate * 100.0);
        for (i, &k) in systems.iter().enumerate() {
            let out = micro::run(&RunSpec::new(k, threads), &params_at(rate));
            art.push(
                format!("micro/{}/{threads}T/rate-{:.0}", k.label(), rate * 100.0),
                &out,
            );
            let s = threads as f64 * speedup(seq.makespan, out.makespan);
            series[i].push(s);
            print!("{s:>14.2}");
        }
        println!();
    }

    // 7b: 0 %-rate overheads relative to the pure HTM (paper §5.3: UFO
    // hybrid ≈ pure HTM; PhTM ~2 % more; HyTM more still).
    println!();
    println!("-- Figure 7b: overhead at 0% failover, relative to pure HTM --");
    let base = micro::run(
        &RunSpec::new(SystemKind::UnboundedHtm, threads),
        &params_at(0.0),
    );
    for &k in &systems {
        let out = micro::run(&RunSpec::new(k, threads), &params_at(0.0));
        let overhead = out.makespan as f64 / base.makespan as f64 - 1.0;
        println!(
            "  {:<14} makespan={:>10}  overhead={:>6.1}%",
            k.label(),
            out.makespan,
            overhead * 100.0
        );
    }

    // The UFO/HyTM crossover (paper: UFO hybrid's software transactions pay
    // for UFO-bit maintenance, so HyTM overtakes it at high failover rates —
    // the paper measures ≈45 %).
    let mut recap = Recap::new();
    let ufo_idx = systems
        .iter()
        .position(|&k| k == SystemKind::UfoHybrid)
        .unwrap();
    let hytm_idx = systems.iter().position(|&k| k == SystemKind::HyTm).unwrap();
    let crossover = rates
        .iter()
        .zip(series[ufo_idx].iter().zip(series[hytm_idx].iter()))
        .find(|(_, (u, h))| h > u)
        .map(|(r, _)| format!("{:.0}%", r * 100.0))
        .unwrap_or_else(|| "none in sweep".to_string());
    recap.note("UFO/HyTM crossover rate (paper: ~45%)", crossover);
    recap.note(
        "UFO hybrid degradation 0%→100%",
        format!(
            "{:.2}x → {:.2}x",
            series[ufo_idx][0],
            series[ufo_idx][rates.len() - 1]
        ),
    );
    recap.print("Figure 7");
    art.finish();
}
