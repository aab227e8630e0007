//! Regenerates Figure 7: microbenchmark speedup as a function of the
//! software-failover rate (7a = full range, 7b = low-rate zoom with the
//! 0 %-rate overheads of §5.3), plus the measured UFO/HyTM crossover.

use ufotm_bench::{fig5_systems, header, print_wrote, quick, run_cells, speedup, Cell, Params};
use ufotm_core::SystemKind;
use ufotm_stamp::harness::{RunOutcome, RunSpec};
use ufotm_stamp::micro::MicroParams;

fn main() {
    header("Figure 7 — speedup vs. software failover rate (microbenchmark)");
    let threads = if quick() { 4 } else { 8 };
    let txns = if quick() { 80 } else { 200 };
    // Starts at 0 %: Figure 7b reads that row.
    let rates: Vec<f64> = if quick() {
        vec![0.0, 0.25, 1.0]
    } else {
        vec![0.0, 0.02, 0.05, 0.10, 0.20, 0.30, 0.45, 0.60, 0.80, 1.00]
    };
    // The legend's first five: the unbounded HTM, the hybrids, USTM+UFO.
    let systems = &fig5_systems()[..5];

    let params_at = |rate: f64| {
        Params::Micro(MicroParams {
            txns_per_thread: txns,
            ..MicroParams::with_rate(rate)
        })
    };
    let seq = RunSpec::new(SystemKind::Sequential, 1);
    let mut cells = vec![Cell::new("micro/sequential/1T/rate-0", seq, params_at(0.0))];
    for &rate in &rates {
        for &k in systems {
            let label = format!("micro/{}/{threads}T/rate-{:.0}", k.label(), rate * 100.0);
            cells.push(Cell::new(label, RunSpec::new(k, threads), params_at(rate)));
        }
    }
    let outcomes = run_cells("fig7_failover", &cells);
    let (seq, sweep) = outcomes.split_first().expect("a sequential run");
    println!(
        "sequential makespan = {} cycles ({txns} txns)",
        seq.makespan
    );
    println!("(speedup is throughput-normalized: threads x seq / makespan,");
    println!(" since each thread runs its own {txns}-txn stream)");
    let speedup_of = |o: &RunOutcome| threads as f64 * speedup(seq.makespan, o.makespan);

    // 7a: full sweep, one row per rate.
    println!();
    print!("{:<8}", "rate%");
    for k in systems {
        print!("{:>14}", k.label());
    }
    println!();
    for (rate, row) in rates.iter().zip(sweep.chunks(systems.len())) {
        print!("{:<8.0}", rate * 100.0);
        for o in row {
            print!("{:>14.2}", speedup_of(o));
        }
        println!();
    }

    // 7b: 0 %-rate overheads relative to the pure HTM (paper §5.3: UFO
    // hybrid ≈ pure HTM; PhTM ~2 % more; HyTM more still).
    println!();
    println!("-- Figure 7b: overhead at 0% failover, relative to pure HTM --");
    let at_zero = &sweep[..systems.len()];
    for out in at_zero {
        let overhead = out.makespan as f64 / at_zero[0].makespan as f64 - 1.0;
        println!(
            "  {:<14} makespan={:>10}  overhead={:>6.1}%",
            out.kind.label(),
            out.makespan,
            overhead * 100.0
        );
    }

    // The UFO/HyTM crossover (paper: UFO hybrid's software transactions pay
    // for UFO-bit maintenance, so HyTM overtakes it at high failover rates —
    // the paper measures ≈45 %).
    let series = |kind: SystemKind| -> Vec<f64> {
        sweep
            .iter()
            .filter(|o| o.kind == kind)
            .map(speedup_of)
            .collect()
    };
    let (ufo, hytm) = (series(SystemKind::UfoHybrid), series(SystemKind::HyTm));
    let crossover = rates
        .iter()
        .zip(ufo.iter().zip(&hytm))
        .find(|(_, (u, h))| h > u)
        .map(|(r, _)| format!("{:.0}%", r * 100.0))
        .unwrap_or_else(|| "none in sweep".to_string());
    println!();
    println!("-- Figure 7: recap --");
    println!(
        "  UFO hybrid degradation 0%→100%: {:.2}x → {:.2}x",
        ufo[0],
        ufo[rates.len() - 1]
    );
    println!("  UFO/HyTM crossover rate (paper: ~45%): {crossover}");
    print_wrote("fig7_failover", outcomes.len());
}
