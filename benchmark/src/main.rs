//! The repo benchmark: one workload per process.
//!
//! `ufotm-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! An untraced run prints the end-to-end metrics, a traced run the
//! per-layer metrics; either ends with one JSON result line on stdout
//! and writes the same values with min/max/count to `DIR`. A traced run
//! also writes its spans there. `run.py` builds this program, pins the
//! simulator workloads to one core, and adds the all-workloads and A/A
//! modes; README.md says what every metric means.

mod metrics;
mod native;
mod placement;
mod probes;
mod ref_tl2;
mod sim;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ufotm_core::SystemKind;

use metrics::{Metrics, ALSO_UNTRACED, END_TO_END, PER_LAYER};
use native::{drive, Phase, PhaseKind, Workload};
use sim::SimWorkload;
use stats::{median, Summary};
use trace::{Op, Tracer};
use workloads::{Failover, Reserve, Spread};

/// World set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: ufotm-benchmark --workload \
    native_spread|native_failover|native_reserve|sim_micro|sim_vacation \
    --seed N --seconds S --trace 0|1 [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("within 0..=60"));
                }
            }
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0,
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn peak_rss_mb() -> f64 {
    placement::proc_status("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether this process may run on exactly one CPU (`run.py` starts the
/// simulator workloads that way).
fn pinned_to_one_cpu() -> bool {
    placement::allowed_cpus().len() == 1
}

/// What one run produced, ready to print.
struct Report {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    tracers: Vec<Tracer>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let report = match args.workload.as_str() {
        "native_spread" => run_native(&Spread, &args, nproc),
        "native_failover" => {
            if !ufotm_native::guard::available() {
                eprintln!(
                    "native_failover measures the mprotect guard, which is compiled out or \
                     disabled by UFOTM_SKIP_GUARD here: its numbers would not be comparable"
                );
                return ExitCode::from(3);
            }
            run_native(&Failover, &args, nproc)
        }
        "native_reserve" => run_native(&Reserve, &args, nproc),
        "sim_micro" => run_sim(SimWorkload::Micro, &args, nproc),
        "sim_vacation" => run_sim(SimWorkload::Vacation, &args, nproc),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    emit(&args, report)
}

fn emit(args: &Args, mut report: Report) -> ExitCode {
    let (registry, mode) = if args.trace {
        (PER_LAYER, "traced")
    } else {
        (END_TO_END, "untraced")
    };
    // What the table and the sidecar show: an untraced run adds the few
    // per-layer metrics it measures anyway.
    let mut shown = registry.to_vec();
    if !args.trace {
        shown.extend(PER_LAYER.iter().filter(|(n, _)| ALSO_UNTRACED.contains(n)));
    }
    let m = &report.metrics;
    // An end-to-end metric that reads 0 was not measured.
    if !args.trace {
        for &(name, _) in END_TO_END {
            if m.get(name) <= 0.0 {
                report.problems.push(format!("{name} was not measured"));
            }
        }
    }
    for p in &report.problems {
        eprintln!("FAILED: {p}");
    }
    let correct = report.failed == 0 && report.problems.is_empty();
    eprintln!(
        "{} seed {} {mode}: {} attempted, {} failed",
        args.workload, args.seed, report.attempted, report.failed
    );
    m.print_table(&shown);

    let head = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"mode\": \"{mode}\", \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}",
        args.workload, args.seed, args.seconds, report.attempted, report.failed
    );
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        std::fs::write(
            args.out
                .join(format!("result-{}-{mode}.json", args.workload)),
            m.detail_json(&shown, &head),
        )?;
        if args.trace {
            std::fs::write(
                args.out.join(format!("trace-{}.json", args.workload)),
                trace::spans_json(&args.workload, args.seed, &report.tracers),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("cannot write to {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        m.result_line(registry, correct, report.attempted.max(1), report.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Phase lengths for `--seconds S`: 2 s windows when S allows, never
/// fewer than one window.
struct Plan {
    window: Duration,
    windows: usize,
    probe: Duration,
}

impl Plan {
    fn new(seconds: f64) -> Self {
        let window = (seconds / 5.0).clamp(0.2, 2.0);
        Plan {
            window: Duration::from_secs_f64(window),
            windows: ((seconds / window) as usize).max(1),
            probe: Duration::from_secs_f64((seconds / 40.0).clamp(0.02, 0.3)),
        }
    }

    fn phase(&self, kind: PhaseKind) -> Phase {
        Phase {
            kind,
            dur: self.window,
        }
    }
}

fn run_native<W: Workload>(w: &W, args: &Args, nproc: usize) -> Report {
    let plan = Plan::new(args.seconds);
    let threads = w.workers(nproc);
    if nproc < 2 {
        eprintln!("UNRESOLVED: one usable core, so the two-thread native metrics are not measured");
    }
    let guarded = ufotm_native::guard::available();
    if !guarded {
        eprintln!("UNRESOLVED: the mprotect guard is off, so native.guard.* is not measured");
    }

    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..SETUP_REPS {
        drop(world.take());
        let t = Instant::now();
        world = Some(w.build(threads));
        setups.push(t.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one set-up");

    let mut phases = vec![plan.phase(PhaseKind::Warmup)];
    if args.trace {
        // One untraced window for the overhead's base, then traced ones
        // for about half of the run; the probes take the rest.
        phases.push(plan.phase(PhaseKind::Untraced));
        phases.extend(std::iter::repeat_n(
            plan.phase(PhaseKind::Traced),
            (plan.windows / 2).saturating_sub(1).max(2),
        ));
    } else {
        phases.extend(std::iter::repeat_n(
            plan.phase(PhaseKind::Untraced),
            plan.windows,
        ));
    }
    let d = drive(w, &world, threads, &phases, args.seed);
    if threads >= 2 && !d.pinned {
        eprintln!(
            "UNRESOLVED: the workers could not be pinned to a core each (no taskset?), so \
             two-thread throughput depends on where the scheduler put them"
        );
    }

    let of = |kind: PhaseKind, f: fn(&native::Window) -> f64| -> Vec<f64> {
        d.windows.iter().filter(|w| w.kind == kind).map(f).collect()
    };
    let untraced = of(PhaseKind::Untraced, native::Window::commits_per_s);
    let mut m = Metrics::default();
    for w in &d.windows {
        eprintln!(
            "  window {:?}: {:.0} commits/s, p50 {:.0} ns, p99 {:.0} ns",
            w.kind,
            w.commits_per_s(),
            w.p50_ns,
            w.p99_ns
        );
    }
    m.set(
        "native.txn_p50_ns",
        Summary::of(&of(PhaseKind::Untraced, |w| w.p50_ns)),
    );
    m.set(
        "native.txn_p99_ns",
        Summary::of(&of(PhaseKind::Untraced, |w| w.p99_ns)),
    );
    m.put(
        "native.txn_samples",
        of(PhaseKind::Untraced, |w| w.samples as f64).iter().sum(),
    );
    if args.trace {
        let traced = of(PhaseKind::Traced, native::Window::commits_per_s);
        let wall_ns: u64 = d.windows.iter().map(|w| w.ns).sum();
        native_counts(&mut m, &d, guarded);
        m.put("bench.trace_overhead", median(&untraced) / median(&traced));
        m.put(
            "native.ustm.owned_lines_residual",
            world.ustm().owned_lines() as f64,
        );
        m.put(
            "native.ustm.helper_completions",
            world.ustm().helper_completions() as f64,
        );
        m.put(
            "native.ustm.poison_recovered",
            world.ustm().poison_recovered() as f64,
        );
        m.put(
            "native.tl2.orphan_steals",
            world.tl2().orphan_steals() as f64,
        );
        m.put(
            "sim.engine.pinned",
            f64::from(u8::from(pinned_to_one_cpu())),
        );
        m.put("bench.threads", threads as f64);
        m.put("bench.nproc", nproc as f64);
        m.put("native.workers_pinned", f64::from(u8::from(d.pinned)));
        probes::native_layers(&mut m, args.seed, plan.probe, nproc);
        // The share of wall time with a guard window open (windows on one
        // heap never overlap): the probed cost of one window, with as many
        // threads running as the workload has, times the windows opened.
        let window_ns = if threads >= 2 {
            m.get("native.guard.window_2t_ns")
        } else {
            m.get("native.guard.window_ns")
        };
        m.put(
            "native.guard.busy_share",
            window_ns * d.guard.windows_opened as f64 / wall_ns.max(1) as f64,
        );
    } else {
        m.set("setup_s", Summary::of(&setups));
        let measured = d.windows.iter().filter(|w| w.kind == PhaseKind::Untraced);
        let (commits, ns) = measured.fold((0, 0), |(c, ns), w| (c + w.commits, ns + w.ns));
        m.set(
            "commits_per_s",
            Summary::around(commits as f64 * 1e9 / ns as f64, &untraced),
        );
        m.put("peak_rss_mb", peak_rss_mb());
    }
    Report {
        metrics: m,
        attempted: d.windows.iter().map(|w| w.commits).sum(),
        failed: d.windows.iter().map(|w| w.failed).sum(),
        problems: d.oracle_errors,
        tracers: d.tracers,
    }
}

/// The workload's own counts per native layer, over its measured phases.
fn native_counts(m: &mut Metrics, d: &native::Driven, guarded: bool) {
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let (fast, slow) = (&d.stats.fast, &d.stats.slow);
    m.put("native.tl2.begins", fast.begins as f64);
    m.put("native.tl2.commits", fast.commits as f64);
    m.put(
        "native.tl2.aborts_read_validation",
        fast.read_validation_aborts as f64,
    );
    m.put("native.tl2.aborts_lock_busy", fast.lock_busy_aborts as f64);
    m.put(
        "native.tl2.aborts_commit_validation",
        fast.commit_validation_aborts as f64,
    );
    m.put(
        "native.tl2.abort_ratio",
        ratio(fast.total_aborts(), fast.begins),
    );
    m.put("native.ustm.commits", slow.commits as f64);
    m.put("native.ustm.aborts", slow.total_aborts() as f64);
    m.put(
        "native.ustm.abort_ratio",
        ratio(slow.total_aborts(), slow.begins),
    );
    m.put(
        "native.guard.guarded",
        f64::from(u8::from(guarded && d.guard.guarded)),
    );
    m.put("native.guard.windows_opened", d.guard.windows_opened as f64);
    m.put(
        "native.guard.windows_per_slow_commit",
        ratio(d.guard.windows_opened, slow.commits),
    );
    m.put(
        "native.guard.faults_in_window",
        d.guard.faults_in_window as f64,
    );
    m.put(
        "native.guard.faults_after_window",
        d.guard.faults_after_window as f64,
    );
    m.put("native.hybrid.failovers", d.stats.failovers as f64);
    m.put(
        "native.hybrid.forced_failovers",
        d.stats.forced_failovers as f64,
    );
    m.put("native.hybrid.slow_commits", slow.commits as f64);
    m.put(
        "native.hybrid.serial_commits",
        d.stats.serial_commits as f64,
    );
    m.put(
        "native.hybrid.serial_escalations",
        d.stats.serial_escalations as f64,
    );
    m.put("native.hybrid.fast_aborts", fast.total_aborts() as f64);
    m.put("native.hybrid.slow_aborts", slow.total_aborts() as f64);

    // Span aggregates of the traced windows, all threads together.
    let sum = |f: fn(&Tracer) -> trace::OpAgg| {
        d.tracers
            .iter()
            .map(f)
            .fold((0, 0), |(calls, ns), a| (calls + a.calls, ns + a.ns))
    };
    let (reads, read_ns) = sum(|t| t.op(Op::Read));
    let (writes, write_ns) = sum(|t| t.op(Op::Write));
    let (txns, txn_ns) = sum(|t| t.txns);
    let self_ns: u64 = d.tracers.iter().map(Tracer::txn_self_ns).sum();
    m.put("stamp.reads_per_txn", ratio(reads, txns));
    m.put("stamp.writes_per_txn", ratio(writes, txns));
    m.put("trace.txn_ns", ratio(txn_ns, txns));
    m.put("trace.read_ns", ratio(read_ns, reads));
    m.put("trace.write_ns", ratio(write_ns, writes));
    m.put("trace.commit_self_ns", ratio(self_ns, txns));
}

fn run_sim(wl: SimWorkload, args: &Args, nproc: usize) -> Report {
    let plan = Plan::new(args.seconds);
    let pinned = pinned_to_one_cpu();
    if !pinned {
        eprintln!(
            "UNRESOLVED: not confined to one core, so simulator host times are bimodal on a \
             multi-core VM (run.py confines them)"
        );
    }
    let seed = args.seed;
    let mut m = Metrics::default();
    let mut problems = Vec::new();
    let mut tracer = Tracer::new(Instant::now(), 0);

    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            wl.run(SystemKind::UfoHybrid, wl.cpus(), seed, 0.0, 0)
                .host()
                .as_secs_f64()
        })
        .collect();

    // Another seed must give other inputs, seen as another makespan.
    let small = |s| {
        wl.run(SystemKind::UfoHybrid, wl.cpus(), s, 0.02, 0)
            .out
            .makespan
    };
    if small(seed) == small(seed.wrapping_add(1)) {
        problems.push("a second seed simulated the same makespan".to_string());
    }

    // Every window simulates the same inputs, so every window must
    // report the same makespan and digest (the digest covers the report's
    // trace section, so journaled windows have a digest of their own).
    let warm = wl.reference(seed, 0);
    let expected = warm.fingerprint();
    let mut traced_digest = None;
    let mut attempted = 0;
    let mut failed = 0;
    let mut check = |t: &sim::Timed, problems: &mut Vec<String>| {
        attempted += t.out.total_commits();
        let (makespan, digest) = t.fingerprint();
        let want = if t.out.journal.is_empty() {
            expected
        } else {
            (expected.0, *traced_digest.get_or_insert(digest))
        };
        if (makespan, digest) != want {
            failed += t.out.total_commits();
            problems.push(format!(
                "same inputs, different simulation: (makespan, digest) {want:?} then {:?}",
                (makespan, digest)
            ));
        }
        tracer.root_span(wl.name(), t.start, t.end);
    };

    if args.trace {
        // Plain and journaled windows by turns for half of the run (two
        // pairs at least); the probes take the rest.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
        while plain.len() < 2 || Instant::now() < deadline {
            let p = wl.reference(seed, 0);
            check(&p, &mut problems);
            plain.push(p);
            let t = wl.reference(seed, 1 << 20);
            check(&t, &mut problems);
            let audit = &t.out.report.trace;
            if audit.audit_violations != 0 {
                problems.push(format!(
                    "trace audit: {} violations, first: {:?}",
                    audit.audit_violations,
                    audit.audit_violation_samples.first()
                ));
            }
            traced.push(t.commits_per_s());
        }
        let plain_cps: Vec<f64> = plain.iter().map(sim::Timed::commits_per_s).collect();
        m.put("bench.trace_overhead", median(&plain_cps) / median(&traced));

        let hytm = wl.run(SystemKind::HyTm, wl.cpus(), seed, 1.0, 0);
        tracer.root_span(wl.name(), hytm.start, hytm.end);
        m.put("sim.cycles", expected.0 as f64);
        m.put(
            "sim.ufo_over_hytm",
            hytm.out.makespan as f64 / expected.0 as f64,
        );
        m.put("core.report_digest", expected.1 as f64);

        // The same work on one simulated CPU never hands off; what a
        // transaction costs beyond that is the engine's handoff.
        if wl.cpus() > 1 {
            let solo = wl.run(SystemKind::UfoHybrid, 1, seed, 0.2, 0);
            let per_commit: Vec<f64> = plain.iter().map(sim::Timed::ns_per_commit).collect();
            m.put(
                "sim.engine.handoff_share",
                (1.0 - solo.ns_per_commit() / median(&per_commit)).max(0.0),
            );
        }
        sim_counts(&mut m, &plain[0].out);
        m.put("sim.engine.pinned", f64::from(u8::from(pinned)));
        m.put("bench.threads", wl.cpus() as f64);
        m.put("bench.nproc", nproc as f64);
        probes::sim_layers(&mut m, seed, plan.probe);
    } else {
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let mut cps = Vec::new();
        let (mut commits, mut host) = (0, Duration::ZERO);
        while cps.len() < 2 || Instant::now() < deadline {
            let t = wl.reference(seed, 0);
            check(&t, &mut problems);
            eprintln!("  window Untraced: {:.0} commits/s", t.commits_per_s());
            cps.push(t.commits_per_s());
            commits += t.out.total_commits();
            host += t.host();
        }
        m.put("sim.cycles", expected.0 as f64);
        m.put("core.report_digest", expected.1 as f64);
        m.set("setup_s", Summary::of(&setups));
        m.set(
            "commits_per_s",
            Summary::around(commits as f64 / host.as_secs_f64(), &cps),
        );
        m.put("peak_rss_mb", peak_rss_mb());
    }
    Report {
        metrics: m,
        attempted,
        failed,
        problems,
        tracers: vec![tracer],
    }
}

/// The exact simulated counts of one reference window, by layer.
fn sim_counts(m: &mut Metrics, out: &ufotm_stamp::RunOutcome) {
    let r = &out.report;
    m.put("machine.accesses", out.accesses as f64);
    m.put("machine.l1_misses", out.l1_misses as f64);
    m.put(
        "machine.l1_miss_ratio",
        out.l1_misses as f64 / out.accesses.max(1) as f64,
    );
    m.put("machine.nacks", out.nacks as f64);
    m.put("machine.ufo_faults", out.ufo_faults as f64);
    m.put("machine.stall_cycles", out.stall_cycles as f64);
    m.put("machine.nack_stall_cycles", r.cycles.nack_stall as f64);
    m.put("ustm.sw_commits", out.ustm.commits as f64);
    m.put("ustm.sw_aborts", out.ustm.aborts as f64);
    m.put("ustm.barrier_cycles", r.cycles.barrier as f64);
    m.put("core.hw_commits", out.hw_commits as f64);
    m.put("core.sw_commits", out.sw_commits as f64);
    m.put("core.failovers", out.failovers.values().sum::<u64>() as f64);
    m.put("core.forced_failovers", out.forced_failovers as f64);
    m.put("core.btm_aborts_total", out.total_aborts() as f64);
    m.put("core.backoff_cycles", r.cycles.backoff as f64);
    m.put("core.serial_cycles", r.cycles.serial as f64);
}
