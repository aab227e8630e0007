//! Chaos-engine demo: run the shared-counter torture workload under a
//! seeded fault plan and print what the machine injected, what the
//! watchdog did about it, and proof that the run replays bit-for-bit.
//! `serial` commits are the watchdog's last tier: the transaction re-run as
//! the eldest software transaction, which nothing can kill, with the other
//! CPUs still running.
//!
//! ```text
//! cargo run -p ufotm-bench --example chaos_demo -- [seed] [mix] [system]
//!   seed    u64, default 1
//!   mix     quiet | mixed | abort-storm | nack-storm   (default mixed)
//!   system  ufo-hybrid | ustm | lock                   (default ufo-hybrid)
//! ```

use ufotm_core::{HybridPolicy, SystemKind, TmShared, TmThread};
use ufotm_machine::{Addr, FaultPlan, Machine, MachineConfig, SwapConfig};
use ufotm_sim::{Ctx, Sim, SimResult, ThreadFn};

const COUNTER: Addr = Addr(0);
const CPUS: usize = 3;
const TXNS: u64 = 8;

fn run(kind: SystemKind, plan: FaultPlan, trace: bool) -> SimResult<TmShared> {
    let mut cfg = MachineConfig::table4(CPUS);
    cfg.memory_words = 1 << 19;
    cfg.fault_plan = Some(plan);
    let mut shared = TmShared::standard(kind, &cfg);
    if trace {
        shared.trace.enable(4096);
    }
    let mut machine = Machine::new(cfg);
    machine.enable_swap(SwapConfig {
        max_resident_pages: 64,
    });
    Sim::new(machine, shared).run(
        (0..CPUS)
            .map(|cpu| -> ThreadFn<TmShared> {
                Box::new(move |ctx: &mut Ctx<TmShared>| {
                    let mut t = TmThread::with_policy(kind, cpu, HybridPolicy::watchdog());
                    t.install(ctx);
                    let slot = Addr(4096 + cpu as u64 * 64);
                    for _ in 0..TXNS {
                        t.transaction(ctx, |tx, ctx| {
                            let v = tx.read(ctx, COUNTER)?;
                            tx.work(ctx, 60)?;
                            let s = tx.read(ctx, slot)?;
                            tx.write(ctx, slot, s + 1)?;
                            tx.write(ctx, COUNTER, v + 1)
                        });
                    }
                })
            })
            .collect(),
    )
}

fn digest(r: &SimResult<TmShared>) -> (u64, u64, u64, u64, u64, u64) {
    (
        r.makespan,
        r.machine.peek(COUNTER),
        r.shared.stats.hw_commits,
        r.shared.stats.sw_commits,
        r.shared.stats.serial_commits,
        r.machine.chaos_stats().total(),
    )
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let seed: u64 = argv.next().map_or(1, |s| s.parse().expect("seed: u64"));
    let mix = argv.next().unwrap_or_else(|| "mixed".into());
    let plan: fn(u64) -> FaultPlan = match mix.as_str() {
        "quiet" => FaultPlan::quiet,
        "mixed" => FaultPlan::mixed,
        "abort-storm" => FaultPlan::abort_storm,
        "nack-storm" => FaultPlan::nack_storm,
        other => panic!("unknown mix {other:?} (quiet|mixed|abort-storm|nack-storm)"),
    };
    let kind = match argv.next().as_deref() {
        None | Some("ufo-hybrid") => SystemKind::UfoHybrid,
        Some("ustm") => SystemKind::UstmStrong,
        Some("lock") => SystemKind::GlobalLock,
        Some(other) => panic!("unknown system {other:?} (ufo-hybrid|ustm|lock)"),
    };

    let r = run(kind, plan(seed), true);
    let expected = CPUS as u64 * TXNS;
    let got = r.machine.peek(COUNTER);
    let c = r.machine.chaos_stats();
    let s = &r.shared.stats;

    println!("chaos demo: {kind} / {mix} / seed {seed}");
    println!("  counter            {got} (expected {expected})");
    println!("  makespan           {} cycles", r.makespan);
    println!(
        "  commits            hw {} / sw {} / lock {} / serial {}",
        s.hw_commits, s.sw_commits, s.lock_commits, s.serial_commits
    );
    println!(
        "  watchdog           {} escalations, {} hw retries",
        s.watchdog_escalations, s.hw_retries
    );
    println!(
        "  injected faults    {} spurious-abort / {} evict / {} nack / {} ufo-retry / {} thrash",
        c.spurious_aborts, c.forced_evictions, c.injected_nacks, c.ufo_set_retries, c.swap_thrashes
    );
    let events = r.shared.trace.events();
    println!("  trace journal      {} events; last 5:", events.len());
    for e in events.iter().rev().take(5).rev() {
        println!("    [cpu {} @ {:>8}] {:?}", e.cpu, e.cycle, e.kind);
    }

    let replay = digest(&run(kind, plan(seed), false));
    let first = digest(&r);
    println!(
        "  replay             {}",
        if replay == first {
            "bit-for-bit identical"
        } else {
            "DIVERGED"
        }
    );
    assert_eq!(got, expected, "lost or doubled increments");
    assert_eq!(replay, first, "replay diverged");
}
