//! Chaos torture: seed sweeps under the fault-injection engine.
//!
//! Every run drives a machine configured with a [`FaultPlan`] — spurious
//! aborts, forced evictions, injected coherence nacks, UFO-set retries,
//! swap thrash — and asserts the invariants that must survive arbitrary
//! fault schedules: exact final counters (serializability), strong
//! atomicity, bounded worst-case retries under the watchdog policy, and
//! bit-for-bit seed replay. A failing seed prints as `CHAOS_SEED=<n>` for
//! exact reproduction; `CHAOS_SEEDS=<k>` shrinks the sweep for smoke runs.

use ufotm_core::{
    audit_log, EscalationTier, HybridPolicy, SystemKind, TmShared, TmThread, TraceKind,
};
use ufotm_machine::{Addr, FaultPlan, HwCmPolicy, Machine, MachineConfig, SwapConfig};
use ufotm_sim::{for_each_seed, seed_count, Ctx, Sim, SimResult, ThreadFn};

const COUNTER: Addr = Addr(0);
const CPUS: usize = 3;
const TXNS: u64 = 8;

type MixFn = fn(u64) -> FaultPlan;

/// The fault mixes swept, in increasing hostility.
fn mixes() -> Vec<(&'static str, MixFn)> {
    vec![
        ("quiet", FaultPlan::quiet as MixFn),
        ("mixed", FaultPlan::mixed),
        ("abort-storm", FaultPlan::abort_storm),
        ("nack-storm", FaultPlan::nack_storm),
    ]
}

fn torture_machine(plan: FaultPlan) -> (MachineConfig, Machine) {
    let mut cfg = MachineConfig::table4(CPUS);
    cfg.memory_words = 1 << 19;
    cfg.fault_plan = Some(plan);
    let mut machine = Machine::new(cfg.clone());
    // Swap pressure so the thrash injector has something to thrash.
    machine.enable_swap(SwapConfig {
        max_resident_pages: 64,
    });
    (cfg, machine)
}

/// One torture run: `CPUS` threads each commit `TXNS` increments of a
/// shared counter plus a private slot. Returns the finished simulation.
fn run_counters(kind: SystemKind, plan: FaultPlan) -> SimResult<TmShared> {
    let (cfg, machine) = torture_machine(plan);
    let mut shared = TmShared::standard(kind, &cfg);
    // Journal every run so the trace auditor can replay it afterwards
    // (host-side only; the simulated execution is unchanged).
    shared.trace.enable(1 << 16);
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

fn assert_counters_exact(r: &SimResult<TmShared>, label: &str) {
    let total = CPUS as u64 * TXNS;
    assert_eq!(
        r.machine.peek(COUNTER),
        total,
        "{label}: lost or doubled increments"
    );
    for cpu in 0..CPUS {
        assert_eq!(
            r.machine.peek(Addr(4096 + cpu as u64 * 64)),
            TXNS,
            "{label}: cpu {cpu} private slot"
        );
    }
    assert_eq!(
        r.shared.stats.total_commits(),
        total,
        "{label}: commit accounting"
    );
    // Every fault schedule must still produce a protocol-clean journal:
    // balanced attempts, failovers only after aborts, exclusive serial
    // windows, faults preceding the events they provoke.
    let audit = audit_log(&r.shared.trace);
    assert!(
        audit.is_clean(),
        "{label}: trace audit found {} violation(s), e.g. {}",
        audit.violations.len(),
        audit.violations[0],
    );
}

/// The sweep: every seed × fault mix × system kind must produce exactly
/// the serial outcome, with retries bounded by the watchdog.
#[test]
fn torture_counters_exact_across_seeds_mixes_and_systems() {
    let seeds = seed_count(64);
    // Tier 2 needs no strong atomicity (its body runs behind USTM barriers
    // like any software attempt), so the weakly-atomic systems are swept
    // too — and the weak USTM must reach the tier, or the sweep says
    // nothing about it there.
    let mut weak_serial_commits = 0;
    for kind in [
        SystemKind::UfoHybrid,
        SystemKind::UstmStrong,
        SystemKind::UstmWeak,
        SystemKind::HyTm,
        SystemKind::PhTm,
        SystemKind::GlobalLock,
    ] {
        for (name, mk) in mixes() {
            for_each_seed(0, seeds, |seed| {
                let r = run_counters(kind, mk(seed));
                assert_counters_exact(&r, &format!("{kind}/{name}/seed {seed}"));
                if kind == SystemKind::UstmWeak {
                    weak_serial_commits += r.shared.stats.serial_commits;
                }
                if kind.is_hybrid() {
                    // Watchdog bounded-retry guarantee: at most
                    // `watchdog_hw_attempts` counted backoffs per committed
                    // transaction, plus page-fault fix-up retries (each of
                    // which makes residency progress; the generous factor
                    // absorbs injected swap thrash).
                    let total = CPUS as u64 * TXNS;
                    assert!(
                        r.shared.stats.hw_retries <= total * 64,
                        "{kind}/{name}/seed {seed}: unbounded retries \
                         ({} for {} txns)",
                        r.shared.stats.hw_retries,
                        total,
                    );
                }
            });
        }
    }
    assert!(
        weak_serial_commits > 0,
        "the sweep never reached tier 2 on {}",
        SystemKind::UstmWeak
    );
}

/// Same seed, same plan ⇒ bit-identical execution: makespan, memory,
/// commit counters, and the injected-fault counters all replay exactly.
#[test]
fn same_seed_replays_bit_for_bit() {
    let seeds = seed_count(8);
    for (name, mk) in mixes() {
        for_each_seed(100, seeds, |seed| {
            let snap = |r: &SimResult<TmShared>| {
                (
                    r.makespan,
                    r.machine.peek(COUNTER),
                    r.shared.stats.hw_commits,
                    r.shared.stats.sw_commits,
                    r.shared.stats.serial_commits,
                    r.shared.stats.watchdog_escalations,
                    r.machine.chaos_stats(),
                )
            };
            let a = snap(&run_counters(SystemKind::UfoHybrid, mk(seed)));
            let b = snap(&run_counters(SystemKind::UfoHybrid, mk(seed)));
            assert_eq!(a, b, "mix {name}, seed {seed}: replay diverged");
        });
    }
}

/// Figure 2b's strong-atomicity litmus under an abort storm: the
/// non-transactional word adjacent to transactional data must never be
/// lost, no matter how many injected aborts roll the transaction back.
#[test]
fn strong_atomicity_litmus_survives_abort_storms() {
    let seeds = seed_count(16);
    for kind in [SystemKind::UfoHybrid, SystemKind::UstmStrong] {
        for_each_seed(200, seeds, |seed| {
            let mut cfg = MachineConfig::table4(2);
            cfg.memory_words = 1 << 19;
            cfg.fault_plan = Some(FaultPlan::abort_storm(seed));
            let shared = TmShared::standard(kind, &cfg);
            let machine = Machine::new(cfg);
            let line = Addr(512); // word 0 transactional, word 1 plain
            let rounds = 12u64;
            let r = Sim::new(machine, shared).run(vec![
                Box::new(move |ctx: &mut Ctx<TmShared>| {
                    let mut t = TmThread::with_policy(kind, 0, HybridPolicy::watchdog());
                    t.install(ctx);
                    for _ in 0..rounds {
                        t.transaction(ctx, |tx, ctx| {
                            let v = tx.read(ctx, line)?;
                            tx.work(ctx, 80)?;
                            tx.write(ctx, line, v + 1)
                        });
                    }
                }) as ThreadFn<TmShared>,
                Box::new(move |ctx: &mut Ctx<TmShared>| {
                    // Plain code: adjacent-word stores through the strong-
                    // atomicity fault handler.
                    ctx.set_ufo_enabled(true);
                    for k in 1..=rounds {
                        ufotm_core::nont_store(ctx, line.add_words(1), k);
                        assert_eq!(
                            ufotm_core::nont_load(ctx, line.add_words(1)),
                            k,
                            "adjacent plain store lost (seed {seed})"
                        );
                    }
                }) as ThreadFn<TmShared>,
            ]);
            assert_eq!(
                r.machine.peek(line),
                rounds,
                "transactional word (seed {seed})"
            );
            assert_eq!(
                r.machine.peek(line.add_words(1)),
                rounds,
                "plain word survived every injected abort (seed {seed})"
            );
        });
    }
}

/// The acceptance scenario: a crafted livelock — two transactions
/// acquiring the same two lines in opposite order under requester-wins
/// hardware contention management and an injected nack storm — must be
/// broken by the watchdog within bounded retries, ending in a
/// serial-irrevocable commit that is visible in the trace journal.
#[test]
fn watchdog_breaks_crafted_livelock_with_serial_commit() {
    let a = Addr(0);
    let b = Addr(4096);
    let mut cfg = MachineConfig::table4(2);
    cfg.memory_words = 1 << 19;
    cfg.hw_cm = HwCmPolicy::RequesterWins;
    cfg.fault_plan = Some(FaultPlan::nack_storm(0xDEAD));
    let mut shared = TmShared::standard(SystemKind::UfoHybrid, &cfg);
    shared.trace.enable(4096);
    let machine = Machine::new(cfg);
    // Tight limits so the escalation happens quickly. Arming tier 1 also
    // jitters each backoff by up to 25 %, which cannot break the livelock
    // by luck: the largest jittered backoff (8 000 cycles) is still far
    // shorter than the body's tail below.
    let policy = HybridPolicy {
        watchdog_hw_attempts: Some(6),
        watchdog_sw_kills: Some(2),
        watchdog_stagnation: Some(4),
        ..HybridPolicy::default()
    };
    let rounds = 6u64;
    let r = Sim::new(machine, shared).run(
        (0..2)
            .map(|cpu| -> ThreadFn<TmShared> {
                Box::new(move |ctx: &mut Ctx<TmShared>| {
                    let mut t = TmThread::with_policy(SystemKind::UfoHybrid, cpu, policy);
                    t.install(ctx);
                    let (first, second) = if cpu == 0 { (a, b) } else { (b, a) };
                    for _ in 0..rounds {
                        t.transaction(ctx, |tx, ctx| {
                            let x = tx.read(ctx, first)?;
                            tx.write(ctx, first, x + 1)?;
                            let y = tx.read(ctx, second)?;
                            tx.write(ctx, second, y + 1)?;
                            // Long tail: under requester-wins the doomed
                            // rival restarts (max backoff 50 << 7 = 6400
                            // cycles, 8 000 jittered) and re-requests
                            // these lines long before the tail ends — so
                            // it dooms us, we doom it back, and nobody
                            // ever commits until the watchdog breaks the
                            // cycle.
                            tx.work(ctx, 20_000)
                        });
                    }
                })
            })
            .collect(),
    );
    // Both counters took every increment from both threads.
    assert_eq!(r.machine.peek(a), 2 * rounds);
    assert_eq!(r.machine.peek(b), 2 * rounds);
    // The full journal of the livelock (nack storm, escalations, the
    // serial window) must satisfy every auditor invariant.
    audit_log(&r.shared.trace).assert_clean();
    // CI artifact: with UFOTM_REPORT_DIR set, emit this run's full report
    // (the chaos smoke job uploads it — see .github/workflows/ci.yml).
    if let Ok(dir) = std::env::var("UFOTM_REPORT_DIR") {
        let report = ufotm_core::RunReport::collect(0xDEAD, &r.machine, &r.shared);
        std::fs::create_dir_all(&dir).expect("report dir");
        std::fs::write(
            std::path::Path::new(&dir).join("REPORT_chaos_livelock.json"),
            report.to_json(),
        )
        .expect("write chaos run report");
    }
    let stats = &r.shared.stats;
    assert!(
        stats.watchdog_escalations > 0,
        "the watchdog must have fired"
    );
    assert!(
        stats.serial_commits > 0,
        "the livelock must end in a serial commit"
    );
    // Bounded retries: per committed transaction, at most the hw-attempt
    // limit of counted backoffs before the watchdog takes over.
    assert!(
        stats.hw_retries <= stats.total_commits() * 6,
        "retries not bounded: {} retries for {} commits",
        stats.hw_retries,
        stats.total_commits(),
    );
    // The trace journal shows the escalation and the serial commit, in
    // that order on the escalating CPU.
    let has_serial_escalation = r
        .shared
        .trace
        .events()
        .iter()
        .any(|e| e.kind == TraceKind::WatchdogEscalation(EscalationTier::Serial));
    assert!(has_serial_escalation, "serial escalation must be journaled");
    for cpu in 0..2 {
        let kinds: Vec<TraceKind> = r.shared.trace.for_cpu(cpu).map(|e| e.kind).collect();
        if let Some(i) = kinds
            .iter()
            .position(|k| *k == TraceKind::WatchdogEscalation(EscalationTier::Serial))
        {
            let j = kinds[i..]
                .iter()
                .position(|k| *k == TraceKind::SerialIrrevocable)
                .expect("escalation is followed by serial-irrevocable entry");
            assert!(
                kinds[i + j..].contains(&TraceKind::PlainCommit),
                "serial attempt must commit"
            );
        }
    }
}
