//! Trace-journal integration: the drivers record coherent event sequences.

use ufotm_core::{EscalationTier, HybridPolicy, SystemKind, TmShared, TmThread, TraceKind};
use ufotm_machine::{
    AbortReason, Addr, CacheGeometry, ChaosFaultKind, FaultPlan, Machine, MachineConfig,
};
use ufotm_sim::{Ctx, Sim, ThreadFn};

#[test]
fn hw_commit_sequence_is_begin_then_commit() {
    let cfg = MachineConfig::table4(1);
    let mut shared = TmShared::standard(SystemKind::UfoHybrid, &cfg);
    shared.trace.enable(64);
    let machine = Machine::new(cfg);
    let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<TmShared>| {
        let mut t = TmThread::new(SystemKind::UfoHybrid, 0);
        t.install(ctx);
        for _ in 0..3 {
            t.transaction(ctx, |tx, ctx| {
                let v = tx.read(ctx, Addr(0))?;
                tx.write(ctx, Addr(0), v + 1)
            });
        }
    }) as ThreadFn<TmShared>]);
    let kinds: Vec<TraceKind> = r.shared.trace.events().iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            TraceKind::HwBegin,
            TraceKind::HwCommit,
            TraceKind::HwBegin,
            TraceKind::HwCommit,
            TraceKind::HwBegin,
            TraceKind::HwCommit,
        ]
    );
    // Timestamps are non-decreasing per CPU.
    let cycles: Vec<u64> = r.shared.trace.events().iter().map(|e| e.cycle).collect();
    assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn overflow_trace_shows_abort_failover_sw_commit() {
    let mut cfg = MachineConfig::table4(1);
    cfg.l1 = CacheGeometry::new(4, 2);
    let mut shared = TmShared::standard(SystemKind::UfoHybrid, &cfg);
    shared.trace.enable(64);
    let machine = Machine::new(cfg);
    let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<TmShared>| {
        let mut t = TmThread::new(SystemKind::UfoHybrid, 0);
        t.install(ctx);
        t.transaction(ctx, |tx, ctx| {
            for i in 0..24u64 {
                tx.write(ctx, Addr(i * 64), i)?;
            }
            Ok(())
        });
    }) as ThreadFn<TmShared>]);
    let kinds: Vec<TraceKind> = r.shared.trace.events().iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            TraceKind::HwBegin,
            TraceKind::HwAbort(AbortReason::Overflow),
            TraceKind::Failover(AbortReason::Overflow),
            TraceKind::SwBegin,
            TraceKind::SwCommit,
        ]
    );
}

#[test]
fn disabled_trace_records_nothing_and_results_match() {
    let cfg = MachineConfig::table4(2);
    let run = |trace_on: bool| {
        let mut shared = TmShared::standard(SystemKind::UfoHybrid, &cfg);
        if trace_on {
            shared.trace.enable(1024);
        }
        let machine = Machine::new(cfg.clone());
        Sim::new(machine, shared).run(
            (0..2)
                .map(|cpu| -> ThreadFn<TmShared> {
                    Box::new(move |ctx: &mut Ctx<TmShared>| {
                        let mut t = TmThread::new(SystemKind::UfoHybrid, cpu);
                        t.install(ctx);
                        for _ in 0..10 {
                            t.transaction(ctx, |tx, ctx| {
                                let v = tx.read(ctx, Addr(0))?;
                                tx.work(ctx, 30)?;
                                tx.write(ctx, Addr(0), v + 1)
                            });
                        }
                    })
                })
                .collect(),
        )
    };
    let with = run(true);
    let without = run(false);
    assert!(without.shared.trace.events().is_empty());
    assert!(!with.shared.trace.events().is_empty());
    // Tracing is observation-only: identical simulated outcome.
    assert_eq!(with.makespan, without.makespan);
    assert_eq!(with.machine.peek(Addr(0)), without.machine.peek(Addr(0)));
}

#[test]
fn injected_faults_are_journaled_before_the_aborts_they_provoke() {
    let mut cfg = MachineConfig::table4(1);
    cfg.fault_plan = Some(FaultPlan::abort_storm(7));
    let mut shared = TmShared::standard(SystemKind::UfoHybrid, &cfg);
    shared.trace.enable(4096);
    let machine = Machine::new(cfg);
    let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<TmShared>| {
        let mut t = TmThread::new(SystemKind::UfoHybrid, 0);
        t.install(ctx);
        for _ in 0..40 {
            t.transaction(ctx, |tx, ctx| {
                let v = tx.read(ctx, Addr(0))?;
                tx.work(ctx, 20)?;
                tx.write(ctx, Addr(0), v + 1)
            });
        }
    }) as ThreadFn<TmShared>]);
    let events = r.shared.trace.events();
    let spurious_aborts = events
        .iter()
        .filter(|e| e.kind == TraceKind::HwAbort(AbortReason::Spurious))
        .count();
    assert!(
        spurious_aborts > 0,
        "the abort storm must provoke spurious aborts"
    );
    // Every spurious abort entry is preceded by the injection entry that
    // caused it, stamped no later than the abort itself.
    for (i, e) in events.iter().enumerate() {
        if e.kind == TraceKind::HwAbort(AbortReason::Spurious) {
            let cause = events[..i]
                .iter()
                .rev()
                .find(|p| p.kind == TraceKind::FaultInjected(ChaosFaultKind::SpuriousAbort))
                .unwrap_or_else(|| panic!("abort at index {i} has no preceding injection"));
            assert!(cause.cycle <= e.cycle, "injection stamped after its abort");
        }
    }
}

#[test]
fn software_escalation_is_journaled_before_the_sw_attempt_it_triggers() {
    for kind in [SystemKind::UfoHybrid, SystemKind::HyTm, SystemKind::PhTm] {
        let mut cfg = MachineConfig::table4(1);
        cfg.fault_plan = Some(FaultPlan::abort_storm(11));
        let mut shared = TmShared::standard(kind, &cfg);
        shared.trace.enable(4096);
        let machine = Machine::new(cfg);
        // One counted abort is enough: any hardware abort escalates straight
        // to the software tier.
        let policy = HybridPolicy {
            watchdog_hw_attempts: Some(1),
            ..HybridPolicy::default()
        };
        let r = Sim::new(machine, shared).run(vec![Box::new(move |ctx: &mut Ctx<TmShared>| {
            let mut t = TmThread::with_policy(kind, 0, policy);
            t.install(ctx);
            for _ in 0..40 {
                t.transaction(ctx, |tx, ctx| {
                    let v = tx.read(ctx, Addr(0))?;
                    tx.work(ctx, 20)?;
                    tx.write(ctx, Addr(0), v + 1)
                });
            }
        }) as ThreadFn<TmShared>]);
        let kinds: Vec<TraceKind> = r.shared.trace.events().iter().map(|e| e.kind).collect();
        let escalations = kinds
            .iter()
            .filter(|k| **k == TraceKind::WatchdogEscalation(EscalationTier::Software))
            .count();
        assert!(escalations > 0, "the one-attempt watchdog must escalate");
        // Each software escalation is immediately honoured: the next driver
        // event on this CPU is the software begin (injection entries may
        // interleave, driver events may not).
        for (i, k) in kinds.iter().enumerate() {
            if *k == TraceKind::WatchdogEscalation(EscalationTier::Software) {
                let next_driver = kinds[i + 1..]
                    .iter()
                    .find(|n| !matches!(n, TraceKind::FaultInjected(_)))
                    .expect("escalation is not the last driver event");
                assert_eq!(
                    *next_driver,
                    TraceKind::SwBegin,
                    "escalation must be honoured"
                );
            }
        }
    }
}
