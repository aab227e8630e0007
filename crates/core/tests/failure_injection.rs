//! Failure-injection tests: interrupt storms, demand paging, and resource
//! exhaustion must not break atomicity or progress.

use ufotm_core::{SystemKind, TmShared, TmThread};
use ufotm_machine::{AbortReason, Addr, Machine, MachineConfig, SwapConfig};
use ufotm_sim::{Ctx, Sim, ThreadFn};

const COUNTER: Addr = Addr(0);

#[test]
fn interrupt_storm_on_hybrid_still_makes_progress() {
    // A timer quantum short enough to interrupt most transactions; the
    // abort handler classifies interrupts as recoverable and retries.
    let mut cfg = MachineConfig::table4(2);
    cfg.timer_quantum = Some(4_000);
    let shared = TmShared::standard(SystemKind::UfoHybrid, &cfg);
    let machine = Machine::new(cfg);
    let r = Sim::new(machine, shared).run(
        (0..2)
            .map(|cpu| -> ThreadFn<TmShared> {
                Box::new(move |ctx: &mut Ctx<TmShared>| {
                    let mut t = TmThread::new(SystemKind::UfoHybrid, cpu);
                    t.install(ctx);
                    for _ in 0..20 {
                        t.transaction(ctx, |tx, ctx| {
                            let v = tx.read(ctx, COUNTER)?;
                            tx.work(ctx, 1_500)?; // long enough to straddle quanta
                            tx.write(ctx, COUNTER, v + 1)
                        });
                    }
                })
            })
            .collect(),
    );
    assert_eq!(r.machine.peek(COUNTER), 40);
    let agg = r.machine.stats().aggregate();
    assert!(agg.interrupts > 0, "the storm must actually interrupt");
    assert!(
        agg.aborts(AbortReason::Interrupt) > 0,
        "some transactions must have been interrupt-aborted"
    );
    assert_eq!(
        r.shared.stats.failovers.get(&AbortReason::Interrupt),
        None,
        "interrupts are recoverable, never failover triggers"
    );
}

#[test]
fn demand_paging_hybrid_resolves_page_faults_and_commits() {
    let mut cfg = MachineConfig::table4(2);
    cfg.memory_words = 1 << 19; // keep the page count manageable
    let shared = TmShared::standard(SystemKind::UfoHybrid, &cfg);
    let mut machine = Machine::new(cfg);
    machine.enable_swap(SwapConfig {
        max_resident_pages: 64,
    });
    let r = Sim::new(machine, shared).run(
        (0..2)
            .map(|cpu| -> ThreadFn<TmShared> {
                Box::new(move |ctx: &mut Ctx<TmShared>| {
                    let mut t = TmThread::new(SystemKind::UfoHybrid, cpu);
                    t.install(ctx);
                    // Touch several distinct pages transactionally: the
                    // first touch of each page faults the transaction, the
                    // handler pages it in non-transactionally, the retry
                    // succeeds.
                    for p in 0..6u64 {
                        let a = Addr(4096 * (2 + p) + cpu as u64 * 8);
                        t.transaction(ctx, |tx, ctx| {
                            let v = tx.read(ctx, a)?;
                            tx.write(ctx, a, v + 1)
                        });
                    }
                })
            })
            .collect(),
    );
    for p in 0..6u64 {
        for cpu in 0..2u64 {
            assert_eq!(r.machine.peek(Addr(4096 * (2 + p) + cpu * 8)), 1);
        }
    }
    let agg = r.machine.stats().aggregate();
    assert!(
        agg.aborts(AbortReason::PageFault) > 0,
        "transactions must have page-faulted at least once"
    );
    assert!(r.machine.swap_stats().page_ins > 0);
}

#[test]
#[should_panic(expected = "simulated heap exhausted")]
fn heap_exhaustion_panics_loudly() {
    let cfg = MachineConfig::table4(1);
    let mut shared = TmShared::standard(SystemKind::UstmWeak, &cfg);
    // Shrink the heap to almost nothing.
    shared.heap = ufotm_machine::SimAlloc::new(Addr::from_word_index(1 << 20), 16);
    let machine = Machine::new(cfg);
    Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<TmShared>| {
        let mut t = TmThread::new(SystemKind::UstmWeak, 0);
        t.install(ctx);
        t.transaction(ctx, |tx, ctx| {
            for _ in 0..10 {
                tx.alloc(ctx, 8)?;
            }
            Ok(())
        });
    }) as ThreadFn<TmShared>]);
}

#[test]
fn paging_plus_interrupts_plus_contention() {
    // Everything at once: a hostile little machine.
    let mut cfg = MachineConfig::table4(3);
    cfg.memory_words = 1 << 19;
    cfg.timer_quantum = Some(8_000);
    let shared = TmShared::standard(SystemKind::UfoHybrid, &cfg);
    let mut machine = Machine::new(cfg);
    machine.enable_swap(SwapConfig {
        max_resident_pages: 48,
    });
    let r = Sim::new(machine, shared).run(
        (0..3)
            .map(|cpu| -> ThreadFn<TmShared> {
                Box::new(move |ctx: &mut Ctx<TmShared>| {
                    let mut t = TmThread::new(SystemKind::UfoHybrid, cpu);
                    t.install(ctx);
                    for k in 0..15u64 {
                        t.transaction(ctx, |tx, ctx| {
                            let v = tx.read(ctx, COUNTER)?;
                            // Wander over a few pages for paging pressure.
                            let a = Addr(4096 * (2 + (k % 5)) + cpu as u64 * 8);
                            let w = tx.read(ctx, a)?;
                            tx.write(ctx, a, w + 1)?;
                            tx.work(ctx, 300)?;
                            tx.write(ctx, COUNTER, v + 1)
                        });
                    }
                })
            })
            .collect(),
    );
    assert_eq!(
        r.machine.peek(COUNTER),
        45,
        "atomicity under combined failure modes"
    );
}
