//! Tx facade behaviour across modes: syscalls, I/O, allocation, mode
//! predicates, and statistics plumbing.

use ufotm_core::{SystemKind, TmShared, TmThread};
use ufotm_machine::{AbortReason, Addr, Machine, MachineConfig};
use ufotm_sim::{Ctx, Sim, SimResult, ThreadFn};

fn run_one(
    kind: SystemKind,
    body: impl FnOnce(&mut TmThread, &mut Ctx<TmShared>) + Send + 'static,
) -> SimResult<TmShared> {
    let mut cfg = MachineConfig::table4(1);
    if kind.needs_unbounded_btm() {
        cfg.btm_unbounded = true;
    }
    let shared = TmShared::standard(kind, &cfg);
    let machine = Machine::new(cfg);
    Sim::new(machine, shared).run(vec![Box::new(move |ctx: &mut Ctx<TmShared>| {
        let mut t = TmThread::new(kind, 0);
        t.install(ctx);
        body(&mut t, ctx);
    }) as ThreadFn<TmShared>])
}

#[test]
fn mode_predicates_match_kind() {
    for (kind, expect_hw) in [
        (SystemKind::UfoHybrid, true),
        (SystemKind::UnboundedHtm, true),
        (SystemKind::UstmStrong, false),
        (SystemKind::Tl2, false),
        (SystemKind::GlobalLock, false),
    ] {
        run_one(kind, move |t, ctx| {
            t.transaction(ctx, |tx, ctx| {
                assert_eq!(tx.in_hardware(), expect_hw, "{kind}");
                assert_eq!(
                    tx.in_software(),
                    matches!(kind, SystemKind::UstmStrong | SystemKind::Tl2),
                    "{kind}"
                );
                tx.read(ctx, Addr(0)).map(|_| ())
            });
        });
    }
}

#[test]
fn syscall_is_free_in_software_modes() {
    for kind in [
        SystemKind::UstmWeak,
        SystemKind::Tl2,
        SystemKind::GlobalLock,
    ] {
        let r = run_one(kind, |t, ctx| {
            t.transaction(ctx, |tx, ctx| {
                tx.write(ctx, Addr(0), 1)?;
                tx.syscall(ctx)?; // idempotent syscall: just a cost here
                tx.write(ctx, Addr(8), 2)
            });
        });
        assert_eq!(r.machine.peek(Addr(0)), 1, "{kind}");
        assert_eq!(r.machine.peek(Addr(8)), 2, "{kind}");
        assert_eq!(
            r.machine.stats().aggregate().aborts(AbortReason::Syscall),
            0,
            "{kind}"
        );
    }
}

#[test]
fn syscall_aborts_hw_and_hybrid_fails_over() {
    let r = run_one(SystemKind::UfoHybrid, |t, ctx| {
        t.transaction(ctx, |tx, ctx| {
            tx.write(ctx, Addr(0), 1)?;
            tx.syscall(ctx)?;
            tx.write(ctx, Addr(8), 2)
        });
    });
    assert_eq!(r.shared.stats.sw_commits, 1);
    assert!(r.machine.stats().aggregate().aborts(AbortReason::Syscall) >= 1);
    assert_eq!(r.machine.peek(Addr(0)), 1);
    assert_eq!(r.machine.peek(Addr(8)), 2);
}

#[test]
fn alloc_free_roundtrip_in_every_mode() {
    for kind in [
        SystemKind::Sequential,
        SystemKind::GlobalLock,
        SystemKind::UstmStrong,
        SystemKind::Tl2,
        SystemKind::UfoHybrid,
        SystemKind::UnboundedHtm,
    ] {
        let r = run_one(kind, |t, ctx| {
            let a = t.transaction(ctx, |tx, ctx| {
                let a = tx.alloc(ctx, 8)?;
                tx.write(ctx, a, 77)?;
                Ok(a)
            });
            let v = t.transaction(ctx, |tx, ctx| {
                let v = tx.read(ctx, a)?;
                tx.free(ctx, a)?;
                Ok(v)
            });
            assert_eq!(v, 77);
        });
        assert_eq!(r.shared.heap.live_allocations(), 0, "{kind}: leak");
    }
}

#[test]
fn work_cycles_are_charged_inside_transactions() {
    let r = run_one(SystemKind::UnboundedHtm, |t, ctx| {
        t.transaction(ctx, |tx, ctx| tx.work(ctx, 12_345));
    });
    assert!(r.makespan >= 12_345);
}

#[test]
fn stats_split_hw_and_sw_commits() {
    let r = run_one(SystemKind::UfoHybrid, |t, ctx| {
        // One clean HW txn, one forced to software.
        t.transaction(ctx, |tx, ctx| tx.write(ctx, Addr(0), 1));
        t.transaction(ctx, |tx, ctx| {
            tx.force_failover(ctx)?;
            tx.write(ctx, Addr(8), 2)
        });
    });
    assert_eq!(r.shared.stats.hw_commits, 1);
    assert_eq!(r.shared.stats.sw_commits, 1);
    assert_eq!(r.shared.stats.forced_failovers, 1);
    assert_eq!(r.shared.stats.total_commits(), 2);
}

#[test]
fn deferred_actions_run_exactly_once_after_commit() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    for kind in [
        SystemKind::UfoHybrid,
        SystemKind::UstmStrong,
        SystemKind::GlobalLock,
    ] {
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        let r = run_one(kind, move |t, ctx| {
            t.transaction(ctx, |tx, ctx| {
                let f2 = Arc::clone(&f);
                tx.defer(move || {
                    f2.fetch_add(1, Ordering::SeqCst);
                });
                tx.write(ctx, Addr(0), 1)
            });
        });
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "{kind}: deferred action count"
        );
        assert_eq!(r.machine.peek(Addr(0)), 1);
    }
}

#[test]
fn deferred_actions_are_dropped_on_aborted_attempts() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    // The forced failover kills the hardware attempt; only the (single)
    // software commit fires its deferred action.
    let fired = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&fired);
    run_one(SystemKind::UfoHybrid, move |t, ctx| {
        t.transaction(ctx, |tx, ctx| {
            let f2 = Arc::clone(&f);
            tx.defer(move || {
                f2.fetch_add(1, Ordering::SeqCst);
            });
            tx.force_failover(ctx)?; // HW attempt dies *after* deferring
            tx.write(ctx, Addr(0), 1)
        });
    });
    assert_eq!(
        fired.load(Ordering::SeqCst),
        1,
        "exactly the committing attempt's deferral fires"
    );
}

#[test]
fn io_in_software_mode_costs_but_commits() {
    let r = run_one(SystemKind::UstmStrong, |t, ctx| {
        t.transaction(ctx, |tx, ctx| {
            tx.io(ctx)?;
            tx.write(ctx, Addr(0), 3)
        });
    });
    assert_eq!(r.machine.peek(Addr(0)), 3);
    assert_eq!(r.shared.stats.sw_commits, 1);
}

/// `retry` on the watchdog's last tier: with `watchdog_sw_kills: Some(0)`
/// every software attempt is escalated, so the consumer's `retry` and the
/// producer's write both arrive there. The consumer must give the seat
/// back before it parks — a sleeper holding it would wedge the producer.
#[test]
fn retry_on_the_serial_tier_gives_the_seat_back_before_parking() {
    use ufotm_core::{audit_log, HybridPolicy};
    const FLAG: Addr = Addr(0);
    const DATA: Addr = Addr(1024);
    let policy = HybridPolicy {
        watchdog_sw_kills: Some(0),
        ..HybridPolicy::default()
    };
    for kind in [SystemKind::UstmStrong, SystemKind::UfoHybrid] {
        let cfg = MachineConfig::table4(2);
        let mut shared = TmShared::standard(kind, &cfg);
        shared.trace.enable(4096);
        let r = Sim::new(Machine::new(cfg), shared).run(vec![
            Box::new(move |ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::with_policy(kind, 0, policy);
                t.install(ctx);
                let got = t.transaction(ctx, |tx, ctx| {
                    if tx.read(ctx, FLAG)? == 0 {
                        tx.retry(ctx)?;
                    }
                    tx.read(ctx, DATA)
                });
                assert_eq!(got, 42, "{kind}");
            }) as ThreadFn<TmShared>,
            Box::new(move |ctx: &mut Ctx<TmShared>| {
                ctx.stall(20_000).unwrap(); // let the consumer park first
                let mut t = TmThread::with_policy(kind, 1, policy);
                t.install(ctx);
                t.transaction(ctx, |tx, ctx| {
                    tx.force_failover(ctx)?;
                    tx.write(ctx, DATA, 42)?;
                    tx.write(ctx, FLAG, 1)
                });
            }) as ThreadFn<TmShared>,
        ]);
        assert_eq!(r.shared.ustm.stats.retries_entered, 1, "{kind}");
        assert_eq!(r.shared.ustm.stats.retries_woken, 1, "{kind}");
        // The producer, and the consumer's attempt after the wake.
        assert_eq!(r.shared.stats.serial_commits, 2, "{kind}");
        assert_eq!(r.shared.lock.holder(), None, "{kind}");
        audit_log(&r.shared.trace).assert_clean();
    }
}
