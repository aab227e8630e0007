//! Integration tests for the TM drivers: the UFO hybrid, HyTM, PhTM, the
//! unbounded HTM, and the baselines, all exercising the full stack
//! (machine + engine + USTM/TL2 + drivers).

use ufotm_core::{audit_log, SystemKind, TmShared, TmThread};
use ufotm_machine::{AbortReason, Addr, CacheGeometry, Machine, MachineConfig};
use ufotm_sim::{Ctx, Sim, SimResult, ThreadFn};

const COUNTER: Addr = Addr(0);

fn machine_for(kind: SystemKind, cpus: usize) -> MachineConfig {
    let mut cfg = MachineConfig::table4(cpus);
    if kind.needs_unbounded_btm() {
        cfg.btm_unbounded = true;
    }
    cfg
}

/// Runs `threads` bodies under `kind`, returning the final world. Every
/// run is journaled and the trace auditor must find it invariant-clean.
fn run_threads(
    kind: SystemKind,
    cfg: MachineConfig,
    bodies: Vec<ThreadFn<TmShared>>,
) -> SimResult<TmShared> {
    let mut shared = TmShared::standard(kind, &cfg);
    shared.trace.enable(1 << 16);
    let machine = Machine::new(cfg);
    let r = Sim::new(machine, shared).run(bodies);
    audit_log(&r.shared.trace).assert_clean();
    r
}

/// N threads × `iters` counter increments with some compute.
fn counter_bodies(kind: SystemKind, threads: usize, iters: u64) -> Vec<ThreadFn<TmShared>> {
    (0..threads)
        .map(|cpu| -> ThreadFn<TmShared> {
            Box::new(move |ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::new(kind, cpu);
                t.install(ctx);
                for _ in 0..iters {
                    t.transaction(ctx, |tx, ctx| {
                        let v = tx.read(ctx, COUNTER)?;
                        tx.work(ctx, 40)?;
                        tx.write(ctx, COUNTER, v + 1)
                    });
                }
            })
        })
        .collect()
}

#[test]
fn every_system_counts_correctly_under_contention() {
    for kind in [
        SystemKind::GlobalLock,
        SystemKind::UstmWeak,
        SystemKind::UstmStrong,
        SystemKind::Tl2,
        SystemKind::UnboundedHtm,
        SystemKind::UfoHybrid,
        SystemKind::HyTm,
        SystemKind::PhTm,
    ] {
        let cfg = machine_for(kind, 4);
        let r = run_threads(kind, cfg, counter_bodies(kind, 4, 20));
        assert_eq!(
            r.machine.peek(COUNTER),
            80,
            "{kind}: lost or duplicated increments"
        );
        assert_eq!(r.shared.stats.total_commits(), 80, "{kind}: commit count");
    }
}

#[test]
fn sequential_baseline_counts() {
    let cfg = machine_for(SystemKind::Sequential, 1);
    let r = run_threads(
        SystemKind::Sequential,
        cfg,
        counter_bodies(SystemKind::Sequential, 1, 50),
    );
    assert_eq!(r.machine.peek(COUNTER), 50);
}

#[test]
fn ufo_hybrid_commits_small_txns_in_hardware() {
    let cfg = machine_for(SystemKind::UfoHybrid, 2);
    let r = run_threads(
        SystemKind::UfoHybrid,
        cfg,
        counter_bodies(SystemKind::UfoHybrid, 2, 25),
    );
    assert_eq!(r.machine.peek(COUNTER), 50);
    assert_eq!(r.shared.stats.hw_commits, 50, "everything fits in hardware");
    assert_eq!(r.shared.stats.sw_commits, 0);
}

#[test]
fn ufo_hybrid_fails_over_on_cache_overflow() {
    let mut cfg = machine_for(SystemKind::UfoHybrid, 1);
    cfg.l1 = CacheGeometry::new(4, 2); // 8 lines: easy to overflow
    let r = run_threads(
        SystemKind::UfoHybrid,
        cfg,
        vec![Box::new(|ctx: &mut Ctx<TmShared>| {
            let mut t = TmThread::new(SystemKind::UfoHybrid, 0);
            t.install(ctx);
            t.transaction(ctx, |tx, ctx| {
                // Write 32 distinct lines: cannot fit in an 8-line L1.
                for i in 0..32u64 {
                    tx.write(ctx, Addr(i * 64), i)?;
                }
                Ok(())
            });
        })],
    );
    assert_eq!(r.shared.stats.sw_commits, 1, "must fail over to USTM");
    assert_eq!(r.shared.stats.hw_commits, 0);
    assert_eq!(
        r.shared
            .stats
            .failovers
            .get(&AbortReason::Overflow)
            .copied(),
        Some(1)
    );
    for i in 0..32u64 {
        assert_eq!(r.machine.peek(Addr(i * 64)), i);
    }
}

#[test]
fn unbounded_htm_runs_large_txns_in_hardware() {
    let mut cfg = machine_for(SystemKind::UnboundedHtm, 1);
    cfg.l1 = CacheGeometry::new(4, 2);
    let r = run_threads(
        SystemKind::UnboundedHtm,
        cfg,
        vec![Box::new(|ctx: &mut Ctx<TmShared>| {
            let mut t = TmThread::new(SystemKind::UnboundedHtm, 0);
            t.install(ctx);
            t.transaction(ctx, |tx, ctx| {
                for i in 0..32u64 {
                    tx.write(ctx, Addr(i * 64), i)?;
                }
                Ok(())
            });
        })],
    );
    assert_eq!(r.shared.stats.hw_commits, 1);
    assert_eq!(r.shared.stats.sw_commits, 0);
    assert_eq!(
        r.machine.stats().aggregate().aborts(AbortReason::Overflow),
        0
    );
}

#[test]
fn hybrid_io_fails_over() {
    let cfg = machine_for(SystemKind::UfoHybrid, 1);
    let r = run_threads(
        SystemKind::UfoHybrid,
        cfg,
        vec![Box::new(|ctx: &mut Ctx<TmShared>| {
            let mut t = TmThread::new(SystemKind::UfoHybrid, 0);
            t.install(ctx);
            t.transaction(ctx, |tx, ctx| {
                tx.write(ctx, COUNTER, 1)?;
                tx.io(ctx)?;
                tx.write(ctx, COUNTER, 2)
            });
        })],
    );
    assert_eq!(r.shared.stats.sw_commits, 1);
    assert_eq!(
        r.shared.stats.failovers.get(&AbortReason::Io).copied(),
        Some(1)
    );
    assert_eq!(r.machine.peek(COUNTER), 2);
}

#[test]
fn alloc_pool_refill_fails_over_and_allocations_survive() {
    let cfg = machine_for(SystemKind::UfoHybrid, 1);
    let r = run_threads(
        SystemKind::UfoHybrid,
        cfg,
        vec![Box::new(|ctx: &mut Ctx<TmShared>| {
            let mut t = TmThread::new(SystemKind::UfoHybrid, 0);
            t.install(ctx);
            let mut nodes = Vec::new();
            for i in 0..5u64 {
                let node = t.transaction(ctx, |tx, ctx| {
                    let n = tx.alloc(ctx, 8)?;
                    tx.write(ctx, n, 100 + i)?;
                    Ok(n)
                });
                nodes.push(node);
            }
            let got: Vec<u64> = nodes
                .iter()
                .map(|&n| ufotm_core::nont_load(ctx, n))
                .collect();
            assert_eq!(got, vec![100, 101, 102, 103, 104]);
        })],
    );
    // The very first allocation triggers a pool refill (budget starts at 1),
    // which in hardware is a syscall failover.
    assert!(r.shared.stats.sw_commits >= 1, "first alloc fails over");
    assert_eq!(
        r.shared.heap.live_allocations(),
        5,
        "no leaks, no lost allocs"
    );
    assert!(r.shared.stats.alloc_syscalls >= 1);
}

#[test]
fn frees_are_deferred_to_commit() {
    let cfg = machine_for(SystemKind::UstmWeak, 1);
    let r = run_threads(
        SystemKind::UstmWeak,
        cfg,
        vec![Box::new(|ctx: &mut Ctx<TmShared>| {
            let mut t = TmThread::new(SystemKind::UstmWeak, 0);
            t.install(ctx);
            let node = t.transaction(ctx, |tx, ctx| tx.alloc(ctx, 8));
            t.transaction(ctx, |tx, ctx| tx.free(ctx, node));
        })],
    );
    assert_eq!(r.shared.heap.live_allocations(), 0);
}

#[test]
fn hybrid_hw_txn_respects_stm_isolation() {
    // One thread runs a long software transaction (forced via overflow);
    // another hammers the same lines with hardware transactions. The
    // invariant (a == b) must hold throughout.
    let a = Addr(0);
    let b = Addr(4096);
    let mut cfg = machine_for(SystemKind::UfoHybrid, 2);
    cfg.l1 = CacheGeometry::new(8, 2);
    let r = run_threads(
        SystemKind::UfoHybrid,
        cfg,
        vec![
            Box::new(move |ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::new(SystemKind::UfoHybrid, 0);
                t.install(ctx);
                for _ in 0..10 {
                    t.transaction(ctx, |tx, ctx| {
                        // Big footprint: overflows the 16-line L1 → USTM.
                        for i in 0..40u64 {
                            let addr = Addr(8192 + i * 64);
                            let v = tx.read(ctx, addr)?;
                            tx.write(ctx, addr, v + 1)?;
                        }
                        let va = tx.read(ctx, a)?;
                        let vb = tx.read(ctx, b)?;
                        assert_eq!(va, vb, "SW txn saw torn invariant");
                        tx.work(ctx, 200)?;
                        tx.write(ctx, a, va + 1)?;
                        tx.write(ctx, b, vb + 1)
                    });
                }
            }),
            Box::new(move |ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::new(SystemKind::UfoHybrid, 1);
                t.install(ctx);
                for _ in 0..30 {
                    t.transaction(ctx, |tx, ctx| {
                        let va = tx.read(ctx, a)?;
                        let vb = tx.read(ctx, b)?;
                        assert_eq!(va, vb, "HW txn saw torn invariant");
                        tx.work(ctx, 50)?;
                        tx.write(ctx, a, va + 1)?;
                        tx.write(ctx, b, vb + 1)
                    });
                }
            }),
        ],
    );
    assert_eq!(r.machine.peek(a), 40);
    assert_eq!(r.machine.peek(b), 40);
    assert!(r.shared.stats.sw_commits >= 10, "thread 0 ran in software");
    assert!(r.shared.stats.hw_commits >= 1, "thread 1 ran in hardware");
}

#[test]
fn forced_failover_sends_hybrids_to_software() {
    for kind in [SystemKind::UfoHybrid, SystemKind::HyTm, SystemKind::PhTm] {
        let cfg = machine_for(kind, 1);
        let r = run_threads(
            kind,
            cfg,
            vec![Box::new(move |ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::new(kind, 0);
                t.install(ctx);
                for _ in 0..5 {
                    t.transaction(ctx, |tx, ctx| {
                        tx.force_failover(ctx)?;
                        let v = tx.read(ctx, COUNTER)?;
                        tx.write(ctx, COUNTER, v + 1)
                    });
                }
            })],
        );
        assert_eq!(r.machine.peek(COUNTER), 5, "{kind}");
        assert_eq!(r.shared.stats.sw_commits, 5, "{kind}: all in software");
        assert_eq!(r.shared.stats.forced_failovers, 5, "{kind}");
    }
}

#[test]
fn forced_failover_is_a_noop_for_pure_htm() {
    let cfg = machine_for(SystemKind::UnboundedHtm, 1);
    let r = run_threads(
        SystemKind::UnboundedHtm,
        cfg,
        vec![Box::new(|ctx: &mut Ctx<TmShared>| {
            let mut t = TmThread::new(SystemKind::UnboundedHtm, 0);
            t.install(ctx);
            t.transaction(ctx, |tx, ctx| {
                // In pure HTM, forcing has nothing to fail over to; the
                // driver retries in hardware and the retry is forced again…
                // so the microbenchmark never calls it for pure systems.
                // Here we only check the no-op path for software/plain.
                let v = tx.read(ctx, COUNTER)?;
                tx.write(ctx, COUNTER, v + 1)
            });
        })],
    );
    assert_eq!(r.shared.stats.hw_commits, 1);
}

#[test]
fn phtm_software_phase_aborts_concurrent_hardware() {
    let mut cfg = machine_for(SystemKind::PhTm, 2);
    cfg.l1 = CacheGeometry::new(4, 2);
    let r = run_threads(
        SystemKind::PhTm,
        cfg,
        vec![
            Box::new(|ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::new(SystemKind::PhTm, 0);
                t.install(ctx);
                // Overflows → mandatory software phase.
                for _ in 0..5 {
                    t.transaction(ctx, |tx, ctx| {
                        for i in 0..32u64 {
                            let addr = Addr(8192 + i * 64);
                            tx.write(ctx, addr, i)?;
                        }
                        Ok(())
                    });
                }
            }),
            Box::new(|ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::new(SystemKind::PhTm, 1);
                t.install(ctx);
                for _ in 0..40 {
                    t.transaction(ctx, |tx, ctx| {
                        let v = tx.read(ctx, COUNTER)?;
                        tx.work(ctx, 30)?;
                        tx.write(ctx, COUNTER, v + 1)
                    });
                }
            }),
        ],
    );
    assert_eq!(r.machine.peek(COUNTER), 40);
    assert!(r.shared.stats.sw_commits >= 5);
    assert!(
        r.shared.phtm.phase_aborts + r.shared.phtm.phase_stalls > 0,
        "hardware transactions must have noticed the software phase"
    );
}

#[test]
fn hytm_hw_txn_aborts_on_otable_conflict() {
    let mut cfg = machine_for(SystemKind::HyTm, 2);
    cfg.l1 = CacheGeometry::new(4, 2);
    let r = run_threads(
        SystemKind::HyTm,
        cfg,
        vec![
            Box::new(|ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::new(SystemKind::HyTm, 0);
                t.install(ctx);
                // Overflow → software; holds COUNTER's line in the otable.
                for _ in 0..5 {
                    t.transaction(ctx, |tx, ctx| {
                        let v = tx.read(ctx, COUNTER)?;
                        for i in 0..32u64 {
                            tx.write(ctx, Addr(8192 + i * 64), i)?;
                        }
                        tx.work(ctx, 500)?;
                        tx.write(ctx, COUNTER, v + 1)
                    });
                }
            }),
            Box::new(|ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::new(SystemKind::HyTm, 1);
                t.install(ctx);
                for _ in 0..40 {
                    t.transaction(ctx, |tx, ctx| {
                        let v = tx.read(ctx, COUNTER)?;
                        tx.work(ctx, 30)?;
                        tx.write(ctx, COUNTER, v + 1)
                    });
                }
            }),
        ],
    );
    assert_eq!(r.machine.peek(COUNTER), 45, "no lost updates across modes");
    assert!(r.shared.stats.sw_commits >= 5);
    // HyTM's signature behaviour: explicit aborts on otable conflicts.
    assert!(
        r.machine.stats().aggregate().aborts(AbortReason::Explicit) > 0,
        "expected explicit aborts from otable checks"
    );
}

#[test]
fn retry_in_hybrid_fails_over_and_wakes() {
    let flag = Addr(0);
    let data = Addr(4096);
    let cfg = machine_for(SystemKind::UfoHybrid, 2);
    let r = run_threads(
        SystemKind::UfoHybrid,
        cfg,
        vec![
            Box::new(move |ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::new(SystemKind::UfoHybrid, 0);
                t.install(ctx);
                let got = t.transaction(ctx, |tx, ctx| {
                    let f = tx.read(ctx, flag)?;
                    if f == 0 {
                        tx.retry(ctx)?;
                        unreachable!("retry never returns Ok");
                    }
                    tx.read(ctx, data)
                });
                assert_eq!(got, 7);
            }),
            Box::new(move |ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::new(SystemKind::UfoHybrid, 1);
                t.install(ctx);
                ctx.work(30_000).unwrap();
                t.transaction(ctx, |tx, ctx| {
                    tx.write(ctx, data, 7)?;
                    tx.write(ctx, flag, 1)
                });
            }),
        ],
    );
    assert_eq!(r.shared.ustm.stats.retries_woken, 1);
    assert_eq!(r.machine.peek(flag), 1);
}

#[test]
fn requester_wins_cm_still_correct() {
    use ufotm_machine::HwCmPolicy;
    let mut cfg = machine_for(SystemKind::UfoHybrid, 4);
    cfg.hw_cm = HwCmPolicy::RequesterWins;
    let r = run_threads(
        SystemKind::UfoHybrid,
        cfg,
        counter_bodies(SystemKind::UfoHybrid, 4, 15),
    );
    assert_eq!(r.machine.peek(COUNTER), 60);
}

#[test]
fn ufo_fault_stall_policy_still_correct() {
    use ufotm_core::{BtmUfoFaultPolicy, HybridPolicy};
    let mut cfg = machine_for(SystemKind::UfoHybrid, 2);
    cfg.l1 = CacheGeometry::new(8, 2);
    let policy = HybridPolicy {
        btm_ufo_fault: BtmUfoFaultPolicy::Stall,
        ..HybridPolicy::default()
    };
    let bodies: Vec<ThreadFn<TmShared>> = (0..2)
        .map(|cpu| -> ThreadFn<TmShared> {
            Box::new(move |ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::with_policy(SystemKind::UfoHybrid, cpu, policy);
                t.install(ctx);
                for _ in 0..10 {
                    t.transaction(ctx, |tx, ctx| {
                        let v = tx.read(ctx, COUNTER)?;
                        // Thread 0 sometimes overflows to software.
                        if cpu == 0 {
                            for i in 0..40u64 {
                                tx.write(ctx, Addr(8192 + i * 64), i)?;
                            }
                        }
                        tx.work(ctx, 50)?;
                        tx.write(ctx, COUNTER, v + 1)
                    });
                }
            })
        })
        .collect();
    let r = run_threads(SystemKind::UfoHybrid, cfg, bodies);
    assert_eq!(r.machine.peek(COUNTER), 20);
}

#[test]
fn failover_on_nth_conflict_policy_reaches_software() {
    use ufotm_core::HybridPolicy;
    let cfg = machine_for(SystemKind::UfoHybrid, 4);
    let policy = HybridPolicy::failover_on_nth_conflict(2);
    let bodies: Vec<ThreadFn<TmShared>> = (0..4)
        .map(|cpu| -> ThreadFn<TmShared> {
            Box::new(move |ctx: &mut Ctx<TmShared>| {
                let mut t = TmThread::with_policy(SystemKind::UfoHybrid, cpu, policy);
                t.install(ctx);
                for _ in 0..25 {
                    t.transaction(ctx, |tx, ctx| {
                        let v = tx.read(ctx, COUNTER)?;
                        tx.work(ctx, 120)?;
                        tx.write(ctx, COUNTER, v + 1)
                    });
                }
            })
        })
        .collect();
    let r = run_threads(SystemKind::UfoHybrid, cfg, bodies);
    assert_eq!(r.machine.peek(COUNTER), 100);
    assert!(
        r.shared.stats.sw_commits > 0,
        "contention should have pushed some transactions to software"
    );
}
