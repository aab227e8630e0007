//! Single-thread probes of each layer's public functions, timed from
//! outside. They do not depend on the workload, so every traced run
//! reports them; a workload's own counts sit beside them.
//!
//! Each probe repeats a batch until its time budget is spent and reports
//! the median nanoseconds per iteration over batches, which shrugs off
//! the odd preempted batch.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ufotm_core::{SystemKind, TmBackend, TxScope};
use ufotm_machine::{Addr, Machine, MachineConfig, SimRng};
use ufotm_native::{HybridThread, NativeHybrid, NativeThread, NativeTl2, NativeTxn, NativeUstmTxn};
use ufotm_sim::{Ctx, Sim, ThreadFn};
use ufotm_stamp::harness::STATIC_BASE;

use crate::metrics::Metrics;
use crate::native::{drive, Phase, PhaseKind, Workload};
use crate::ref_tl2::RefTl2;
use crate::sim::SimWorkload;
use crate::stats::median;
use crate::workloads::{Reserve, Spread, SPREAD_SLOTS};

/// Median ns per iteration of `batch`, which performs `iters` iterations.
fn ns_per_iter(budget: Duration, iters: u64, mut batch: impl FnMut()) -> f64 {
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 3 || Instant::now() < deadline {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&samples)
}

fn spread_slot(rng: &mut SimRng) -> Addr {
    Addr(STATIC_BASE.0 + rng.gen_range(0..SPREAD_SLOTS) * 64)
}

/// The step API both native transaction handles share in shape.
trait StepTxn {
    fn begin(&mut self);
    fn read(&mut self, a: Addr) -> u64;
    fn write(&mut self, a: Addr, v: u64);
    fn commit(&mut self);
}

impl StepTxn for NativeTxn<'_> {
    fn begin(&mut self) {
        NativeTxn::begin(self);
    }
    fn read(&mut self, a: Addr) -> u64 {
        NativeTxn::read(self, a).expect("uncontended read")
    }
    fn write(&mut self, a: Addr, v: u64) {
        NativeTxn::write(self, a, v).expect("buffered write");
    }
    fn commit(&mut self) {
        NativeTxn::commit(self).expect("uncontended commit");
    }
}

impl StepTxn for NativeUstmTxn<'_> {
    fn begin(&mut self) {
        NativeUstmTxn::begin(self);
    }
    fn read(&mut self, a: Addr) -> u64 {
        NativeUstmTxn::read(self, a).expect("uncontended read")
    }
    fn write(&mut self, a: Addr, v: u64) {
        NativeUstmTxn::write(self, a, v).expect("uncontended write");
    }
    fn commit(&mut self) {
        NativeUstmTxn::commit(self).expect("uncontended commit");
    }
}

struct Steps {
    begin: f64,
    read: f64,
    write: f64,
    commit: f64,
    readonly_commit: f64,
    txn: f64,
    /// Cost of one `Instant::now()`, already subtracted from each step.
    timer: f64,
}

const STEP_BATCH: usize = 256;

/// Times each step of a one-read-one-write increment on a random spread
/// slot. Every timed step includes one `Instant::now()`; two back-to-back
/// calls in the same iteration measure that cost, batch by batch, so the
/// subtraction tracks whatever speed the core runs at just then.
fn steps(t: &mut impl StepTxn, seed: u64, budget: Duration) -> Steps {
    let mut rng = SimRng::seed_from_u64(seed);
    let deadline = Instant::now() + budget / 2;
    let mut per_batch: [Vec<f64>; 6] = Default::default();
    while per_batch[0].len() < 3 || Instant::now() < deadline {
        let mut sums = [0u128; 6];
        for _ in 0..STEP_BATCH {
            let a = spread_slot(&mut rng);
            let t0 = Instant::now();
            t.begin();
            let t1 = Instant::now();
            let v = t.read(a);
            let t2 = Instant::now();
            t.write(a, v + 1);
            let t3 = Instant::now();
            t.commit();
            let t4 = Instant::now();
            // And a read-only transaction, for its commit alone.
            t.begin();
            black_box(t.read(a));
            let t5 = Instant::now();
            t.commit();
            let t6 = Instant::now();
            let t7 = Instant::now();
            for (s, d) in
                sums.iter_mut()
                    .zip([t1 - t0, t2 - t1, t3 - t2, t4 - t3, t6 - t5, t7 - t6])
            {
                *s += d.as_nanos();
            }
        }
        let timer = sums[5] as f64 / STEP_BATCH as f64;
        for (v, s) in per_batch.iter_mut().zip(&sums[..5]) {
            v.push((*s as f64 / STEP_BATCH as f64 - timer).max(0.0));
        }
        per_batch[5].push(timer);
    }
    let txn = ns_per_iter(budget / 2, 1024, || {
        for _ in 0..1024 {
            let a = spread_slot(&mut rng);
            t.begin();
            let v = t.read(a);
            t.write(a, v + 1);
            t.commit();
        }
    });
    Steps {
        begin: median(&per_batch[0]),
        read: median(&per_batch[1]),
        write: median(&per_batch[2]),
        commit: median(&per_batch[3]),
        readonly_commit: median(&per_batch[4]),
        txn,
        timer: median(&per_batch[5]),
    }
}

fn increment(tx: &mut dyn TxScope, a: Addr) -> Result<(), ufotm_core::Stop> {
    let v = tx.read(a)?;
    tx.write(a, v + 1)
}

/// ns per transaction of the spread body through a backend handle.
fn backend_txn_ns<B: TmBackend>(b: &mut B, seed: u64, budget: Duration, force_slow: bool) -> f64 {
    let mut rng = SimRng::seed_from_u64(seed);
    ns_per_iter(budget, 512, || {
        for _ in 0..512 {
            let a = spread_slot(&mut rng);
            if force_slow {
                b.force_failover_next();
            }
            b.transaction(|tx| increment(tx, a));
        }
    })
}

/// Commits per second of the spread workload on `threads` workers.
fn spread_commits_per_s(threads: usize, seed: u64, budget: Duration) -> f64 {
    let world = Spread.build(threads);
    let phases = [
        Phase {
            kind: PhaseKind::Warmup,
            dur: budget / 2,
        },
        Phase {
            kind: PhaseKind::Untraced,
            dur: budget * 2,
        },
    ];
    drive(&Spread, &world, threads, &phases, seed).windows[0].commits_per_s()
}

/// Host ns per operation of a private-line plain-store loop through
/// `Sim::run`: at 1 CPU there is nothing to hand off to, at 2 CPUs in
/// exact lockstep nearly every operation hands off.
fn engine_op_ns(cpus: usize, ops_per_cpu: u64, budget: Duration) -> f64 {
    ns_per_iter(budget, cpus as u64 * ops_per_cpu, || {
        let mut cfg = MachineConfig::table4(cpus);
        cfg.timer_quantum = None;
        let bodies: Vec<ThreadFn<()>> = (0..cpus)
            .map(|cpu| {
                let a = Addr(STATIC_BASE.0 + cpu as u64 * 4096);
                let body: ThreadFn<()> = Box::new(move |ctx: &mut Ctx<()>| {
                    for i in 0..ops_per_cpu {
                        ctx.store(a, i).expect("plain store to a private line");
                    }
                });
                body
            })
            .collect();
        black_box(Sim::new(Machine::new(cfg), ()).run(bodies));
    })
}

/// ns per guard window: one `debug_open_window` and its drop, an
/// `mprotect` pair over one page.
fn window_pair_ns(heap: &NativeTl2, budget: Duration) -> f64 {
    ns_per_iter(budget, 64, || {
        for i in 0..64u64 {
            drop(black_box(
                heap.debug_open_window(&[Addr(STATIC_BASE.0 + i * 64)]),
            ));
        }
    })
}

/// Probes the native layers (a traced native run calls this; on a
/// simulator workload these metrics read 0). `budget` is the time each
/// probe may spend; `nproc` gates the two-thread cells.
pub fn native_layers(m: &mut Metrics, seed: u64, budget: Duration, nproc: usize) {
    let world: NativeHybrid = Spread.build(1);
    let heap: &NativeTl2 = world.tl2();

    let s = steps(&mut NativeTxn::new(heap, 0), seed, budget);
    m.put("native.tl2.begin_ns", s.begin);
    m.put("native.tl2.read_ns", s.read);
    m.put("native.tl2.write_ns", s.write);
    m.put("native.tl2.commit_ns", s.commit);
    m.put("native.tl2.readonly_commit_ns", s.readonly_commit);
    m.put("native.tl2.txn_1r1w_ns", s.txn);

    m.put("native.guard.window_ns", window_pair_ns(heap, budget));
    // The same pair while a second thread runs in this address space:
    // every mprotect must now shoot down the other core's TLB.
    if nproc >= 2 {
        let stop = AtomicBool::new(false);
        let busy_ns = std::thread::scope(|s| {
            s.spawn(|| {
                let far = Addr(STATIC_BASE.0 + (SPREAD_SLOTS - 1) * 64);
                while !stop.load(Ordering::Relaxed) {
                    black_box(heap.peek(far));
                }
            });
            let ns = window_pair_ns(heap, budget);
            stop.store(true, Ordering::Relaxed);
            ns
        });
        m.put("native.guard.window_2t_ns", busy_ns);
    }

    let mut ustm_txn = NativeUstmTxn::new(heap, world.ustm(), 0);
    let s = steps(&mut ustm_txn, seed, budget);
    m.put("native.ustm.begin_ns", s.begin);
    m.put("native.ustm.read_ns", s.read);
    m.put("native.ustm.write_ns", s.write);
    m.put("native.ustm.commit_ns", s.commit);
    // A slow commit less its guard window. Both cost microseconds and
    // differ by little, so they are timed in pairs, batch by batch, and
    // the median difference is reported: drift cancels.
    let mut rng = SimRng::seed_from_u64(seed);
    let mut diffs = Vec::new();
    let deadline = Instant::now() + budget;
    while diffs.len() < 3 || Instant::now() < deadline {
        let mut commit = Duration::ZERO;
        let t = Instant::now();
        for _ in 0..64 {
            drop(black_box(heap.debug_open_window(&[spread_slot(&mut rng)])));
        }
        let windows = t.elapsed();
        for _ in 0..64 {
            let a = spread_slot(&mut rng);
            ustm_txn.begin();
            let v = StepTxn::read(&mut ustm_txn, a);
            StepTxn::write(&mut ustm_txn, a, v + 1);
            let t = Instant::now();
            StepTxn::commit(&mut ustm_txn);
            commit += t.elapsed();
        }
        diffs.push((commit.as_nanos() as f64 - windows.as_nanos() as f64) / 64.0 - s.timer);
    }
    m.put("native.ustm.commit_self_ns", median(&diffs));
    m.put("native.ustm.txn_1r1w_ns", s.txn);

    let barrier = Barrier::new(1);
    let tl2_ns = backend_txn_ns(
        &mut NativeThread::new(heap, &barrier, 0, 1),
        seed,
        budget,
        false,
    );
    let mut hybrid = HybridThread::new(&world, None, 0, 1);
    let fast_ns = backend_txn_ns(&mut hybrid, seed, budget, false);
    let slow_ns = backend_txn_ns(&mut hybrid, seed, budget, true);
    m.put("native.hybrid.fast_overhead_ns", fast_ns - tl2_ns);
    m.put("native.hybrid.slow_txn_ns", slow_ns);
    m.put("native.hybrid.failover_penalty_ns", slow_ns - fast_ns);

    let one = spread_commits_per_s(1, seed, budget);
    m.put("native.hybrid.commits_per_s_1t", one);
    if nproc >= 2 {
        let two = spread_commits_per_s(2, seed, budget);
        m.put("native.hybrid.commits_per_s_2t", two);
        m.put("native.hybrid.scale_2t_over_1t", two / one);
    }

    let words = (STATIC_BASE.0 + SPREAD_SLOTS * 64) / 8;
    m.put(
        "native.heap.new_ns",
        ns_per_iter(budget, 1, || {
            black_box(NativeTl2::new(words, 1 << 12, words));
        }),
    );
    let mut rng = SimRng::seed_from_u64(seed);
    m.put(
        "native.heap.peek_ns",
        ns_per_iter(budget / 2, 4096, || {
            for _ in 0..4096 {
                black_box(heap.peek(spread_slot(&mut rng)));
            }
        }),
    );
    m.put(
        "native.heap.poke_ns",
        ns_per_iter(budget / 2, 4096, || {
            for i in 0..4096 {
                heap.poke(spread_slot(&mut rng), i);
            }
        }),
    );

    // One word per line, like the spread slots.
    let reference = RefTl2::new(SPREAD_SLOTS as usize * 8);
    let mut done = 0u64;
    m.put(
        "ref.tl2.txn_1r1w_ns",
        ns_per_iter(budget, 1024, || {
            for _ in 0..1024 {
                reference.increment(rng.gen_range(0..SPREAD_SLOTS) as usize * 8);
            }
            done += 1024;
        }),
    );
    let sum: u64 = (0..SPREAD_SLOTS as usize)
        .map(|i| reference.peek(i * 8))
        .sum();
    assert_eq!(sum, done, "the reference TL2 lost an increment");

    let reserve = Reserve;
    let tables = reserve.build(1);
    let mut txn = NativeTxn::new(tables.tl2(), 0);
    m.put(
        "stamp.bst_lookup_ns",
        ns_per_iter(budget, 16 * 64, || {
            for seq in 0..64 {
                let input = reserve.next(&mut rng, 0, seq);
                txn.begin();
                black_box(reserve.lookups(&mut txn, &input)).expect("uncontended lookups");
                txn.commit().expect("read-only commit");
            }
        }),
    );
}

/// Probes the simulator layers (a traced simulator run calls this, so
/// the probes run under the same one-core confinement as the workload;
/// on a native workload these metrics read 0).
pub fn sim_layers(m: &mut Metrics, seed: u64, budget: Duration) {
    let op1 = engine_op_ns(1, 400_000, budget);
    let op2 = engine_op_ns(2, 20_000, budget);
    m.put("sim.engine.op_ns_1cpu", op1);
    m.put("sim.engine.op_ns_2cpu", op2);
    m.put("sim.engine.handoff_ns", op2 - op1);

    let mut cfg = MachineConfig::table4(1);
    cfg.timer_quantum = None;
    let mut machine = Machine::new(cfg);
    let a = STATIC_BASE;
    machine.store(0, a, 1).expect("plain store");
    m.put(
        "machine.load_hit_ns",
        ns_per_iter(budget / 2, 4096, || {
            for _ in 0..4096 {
                black_box(machine.load(0, a)).expect("plain load");
            }
        }),
    );
    m.put(
        "machine.store_hit_ns",
        ns_per_iter(budget / 2, 4096, || {
            for i in 0..4096 {
                machine.store(0, a, i).expect("plain store");
            }
        }),
    );
    m.put(
        "machine.btm_txn_ns",
        ns_per_iter(budget / 2, 1024, || {
            for _ in 0..1024 {
                machine.btm_begin(0).expect("btm begin");
                let v = machine.load(0, a).expect("speculative load");
                machine.store(0, a, v + 1).expect("speculative store");
                machine.btm_end(0).expect("btm commit");
            }
        }),
    );

    // The TM runtime's host cost per simulated access: a 1-CPU micro run
    // (no handoffs) less the bare engine's cost per operation. And the
    // journal's cost per event: the same run with tracing on and off by
    // turns, the fastest of four each (what disturbs a run only slows it).
    let (mut off, mut on, mut events, mut accesses) = (f64::MAX, f64::MAX, 0, 0);
    for _ in 0..4 {
        let plain = SimWorkload::Micro.run(SystemKind::UfoHybrid, 1, seed, 0.5, 0);
        let traced = SimWorkload::Micro.run(SystemKind::UfoHybrid, 1, seed, 0.5, 1 << 20);
        off = off.min(plain.host().as_nanos() as f64);
        on = on.min(traced.host().as_nanos() as f64);
        events = traced.out.report.trace.events;
        accesses = plain.out.accesses;
    }
    m.put(
        "core.runtime_ns_per_access",
        off / accesses.max(1) as f64 - op1,
    );
    m.put("core.trace_ns_per_event", (on - off) / events.max(1) as f64);
}
