//! The run harness: builds a machine + world for a [`SystemKind`], runs the
//! workload threads, verifies, and collects the numbers the benchmark
//! drivers report.
//!
//! A STAMP workload is one [`Workload`] impl — layout, setup, one
//! backend-generic thread body, verification — and the harness owns the
//! only two drivers: [`run_sim`] on the simulated machine and
//! [`run_native`] on real OS threads (TL2-only or the failover hybrid,
//! per `spec.kind`).
//!
//! Simulated-address conventions: the first 4 KiB belong to the harness
//! (the phase barrier lives there); workload static data starts at 4 KiB;
//! the shared heap and TM metadata are placed by
//! [`TmSharedLayout::standard`](ufotm_core::TmSharedLayout).

use std::cell::RefCell;
use std::collections::BTreeMap;

use ufotm_core::{HybridPolicy, RunReport, SystemKind, TmBackend, TmShared, TmThread};
use ufotm_machine::{AbortReason, Addr, Machine, MachineConfig};
use ufotm_native::{
    run_hybrid_threads, run_threads, HybridStats, NativeHybrid, NativeHybridPolicy, NativeTl2,
};
use ufotm_sim::{Ctx, HandoffMode, Sim, ThreadFn};
use ufotm_ustm::UstmStats;

use crate::backend::SimBackend;
use crate::structures::Peek;
use crate::world::{Barrier, StampWorld};

/// Simulated address of the harness barrier counter.
const BARRIER_ADDR: Addr = Addr(64);

/// First simulated address available to workload static data.
pub const STATIC_BASE: Addr = Addr(4096);

/// Everything needed to run one workload configuration.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The TM system under test. [`run_native`] runs
    /// [`SystemKind::Tl2`] as the native TL2 alone and
    /// [`SystemKind::UfoHybrid`] as the native failover hybrid (and
    /// ignores `policy`, `machine` and the engine knobs).
    pub kind: SystemKind,
    /// Worker thread count (= CPUs used).
    pub threads: usize,
    /// Hybrid policy knobs.
    pub policy: HybridPolicy,
    /// Machine configuration (CPU count and unbounded-BTM flag are fixed up
    /// automatically).
    pub machine: MachineConfig,
    /// Engine scheduling quantum (0 = exact lockstep).
    pub quantum: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Override the USTM otable bin count (default: the standard layout's
    /// 16384). Used by the otable-size ablation.
    pub otable_bins_override: Option<u64>,
    /// Trace-journal cap in events (0 = tracing off). Enabling tracing
    /// populates the report's latency/retry histograms and runs the trace
    /// auditor over the run; recording is host-side only and charges no
    /// simulated cycles, so results are unchanged either way.
    pub trace_cap: usize,
    /// Run the engine in [`HandoffMode::Broadcast`] (no yield phase, every
    /// simulated CPU woken at each handoff) instead of the default targeted
    /// handoff. Both modes must simulate bit-identically; this knob exists
    /// so the determinism regression tests can prove it.
    pub broadcast_handoff: bool,
}

impl RunSpec {
    /// A spec with the paper's Table 4 machine.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    #[must_use]
    pub fn new(kind: SystemKind, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread");
        RunSpec {
            kind,
            threads,
            policy: HybridPolicy::default(),
            machine: MachineConfig::table4(threads.max(1)),
            quantum: 0,
            seed: 0xC0FF_EE11,
            otable_bins_override: None,
            trace_cap: 0,
            broadcast_handoff: false,
        }
    }

    fn machine_config(&self) -> MachineConfig {
        let mut cfg = self.machine.clone();
        cfg.cpus = self.threads;
        if self.kind.needs_unbounded_btm() {
            cfg.btm_unbounded = true;
        }
        cfg
    }
}

/// Collected results of one run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The system that ran.
    pub kind: SystemKind,
    /// Thread count.
    pub threads: usize,
    /// Simulated completion time (max CPU clock).
    pub makespan: u64,
    /// Transactions committed in hardware.
    pub hw_commits: u64,
    /// Transactions committed in software.
    pub sw_commits: u64,
    /// Transactions committed under the lock / serially.
    pub lock_commits: u64,
    /// Driver failovers by triggering reason.
    pub failovers: BTreeMap<AbortReason, u64>,
    /// Microbenchmark-forced failovers.
    pub forced_failovers: u64,
    /// USTM counters.
    pub ustm: UstmStats,
    /// Total simulated memory accesses.
    pub accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Nacked transactional requests.
    pub nacks: u64,
    /// UFO faults delivered.
    pub ufo_faults: u64,
    /// Cycles spent in explicit stalls.
    pub stall_cycles: u64,
    /// The full run report (deterministic JSON via
    /// [`RunReport::to_json`]). When the spec enabled tracing, collection
    /// already audited the journal: `report.trace.audit_violations` is 0
    /// for any correct run.
    pub report: RunReport,
    /// The rendered trace journal (empty when the spec left tracing off).
    /// A pure function of the recorded events, so two runs with identical
    /// journals render identical strings — the determinism tests compare
    /// these bytes directly.
    pub journal: String,
}

impl RunOutcome {
    /// Total committed transactions.
    #[must_use]
    pub fn total_commits(&self) -> u64 {
        self.hw_commits + self.sw_commits + self.lock_commits
    }

    /// Total BTM aborts.
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.report.machine.total_aborts()
    }

    /// Aborts for one reason.
    #[must_use]
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        self.report.machine.aborts(reason)
    }
}

/// A workload thread body, given its runtime and context.
pub type WorkBody = Box<dyn FnOnce(&mut TmThread, &mut Ctx<StampWorld>) + Send>;

/// Runs one configuration: `setup` initializes simulated memory, `make_body`
/// produces each thread's work, `verify` checks invariants on the final
/// world (panicking on violation).
pub fn run_workload(
    spec: &RunSpec,
    setup: impl FnOnce(&mut Machine, &mut StampWorld),
    make_body: impl Fn(usize) -> WorkBody,
    verify: impl FnOnce(&Machine, &StampWorld),
) -> RunOutcome {
    let cfg = spec.machine_config();
    let mut layout = ufotm_core::TmSharedLayout::standard(&cfg);
    if let Some(bins) = spec.otable_bins_override {
        layout.otable_bins = bins;
    }
    let mut tm = TmShared::new(spec.kind, cfg.cpus, layout);
    if spec.trace_cap > 0 {
        tm.trace.enable(spec.trace_cap);
    }
    let mut machine = Machine::new(cfg);
    let mut world = StampWorld {
        tm,
        barrier: Barrier::new(BARRIER_ADDR, spec.threads),
    };
    setup(&mut machine, &mut world);
    let kind = spec.kind;
    let policy = spec.policy;
    let bodies: Vec<ThreadFn<StampWorld>> = (0..spec.threads)
        .map(|cpu| {
            let body = make_body(cpu);
            let f: ThreadFn<StampWorld> = Box::new(move |ctx| {
                let mut t = TmThread::with_policy(kind, cpu, policy);
                t.install(ctx);
                body(&mut t, ctx);
            });
            f
        })
        .collect();
    let mode = if spec.broadcast_handoff {
        HandoffMode::Broadcast
    } else {
        HandoffMode::Targeted
    };
    let r = Sim::new(machine, world)
        .quantum(spec.quantum)
        .handoff_mode(mode)
        .run(bodies);
    verify(&r.machine, &r.shared);

    let agg = r.machine.stats().aggregate();
    let report = RunReport::collect(spec.seed, &r.machine, &r.shared.tm);
    let journal = if spec.trace_cap > 0 {
        r.shared.tm.trace.render()
    } else {
        String::new()
    };
    RunOutcome {
        kind: spec.kind,
        threads: spec.threads,
        makespan: r.makespan,
        hw_commits: r.shared.tm.stats.hw_commits,
        sw_commits: r.shared.tm.stats.sw_commits,
        lock_commits: r.shared.tm.stats.lock_commits,
        failovers: r.shared.tm.stats.failovers.clone(),
        forced_failovers: r.shared.tm.stats.forced_failovers,
        ustm: r.shared.tm.ustm.stats,
        accesses: agg.accesses,
        l1_misses: agg.l1_misses,
        nacks: agg.nacks,
        ufo_faults: agg.ufo_faults,
        stall_cycles: agg.stall_cycles,
        report,
        journal,
    }
}

/// One STAMP workload: a parameter set that knows its memory layout, how
/// to populate and verify it through host-side closures, and the one
/// thread body — generic over [`TmBackend`] — that every substrate runs.
///
/// `setup` and `verify` see memory only through the closure triple
/// [`BstMap::host_insert`](crate::structures::BstMap::host_insert) takes
/// (`peek`, `poke`, `alloc`), so the same code populates a simulated
/// machine and a native heap.
pub trait Workload: Copy + Send + Sync + 'static {
    /// One past the last static byte (native heaps allocate above it).
    fn static_end(&self) -> Addr;

    /// Words of transactional-allocation headroom a native heap needs
    /// (aborted attempts leak their allocations, so include slack);
    /// 0 for a workload that never allocates.
    fn native_alloc_words(&self) -> u64 {
        0
    }

    /// Logical transactions one run commits — the ops/sec numerator.
    fn ops(&self, seed: u64) -> u64;

    /// Populates initial state; runs before any worker starts. Memory
    /// starts zeroed, which is all some workloads need.
    fn setup(
        &self,
        _seed: u64,
        _peek: &Peek<'_>,
        _poke: &mut dyn FnMut(Addr, u64),
        _alloc: &mut dyn FnMut(u64) -> Addr,
    ) {
    }

    /// One thread's whole run.
    fn body<B: TmBackend>(&self, b: &mut B, seed: u64);

    /// Checks the final memory image, panicking on a violated invariant.
    fn verify(&self, seed: u64, peek: &Peek<'_>);
}

/// Runs `w` under `spec` on the simulated machine: `setup` through
/// `Machine::peek`/`poke` and the world's heap allocator (host-side, no
/// cycles charged), `body` on every simulated CPU through a
/// [`SimBackend`], `verify` on the final machine.
///
/// # Panics
///
/// Panics if verification fails.
pub fn run_sim<W: Workload>(spec: &RunSpec, w: &W) -> RunOutcome {
    let (w, seed, threads) = (*w, spec.seed, spec.threads);
    run_workload(
        spec,
        |m, world| {
            // `peek` and `poke` both need the machine; they are never
            // live in the same call, so a RefCell arbitrates.
            let m = RefCell::new(m);
            let heap = &mut world.tm.heap;
            w.setup(
                seed,
                &|a| m.borrow().peek(a),
                &mut |a, v| m.borrow_mut().poke(a, v),
                &mut |words| heap.alloc_line_aligned(words).expect("setup heap"),
            );
        },
        |tid| -> WorkBody {
            Box::new(move |t, ctx| w.body(&mut SimBackend::new(t, ctx, tid, threads), seed))
        },
        |m, _| w.verify(seed, &|a| m.peek(a)),
    )
}

/// Collected results of one native-backend run. Wall-clock timing is the
/// *caller's* job (`benchmark/` times its own windows); this crate stays
/// free of host clocks.
#[derive(Clone, Debug)]
pub struct NativeOutcome {
    /// Real OS threads that ran.
    pub threads: usize,
    /// Workload operations completed (the ops/sec numerator).
    pub ops: u64,
    /// Merged hybrid counters; `fast` holds the merged per-thread TL2
    /// counters. On a TL2-only run the slow-path and failover fields are
    /// zero, so [`NativeOutcome::total_commits`] is meaningful on both
    /// backends.
    pub hybrid: HybridStats,
}

impl NativeOutcome {
    /// Transactions committed on any tier (fast, slow or serial).
    #[must_use]
    pub fn total_commits(&self) -> u64 {
        self.hybrid.total_commits()
    }
}

/// Builds a native heap sized for statics ending at `static_end` (a byte
/// address, exclusive) plus `alloc_words` words of transactional
/// allocation headroom, with a 4096-stripe lock table.
#[must_use]
pub fn native_heap(static_end: Addr, alloc_words: u64) -> NativeTl2 {
    let base_word = static_end.0.next_multiple_of(64) / 8;
    NativeTl2::new(base_word + alloc_words, 1 << 12, base_word)
}

/// Builds native hybrid shared state with a heap sized like
/// [`native_heap`] (statics ending at `static_end` plus `alloc_words` of
/// transactional headroom), a 4096-stripe lock table, and the USTM's
/// owner word per stripe and status slot per thread for `threads`.
#[must_use]
pub fn native_hybrid_world(static_end: Addr, alloc_words: u64, threads: usize) -> NativeHybrid {
    let base_word = static_end.0.next_multiple_of(64) / 8;
    NativeHybrid::new(
        base_word + alloc_words,
        1 << 12,
        base_word,
        threads,
        NativeHybridPolicy::default(),
    )
}

/// Runs `w` on real OS threads — host-atomics TL2 or the failover
/// hybrid, per `spec.kind`: the same `setup`, `body` and `verify` as
/// [`run_sim`], over a native heap sized from the workload's layout.
///
/// # Panics
///
/// Panics if `spec.kind` is neither [`SystemKind::Tl2`] nor
/// [`SystemKind::UfoHybrid`], or if verification (or a worker) panics.
pub fn run_native<W: Workload>(spec: &RunSpec, w: &W) -> NativeOutcome {
    let (seed, threads) = (spec.seed, spec.threads);
    let around = |heap: &NativeTl2, workers: &dyn Fn() -> HybridStats| {
        w.setup(
            seed,
            &|a| heap.peek(a),
            &mut |a, v| heap.poke(a, v),
            &mut |words| heap.host_alloc(words),
        );
        let hybrid = workers();
        w.verify(seed, &|a| heap.peek(a));
        NativeOutcome {
            threads,
            ops: w.ops(seed),
            hybrid,
        }
    };
    match spec.kind {
        SystemKind::Tl2 => {
            let heap = native_heap(w.static_end(), w.native_alloc_words());
            around(&heap, &|| HybridStats {
                fast: run_threads(&heap, threads, |th| w.body(th, seed)).0,
                ..HybridStats::default()
            })
        }
        SystemKind::UfoHybrid => {
            let world = native_hybrid_world(w.static_end(), w.native_alloc_words(), threads);
            around(world.tl2(), &|| {
                run_hybrid_threads(&world, threads, |th| w.body(th, seed)).0
            })
        }
        other => panic!("no native backend runs {other}: use SystemKind::Tl2 or UfoHybrid"),
    }
}

/// Splits `total` items into per-thread `(start, end)` chunks.
#[must_use]
pub fn chunk(total: usize, threads: usize, tid: usize) -> (usize, usize) {
    let base = total / threads;
    let rem = total % threads;
    let start = tid * base + tid.min(rem);
    let len = base + usize::from(tid < rem);
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_exactly() {
        for total in [0, 1, 7, 100, 101] {
            for threads in [1, 2, 3, 8] {
                let mut covered = 0;
                let mut expected_start = 0;
                for tid in 0..threads {
                    let (s, e) = chunk(total, threads, tid);
                    assert_eq!(s, expected_start);
                    assert!(e >= s);
                    covered += e - s;
                    expected_start = e;
                }
                assert_eq!(covered, total, "total={total} threads={threads}");
            }
        }
    }

    #[test]
    fn native_total_commits_counts_the_serial_tier() {
        // One slow-path transaction that escalated after `serial_after`
        // kills commits on the serial tier only; it is still a commit.
        let mut hybrid = HybridStats {
            serial_commits: 1,
            serial_escalations: 1,
            ..HybridStats::default()
        };
        hybrid.fast.commits = 5;
        hybrid.slow.commits = 2;
        let out = NativeOutcome {
            threads: 2,
            ops: 8,
            hybrid,
        };
        assert_eq!(out.total_commits(), out.ops);
    }
}
