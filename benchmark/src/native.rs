//! The native driver: real worker threads issuing transactions against
//! one persistent warm [`NativeHybrid`] world, in timed phases.
//!
//! Closed loop: each worker issues its next transaction when the
//! previous one commits. Worker 0 checks the clock every 256
//! transactions and raises the stop flag; between phases the workers
//! meet at the phase barrier and worker 0 runs the correctness oracle on
//! the quiescent world. The controller thread only joins.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ufotm_core::{Stop, TmBackend, TxScope};
use ufotm_machine::SimRng;
use ufotm_native::{run_hybrid_threads, GuardStats, HybridStats, HybridThread, NativeHybrid};

use crate::placement::{allowed_cpus, pin_current_thread};
use crate::stats::LatencyHistogram;
use crate::trace::{TimedScope, Tracer};

/// Latency is sampled on one transaction in 17: coprime with the
/// failover stride of 8, so forced-slow transactions are sampled in
/// proportion.
const SAMPLE_STRIDE: u64 = 17;

/// A native workload: a world, a seeded input generator, a transaction
/// body over generated inputs, and an oracle.
pub trait Workload: Sync {
    type Input;

    /// Worker threads on a host with `nproc` usable cores: two where
    /// there are two, unless the workload says otherwise.
    fn workers(&self, nproc: usize) -> usize {
        nproc.min(2)
    }

    /// Constructs and populates the world (timed as `setup_s`).
    fn build(&self, threads: usize) -> NativeHybrid;

    /// Generates the input of thread `tid`'s transaction number `seq`.
    fn next(&self, rng: &mut SimRng, tid: usize, seq: u64) -> Self::Input;

    /// Whether transaction `seq` is forced onto the slow path.
    fn force_slow(&self, _seq: u64) -> bool {
        false
    }

    /// The transaction body; may run several times for one input.
    fn body(&self, tx: &mut dyn TxScope, tid: usize, input: &Self::Input) -> Result<(), Stop>;

    /// Checks the quiescent world after each thread has committed
    /// `commits[tid]` transactions since `build`.
    fn verify(&self, world: &NativeHybrid, commits: &[u64]) -> Result<(), String>;
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// Runs the loop, reports nothing.
    Warmup,
    /// Measured as a user would see it; latency sampled.
    Untraced,
    /// Every transaction wrapped in spans.
    Traced,
}

#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub kind: PhaseKind,
    pub dur: Duration,
}

/// One measured phase, all threads together.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub kind: PhaseKind,
    pub commits: u64,
    pub ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub samples: u64,
    /// Commits of this window that the oracle could not vouch for.
    pub failed: u64,
}

impl Window {
    pub fn commits_per_s(&self) -> f64 {
        self.commits as f64 * 1e9 / self.ns.max(1) as f64
    }
}

/// What [`drive`] hands back.
pub struct Driven {
    pub windows: Vec<Window>,
    /// Counters over the measured (non-warm-up) phases, all threads.
    pub stats: HybridStats,
    pub guard: GuardStats,
    pub tracers: Vec<Tracer>,
    pub oracle_errors: Vec<String>,
    /// Whether every worker pinned itself to a core of its own (always
    /// true for a single worker, which has no one to share lines with).
    pub pinned: bool,
}

struct Control<'a> {
    seed: u64,
    phases: &'a [Phase],
    epoch: Instant,
    stop: AtomicBool,
    commits: Vec<AtomicU64>,
    elapsed_ns: Vec<AtomicU64>,
    samples: Mutex<LatencyHistogram>,
    windows: Mutex<Vec<Window>>,
    guard_base: Mutex<GuardStats>,
    errors: Mutex<Vec<String>>,
    /// The core of each worker, when there are cores enough for a core
    /// each; empty otherwise.
    cores: Vec<usize>,
    unpinned: AtomicU64,
}

/// Runs `phases` back to back on `threads` workers over `world`.
pub fn drive<W: Workload>(
    w: &W,
    world: &NativeHybrid,
    threads: usize,
    phases: &[Phase],
    seed: u64,
) -> Driven {
    let ctl = Control {
        seed,
        phases,
        epoch: Instant::now(),
        stop: AtomicBool::new(false),
        commits: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        elapsed_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        samples: Mutex::new(LatencyHistogram::new()),
        windows: Mutex::new(Vec::new()),
        guard_base: Mutex::new(GuardStats::default()),
        errors: Mutex::new(Vec::new()),
        cores: Some(allowed_cpus())
            .filter(|cpus| threads > 1 && cpus.len() >= threads)
            .unwrap_or_default(),
        unpinned: AtomicU64::new(0),
    };
    let (_, outs) = run_hybrid_threads(world, threads, |th| worker(w, world, th, &ctl));
    let mut stats = HybridStats::default();
    let mut tracers = Vec::new();
    for (delta, tracer) in outs {
        stats.merge(&delta);
        tracers.push(tracer);
    }
    let base = *ctl.guard_base.lock().expect("guard base lock");
    let end = world.guard_stats();
    Driven {
        windows: ctl.windows.into_inner().expect("windows lock"),
        stats,
        guard: GuardStats {
            guarded: end.guarded,
            windows_opened: end.windows_opened - base.windows_opened,
            faults_in_window: end.faults_in_window - base.faults_in_window,
            faults_after_window: end.faults_after_window - base.faults_after_window,
        },
        tracers,
        oracle_errors: ctl.errors.into_inner().expect("errors lock"),
        pinned: threads == 1
            || (!ctl.cores.is_empty() && ctl.unpinned.load(Ordering::Relaxed) == 0),
    }
}

fn worker<W: Workload>(
    w: &W,
    world: &NativeHybrid,
    th: &mut HybridThread<'_>,
    ctl: &Control<'_>,
) -> (HybridStats, Tracer) {
    let tid = th.tid();
    let mut rng = SimRng::seed_from_u64(ctl.seed ^ ((tid as u64 + 1) << 32));
    let mut seq = 0u64;
    let mut lat = LatencyHistogram::new();
    let mut tracer = Tracer::new(ctl.epoch, tid);
    let mut base: Option<HybridStats> = None;
    let mut commits_before = 0u64;
    if let Some(&core) = ctl.cores.get(tid) {
        if !pin_current_thread(core) {
            ctl.unpinned.fetch_add(1, Ordering::Relaxed);
        }
    }
    th.barrier();
    for phase in ctl.phases {
        if phase.kind != PhaseKind::Warmup && base.is_none() {
            base = Some(th.stats());
            if tid == 0 {
                *ctl.guard_base.lock().expect("guard base lock") = world.guard_stats();
            }
        }
        lat.clear();
        let t0 = Instant::now();
        // Relaxed: the flag publishes no data; the barriers order the rest.
        while !ctl.stop.load(Ordering::Relaxed) {
            let input = w.next(&mut rng, tid, seq);
            if w.force_slow(seq) {
                th.force_failover_next();
            }
            if phase.kind == PhaseKind::Traced {
                tracer.begin_txn();
                th.transaction(|tx| w.body(&mut TimedScope::new(tx, &mut tracer), tid, &input));
                tracer.end_txn();
            } else if seq.is_multiple_of(SAMPLE_STRIDE) {
                let t = Instant::now();
                th.transaction(|tx| w.body(tx, tid, &input));
                lat.record(t.elapsed().as_nanos() as u64);
            } else {
                th.transaction(|tx| w.body(tx, tid, &input));
            }
            seq += 1;
            if tid == 0 && seq.is_multiple_of(256) && t0.elapsed() >= phase.dur {
                ctl.stop.store(true, Ordering::Relaxed);
            }
        }
        ctl.elapsed_ns[tid].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        ctl.commits[tid].store(seq, Ordering::Relaxed);
        ctl.samples.lock().expect("samples lock").merge(&lat);
        th.barrier();
        if tid == 0 {
            commits_before = close_phase(w, world, ctl, *phase, commits_before);
        }
        th.barrier();
    }
    let delta = base.map_or_else(HybridStats::default, |b| stats_since(&th.stats(), &b));
    (delta, tracer)
}

/// Worker 0, with every worker parked at the barrier: runs the oracle
/// and records the window. Returns the commit total so far.
fn close_phase<W: Workload>(
    w: &W,
    world: &NativeHybrid,
    ctl: &Control<'_>,
    phase: Phase,
    commits_before: u64,
) -> u64 {
    let commits: Vec<u64> = ctl
        .commits
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    let total: u64 = commits.iter().sum();
    let mut problems = Vec::new();
    if let Err(e) = w.verify(world, &commits) {
        problems.push(e);
    }
    if let Err(e) = world.ustm().audit() {
        problems.push(format!("ownership-table audit: {e}"));
    }
    let owned = world.ustm().owned_lines();
    if owned != 0 {
        problems.push(format!("{owned} ownership records left at quiescence"));
    }
    let mut samples = ctl.samples.lock().expect("samples lock");
    if phase.kind != PhaseKind::Warmup {
        let ns = ctl
            .elapsed_ns
            .iter()
            .map(|e| e.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        ctl.windows.lock().expect("windows lock").push(Window {
            kind: phase.kind,
            commits: total - commits_before,
            ns,
            p50_ns: samples.percentile(0.50),
            p99_ns: samples.percentile(0.99),
            samples: samples.count(),
            failed: if problems.is_empty() {
                0
            } else {
                total - commits_before
            },
        });
    }
    samples.clear();
    ctl.errors.lock().expect("errors lock").extend(problems);
    ctl.stop.store(false, Ordering::Relaxed);
    total
}

/// `now - base`, field by field.
fn stats_since(now: &HybridStats, base: &HybridStats) -> HybridStats {
    let mut d = *now;
    d.fast.begins -= base.fast.begins;
    d.fast.commits -= base.fast.commits;
    d.fast.read_validation_aborts -= base.fast.read_validation_aborts;
    d.fast.lock_busy_aborts -= base.fast.lock_busy_aborts;
    d.fast.commit_validation_aborts -= base.fast.commit_validation_aborts;
    d.slow.begins -= base.slow.begins;
    d.slow.commits -= base.slow.commits;
    d.slow.aborts_killed -= base.slow.aborts_killed;
    d.slow.aborts_explicit -= base.slow.aborts_explicit;
    d.slow.kills_issued -= base.slow.kills_issued;
    d.slow.stalls -= base.slow.stalls;
    d.failovers -= base.failovers;
    d.forced_failovers -= base.forced_failovers;
    d.serial_commits -= base.serial_commits;
    d.serial_escalations -= base.serial_escalations;
    d
}
