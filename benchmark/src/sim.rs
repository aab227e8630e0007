//! The two simulator workloads: fixed work per window, host time
//! measured around one whole simulation.
//!
//! Simulated results are a pure function of the inputs, so every window
//! of a run must report the same makespan and the same report digest;
//! a window that differs fails the run.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use ufotm_core::{SystemKind, TmBackend};
use ufotm_machine::{Machine, SimRng};
use ufotm_stamp::harness::{chunk, run_workload, WorkBody};
use ufotm_stamp::micro::{self, MicroParams};
use ufotm_stamp::{RunOutcome, RunSpec, SimBackend, StampWorld};

use crate::native::Workload;
use crate::workloads::Reserve;

/// A simulator workload: the system, CPU count and inputs of one window.
#[derive(Clone, Copy, Debug)]
pub enum SimWorkload {
    /// `micro::run`: 2 simulated CPUs in exact lockstep, so the engine
    /// hands off on nearly every operation.
    Micro,
    /// Vacation-shaped reservations on 1 simulated CPU, so no handoffs at
    /// all and host time is the machine model, the simulated USTM and the
    /// runtime. The body is [`Reserve`]'s, the one `native_reserve` runs,
    /// through `SimBackend`: `vacation::run` rebuilds its tables from the
    /// seed, and its makespan then swings by a factor of 1.8 between
    /// seeds, which would drown every host-time comparison across seeds.
    Vacation,
}

/// Transactions per simulated thread in one `sim_micro` window.
const MICRO_TXNS: usize = 100_000;
/// Tasks in one `sim_vacation` window.
const VACATION_TASKS: usize = 20_000;

impl SimWorkload {
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::Micro => "micro::run",
            SimWorkload::Vacation => "reserve on SimBackend",
        }
    }

    pub fn cpus(self) -> usize {
        match self {
            SimWorkload::Micro => 2,
            SimWorkload::Vacation => 1,
        }
    }

    /// Runs one window at `scale` (1.0 = the reference window, 0.0 = a
    /// zero-transaction run, which is what `setup_s` times). `verify`
    /// runs inside and panics on a violated invariant.
    pub fn run(
        self,
        kind: SystemKind,
        cpus: usize,
        seed: u64,
        scale: f64,
        trace_cap: usize,
    ) -> Timed {
        let mut spec = RunSpec::new(kind, cpus);
        spec.seed = seed;
        spec.quantum = 0;
        spec.trace_cap = trace_cap;
        let start = Instant::now();
        let out = match self {
            SimWorkload::Micro => micro::run(
                &spec,
                &MicroParams {
                    txns_per_thread: (MICRO_TXNS as f64 * scale) as usize,
                    ..MicroParams::with_rate(0.1)
                },
            ),
            SimWorkload::Vacation => reserve(&spec, (VACATION_TASKS as f64 * scale) as usize),
        };
        let end = Instant::now();
        Timed { out, start, end }
    }

    /// The reference window: the UFO hybrid at this workload's CPU count.
    pub fn reference(self, seed: u64, trace_cap: usize) -> Timed {
        self.run(SystemKind::UfoHybrid, self.cpus(), seed, 1.0, trace_cap)
    }
}

/// Runs `tasks` reservation transactions, split over the spec's threads,
/// on the simulated machine; panics if the conservation law is broken.
fn reserve(spec: &RunSpec, tasks: usize) -> RunOutcome {
    let (seed, threads) = (spec.seed, spec.threads);
    let setup = |m: &mut Machine, w: &mut StampWorld| {
        // host_insert peeks and pokes by turns, never at once.
        let m = RefCell::new(m);
        let heap = &mut w.tm.heap;
        for (map, key, values) in Reserve::fixture() {
            map.host_insert(
                &|a| m.borrow().peek(a),
                &mut |a, v| m.borrow_mut().poke(a, v),
                &mut |words| heap.alloc_line_aligned(words).expect("set-up heap"),
                key,
                &values,
            );
        }
    };
    let make_body = move |tid: usize| -> WorkBody {
        Box::new(move |t, ctx| {
            let mut b = SimBackend::new(t, ctx, tid, threads);
            let mut rng = SimRng::seed_from_u64(seed ^ ((tid as u64 + 1) << 32));
            let (start, end) = chunk(tasks, threads, tid);
            for seq in start..end {
                let input = Reserve.next(&mut rng, tid, seq as u64);
                b.transaction(|tx| Reserve.body(tx, tid, &input));
            }
        })
    };
    let verify = |m: &Machine, _: &StampWorld| {
        if let Err(e) = Reserve::check(&|a| m.peek(a)) {
            panic!("reservation oracle: {e}");
        }
    };
    run_workload(spec, setup, make_body, verify)
}

/// One timed `run` call.
pub struct Timed {
    pub out: RunOutcome,
    pub start: Instant,
    pub end: Instant,
}

impl Timed {
    pub fn host(&self) -> Duration {
        self.end - self.start
    }

    pub fn commits_per_s(&self) -> f64 {
        self.out.total_commits() as f64 / self.host().as_secs_f64()
    }

    pub fn ns_per_commit(&self) -> f64 {
        self.host().as_nanos() as f64 / self.out.total_commits().max(1) as f64
    }

    /// What two windows of identical inputs must agree on.
    pub fn fingerprint(&self) -> (u64, u64) {
        (self.out.makespan, report_digest(&self.out))
    }
}

/// Low 48 bits of the FNV-1a hash of the byte-deterministic run report
/// (48 so the digest survives a trip through a JSON double).
pub fn report_digest(out: &RunOutcome) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in out.report.to_json().bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h & ((1 << 48) - 1)
}
