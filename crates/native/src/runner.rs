//! The one real-thread worker runner behind every `run_*` entry point:
//! the only place in the crate that spawns workers.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

use crate::chaos;

/// Shared state [`run_workers_collect`] can run workers over: it hands
/// each thread a backend handle and cleans up after the ones that die.
pub(crate) trait WorkerWorld: Sync + 'static {
    type Handle<'a>;
    type Stats: Send;

    fn handle<'a>(&'a self, barrier: &'a Barrier, tid: usize, threads: usize) -> Self::Handle<'a>;

    fn stats(handle: &Self::Handle<'_>) -> Self::Stats;

    /// Runs on the dying worker's own thread, after its body unwound and
    /// before it exits, so survivors start reclaiming what it held while
    /// they are still running.
    fn on_death(&self, tid: usize);

    /// Runs once after the join, if any worker died: the final sweep for
    /// leavings no live worker happened to touch.
    fn after_deaths(&self);
}

/// One worker's join outcome: its per-thread counters survive even when
/// the body panicked, so torture tests can assert that the *surviving*
/// threads still committed.
#[derive(Clone, Debug)]
pub struct Outcome<S, R> {
    /// Worker tid (outcomes are returned in tid order).
    pub tid: usize,
    /// The worker's counters at join time.
    pub stats: S,
    /// The body's result, or the rendered panic payload.
    pub result: Result<R, String>,
}

/// Runs `body` on `threads` real OS threads over `world`, each with its
/// own handle and a common phase barrier, and collects **every** worker's
/// outcome: a panicked worker is cleaned up after in-thread, its panic
/// payload is rendered into the outcome, and its counters survive.
///
/// Bodies that may be killed by panic injection must not use the phase
/// barrier: a dead worker never arrives and the survivors would wait
/// forever.
pub(crate) fn run_workers_collect<W: WorkerWorld, R: Send>(
    world: &W,
    threads: usize,
    body: impl Fn(&mut W::Handle<'_>) -> R + Sync,
) -> Vec<Outcome<W::Stats, R>> {
    assert!(threads >= 1, "at least one thread");
    let barrier = Barrier::new(threads);
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let barrier = &barrier;
                let body = &body;
                scope.spawn(move || {
                    let mut th = world.handle(barrier, tid, threads);
                    let r = catch_unwind(AssertUnwindSafe(|| body(&mut th)));
                    let stats = W::stats(&th);
                    let result = r.map_err(|payload| {
                        world.on_death(tid);
                        chaos::panic_message(payload.as_ref())
                    });
                    Outcome { tid, stats, result }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("native worker wrapper itself panicked"))
            .collect::<Vec<_>>()
    });
    if outcomes.iter().any(|o| o.result.is_err()) {
        world.after_deaths();
    }
    outcomes
}

/// Folds collected outcomes into the merged stats and each thread's
/// result (in tid order), panicking if any worker died — naming every
/// dead tid with its payload and per-thread counters.
pub(crate) fn merged<S: Default + Debug, R>(
    outcomes: Vec<Outcome<S, R>>,
    merge: impl Fn(&mut S, &S),
) -> (S, Vec<R>) {
    let mut stats = S::default();
    let mut results = Vec::with_capacity(outcomes.len());
    let mut deaths = Vec::new();
    for o in outcomes {
        merge(&mut stats, &o.stats);
        match o.result {
            Ok(r) => results.push(r),
            Err(msg) => deaths.push(format!("tid {}: {msg} (stats {:?})", o.tid, o.stats)),
        }
    }
    assert!(
        deaths.is_empty(),
        "native worker thread(s) panicked: {}",
        deaths.join("; ")
    );
    (stats, results)
}
