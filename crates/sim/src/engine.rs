//! The lockstep scheduler.
//!
//! # Fast-path design
//!
//! The engine has one lock, and the world travels with the designation:
//!
//! * `World` — the simulated machine plus software-shared state. It is
//!   owned by the *designated runner* (the unfinished thread with the
//!   smallest `(clock, id)`), which holds it in its [`Ctx`] and executes
//!   back-to-back operations against it with no lock at all. Between a
//!   handoff and the next runner waking it parks in `Sched`.
//! * `sched` — the scheduler bookkeeping (who runs next) and the parked
//!   world. It is touched only at *handoff* (when the runner's clock passes
//!   its `limit`), not on every operation.
//!
//! Handoff is *targeted*: the runner pushes its new clock into a min-heap of
//! waiting threads, pops the next `(clock, id)` minimum and parks the world;
//! the new runner takes it in the same critical section that sees it
//! designated. The waiting thread the *next* handoff most likely designates
//! (the runner-up) does not sleep: it yields its core until it sees its turn
//! in an atomic mirror of the designation, so a handoff to it costs no
//! futex round trip. Every other waiter parks on its private condvar and is
//! woken only if it is parked when designated. [`HandoffMode::Broadcast`]
//! has no yield phase and wakes every simulated CPU at each handoff; it is
//! the determinism oracle — both modes execute operations in the identical
//! order, because the schedule is a pure function of the simulated clocks
//! and is decided only under the sched mutex (`docs/PERF.md`, "Why the
//! rewrite cannot change simulated results", has the full argument).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use ufotm_machine::Machine;

use crate::ctx::Ctx;

/// Everything a logical thread can touch: the simulated hardware plus
/// software-shared state (e.g. an STM's ownership table and transaction
/// descriptors). Exactly one logical thread holds the `World` at a time:
/// the designated runner.
#[derive(Debug)]
pub struct World<U> {
    /// The simulated machine.
    pub machine: Machine,
    /// Software-shared state, chosen by the harness.
    pub shared: U,
}

/// A logical thread body. It receives a [`Ctx`] bound to its CPU.
pub type ThreadFn<U> = Box<dyn FnOnce(&mut Ctx<U>) + Send>;

/// How the engine wakes the next designated runner at a handoff.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HandoffMode {
    /// The runner-up yields its core until its turn comes, every other
    /// waiter parks on its private condvar, and a handoff wakes the next
    /// runner only if it is parked.
    #[default]
    Targeted,
    /// No yield phase: every waiter parks, and each handoff wakes *every*
    /// simulated CPU. Kept as a bit-for-bit determinism oracle for tests;
    /// nothing times it. Simulated results are identical in both modes.
    Broadcast,
}

/// The outcome of a simulation run.
#[derive(Debug)]
pub struct SimResult<U> {
    /// The machine in its final state (clocks, caches, stats).
    pub machine: Machine,
    /// The final software-shared state.
    pub shared: U,
    /// Simulated completion time: the maximum local clock over the CPUs
    /// that ran a thread.
    pub makespan: u64,
    /// Final per-CPU clocks for the CPUs that ran threads.
    pub finish_times: Vec<u64>,
}

/// Sentinel for "no designated runner" (all threads finished).
const NONE: usize = usize::MAX;

/// Scheduler bookkeeping. Unlike the legacy engine this never reads the
/// machine's clocks: the clock of a thread entering the wait-set is carried
/// into [`Sched::handoff`] by the thread itself, so the scheduler state is
/// self-contained and every query is O(log threads).
pub(crate) struct Sched<U> {
    /// The world, parked here from a handoff until the next runner wakes
    /// and takes it; `None` while a runner holds it — or for good once a
    /// panic inside [`Ctx::with`] destroyed it.
    pub world: Option<Box<World<U>>>,
    /// The designated runner ([`NONE`] once every thread finished).
    pub current: usize,
    /// `current` may keep executing while its clock is ≤ `limit`.
    pub limit: u64,
    /// The live waiting thread with the smallest `(clock, id)`: the one the
    /// next handoff designates unless `current` is still the minimum
    /// ([`NONE`] if nobody waits).
    next_up: usize,
    pub done: Vec<bool>,
    /// Set while a thread sleeps on its condvar: a handoff to a thread that
    /// is not parked (it is yielding, or has yet to look) needs no wake.
    pub parked: Vec<bool>,
    /// Min-heap of `(clock, id)` for threads that are waiting their turn.
    /// Entries of finished threads go stale and are skipped lazily; a live
    /// thread has exactly one entry while it is not `current`.
    waiting: BinaryHeap<Reverse<(u64, usize)>>,
    quantum: u64,
}

impl<U> Sched<U> {
    fn new(world: World<U>, threads: usize, quantum: u64) -> Self {
        let mut s = Sched {
            world: Some(Box::new(world)),
            current: NONE,
            limit: 0,
            next_up: NONE,
            done: vec![false; threads],
            parked: vec![false; threads],
            waiting: (0..threads).map(|t| Reverse((0, t))).collect(),
            quantum,
        };
        // Initial designation: thread 0 (all clocks are 0; ties break by id).
        if let Some((_, first)) = s.pop_min() {
            s.designate(first);
        }
        s
    }

    /// Pops the minimum `(clock, id)` live entry, discarding stale ones.
    fn pop_min(&mut self) -> Option<(u64, usize)> {
        while let Some(Reverse((clock, t))) = self.waiting.pop() {
            if !self.done[t] {
                return Some((clock, t));
            }
        }
        None
    }

    /// Makes `next` the runner. Its limit comes from the smallest waiting
    /// clock (stale top entries discarded), which bounds how long it may
    /// batch, and that entry's thread is the runner-up. A
    /// stale-but-not-yet-marked entry can only make the limit *smaller*
    /// than necessary, which causes an extra (harmless, order-preserving)
    /// handoff — never a missed one.
    fn designate(&mut self, next: usize) {
        self.current = next;
        loop {
            match self.waiting.peek() {
                Some(&Reverse((_, t))) if self.done[t] => {
                    self.waiting.pop();
                }
                Some(&Reverse((clock, t))) => {
                    self.limit = clock.saturating_add(self.quantum);
                    self.next_up = t;
                    return;
                }
                None => {
                    self.limit = u64::MAX;
                    self.next_up = NONE;
                    return;
                }
            }
        }
    }

    /// Re-designates after the runner `me` (whose clock is now `now`)
    /// exceeded its limit. Returns the new designated runner, which may be
    /// `me` again (still the minimum). O(log threads).
    pub fn handoff(&mut self, me: usize, now: u64) -> usize {
        debug_assert_eq!(self.current, me);
        self.waiting.push(Reverse((now, me)));
        let (_, next) = self.pop_min().expect("the runner itself is live");
        self.designate(next);
        next
    }

    /// Re-designates after the runner finished (it contributes no entry).
    /// Returns the new runner, or `None` when every thread is done.
    fn handoff_from_finished(&mut self) -> Option<usize> {
        match self.pop_min() {
            Some((_, next)) => {
                self.designate(next);
                Some(next)
            }
            None => {
                self.current = NONE;
                self.next_up = NONE;
                None
            }
        }
    }
}

pub(crate) struct Shared<U> {
    pub sched: Mutex<Sched<U>>,
    /// One condvar per logical thread, all paired with the `sched` mutex.
    /// Targeted handoff wakes only `cvs[next]`, and only if it is parked.
    pub cvs: Vec<Condvar>,
    /// Mirror of `Sched::current`, and of `Sched::next_up`, stored under
    /// the sched mutex at every designation. Hints for the yield phase
    /// only: a thread acts on its turn after seeing `current == me` under
    /// the mutex, so a stale read costs time, never order.
    pub turn: AtomicUsize,
    pub next_up: AtomicUsize,
    pub mode: HandoffMode,
    /// Watchdog: panic if any CPU's clock passes this (None = unlimited).
    pub cycle_limit: Option<u64>,
}

impl<U> Shared<U> {
    /// Publishes the designation `sched` just made, releases the lock, and
    /// wakes the new runner `next` if it sleeps (in broadcast mode, wakes
    /// everyone). `parked[next]` is read under the mutex, and a waiter sets
    /// it in the same critical section in which it saw `current != me`, so
    /// no wake-up is lost.
    pub fn hand_to(&self, sched: MutexGuard<'_, Sched<U>>, next: usize) {
        self.turn.store(sched.current, Ordering::Relaxed);
        self.next_up.store(sched.next_up, Ordering::Relaxed);
        let parked = sched.parked[next];
        drop(sched);
        match self.mode {
            HandoffMode::Targeted => {
                if parked {
                    self.cvs[next].notify_one();
                }
            }
            HandoffMode::Broadcast => {
                for cv in &self.cvs {
                    cv.notify_all();
                }
            }
        }
    }
}

/// Marks a logical thread finished on drop (panic-safe).
struct FinishGuard<'a, U> {
    cpu: usize,
    shared: &'a Arc<Shared<U>>,
}

impl<U> Drop for FinishGuard<'_, U> {
    fn drop(&mut self) {
        // If the sched mutex is poisoned the whole simulation is unwinding;
        // the bookkeeping no longer matters.
        if let Ok(mut sched) = self.shared.sched.lock() {
            if !sched.done[self.cpu] {
                sched.done[self.cpu] = true;
                if sched.current == self.cpu {
                    // The finishing thread was designated: hand off now and
                    // wake the new runner if it sleeps. (A finished thread
                    // that is *not* designated leaves only a stale heap
                    // entry, which the next handoff skips.)
                    if let Some(next) = sched.handoff_from_finished() {
                        self.shared.hand_to(sched, next);
                    }
                }
            }
        }
    }
}

/// A configured simulation, ready to [`run`](Sim::run).
pub struct Sim<U> {
    machine: Machine,
    shared: U,
    quantum: u64,
    cycle_limit: Option<u64>,
    mode: HandoffMode,
}

impl<U: Send> Sim<U> {
    /// Creates a simulation over `machine` with software-shared state
    /// `shared`.
    pub fn new(machine: Machine, shared: U) -> Self {
        Sim {
            machine,
            shared,
            quantum: 0,
            cycle_limit: None,
            mode: HandoffMode::Targeted,
        }
    }

    /// Sets the scheduling quantum: how many cycles past the next thread's
    /// clock the current runner may batch before handing off. 0 (the
    /// default) is exact lockstep; small values (~50) trade a little
    /// interleaving fidelity for host speed. Determinism is preserved for
    /// any value.
    #[must_use]
    pub fn quantum(mut self, cycles: u64) -> Self {
        self.quantum = cycles;
        self
    }

    /// Selects the handoff wakeup strategy (default
    /// [`HandoffMode::Targeted`]). Simulated results are bit-identical in
    /// either mode; [`HandoffMode::Broadcast`] exists as the determinism
    /// oracle.
    #[must_use]
    pub fn handoff_mode(mut self, mode: HandoffMode) -> Self {
        self.mode = mode;
        self
    }

    /// Arms a watchdog: the simulation panics (with the offending CPU and
    /// clock) if any CPU's local clock exceeds `cycles`. Deadlocks and
    /// livelocks in transactional protocols otherwise present as silent
    /// infinite stall loops; a generous cap turns them into loud failures.
    #[must_use]
    pub fn cycle_limit(mut self, cycles: u64) -> Self {
        self.cycle_limit = Some(cycles);
        self
    }

    /// Runs one logical thread per entry of `threads` (thread `i` on CPU
    /// `i`) to completion and returns the final world and timing.
    ///
    /// # Panics
    ///
    /// Panics if more threads are supplied than the machine has CPUs, or if
    /// a thread body panics.
    pub fn run(self, threads: Vec<ThreadFn<U>>) -> SimResult<U> {
        let n = threads.len();
        assert!(
            n <= self.machine.cpus(),
            "{} threads but only {} CPUs",
            n,
            self.machine.cpus()
        );
        if n == 0 {
            return SimResult {
                makespan: 0,
                finish_times: Vec::new(),
                machine: self.machine,
                shared: self.shared,
            };
        }
        let world = World {
            machine: self.machine,
            shared: self.shared,
        };
        let sched = Sched::new(world, n, self.quantum);
        let shared = Arc::new(Shared {
            turn: AtomicUsize::new(sched.current),
            next_up: AtomicUsize::new(sched.next_up),
            sched: Mutex::new(sched),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
            mode: self.mode,
            cycle_limit: self.cycle_limit,
        });

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (cpu, body) in threads.into_iter().enumerate() {
                let sh = Arc::clone(&shared);
                handles.push(scope.spawn(move || {
                    // The guard marks this logical thread done even if the
                    // body panics, so the other threads are not left waiting
                    // for a turn that never comes and the panic propagates
                    // cleanly through join. (Declared first: it drops after
                    // the Ctx, which parks the world it holds for the guard's
                    // handoff.)
                    let _guard = FinishGuard { cpu, shared: &sh };
                    let mut ctx = Ctx::new(cpu, Arc::clone(&sh));
                    body(&mut ctx);
                }));
            }
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for h in handles {
                if let Err(e) = h.join() {
                    panic.get_or_insert(e);
                }
            }
            if let Some(e) = panic {
                std::panic::resume_unwind(e);
            }
        });

        // No thread panicked, so the world is parked: a `Ctx` parks the
        // world it holds when it drops.
        let world = Arc::into_inner(shared)
            .expect("all thread handles joined")
            .sched
            .into_inner()
            .expect("engine mutex not poisoned")
            .world
            .expect("the world is parked");
        let clocks = world.machine.clocks();
        let finish_times: Vec<u64> = clocks[..n].to_vec();
        let makespan = finish_times.iter().copied().max().unwrap_or(0);
        SimResult {
            makespan,
            finish_times,
            machine: world.machine,
            shared: world.shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufotm_machine::{Addr, MachineConfig};

    fn machine(cpus: usize) -> Machine {
        Machine::new(MachineConfig::small(cpus))
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let r = Sim::new(machine(1), 0u64).run(vec![Box::new(|ctx| {
            ctx.work(100).unwrap();
            ctx.with(|w| w.shared = 7);
        })]);
        assert_eq!(r.shared, 7);
        assert_eq!(r.makespan, 100);
    }

    #[test]
    fn threads_interleave_by_clock() {
        // Thread 1 only observes values written at earlier simulated times.
        let r = Sim::new(machine(2), Vec::<(usize, u64)>::new()).run(vec![
            Box::new(|ctx| {
                for _ in 0..10 {
                    ctx.work(10).unwrap();
                    let now = ctx.now();
                    ctx.with(move |w| w.shared.push((0, now)));
                }
            }),
            Box::new(|ctx| {
                for _ in 0..10 {
                    ctx.work(10).unwrap();
                    let now = ctx.now();
                    ctx.with(move |w| w.shared.push((1, now)));
                }
            }),
        ]);
        // Events must be sorted by simulated time.
        let times: Vec<u64> = r.shared.iter().map(|&(_, t)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(
            times, sorted,
            "events out of simulated-time order: {:?}",
            r.shared
        );
        assert_eq!(r.shared.len(), 20);
    }

    #[test]
    fn deterministic_across_runs() {
        let run_once = || {
            Sim::new(machine(4), Vec::<usize>::new()).run(
                (0..4)
                    .map(|i| -> ThreadFn<Vec<usize>> {
                        Box::new(move |ctx| {
                            for k in 0..20 {
                                ctx.work(7 + ((i * 13 + k) % 5) as u64).unwrap();
                                ctx.with(move |w| w.shared.push(i));
                            }
                        })
                    })
                    .collect(),
            )
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.shared, b.shared);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.finish_times, b.finish_times);
    }

    /// `(thread, clock)` in the order the threads recorded them.
    type Events = Vec<(usize, u64)>;

    fn run_events(mode: HandoffMode, bodies: Vec<ThreadFn<Events>>) -> SimResult<Events> {
        let n = bodies.len();
        Sim::new(machine(n), Vec::new())
            .handoff_mode(mode)
            .run(bodies)
    }

    /// Runs the bodies `make` builds in both modes (at quantum 0, so every
    /// operation past the runner-up's clock is a handoff) and requires the
    /// same interleaving, timing and final state.
    fn assert_matches_broadcast(make: impl Fn() -> Vec<ThreadFn<Events>>) {
        let t = run_events(HandoffMode::Targeted, make());
        let b = run_events(HandoffMode::Broadcast, make());
        assert_eq!(t.shared, b.shared);
        assert_eq!(t.makespan, b.makespan);
        assert_eq!(t.finish_times, b.finish_times);
    }

    /// A body that records `(i, clock)` after each of `works`.
    fn recorder(i: usize, works: Vec<u64>) -> ThreadFn<Events> {
        Box::new(move |ctx| {
            for w in works {
                ctx.work(w).unwrap();
                let now = ctx.now();
                ctx.with(move |w| w.shared.push((i, now)));
            }
        })
    }

    #[test]
    fn runner_up_past_its_yield_budget_is_woken() {
        // Thread 1 jumps a million cycles ahead with its first operation,
        // then waits as the runner-up while thread 0 runs a long stretch.
        // Thread 0 sleeps on the host between operations (holding the
        // world, charging no cycles), so thread 1 outlasts its yield
        // budget and parks; the handoff that finally designates it must
        // wake it.
        assert_matches_broadcast(|| {
            let stretch: ThreadFn<Events> = Box::new(|ctx| {
                for _ in 0..20 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    for _ in 0..5_000 {
                        ctx.work(10).unwrap();
                    }
                    let now = ctx.now();
                    ctx.with(move |w| w.shared.push((0, now)));
                }
            });
            vec![
                stretch,
                recorder(1, [1_000_000].into_iter().chain([10; 50]).collect()),
            ]
        });
    }

    #[test]
    fn runner_up_changes_while_the_old_one_yields() {
        // Three threads whose clocks leapfrog. A handoff designates the
        // runner-up while it yields, and the runner-up role moves on at
        // once — to the old runner, which starts yielding itself, or to
        // the third thread, which parked when it was last in line and must
        // later be woken through its parked flag.
        assert_matches_broadcast(|| {
            vec![
                recorder(0, (0..300).map(|k| 3 + k % 4).collect()),
                recorder(1, (0..300).map(|k| 5 + k % 3).collect()),
                recorder(2, (0..300).map(|k| 7 + k % 2).collect()),
            ]
        });
    }

    #[test]
    fn eight_threads_at_quantum_zero_match_broadcast() {
        for round in 0..4u64 {
            assert_matches_broadcast(|| {
                (0..8)
                    .map(|i| {
                        let works = (0..60).map(|k| 1 + (i as u64 * 7 + k * 3 + round) % 13);
                        recorder(i, works.collect())
                    })
                    .collect()
            });
        }
    }

    #[test]
    fn broadcast_mode_matches_targeted_mode() {
        // The legacy-semantics oracle: both wakeup strategies must produce
        // the identical interleaving, timing, and final state.
        assert_matches_broadcast(|| {
            (0..4)
                .map(|i| recorder(i, (0..25).map(|k| 3 + ((i * 7 + k) % 11) as u64).collect()))
                .collect()
        });
    }

    #[test]
    fn unequal_thread_lengths_finish_cleanly() {
        let r = Sim::new(machine(3), ()).run(vec![
            Box::new(|ctx| ctx.work(5).unwrap()),
            Box::new(|ctx| ctx.work(5000).unwrap()),
            Box::new(|ctx| {
                for _ in 0..100 {
                    ctx.work(3).unwrap();
                }
            }),
        ]);
        assert_eq!(r.makespan, 5000);
        assert_eq!(r.finish_times, vec![5, 5000, 300]);
    }

    #[test]
    fn quantum_preserves_determinism() {
        let run_with = |q: u64| {
            Sim::new(machine(2), Vec::<(usize, u64)>::new())
                .quantum(q)
                .run(vec![
                    Box::new(|ctx| {
                        for _ in 0..50 {
                            ctx.work(4).unwrap();
                            let now = ctx.now();
                            ctx.with(move |w| w.shared.push((0, now)));
                        }
                    }),
                    Box::new(|ctx| {
                        for _ in 0..50 {
                            ctx.work(6).unwrap();
                            let now = ctx.now();
                            ctx.with(move |w| w.shared.push((1, now)));
                        }
                    }),
                ])
        };
        assert_eq!(run_with(25).shared, run_with(25).shared);
        // Makespan is independent of the quantum (it only batches host-side).
        assert_eq!(run_with(0).makespan, run_with(25).makespan);
    }

    #[test]
    fn machine_ops_work_through_ctx() {
        let a = Addr::from_word_index(5);
        let r = Sim::new(machine(2), ()).run(vec![
            Box::new(move |ctx| {
                ctx.store(a, 41).unwrap();
            }),
            Box::new(move |ctx| {
                ctx.work(10_000).unwrap(); // run well after thread 0
                let v = ctx.load(a).unwrap();
                assert_eq!(v, 41);
            }),
        ]);
        assert_eq!(r.machine.peek(a), 41);
    }

    #[test]
    fn zero_threads_is_a_noop() {
        let r = Sim::new(machine(1), 3u32).run(Vec::new());
        assert_eq!(r.makespan, 0);
        assert_eq!(r.shared, 3);
    }

    #[test]
    #[should_panic(expected = "CPUs")]
    fn too_many_threads_panics() {
        let bodies: Vec<ThreadFn<()>> = (0..3)
            .map(|_| -> ThreadFn<()> { Box::new(|_| {}) })
            .collect();
        Sim::new(machine(2), ()).run(bodies);
    }

    #[test]
    #[should_panic(expected = "workload bug")]
    fn body_panic_propagates_without_deadlocking() {
        // The panicking thread must not leave its peers waiting forever;
        // the panic resurfaces from Sim::run.
        Sim::new(machine(2), ()).run(vec![
            Box::new(|ctx| {
                // Runs plenty of ops while (and after) the other panics.
                for _ in 0..50 {
                    ctx.work(10).unwrap();
                }
            }),
            Box::new(|ctx| {
                ctx.work(25).unwrap();
                panic!("workload bug");
            }),
        ]);
    }

    #[test]
    #[should_panic(expected = "cycle limit exceeded")]
    fn cycle_limit_converts_livelock_into_panic() {
        // An endless stall loop (a protocol livelock in miniature) trips
        // the watchdog instead of hanging the host.
        Sim::new(machine(1), ())
            .cycle_limit(10_000)
            .run(vec![Box::new(|ctx| loop {
                ctx.stall(100).unwrap();
            })]);
    }

    #[test]
    fn cycle_limit_does_not_fire_under_the_cap() {
        let r = Sim::new(machine(2), ()).cycle_limit(1_000_000).run(vec![
            Box::new(|ctx| ctx.work(500).unwrap()),
            Box::new(|ctx| ctx.work(700).unwrap()),
        ]);
        assert_eq!(r.makespan, 700);
    }

    #[test]
    fn peers_finish_even_if_one_panics_mid_run() {
        let r = std::panic::catch_unwind(|| {
            Sim::new(machine(3), Vec::<usize>::new()).run(vec![
                Box::new(|ctx| {
                    for _ in 0..100 {
                        ctx.work(5).unwrap();
                    }
                    ctx.with(|w| w.shared.push(0));
                }),
                Box::new(|ctx| {
                    ctx.work(3).unwrap();
                    panic!("boom");
                }),
                Box::new(|ctx| {
                    for _ in 0..100 {
                        ctx.work(7).unwrap();
                    }
                    ctx.with(|w| w.shared.push(2));
                }),
            ])
        });
        assert!(r.is_err(), "panic must propagate");
    }

    #[test]
    fn panic_inside_with_fails_peers_fast() {
        // A panic inside the closure destroys the world it held; the peer
        // still waiting for a turn must fail fast, not deadlock or run on.
        let r = std::panic::catch_unwind(|| {
            Sim::new(machine(2), ()).run(vec![
                Box::new(|ctx| {
                    for _ in 0..50 {
                        ctx.work(10).unwrap();
                    }
                }),
                Box::new(|ctx| {
                    ctx.work(25).unwrap();
                    ctx.with(|_| panic!("bug inside with"));
                }),
            ])
        });
        let payload = r.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        // Thread 0 joins first, so its panic is the one Sim::run resumes.
        assert!(msg.contains("poisoned"), "peer panicked with {msg:?}");
    }

    #[test]
    fn broadcast_mode_survives_peer_panic() {
        // The legacy mode shares the panic-recovery path: the finishing
        // guard hands off even when the designated runner died.
        let r = std::panic::catch_unwind(|| {
            Sim::new(machine(2), ())
                .handoff_mode(HandoffMode::Broadcast)
                .run(vec![
                    Box::new(|ctx| {
                        for _ in 0..50 {
                            ctx.work(10).unwrap();
                        }
                    }),
                    Box::new(|ctx| {
                        ctx.work(25).unwrap();
                        panic!("broadcast bug");
                    }),
                ])
        });
        assert!(r.is_err(), "panic must propagate");
    }
}
