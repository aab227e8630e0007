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
//! waiting threads, pops the next `(clock, id)` minimum, parks the world and
//! wakes exactly that thread on its private condvar; the woken thread takes
//! the world in the same critical section that sees it designated. The
//! legacy broadcast behaviour (`notify_all` of every simulated CPU per
//! handoff) is preserved behind [`HandoffMode::Broadcast`] as a determinism
//! oracle — both modes execute operations in the identical order, because
//! the schedule is a pure function of the simulated clocks (see
//! `docs/PERF.md` for the full argument).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};

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
    /// Wake exactly the next designated runner on its private condvar, and
    /// let a runner inside its limit skip the scheduler lock entirely.
    #[default]
    Targeted,
    /// The legacy engine's behaviour: take the scheduler lock on every
    /// operation and wake *every* simulated CPU at each handoff. Kept as a
    /// bit-for-bit determinism oracle for tests; nothing times it.
    /// Simulated results are identical in both modes.
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
    pub done: Vec<bool>,
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
            done: vec![false; threads],
            waiting: (0..threads).map(|t| Reverse((0, t))).collect(),
            quantum,
        };
        // Initial designation: thread 0 (all clocks are 0; ties break by id).
        if let Some((_, first)) = s.pop_min() {
            s.current = first;
            s.limit = s.next_limit();
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

    /// The smallest waiting clock (discarding stale top entries), which
    /// bounds how long the new runner may batch. A stale-but-not-yet-marked
    /// entry can only make this *smaller* than necessary, which causes an
    /// extra (harmless, order-preserving) handoff — never a missed one.
    fn next_limit(&mut self) -> u64 {
        loop {
            match self.waiting.peek() {
                Some(&Reverse((_, t))) if self.done[t] => {
                    self.waiting.pop();
                }
                Some(&Reverse((clock, _))) => {
                    return clock.saturating_add(self.quantum);
                }
                None => return u64::MAX,
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
        self.current = next;
        self.limit = self.next_limit();
        next
    }

    /// Re-designates after the runner finished (it contributes no entry).
    /// Returns the new runner, or `None` when every thread is done.
    fn handoff_from_finished(&mut self) -> Option<usize> {
        match self.pop_min() {
            Some((_, next)) => {
                self.current = next;
                self.limit = self.next_limit();
                Some(next)
            }
            None => {
                self.current = NONE;
                None
            }
        }
    }
}

pub(crate) struct Shared<U> {
    pub sched: Mutex<Sched<U>>,
    /// One condvar per logical thread, all paired with the `sched` mutex.
    /// Targeted handoff wakes exactly `cvs[next]`.
    pub cvs: Vec<Condvar>,
    pub mode: HandoffMode,
    /// Watchdog: panic if any CPU's clock passes this (None = unlimited).
    pub cycle_limit: Option<u64>,
}

impl<U> Shared<U> {
    /// Wakes the new designated runner (or, in broadcast mode, everyone).
    pub fn wake(&self, next: usize) {
        match self.mode {
            HandoffMode::Targeted => {
                self.cvs[next].notify_one();
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
                    // wake exactly the new runner. (A finished thread that
                    // is *not* designated leaves only a stale heap entry,
                    // which the next handoff skips.)
                    if let Some(next) = sched.handoff_from_finished() {
                        drop(sched);
                        self.shared.wake(next);
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
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched::new(world, n, self.quantum)),
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

    #[test]
    fn broadcast_mode_matches_targeted_mode() {
        // The legacy-semantics oracle: both wakeup strategies must produce
        // the identical interleaving, timing, and final state.
        let run_with = |mode: HandoffMode| {
            Sim::new(machine(4), Vec::<(usize, u64)>::new())
                .handoff_mode(mode)
                .run(
                    (0..4)
                        .map(|i| -> ThreadFn<Vec<(usize, u64)>> {
                            Box::new(move |ctx| {
                                for k in 0..25 {
                                    ctx.work(3 + ((i * 7 + k) % 11) as u64).unwrap();
                                    let now = ctx.now();
                                    ctx.with(move |w| w.shared.push((i, now)));
                                }
                            })
                        })
                        .collect(),
                )
        };
        let t = run_with(HandoffMode::Targeted);
        let b = run_with(HandoffMode::Broadcast);
        assert_eq!(t.shared, b.shared);
        assert_eq!(t.makespan, b.makespan);
        assert_eq!(t.finish_times, b.finish_times);
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
