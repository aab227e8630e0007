//! # `ufotm-sim` — the deterministic lockstep execution engine
//!
//! The paper evaluates its TM systems on a multiprocessor timing simulator.
//! This crate provides the execution-engine half of that substitution: it
//! runs one *logical thread* per simulated CPU and interleaves them
//! **deterministically** by always letting the unfinished thread with the
//! smallest `(local clock, cpu id)` execute the next operation against the
//! shared [`World`] (the [`Machine`](ufotm_machine::Machine) plus
//! software-shared state such as an STM's ownership table).
//!
//! Logical threads are backed by OS threads (CPU 0 by the caller's, the
//! rest by scoped threads), so workload code is written as ordinary
//! straight-line Rust — no hand-rolled state machines — while the
//! simulation stays single-threaded in effect: exactly one logical thread
//! touches the `World` at a time, and which one is a pure function of the
//! simulated clocks. Simulated time is therefore reproducible on any host,
//! including a single-core one.
//!
//! Host-side, the engine hands off *targeted* ([`HandoffMode::Targeted`]):
//! the scheduler tracks waiting threads in a min-clock heap, and the
//! designated runner owns the `World` outright — it moves through the
//! scheduler's one mutex only at a handoff — so a runner inside its
//! batching `limit` executes operations without taking any lock. The
//! runner-up (the waiting thread with the smallest clock) yields its core
//! until its turn comes, so a handoff to it needs no futex wake and no
//! sleep; every other waiter sleeps on a private condvar and is woken only
//! when it is designated while asleep. [`HandoffMode::Broadcast`] — no
//! yield phase, every CPU woken at each handoff — is kept as the
//! determinism oracle. See `docs/PERF.md`, "Targeted handoff protocol".
//!
//! ```
//! use ufotm_machine::{Machine, MachineConfig, Addr};
//! use ufotm_sim::Sim;
//!
//! let machine = Machine::new(MachineConfig::small(2));
//! let result = Sim::new(machine, ()).run(vec![
//!     Box::new(|ctx| {
//!         ctx.store(Addr::from_word_index(0), 1).unwrap();
//!     }),
//!     Box::new(|ctx| {
//!         ctx.work(5).unwrap();
//!     }),
//! ]);
//! assert!(result.makespan > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
mod engine;
mod seeds;

pub use ctx::Ctx;
pub use engine::{HandoffMode, Sim, SimResult, ThreadFn, World};
pub use seeds::{for_each_seed, seed_count, SEED_COUNT_ENV, SEED_ENV};

/// Re-exported so seed-sweep tests can derive per-seed randomness without
/// depending on `ufotm-machine` directly.
pub use ufotm_machine::SimRng;
