//! # `ufotm-native` — the paper's hybrid on real OS threads
//!
//! Host-atomics implementations of the reproduction's TM systems, with
//! **zero simulator involvement**. Where the simulated crates charge
//! deterministic cycles and replay bit-for-bit, this crate measures
//! what the paper's design actually costs in wall-clock ops/sec on
//! real contended cache lines:
//!
//! * [`NativeTl2`] / [`NativeTxn`] / [`NativeThread`] — the
//!   simulated TL2's version-lock protocol on `AtomicU64` stripes; the
//!   hybrid's fast path and a backend in its own right.
//! * [`NativeUstm`] / [`NativeUstmTxn`] ([`ustm`]) — a redo-log USTM
//!   with an owner word per stripe and age-ordered kills; the hybrid's
//!   strongly-atomic slow path.
//! * [`guard`] — the `mprotect`/SIGSEGV strong-atomicity guard standing
//!   in for the paper's UFO bits: USTM commit windows page-protect the
//!   public heap view, racing plain accesses fault, get classified, and
//!   re-execute after the window (Linux x86_64 only, by target `cfg`;
//!   disable at runtime with `UFOTM_SKIP_GUARD=1`).
//! * [`NativeHybrid`] / [`HybridThread`] ([`hybrid`]) — the failover
//!   driver: TL2 fast path, USTM slow path after `failover_after`
//!   consecutive aborts with jittered backoff, serial tier after
//!   `serial_after` failed slow attempts. Fast and slow transactions run
//!   at the same time, ordered through the TL2 stripes and their owner
//!   words; the serial tier is the eldest slow transaction, which wins
//!   every conflict and stops nobody else.
//!
//! Each path has exactly one single-shot attempt step
//! ([`NativeTxn::attempt`], [`NativeUstmTxn::attempt`]) that every retry
//! loop wraps, both TL2 retry loops pause on one jittered backoff
//! schedule (the simulated hybrids'), and the four `run_*threads*` entry points are type-pinned
//! wrappers over one worker runner (one scoped-thread spawn loop
//! for the whole crate) returning one [`Outcome`] shape.
//!
//! The sim and native implementations are cross-validated
//! (`crates/stamp`'s `cross_validate` suite): the same transaction
//! scripts must produce identical final heap states and identical
//! abort classifications on both substrates.
//!
//! ## What this crate is *not*
//!
//! Not deterministic (real races, real interleavings — runs are
//! unrepeatable by design; the root `clippy.toml`'s determinism bans
//! do not reach this crate, which has its own, for exactly that reason)
//! and not cycle-accurate ([`spin_work`] is a calibrated busy-loop, not a
//! cycle model). Unlike
//! the weakly-atomic TL2-only backend, the hybrid *is* strongly atomic
//! for its slow path: a slow commit holds the TL2 stripes of the lines it
//! writes, a fast commit or a hybrid plain store yields to any slow
//! transaction owning a line it would write, and a hybrid plain load
//! waits out a held stripe — on guarded heaps the guard window defers
//! racing plain accesses as well.
//!
//! `unsafe` is confined to [`guard`]'s dual-mapping module; the rest of
//! the crate denies it. Inside that module every unsafe operation must
//! sit in its own scoped block (`unsafe_op_in_unsafe_fn` is denied) with
//! a `// SAFETY:` comment (`clippy::undocumented_unsafe_blocks` is
//! denied), and every `unsafe fn` needs a `# Safety` doc section
//! (`clippy::missing_safety_doc`, extended to private items by this
//! crate's `clippy.toml`). The SIGSEGV handler and the raw syscalls are
//! the `no_std` `sigguard` crate's.

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod chaos;
pub mod guard;
mod heap;
mod padded;
mod runner;
mod tl2;
mod write_set;

pub mod hybrid;
pub mod ustm;

pub use chaos::{ChaosPlan, ChaosReport, FailSite, InjectedPanic, Liveness, NativeChaos, PanicAt};
pub use guard::GuardStats;
pub use hybrid::{
    run_hybrid_threads, run_hybrid_threads_collect, HybridOutcome, HybridStats, HybridThread,
    NativeHybrid, NativeHybridPolicy,
};
pub use runner::Outcome;
pub use tl2::{
    run_threads, run_threads_collect, spin_work, DebugWindow, NativeOutcome, NativeStats,
    NativeThread, NativeTl2, NativeTxn,
};
pub use ustm::{NativeUstm, NativeUstmStats, NativeUstmTxn};
