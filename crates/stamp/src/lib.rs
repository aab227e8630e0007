//! # `ufotm-stamp` — STAMP-style workloads over the simulated machine
//!
//! Re-implementations of the three STAMP benchmarks the paper evaluates
//! (§5.1), plus the software-failover microbenchmark of §5.3:
//!
//! * [`kmeans`] — clustering; many small transactions updating per-cluster
//!   accumulators. High contention = few clusters.
//! * [`vacation`] — a travel-reservation system over binary search trees in
//!   simulated memory; long-running, large-footprint transactions that
//!   sometimes overflow the L1 (more often in the low-contention
//!   configuration, as the paper observes).
//! * [`genome`] — segment de-duplication into a shared hash set, then
//!   assembly by sorted-linked-list insertion: the paper's high-contention
//!   CM stress test.
//! * [`micro`] — conflict-free transactions that fail over to software at a
//!   prescribed random rate (Figure 7).
//! * [`ssca2`] — an extension workload (STAMP's graph-construction kernel):
//!   tiny scalable transactions, the low-contention end of the spectrum.
//!
//! [`micro`] is written against `ufotm-core`'s [`Tx`] facade (it forces
//! failover per *attempt*, below the backend traits) and runs on all nine
//! [`SystemKind`]s. The four STAMP workloads are each one [`Workload`]
//! impl — layout, setup, verification, and a single thread body generic
//! over the substrate-agnostic [`TmBackend`](ufotm_core::TmBackend) —
//! and the [`harness`] owns the
//! only two drivers: `run_sim` puts that body on the deterministic
//! machine through [`backend::SimBackend`] (all nine systems), and
//! `run_native` puts the *same body* on `ufotm-native`'s real threads
//! (TL2-only or the failover hybrid) for wall-clock throughput and
//! sim-vs-native cross-validation. Callers call those two directly.
//!
//! [`Tx`]: ufotm_core::Tx
//! [`SystemKind`]: ufotm_core::SystemKind

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod genome;
pub mod harness;
pub mod kmeans;
pub mod micro;
pub mod ssca2;
pub mod structures;
pub mod vacation;
mod world;

pub use backend::SimBackend;
pub use harness::{NativeOutcome, RunOutcome, RunSpec, Workload};
pub use world::{Barrier, StampWorld};
