//! # `ufotm-core` — the UFO hybrid transactional memory
//!
//! This crate is the paper's contribution (§4): a hybrid TM whose hardware
//! transactions run **with zero instrumentation** even while conflicting
//! software transactions are in flight, because the strongly-atomic USTM
//! protects everything it touches with UFO bits — a conflicting hardware
//! transaction simply takes a protection fault.
//!
//! It also implements every system the paper compares against, over the
//! same substrate, selected by [`SystemKind`]:
//!
//! | Kind | What it models |
//! |------|----------------|
//! | [`SystemKind::UfoHybrid`]  | the paper's system: BTM + abort handler (Alg. 3) + strong USTM failover |
//! | [`SystemKind::HyTm`]       | Damron et al.: hardware txns instrumented with transactional otable checks |
//! | [`SystemKind::PhTm`]       | phased TM: global counters exclude HTM and STM phases |
//! | [`SystemKind::UnboundedHtm`] | idealized HTM with no capacity bound |
//! | [`SystemKind::UstmStrong`] / [`SystemKind::UstmWeak`] | pure STM, with/without UFO strong atomicity |
//! | [`SystemKind::Tl2`]        | the TL2 baseline |
//! | [`SystemKind::GlobalLock`] / [`SystemKind::Sequential`] | lock and serial baselines |
//!
//! A transaction body is written once against [`Tx`] /
//! [`TmThread::transaction`] and runs unchanged on every system — the same
//! property the paper gets from compiling each transaction twice (Figure
//! 4). The STAMP workloads go one step further and are written once
//! against [`TmBackend`], so the same body also runs on the native
//! real-thread backend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod backend;
mod lockbase;
mod phtm;
mod policy;
mod report;
mod runtime;
mod shared;
mod trace;
mod tx;

pub use audit::{audit_events, audit_log, AuditReport, AuditViolation, CommitPath, TxnRecord};
pub use backend::{BackendStats, Stop, TmBackend, TxScope};
pub use lockbase::LockShared;
pub use phtm::PhtmShared;
pub use policy::{BtmUfoFaultPolicy, HybridPolicy, BACKOFF_JITTER_PCT};
pub use report::{
    json_escape, CycleAttribution, Log2Histogram, RunReport, TraceSummary, ABORT_TAXONOMY,
};
pub use runtime::TmThread;
pub use shared::{HasTm, HybridStats, SystemKind, TmShared, TmSharedLayout, TmWorld};
pub use trace::{EscalationTier, TraceEvent, TraceKind, TraceLog};
pub use tx::{Tx, TxAbort};

/// Re-exported so harnesses can reach the strong-atomicity helpers without
/// depending on `ufotm-ustm` directly.
pub use ufotm_ustm::{nont_load, nont_store};
