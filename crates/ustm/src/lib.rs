//! # `ufotm-ustm` — USTM, the UFO software transactional memory
//!
//! USTM (paper §4.1–4.2) is an eager-versioning, eager-conflict-detection,
//! cache-line-granularity STM built around a shared **ownership table**
//! ([`Otable`]): one record per line currently read or written by any
//! software transaction, holding the line's tag, the permission held, and
//! the owner set. Read/write barriers acquire ownership (and log old values
//! for writes) before the data access; conflicts are resolved age-ordered —
//! a younger transaction stalls, an older one aborts its conflictors and
//! waits for them to unwind (USTM is blocking).
//!
//! **Strong atomicity** (§4.2) is what makes USTM special: barriers install
//! UFO protection on every transactionally-held line (read barrier ⇒
//! fault-on-write; write barrier ⇒ fault-on-read + fault-on-write), and the
//! transaction runs with its own UFO faults disabled. Any non-transactional
//! access that would violate isolation takes a hardware fault *before* it
//! completes; the fault handler ([`nont_load`]/[`nont_store`]) stalls it
//! until the owning transaction releases the line — no instrumentation of
//! non-transactional code, and no overhead when there is no conflict. The
//! same mechanism is what lets the hybrid's hardware transactions run
//! uninstrumented (crate `ufotm-core`).
//!
//! The otable and transaction-status array live at *simulated addresses*:
//! every barrier issues real simulated memory traffic, so STM overhead,
//! cache pressure, and the HyTM pathologies all emerge from the machine
//! model rather than being hard-coded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barrier;
mod nont;
mod otable;
mod owned;
mod retry;
mod txn;

pub use barrier::UstmTxn;
pub use nont::{nont_load, nont_store};
pub use otable::{bin_index, Otable, OtableEntry, OtableOccupancy, Perm};
pub use retry::retry_wait;
pub use txn::{TxnSlot, TxnStatus, UstmConfig, UstmShared, UstmStats};

/// Gives USTM access to its shared state inside a larger world type.
///
/// The simulation engine parameterizes the world over one shared-state type;
/// harnesses that combine several TM systems (the `ufotm-core` crate) embed
/// a [`UstmShared`] and implement this trait for the combined type.
pub trait HasUstm {
    /// The embedded USTM shared state.
    fn ustm(&mut self) -> &mut UstmShared;
}

impl HasUstm for UstmShared {
    fn ustm(&mut self) -> &mut UstmShared {
        self
    }
}

/// Why a USTM operation could not proceed; the transaction must roll back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UstmAbort {
    /// This transaction was killed by an older conflicting transaction (the
    /// killer's CPU is recorded so the retry can wait for it to retire).
    Killed {
        /// The CPU whose transaction killed us.
        by: usize,
    },
    /// The transaction executed an explicit abort.
    Explicit,
    /// The transaction issued `retry` (transactional waiting, paper §6) and
    /// has been woken; it restarts as if after an abort.
    RetryWoken,
}

impl std::fmt::Display for UstmAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UstmAbort::Killed { by } => write!(f, "killed by STM transaction on cpu {by}"),
            UstmAbort::Explicit => f.write_str("explicit STM abort"),
            UstmAbort::RetryWoken => f.write_str("woken from transactional retry"),
        }
    }
}

impl std::error::Error for UstmAbort {}
