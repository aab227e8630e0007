//! # `ufotm` — a reproduction of the ISCA 2008 UFO hybrid transactional memory
//!
//! This is the facade crate for a full reproduction of Baugh, Neelakantam &
//! Zilles, *"Using Hardware Memory Protection to Build a High-Performance,
//! Strongly-Atomic Hybrid Transactional Memory"* (ISCA 2008), built as a
//! Cargo workspace:
//!
//! * [`machine`] — the simulated hardware: memory, caches, directory
//!   coherence, **UFO** fine-grained protection bits, and **BTM**, the
//!   best-effort hardware TM.
//! * [`sim`] — the deterministic lockstep execution engine.
//! * [`ustm`] — USTM, the strongly-atomic software TM (otable + UFO bits).
//! * [`tl2`] — the TL2 baseline STM.
//! * [`core`] — the paper's contribution: the UFO hybrid, plus HyTM, PhTM,
//!   an idealized unbounded HTM, and lock/serial baselines, all behind one
//!   transaction facade.
//! * [`stamp`] — the evaluation workloads (kmeans, vacation, genome, and
//!   the failover microbenchmark).
//!
//! See `README.md` for a quickstart, `docs/ARCHITECTURE.md` for how the
//! crates fit together, and `EXPERIMENTS.md` for the paper-vs-measured
//! record. The `examples/` directory contains runnable walkthroughs;
//! `cargo bench` regenerates every table and figure of the paper's
//! evaluation.
//!
//! ## Quick taste
//!
//! ```
//! use ufotm::prelude::*;
//!
//! // Two CPUs, the paper's hybrid, one shared counter.
//! let cfg = MachineConfig::table4(2);
//! let shared = TmShared::standard(SystemKind::UfoHybrid, &cfg);
//! let machine = Machine::new(cfg);
//! let result = Sim::new(machine, shared).run(
//!     (0..2)
//!         .map(|cpu| -> ThreadFn<TmShared> {
//!             Box::new(move |ctx| {
//!                 let mut t = TmThread::new(SystemKind::UfoHybrid, cpu);
//!                 t.install(ctx);
//!                 for _ in 0..10 {
//!                     t.transaction(ctx, |tx, ctx| {
//!                         let v = tx.read(ctx, Addr(0))?;
//!                         tx.write(ctx, Addr(0), v + 1)
//!                     });
//!                 }
//!             })
//!         })
//!         .collect(),
//! );
//! assert_eq!(result.machine.peek(Addr(0)), 20);
//! assert_eq!(result.shared.stats.hw_commits, 20); // all in hardware
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ufotm_core as core;
pub use ufotm_machine as machine;
pub use ufotm_sim as sim;
pub use ufotm_stamp as stamp;
pub use ufotm_tl2 as tl2;
pub use ufotm_ustm as ustm;

/// The most common imports, in one place.
pub mod prelude {
    pub use ufotm_core::{
        nont_load, nont_store, HybridPolicy, SystemKind, TmShared, TmThread, Tx, TxAbort,
    };
    pub use ufotm_machine::{AbortReason, Addr, Machine, MachineConfig, SwapConfig, UfoBits};
    pub use ufotm_sim::{Ctx, Sim, SimResult, ThreadFn, World};
    pub use ufotm_stamp::harness::{RunOutcome, RunSpec};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = SystemKind::UfoHybrid.label();
        let _ = MachineConfig::table4(1);
    }
}
