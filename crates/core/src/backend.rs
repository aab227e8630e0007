//! The backend abstraction: one workload, two execution substrates.
//!
//! Every STAMP workload is written once against [`TmBackend`] /
//! [`TxScope`] and runs unchanged on either substrate:
//!
//! * **Simulated** — the deterministic cycle-charged machine. The scope
//!   delegates to [`Tx`](crate::Tx) under a
//!   [`TmThread`](crate::TmThread) driver, every access is charged
//!   simulated cycles, and runs replay bit-for-bit from a seed. This is
//!   the substrate all of the paper's figures are measured on.
//! * **Native** — real host atomics on real OS threads (the
//!   `ufotm-native` crate: a TL2 fast path alone, or the failover hybrid
//!   of that TL2, a USTM slow path and a serial tier), with zero
//!   simulator involvement. Runs are *not* deterministic; they exist to
//!   run the same bodies at memory speed and to cross-validate the
//!   simulated protocols against an implementation whose races are real.
//!
//! The split mirrors the paper's Figure 4 property (each transaction
//! compiled once per execution mode): the workload body is generic over
//! the backend, and the backend supplies transactional semantics,
//! plain (non-transactional) access, compute charging, and the phase
//! barrier.
//!
//! # Abort handling
//!
//! Backends retry internally: [`TmBackend::transaction`] runs the body
//! as many times as it takes to commit and only then returns. The body
//! cannot observe *which* abort happened — scope methods return the
//! opaque [`Stop`] token and the real abort reason stays inside the
//! backend (exactly like [`TxAbort`](crate::TxAbort) never escaping
//! [`TmThread::transaction`](crate::TmThread::transaction)). `?` on
//! every scope call is therefore the whole protocol a body must follow.

use ufotm_machine::Addr;

/// Opaque "this attempt must stop" token returned by [`TxScope`]
/// methods. The real abort reason is backend-internal; the body's only
/// job is to propagate `Stop` out with `?` so the backend can retry.
///
/// Constructed by backend implementations only; a body has no reason to
/// build one itself (returning a hand-made `Stop` from a body is a
/// protocol violation and backends may panic on it).
#[derive(Clone, Copy, Debug)]
pub struct Stop;

/// The transactional scope a body runs inside: reads, writes,
/// allocation and compute, all abortable.
///
/// Addresses are the same [`Addr`] space on both substrates (the native
/// backend maps them onto a word-indexed host heap), so setup/verify
/// code can share address arithmetic with the workload body.
pub trait TxScope {
    /// Transactionally reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// [`Stop`] when the attempt must abort (conflict, kill, validation
    /// failure — backend-specific).
    fn read(&mut self, addr: Addr) -> Result<u64, Stop>;

    /// Transactionally writes the word at `addr`.
    ///
    /// # Errors
    ///
    /// [`Stop`] when the attempt must abort.
    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Stop>;

    /// Allocates `words` fresh words inside the transaction.
    ///
    /// # Errors
    ///
    /// [`Stop`] when the attempt must abort.
    fn alloc(&mut self, words: u64) -> Result<Addr, Stop>;

    /// Charges `cycles` of in-transaction compute (simulated cycles on
    /// the simulator; a calibrated spin on the native backend).
    ///
    /// # Errors
    ///
    /// [`Stop`] when the attempt must abort (e.g. an asynchronous kill
    /// observed while computing).
    fn work(&mut self, cycles: u64) -> Result<(), Stop>;
}

/// One thread's view of an execution substrate.
///
/// `transaction` is generic (static dispatch), so the trait is not
/// object-safe — workloads take `B: TmBackend` type parameters, they do
/// not box backends.
pub trait TmBackend {
    /// Runs `body` transactionally until it commits, then returns its
    /// result. Retry policy, failover and abort classification are the
    /// backend's business.
    fn transaction<R>(&mut self, body: impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R;

    /// Non-transactional (strongly-atomic where the system supports it)
    /// load, for setup phases and read-mostly snapshots between phases.
    fn plain_load(&mut self, addr: Addr) -> u64;

    /// Non-transactional store; see [`TmBackend::plain_load`].
    fn plain_store(&mut self, addr: Addr, value: u64);

    /// Charges `cycles` of non-transactional compute.
    fn compute(&mut self, cycles: u64);

    /// Blocks until every participating thread arrives (phase barrier).
    fn barrier(&mut self);

    /// This thread's id, `0..threads()`.
    fn tid(&self) -> usize;

    /// Number of participating threads.
    fn threads(&self) -> usize;

    /// Requests that the *next* transaction on this thread take the
    /// slow/failover path, if the backend has one. Test and
    /// cross-validation hook; single-path backends ignore it.
    fn force_failover_next(&mut self) {}

    /// This handle's commit-path and robustness counters so far.
    /// Single-path backends have nothing to split and keep the all-zero
    /// default. (Not plain `stats`: the native handles already have an
    /// inherent `stats(&self)` returning their own counter structs, and
    /// on a `&mut` handle a `&mut self` trait method of that name would
    /// shadow it.)
    fn backend_stats(&mut self) -> BackendStats {
        BackendStats::default()
    }
}

/// One snapshot of a backend handle's counters, reported identically by
/// the simulated and native hybrids so failover and robustness
/// observability is substrate-independent (cross-validation compares
/// deltas of these field by field).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Transactions committed on the fast path.
    pub fast_commits: u64,
    /// Transactions committed on anything the driver fell back to (the
    /// slow path, the lock, the serial tier).
    pub slow_commits: u64,
    /// Fast→slow failovers taken.
    pub failovers: u64,
    /// The part of `slow_commits` that completed on the last-resort tier,
    /// as the eldest software transaction (hybrid backends with a
    /// watchdog).
    pub serial_commits: u64,
    /// Ownership records reclaimed from dead/orphaned owners (native
    /// fault-tolerant backends: stolen TL2 stripe locks plus discarded
    /// unsealed slow-path transactions).
    pub orphan_reclaims: u64,
    /// Sealed slow-path commits of dead workers finished by a helper
    /// (native fault-tolerant backends).
    pub helper_completions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial single-threaded in-memory backend: proves the traits
    /// are implementable without a machine and pins the retry contract
    /// (the body reruns until it returns `Ok`).
    struct VecBackend {
        words: Vec<u64>,
        next_free: u64,
        forced_stops: u32,
    }

    struct VecScope<'a> {
        b: &'a mut VecBackend,
        staged: Vec<(u64, u64)>,
    }

    impl TxScope for VecScope<'_> {
        fn read(&mut self, addr: Addr) -> Result<u64, Stop> {
            let w = addr.0 / 8;
            for &(sw, v) in self.staged.iter().rev() {
                if sw == w {
                    return Ok(v);
                }
            }
            Ok(self.b.words[w as usize])
        }

        fn write(&mut self, addr: Addr, value: u64) -> Result<(), Stop> {
            if self.b.forced_stops > 0 {
                self.b.forced_stops -= 1;
                return Err(Stop);
            }
            self.staged.push((addr.0 / 8, value));
            Ok(())
        }

        fn alloc(&mut self, words: u64) -> Result<Addr, Stop> {
            let at = self.b.next_free;
            self.b.next_free += words;
            Ok(Addr(at * 8))
        }

        fn work(&mut self, _cycles: u64) -> Result<(), Stop> {
            Ok(())
        }
    }

    impl TmBackend for VecBackend {
        fn transaction<R>(
            &mut self,
            mut body: impl FnMut(&mut dyn TxScope) -> Result<R, Stop>,
        ) -> R {
            loop {
                let mut scope = VecScope {
                    b: self,
                    staged: Vec::new(),
                };
                if let Ok(r) = body(&mut scope) {
                    let staged = std::mem::take(&mut scope.staged);
                    for (w, v) in staged {
                        self.words[w as usize] = v;
                    }
                    return r;
                }
            }
        }

        fn plain_load(&mut self, addr: Addr) -> u64 {
            self.words[(addr.0 / 8) as usize]
        }

        fn plain_store(&mut self, addr: Addr, value: u64) {
            self.words[(addr.0 / 8) as usize] = value;
        }

        fn compute(&mut self, _cycles: u64) {}

        fn barrier(&mut self) {}

        fn tid(&self) -> usize {
            0
        }

        fn threads(&self) -> usize {
            1
        }
    }

    /// A workload generic over the backend, as STAMP bodies are written.
    fn increment_n<B: TmBackend>(b: &mut B, addr: Addr, n: u64) {
        for _ in 0..n {
            b.transaction(|tx| {
                let v = tx.read(addr)?;
                tx.work(10)?;
                tx.write(addr, v + 1)?;
                Ok(())
            });
        }
    }

    #[test]
    fn bodies_rerun_until_commit_and_staged_writes_are_isolated() {
        let mut b = VecBackend {
            words: vec![0; 64],
            next_free: 32,
            forced_stops: 3,
        };
        increment_n(&mut b, Addr(8), 5);
        // Three forced aborts were retried away; nothing double-applied.
        assert_eq!(b.plain_load(Addr(8)), 5);
    }

    #[test]
    fn alloc_returns_fresh_words() {
        let mut b = VecBackend {
            words: vec![0; 64],
            next_free: 32,
            forced_stops: 0,
        };
        let (a1, a2) = b.transaction(|tx| {
            let a1 = tx.alloc(2)?;
            let a2 = tx.alloc(2)?;
            tx.write(a1, 7)?;
            Ok((a1, a2))
        });
        assert_ne!(a1, a2);
        assert_eq!(b.plain_load(a1), 7);
    }

    #[test]
    fn failover_hooks_default_to_single_path_noops() {
        let mut b = VecBackend {
            words: vec![0; 8],
            next_free: 4,
            forced_stops: 0,
        };
        b.force_failover_next(); // must be a harmless no-op
        increment_n(&mut b, Addr(8), 1);
        assert_eq!(b.backend_stats(), BackendStats::default());
    }
}
