//! The simulated-substrate implementation of the core backend traits.
//!
//! [`SimBackend`] adapts one worker's ([`TmThread`], [`Ctx`]) pair to
//! [`TmBackend`], so workload bodies written against the backend traits
//! run on the deterministic machine with *exactly* the operation stream
//! the pre-refactor hand-wired bodies issued: `plain_load`/`plain_store`
//! are `nont_load`/`nont_store`, `compute` is a cycle-charged
//! `Ctx::work`, `barrier` is the simulated-address [`Barrier`], and
//! `transaction` delegates to [`TmThread::transaction`] with the scope
//! translating [`TxAbort`] to the opaque [`Stop`] token and back.
//! Simulated results are therefore byte-identical either way.

use ufotm_core::{
    nont_load, nont_store, BackendStats, Stop, TmBackend, TmThread, Tx, TxAbort, TxScope,
};
use ufotm_machine::{Addr, PlainAccess};
use ufotm_sim::Ctx;

use crate::world::{Barrier, StampWorld};

/// One simulated worker's backend handle: the thread runtime plus its
/// engine context.
pub struct SimBackend<'a> {
    t: &'a mut TmThread,
    ctx: &'a mut Ctx<StampWorld>,
    tid: usize,
    threads: usize,
    /// Set by [`TmBackend::force_failover_next`] on a hybrid: the next
    /// transaction calls [`Tx::force_failover`] on every attempt, so its
    /// hardware attempt aborts and the driver's retry machinery fails it
    /// over to software (subsequent software attempts are no-ops).
    force_next: bool,
}

impl<'a> SimBackend<'a> {
    /// Wraps a worker's runtime and context.
    #[must_use]
    pub fn new(
        t: &'a mut TmThread,
        ctx: &'a mut Ctx<StampWorld>,
        tid: usize,
        threads: usize,
    ) -> Self {
        SimBackend {
            t,
            ctx,
            tid,
            threads,
            force_next: false,
        }
    }
}

/// The in-transaction scope: a live [`Tx`] attempt plus the abort that
/// stopped it (so `transaction` can hand the real [`TxAbort`] back to the
/// driver's retry machinery instead of inventing one).
struct SimScope<'s, 'a> {
    tx: &'s mut Tx<'a>,
    ctx: &'s mut Ctx<StampWorld>,
    abort: Option<TxAbort>,
}

impl SimScope<'_, '_> {
    fn stop(&mut self, abort: TxAbort) -> Stop {
        self.abort = Some(abort);
        Stop
    }
}

impl TxScope for SimScope<'_, '_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Stop> {
        self.tx.read(self.ctx, addr).map_err(|a| self.stop(a))
    }

    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Stop> {
        self.tx
            .write(self.ctx, addr, value)
            .map_err(|a| self.stop(a))
    }

    fn alloc(&mut self, words: u64) -> Result<Addr, Stop> {
        self.tx.alloc(self.ctx, words).map_err(|a| self.stop(a))
    }

    fn work(&mut self, cycles: u64) -> Result<(), Stop> {
        self.tx.work(self.ctx, cycles).map_err(|a| self.stop(a))
    }
}

impl TmBackend for SimBackend<'_> {
    fn transaction<R>(&mut self, mut body: impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        let force = std::mem::take(&mut self.force_next);
        self.t.transaction(self.ctx, |tx, ctx| {
            if force {
                tx.force_failover(ctx)?;
            }
            let mut scope = SimScope {
                tx,
                ctx,
                abort: None,
            };
            match body(&mut scope) {
                Ok(r) => Ok(r),
                Err(Stop) => Err(scope.abort.take().expect(
                    "body returned a hand-made Stop: Stop tokens must originate \
                     from a scope call so the driver knows the real abort reason",
                )),
            }
        })
    }

    fn plain_load(&mut self, addr: Addr) -> u64 {
        nont_load(self.ctx, addr)
    }

    fn plain_store(&mut self, addr: Addr, value: u64) {
        nont_store(self.ctx, addr, value);
    }

    fn compute(&mut self, cycles: u64) {
        self.ctx.work(cycles).plain("backend compute");
    }

    fn barrier(&mut self) {
        Barrier::wait(self.ctx);
    }

    fn tid(&self) -> usize {
        self.tid
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn force_failover_next(&mut self) {
        // Only a hybrid has a path to fail over to; elsewhere a forced
        // hardware attempt would just be retried, and forced, forever.
        self.force_next = self.t.kind().is_hybrid();
    }

    fn backend_stats(&mut self) -> BackendStats {
        // Fast path = hardware commits; slow path = everything the driver
        // fell back to (software STM, the lock, the serial tier). The counters
        // are world-global, so per-thread deltas are only meaningful in
        // single-threaded scripts — which is what the cross-validation
        // suite runs.
        self.ctx.with(|w| {
            let s = &w.shared.tm.stats;
            BackendStats {
                fast_commits: s.hw_commits,
                slow_commits: s.sw_commits + s.lock_commits + s.serial_commits,
                failovers: s.total_failovers(),
                serial_commits: s.serial_commits,
                ..BackendStats::default()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufotm_core::{SystemKind, TmShared};
    use ufotm_machine::{Machine, MachineConfig};
    use ufotm_sim::{Sim, ThreadFn};

    const X: Addr = Addr(512);

    /// A forced transaction commits once on every kind: a hybrid takes its
    /// software path, a backend without one ignores the hook (rather than
    /// re-forcing every hardware attempt forever).
    #[test]
    fn forced_transaction_commits_with_and_without_a_software_path() {
        for kind in [SystemKind::UfoHybrid, SystemKind::UnboundedHtm] {
            let cfg = MachineConfig::table4(1);
            let world = StampWorld {
                tm: TmShared::standard(kind, &cfg),
                barrier: Barrier::new(Addr(64), 1),
            };
            let body: ThreadFn<StampWorld> = Box::new(move |ctx| {
                let mut t = TmThread::new(kind, 0);
                t.install(ctx);
                let mut b = SimBackend::new(&mut t, ctx, 0, 1);
                b.force_failover_next();
                b.transaction(|tx| {
                    let v = tx.read(X)?;
                    tx.write(X, v + 1)
                });
            });
            let r = Sim::new(Machine::new(cfg), world)
                .cycle_limit(50_000_000)
                .run(vec![body]);
            assert_eq!(r.machine.peek(X), 1, "{kind}");
            let stats = &r.shared.tm.stats;
            assert_eq!(
                stats.forced_failovers,
                u64::from(kind.is_hybrid()),
                "{kind}"
            );
        }
    }
}
