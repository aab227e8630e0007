//! The global-lock baseline: one test-and-set lock in simulated memory.

use ufotm_machine::{Addr, PlainAccess};
use ufotm_sim::Ctx;

use crate::shared::HasTm;

/// Shared state of the global-lock baseline.
#[derive(Clone, Copy, Debug)]
pub struct LockShared {
    addr: Addr,
    holder: Option<usize>,
    /// Successful acquisitions.
    pub acquisitions: u64,
}

impl LockShared {
    /// Creates the lock at simulated address `addr` (reserve one line).
    #[must_use]
    pub fn new(addr: Addr) -> Self {
        LockShared {
            addr,
            holder: None,
            acquisitions: 0,
        }
    }

    /// Who holds the lock (tests/diagnostics).
    #[must_use]
    pub fn holder(&self) -> Option<usize> {
        self.holder
    }
}

/// Cycles a waiter stalls between two reads of a held lock.
const SPIN_BACKOFF: u64 = 80;

/// Spins (test-and-test-and-set with backoff) until the lock is acquired.
pub(crate) fn lock_acquire<U: HasTm>(ctx: &mut Ctx<U>) {
    let cpu = ctx.cpu();
    loop {
        let got = ctx.with(|w| {
            let m = &mut w.machine;
            let l = &mut w.shared.tm().lock;
            m.load(cpu, l.addr).plain("lock read");
            if l.holder.is_none() {
                l.holder = Some(cpu);
                l.acquisitions += 1;
                m.store(cpu, l.addr, cpu as u64 + 1).plain("lock take");
                true
            } else {
                false
            }
        });
        if got {
            return;
        }
        ctx.stall(SPIN_BACKOFF).plain("lock spin");
    }
}

/// Releases the lock.
///
/// # Panics
///
/// Panics if the caller does not hold it.
pub(crate) fn lock_release<U: HasTm>(ctx: &mut Ctx<U>) {
    let cpu = ctx.cpu();
    ctx.with(|w| {
        let m = &mut w.machine;
        let l = &mut w.shared.tm().lock;
        assert_eq!(l.holder, Some(cpu), "releasing a lock we do not hold");
        l.holder = None;
        m.store(cpu, l.addr, 0).plain("lock release");
    });
}
