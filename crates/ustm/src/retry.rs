//! Transactional waiting: the `retry` primitive (paper §6).
//!
//! A transaction that discovers (from transactionally-read data) that it
//! cannot make progress issues `retry`: its speculative writes are undone,
//! all its ownership converts to *read*, and it parks in the `Retrying`
//! state. When a later transaction's write barrier (or a non-transactional
//! store's fault handler) touches a line the sleeper had read, the sleeper
//! is woken, releases its remaining ownership, and restarts as if after an
//! abort — eliminating lost-wakeup bugs without any busy polling of the
//! condition itself.

use ufotm_machine::UfoBits;
use ufotm_sim::Ctx;

use crate::barrier::{mop, UstmTxn};
use crate::otable::Perm;
use crate::txn::{TxnStatus, POLL_BACKOFF};
use crate::{HasUstm, UstmAbort};

/// Parks the transaction until a writer updates something it read, then
/// rolls it back and returns [`UstmAbort::RetryWoken`] so a surrounding
/// [`UstmTxn::run`] loop reissues it.
///
/// A `retry` with an empty read set can never be woken by a data write; it
/// is woken immediately (a spurious wakeup, which `retry` semantics permit)
/// rather than deadlocking.
pub fn retry_wait<U: HasUstm>(txn: &mut UstmTxn, ctx: &mut Ctx<U>) -> UstmAbort {
    let cpu = txn.cpu();
    // Phase 1: undo speculative writes, demote ownership to read
    // (ascending by address), park.
    txn.restore_undo(ctx);
    ctx.with(|w| {
        let m = &mut w.machine;
        let u = w.shared.ustm();
        let strong = u.config.strong_atomicity;
        let mut owns_any = false;
        for (line, perm) in txn.owned_lines() {
            owns_any = true;
            if perm == Perm::Write {
                u.otable.demote(line, cpu);
                if strong {
                    mop(m.set_ufo_bits(cpu, line.base_addr(), UfoBits::FAULT_ON_WRITE));
                }
            }
        }
        u.slots[cpu].status = TxnStatus::Retrying;
        u.slots[cpu].woken = !owns_any; // spurious wake, never deadlock
        let slot_addr = u.slot_addr(cpu);
        mop(m.store(cpu, slot_addr, 3));
        u.stats.retries_entered += 1;
    });

    // Phase 2: sleep until a writer wakes us.
    loop {
        let woken = ctx.with(|w| {
            let m = &mut w.machine;
            let u = w.shared.ustm();
            let slot_addr = u.slot_addr(cpu);
            mop(m.load(cpu, slot_addr));
            u.slots[cpu].woken
        });
        if woken {
            break;
        }
        mop(ctx.stall(POLL_BACKOFF * 4));
    }

    // Phase 3: release remaining ownership and retire; the caller restarts.
    txn.retire(ctx, false);
    ctx.with(|w| {
        let u = w.shared.ustm();
        u.stats.retries_woken += 1;
    });
    UstmAbort::RetryWoken
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufotm_machine::{Addr, Machine, MachineConfig};
    use ufotm_sim::{Sim, ThreadFn};

    use crate::txn::{UstmConfig, UstmShared};

    const FLAG: Addr = Addr(0);
    const DATA: Addr = Addr(1024);

    fn world(cpus: usize) -> (Machine, UstmShared) {
        let machine = Machine::new(MachineConfig::table4(cpus));
        let shared = UstmShared::new(UstmConfig::default(), Addr(1 << 20), cpus, 1024);
        (machine, shared)
    }

    /// Consumer retries until the producer sets the flag — no lost wakeup.
    #[test]
    fn producer_wakes_retrying_consumer() {
        let (machine, shared) = world(2);
        let r = Sim::new(machine, shared).run(vec![
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                // Consumer: wait for FLAG != 0, then consume DATA.
                let mut txn = UstmTxn::new(0);
                let got = txn.run(ctx, |t, ctx| {
                    let flag = t.read(ctx, FLAG)?;
                    if flag == 0 {
                        return Err(retry_wait(t, ctx));
                    }
                    t.read(ctx, DATA)
                });
                assert_eq!(got, 42);
            }) as ThreadFn<UstmShared>,
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                mop(ctx.work(20_000)); // let the consumer park first
                let mut txn = UstmTxn::new(1);
                txn.run(ctx, |t, ctx| {
                    t.write(ctx, DATA, 42)?;
                    t.write(ctx, FLAG, 1)
                });
            }) as ThreadFn<UstmShared>,
        ]);
        assert_eq!(r.shared.stats.retries_entered, 1);
        assert_eq!(r.shared.stats.retries_woken, 1);
        assert_eq!(r.shared.stats.commits, 2);
        assert_eq!(r.shared.otable.live_entries(), 0);
    }

    /// `retry` undoes the transaction's own speculative writes before
    /// parking.
    #[test]
    fn retry_undoes_writes_before_parking() {
        let (machine, shared) = world(2);
        let r = Sim::new(machine, shared).run(vec![
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                let mut txn = UstmTxn::new(0);
                let mut first_attempt = true;
                txn.run(ctx, |t, ctx| {
                    let flag = t.read(ctx, FLAG)?;
                    if first_attempt {
                        first_attempt = false;
                        t.write(ctx, DATA, 777)?; // speculative, must undo
                        assert_eq!(flag, 0);
                        return Err(retry_wait(t, ctx));
                    }
                    Ok(())
                });
            }) as ThreadFn<UstmShared>,
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                mop(ctx.work(20_000));
                // Observe DATA before waking the sleeper: the speculative
                // 777 must not be visible.
                assert_eq!(crate::nont::nont_load(ctx, DATA), 0);
                let mut txn = UstmTxn::new(1);
                txn.run(ctx, |t, ctx| t.write(ctx, FLAG, 1));
            }) as ThreadFn<UstmShared>,
        ]);
        assert_eq!(r.machine.peek(DATA), 0);
        assert_eq!(r.shared.stats.retries_woken, 1);
    }

    /// The wake fires at the waker's *write barrier* (ownership
    /// acquisition), not at its commit — so a sleeper can restart while
    /// the waker is still active and uncommitted. The restarted attempt
    /// must then lose the conflict-resolution race (or wait it out) and
    /// may observe only the committed flag value, never a torn one.
    #[test]
    fn wake_racing_with_wakers_commit_stays_consistent() {
        let (machine, shared) = world(2);
        let r = Sim::new(machine, shared).run(vec![
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                let mut txn = UstmTxn::new(0);
                let got = txn.run(ctx, |t, ctx| {
                    let flag = t.read(ctx, FLAG)?;
                    if flag == 0 {
                        return Err(retry_wait(t, ctx));
                    }
                    // The flag is only ever published together with DATA.
                    t.read(ctx, DATA)
                });
                assert_eq!(got, 42);
            }) as ThreadFn<UstmShared>,
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                mop(ctx.work(20_000)); // let the consumer park first
                let mut txn = UstmTxn::new(1);
                txn.run(ctx, |t, ctx| {
                    t.write(ctx, DATA, 42)?;
                    t.write(ctx, FLAG, 1)?;
                    // Long post-wake window: the sleeper has been woken by
                    // the FLAG acquisition above and restarts while this
                    // transaction is still running.
                    mop(ctx.work(20_000));
                    Ok(())
                });
            }) as ThreadFn<UstmShared>,
        ]);
        assert_eq!(r.machine.peek(FLAG), 1);
        assert_eq!(r.machine.peek(DATA), 42);
        assert_eq!(r.shared.stats.commits, 2);
        // The consumer may be killed and re-park while the producer drains,
        // but every park must be matched by a wake — nothing sleeps forever.
        assert!(r.shared.stats.retries_entered >= 1);
        assert_eq!(r.shared.stats.retries_entered, r.shared.stats.retries_woken);
        assert_eq!(r.shared.otable.live_entries(), 0);
    }

    /// A consumer that parks repeatedly (condition not yet satisfied after
    /// a wake) accounts one `retries_entered` and one `retries_woken` per
    /// park — the counters stay balanced across multiple rounds.
    #[test]
    fn repeated_parks_balance_entered_and_woken_counters() {
        let (machine, shared) = world(2);
        let r = Sim::new(machine, shared).run(vec![
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                let mut txn = UstmTxn::new(0);
                let got = txn.run(ctx, |t, ctx| {
                    let flag = t.read(ctx, FLAG)?;
                    if flag < 2 {
                        return Err(retry_wait(t, ctx));
                    }
                    t.read(ctx, DATA)
                });
                assert_eq!(got, 2);
            }) as ThreadFn<UstmShared>,
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                // Two separate publications, far enough apart that the
                // consumer parks before each: first wake leaves the
                // condition unsatisfied (flag == 1 < 2), so it parks again.
                let mut txn = UstmTxn::new(1);
                mop(ctx.work(20_000));
                txn.run(ctx, |t, ctx| {
                    t.write(ctx, DATA, 1)?;
                    t.write(ctx, FLAG, 1)
                });
                mop(ctx.work(40_000));
                txn.run(ctx, |t, ctx| {
                    t.write(ctx, DATA, 2)?;
                    t.write(ctx, FLAG, 2)
                });
            }) as ThreadFn<UstmShared>,
        ]);
        assert_eq!(r.machine.peek(FLAG), 2);
        assert!(
            r.shared.stats.retries_entered >= 2,
            "must have parked at least twice"
        );
        assert_eq!(r.shared.stats.retries_entered, r.shared.stats.retries_woken);
        assert_eq!(r.shared.stats.commits, 3);
        assert_eq!(r.shared.otable.live_entries(), 0);
    }

    /// Empty read set: spurious wake instead of deadlock.
    #[test]
    fn empty_read_set_wakes_spuriously() {
        let (machine, shared) = world(1);
        let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<UstmShared>| {
            let mut txn = UstmTxn::new(0);
            let mut attempts = 0;
            txn.run(ctx, |t, ctx| {
                attempts += 1;
                if attempts == 1 {
                    return Err(retry_wait(t, ctx));
                }
                Ok(())
            });
            assert_eq!(attempts, 2);
        }) as ThreadFn<UstmShared>]);
        assert_eq!(r.shared.stats.retries_entered, 1);
    }
}
