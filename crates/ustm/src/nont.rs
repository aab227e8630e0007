//! Strong atomicity for non-transactional code.
//!
//! With USTM's strong atomicity, plain code needs **no instrumentation**:
//! a conflicting access simply takes a UFO fault. These helpers are the
//! fault handler the STM registers (paper §4.2) — they stall and retry the
//! access until the owning transaction releases the line (the paper's
//! default: software transactions are long-running and almost always
//! older, so they get priority). When there is no conflict,
//! [`nont_load`]/[`nont_store`] are exactly one machine access.

use ufotm_machine::{AccessError, Addr, PlainAccess};
use ufotm_sim::Ctx;

use crate::txn::{TxnStatus, POLL_BACKOFF};
use crate::HasUstm;

/// A non-transactional load that honours strong atomicity: on a UFO fault it
/// runs the USTM fault handler and retries.
///
/// # Panics
///
/// Panics on machine errors that cannot occur outside a BTM transaction.
pub fn nont_load<U: HasUstm>(ctx: &mut Ctx<U>, addr: Addr) -> u64 {
    loop {
        let cpu = ctx.cpu();
        match ctx.with(|w| w.machine.load(cpu, addr)) {
            Ok(v) => return v,
            Err(AccessError::UfoFault { .. }) => handle_fault(ctx, addr),
            Err(e) => panic!("unexpected machine error in nonT load: {e}"),
        }
    }
}

/// A non-transactional store that honours strong atomicity (see
/// [`nont_load`]).
///
/// # Panics
///
/// Panics on machine errors that cannot occur outside a BTM transaction.
pub fn nont_store<U: HasUstm>(ctx: &mut Ctx<U>, addr: Addr, value: u64) {
    loop {
        let cpu = ctx.cpu();
        match ctx.with(|w| w.machine.store(cpu, addr, value)) {
            Ok(()) => return,
            Err(AccessError::UfoFault { .. }) => handle_fault(ctx, addr),
            Err(e) => panic!("unexpected machine error in nonT store: {e}"),
        }
    }
}

/// The registered UFO fault handler: wakes `retry`-parked owners and backs
/// off before the caller retries the access; live owners are waited out.
fn handle_fault<U: HasUstm>(ctx: &mut Ctx<U>, addr: Addr) {
    let cpu = ctx.cpu();
    ctx.with(|w| {
        let m = &mut w.machine;
        let u = w.shared.ustm();
        u.stats.nont_faults += 1;
        let line = addr.line();
        // One otable inspection (the handler reads the bin).
        let bin = u.otable.bin_addr_of(line);
        m.load(cpu, bin).plain("handler bin read");
        if let Some((_, e)) = u.otable.lookup(line) {
            // `owner_cpus` yields an owned bit iterator, so the otable
            // borrow ends here and the slots below can be mutated.
            let owners = e.owner_cpus();
            for o in owners {
                if u.slots[o].status == TxnStatus::Retrying {
                    u.slots[o].woken = true;
                }
            }
        }
    });
    ctx.stall(POLL_BACKOFF).plain("stall outside txn");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufotm_machine::{Machine, MachineConfig};
    use ufotm_sim::{Sim, ThreadFn};

    use crate::barrier::{mop, UstmTxn};
    use crate::txn::{UstmConfig, UstmShared};

    const DATA: Addr = Addr(0);

    fn world(cpus: usize, cfg: UstmConfig) -> (Machine, UstmShared) {
        let machine = Machine::new(MachineConfig::table4(cpus));
        let shared = UstmShared::new(cfg, Addr(1 << 20), cpus, 1024);
        (machine, shared)
    }

    /// The Figure 2b scenario: a non-transactional store adjacent to
    /// transactional data must not be lost when the transaction aborts.
    #[test]
    fn nont_store_stalls_until_txn_releases() {
        let (machine, shared) = world(2, UstmConfig::default());
        let r = Sim::new(machine, shared).run(vec![
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                let mut txn = UstmTxn::new(0);
                txn.begin(ctx);
                txn.write(ctx, DATA, 7).unwrap();
                mop(ctx.work(5_000)); // hold ownership a while
                txn.commit(ctx).unwrap();
            }) as ThreadFn<UstmShared>,
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                ctx.set_ufo_enabled(true);
                mop(ctx.work(500)); // fault while the txn holds DATA
                nont_store(ctx, DATA.add_words(1), 99);
                // The txn still held DATA when we started; strong atomicity
                // made us wait, so its commit is already visible.
                assert_eq!(nont_load(ctx, DATA), 7);
            }) as ThreadFn<UstmShared>,
        ]);
        assert_eq!(r.machine.peek(DATA), 7);
        assert_eq!(r.machine.peek(DATA.add_words(1)), 99);
        assert!(
            r.shared.stats.nont_faults >= 1,
            "the store must have faulted"
        );
    }

    #[test]
    fn nont_read_of_write_owned_line_sees_no_speculative_state() {
        let (machine, shared) = world(2, UstmConfig::default());
        let r = Sim::new(machine, shared).run(vec![
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                let mut txn = UstmTxn::new(0);
                txn.begin(ctx);
                txn.write(ctx, DATA, 1234).unwrap();
                mop(ctx.work(4_000));
                let _ = txn.abort_explicit(ctx);
            }) as ThreadFn<UstmShared>,
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                ctx.set_ufo_enabled(true);
                mop(ctx.work(500));
                // Faults (fault-on-read), waits out the abort, then reads
                // the restored value.
                assert_eq!(nont_load(ctx, DATA), 0);
            }) as ThreadFn<UstmShared>,
        ]);
        assert_eq!(r.machine.peek(DATA), 0);
        assert!(r.shared.stats.nont_faults >= 1);
    }

    #[test]
    fn no_conflict_means_single_access() {
        let (machine, shared) = world(1, UstmConfig::default());
        let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<UstmShared>| {
            ctx.set_ufo_enabled(true);
            nont_store(ctx, DATA, 5);
            assert_eq!(nont_load(ctx, DATA), 5);
        }) as ThreadFn<UstmShared>]);
        assert_eq!(r.shared.stats.nont_faults, 0);
        assert_eq!(r.machine.stats().cpus[0].accesses, 2);
    }
}
