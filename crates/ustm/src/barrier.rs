//! Transaction lifecycle and the read/write barriers (paper Algorithms 1–2).

use ufotm_machine::{AccessResult, Addr, CpuSet, LineAddr, UfoBits, LINE_WORDS};
use ufotm_sim::Ctx;

use crate::otable::Perm;
use crate::owned::OwnedSet;
use crate::txn::{
    TxnStatus, UstmShared, BARRIER_HIT_COST, BEGIN_COST, CAS_COST, CHAIN_ENTRY_COST, FINISH_COST,
    LOG_COST, POLL_BACKOFF,
};
use crate::{HasUstm, UstmAbort};

/// Unwraps a machine operation issued from STM runtime code, where the
/// machine's error cases (nack, BTM abort, UFO fault) cannot occur: the STM
/// runs non-transactionally with its own UFO faults disabled.
pub(crate) fn mop<T>(r: AccessResult<T>) -> T {
    r.expect("machine op cannot fault in STM runtime context")
}

const WORDS: usize = LINE_WORDS as usize;

/// Outcome of one otable acquisition attempt.
enum Acquire {
    /// Ownership obtained.
    Done,
    /// This transaction has been killed.
    Doomed { by: usize },
    /// Conflictors were killed; wait for them to release, then re-attempt.
    /// The set records which CPUs we are waiting out.
    Wait { conflictors: CpuSet },
}

/// Outcome of one wait poll.
enum Poll {
    Released,
    NotYet,
    Doomed { by: usize },
}

/// A per-thread USTM transaction handle.
///
/// The usual entry point is [`UstmTxn::run`], which wraps begin / body /
/// commit in a retry loop honouring the paper's blocking protocol (an
/// aborted transaction waits for its killer to retire before reissuing).
/// `read`/`write` return `Err` only after the transaction has been fully
/// rolled back (logged values restored, ownership released), so bodies just
/// propagate with `?`.
#[derive(Debug)]
pub struct UstmTxn {
    cpu: usize,
    ts: u64,
    active: bool,
    owned: OwnedSet,
    undo: Vec<(LineAddr, [u64; WORDS])>,
    log_count: u64,
    /// Set while unwinding: who killed us and the killer's age, so the
    /// retry can wait for the killer to retire.
    killed_by: Option<(usize, u64)>,
}

impl UstmTxn {
    /// Creates a handle for the thread running on `cpu`.
    #[must_use]
    pub fn new(cpu: usize) -> Self {
        UstmTxn {
            cpu,
            ts: 0,
            active: false,
            owned: OwnedSet::new(),
            undo: Vec::new(),
            log_count: 0,
            killed_by: None,
        }
    }

    /// The CPU this handle is bound to.
    #[must_use]
    pub fn cpu(&self) -> usize {
        self.cpu
    }

    /// Whether a transaction is in flight.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// This transaction's age (valid while active).
    #[must_use]
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Lines currently owned, with permissions, ascending by address (the
    /// order `retry` demotes them in).
    pub(crate) fn owned_lines(&mut self) -> impl Iterator<Item = (LineAddr, Perm)> + '_ {
        self.owned.ascending_perms()
    }

    /// `ustm_begin`: starts a transaction (checkpoint, sequence number,
    /// descriptor update; disables this thread's UFO faults in strong mode).
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active on this handle.
    pub fn begin<U: HasUstm>(&mut self, ctx: &mut Ctx<U>) {
        self.start(ctx, false);
    }

    /// Begins the *eldest* transaction: [`UstmTxn::begin`] at the reserved
    /// age [`UstmShared::ELDEST_TS`], older than any `begin` draws. By the
    /// age rule it kills every younger live owner it meets and is killed by
    /// nobody; it waits only for `Committing`/`Aborting` owners (which wait
    /// for nothing) and for the victims it killed or woke (which notice at
    /// their next barrier or poll), so it commits on its first attempt with
    /// everyone else still running. The caller keeps it the only one — two
    /// owners of this age on one line would each stall behind the other
    /// forever.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active on this handle.
    pub fn begin_eldest<U: HasUstm>(&mut self, ctx: &mut Ctx<U>) {
        self.start(ctx, true);
    }

    /// Whether this transaction was begun as the eldest one (valid while
    /// active).
    #[must_use]
    pub fn is_eldest(&self) -> bool {
        self.ts == UstmShared::ELDEST_TS
    }

    fn start<U: HasUstm>(&mut self, ctx: &mut Ctx<U>, eldest: bool) {
        assert!(!self.active, "nested USTM transactions are not supported");
        let cpu = self.cpu;
        let ts = ctx.with(|w| {
            let m = &mut w.machine;
            let u = w.shared.ustm();
            mop(m.work(cpu, BEGIN_COST));
            if u.config.strong_atomicity {
                m.set_ufo_enabled(cpu, false);
            }
            let ts = if eldest {
                UstmShared::ELDEST_TS
            } else {
                u.next_seq()
            };
            u.slots[cpu] = crate::txn::TxnSlot {
                status: TxnStatus::Active,
                ts,
                doomed_by: None,
                woken: false,
            };
            let slot_addr = u.slot_addr(cpu);
            mop(m.store(cpu, slot_addr, ts));
            u.stats.begins += 1;
            ts
        });
        self.ts = ts;
        self.active = true;
        self.owned.clear();
        self.undo.clear();
        self.killed_by = None;
    }

    /// `ustm_read_barrier` + the read itself: acquires read permission for
    /// the line containing `addr`, then loads the word.
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if this transaction was killed; it has already
    /// been rolled back when the error is returned.
    pub fn read<U: HasUstm>(&mut self, ctx: &mut Ctx<U>, addr: Addr) -> Result<u64, UstmAbort> {
        debug_assert!(self.active, "read outside a USTM transaction");
        let cpu = self.cpu;
        let line = addr.line();
        if self.owned.perm(line).is_some() {
            // Fast path: permission already held. Still a barrier: pending
            // kills are noticed here.
            let r = ctx.with(|w| {
                let m = &mut w.machine;
                let u = w.shared.ustm();
                if let Some(by) = u.slots[cpu].doomed_by {
                    return Err(by);
                }
                mop(m.work(cpu, BARRIER_HIT_COST));
                u.stats.barrier_cycles += BARRIER_HIT_COST;
                Ok(mop(m.load(cpu, addr)))
            });
            return match r {
                Ok(v) => Ok(v),
                Err(by) => Err(self.unwind(ctx, by)),
            };
        }
        self.acquire(ctx, line, Perm::Read)?;
        self.owned.grant(line, Perm::Read);
        Ok(ctx.with(|w| mop(w.machine.load(cpu, addr))))
    }

    /// `ustm_write_barrier` + the store itself: acquires write permission
    /// (logging the line's pre-image on first acquisition), then stores.
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if this transaction was killed; it has already
    /// been rolled back when the error is returned.
    pub fn write<U: HasUstm>(
        &mut self,
        ctx: &mut Ctx<U>,
        addr: Addr,
        value: u64,
    ) -> Result<(), UstmAbort> {
        debug_assert!(self.active, "write outside a USTM transaction");
        let cpu = self.cpu;
        let line = addr.line();
        if self.owned.perm(line) == Some(Perm::Write) {
            let r = ctx.with(|w| {
                let m = &mut w.machine;
                let u = w.shared.ustm();
                if let Some(by) = u.slots[cpu].doomed_by {
                    return Err(by);
                }
                mop(m.work(cpu, BARRIER_HIT_COST));
                u.stats.barrier_cycles += BARRIER_HIT_COST;
                mop(m.store(cpu, addr, value));
                Ok(())
            });
            return match r {
                Ok(()) => Ok(()),
                Err(by) => Err(self.unwind(ctx, by)),
            };
        }
        self.acquire(ctx, line, Perm::Write)?;
        self.owned.grant(line, Perm::Write);
        ctx.with(|w| mop(w.machine.store(cpu, addr, value)));
        Ok(())
    }

    /// `ustm_end`: commits. After the serialization point (descriptor →
    /// `Committing`) the transaction releases all ownership and clears UFO
    /// protection.
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if a kill landed before the serialization
    /// point; the transaction has been rolled back.
    pub fn commit<U: HasUstm>(&mut self, ctx: &mut Ctx<U>) -> Result<(), UstmAbort> {
        debug_assert!(self.active, "commit outside a USTM transaction");
        let cpu = self.cpu;
        let sealed = ctx.with(|w| {
            let m = &mut w.machine;
            let u = w.shared.ustm();
            if let Some(by) = u.slots[cpu].doomed_by {
                return Err(by);
            }
            mop(m.work(cpu, FINISH_COST));
            u.slots[cpu].status = TxnStatus::Committing;
            let slot_addr = u.slot_addr(cpu);
            mop(m.store(cpu, slot_addr, 1));
            Ok(())
        });
        if let Err(by) = sealed {
            return Err(self.unwind(ctx, by));
        }
        self.retire(ctx, true);
        Ok(())
    }

    /// Explicitly aborts and rolls back the transaction.
    pub fn abort_explicit<U: HasUstm>(&mut self, ctx: &mut Ctx<U>) -> UstmAbort {
        debug_assert!(self.active);
        self.rollback(ctx, None);
        UstmAbort::Explicit
    }

    /// After an `Err(Killed)`, waits until the killer transaction has
    /// retired (paper §4.1: an aborted transaction waits for its aborter
    /// before reissuing, avoiding otable contention and livelock).
    ///
    /// "Retired" is the killer's slot going `Inactive` or changing age, and
    /// every eldest transaction carries the same age: a victim of one that
    /// polls only after the same CPU has begun the next waits that one out
    /// too — a delay, never a wedge (the victim owns nothing here, so each
    /// eldest transaction terminates).
    pub fn wait_for_killer<U: HasUstm>(&mut self, ctx: &mut Ctx<U>) {
        let Some((killer, killer_ts)) = self.killed_by.take() else {
            return;
        };
        let cpu = self.cpu;
        loop {
            let retired = ctx.with(|w| {
                let m = &mut w.machine;
                let u = w.shared.ustm();
                let slot_addr = u.slot_addr(killer);
                mop(m.load(cpu, slot_addr));
                u.stats.stall_polls += 1;
                u.slots[killer].status == TxnStatus::Inactive || u.slots[killer].ts != killer_ts
            });
            if retired {
                return;
            }
            mop(ctx.stall(POLL_BACKOFF));
        }
    }

    /// Runs `body` as a transaction, retrying per the blocking protocol
    /// until it commits. The body must propagate `Err` from `read`/`write`
    /// (the transaction is already rolled back when they return `Err`).
    ///
    /// # Panics
    ///
    /// Panics if the body returns `Err(UstmAbort::Explicit)` variants it
    /// did not itself produce via [`UstmTxn::abort_explicit`] — i.e. misuse.
    pub fn run<U: HasUstm, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        mut body: impl FnMut(&mut UstmTxn, &mut Ctx<U>) -> Result<R, UstmAbort>,
    ) -> R {
        loop {
            self.begin(ctx);
            match body(self, ctx) {
                Ok(r) => match self.commit(ctx) {
                    Ok(()) => return r,
                    Err(UstmAbort::Killed { .. }) => self.wait_for_killer(ctx),
                    Err(other) => unreachable!("commit produced {other:?}"),
                },
                Err(UstmAbort::Killed { .. }) => self.wait_for_killer(ctx),
                Err(UstmAbort::RetryWoken) => { /* reissue immediately */ }
                Err(UstmAbort::Explicit) => { /* user abort: reissue */ }
            }
        }
    }

    // --- internals -------------------------------------------------------

    /// Eager versioning: restores the logged pre-images, newest first, and
    /// empties the undo log (rollback and `retry` both start this way).
    pub(crate) fn restore_undo<U: HasUstm>(&mut self, ctx: &mut Ctx<U>) {
        let cpu = self.cpu;
        for (line, words) in self.undo.drain(..).rev() {
            ctx.with(|w| {
                let m = &mut w.machine;
                for (i, word) in words.iter().enumerate() {
                    mop(m.store(cpu, line.base_addr().add_words(i as u64), *word));
                }
            });
        }
    }

    /// Ends every transaction — committed, rolled back or woken from
    /// `retry`: releases each owned line, ascending by address, then
    /// retires the slot (`Inactive`, no pending kill or wake, descriptor
    /// cleared, this thread's UFO faults back on). `committed` counts a
    /// commit.
    pub(crate) fn retire<U: HasUstm>(&mut self, ctx: &mut Ctx<U>, committed: bool) {
        let cpu = self.cpu;
        let lines = self.owned.ascending();
        for &line in lines {
            release_line(ctx, cpu, line);
        }
        ctx.with(|w| {
            let m = &mut w.machine;
            let u = w.shared.ustm();
            let slot = &mut u.slots[cpu];
            slot.status = TxnStatus::Inactive;
            slot.doomed_by = None;
            slot.woken = false;
            let slot_addr = u.slot_addr(cpu);
            mop(m.store(cpu, slot_addr, 0));
            if committed {
                u.stats.commits += 1;
            }
            if u.config.strong_atomicity {
                m.set_ufo_enabled(cpu, true);
            }
        });
        self.active = false;
        self.owned.clear();
        self.undo.clear();
    }

    /// Rolls back after discovering a kill: returns the error to propagate.
    pub(crate) fn unwind<U: HasUstm>(&mut self, ctx: &mut Ctx<U>, by: usize) -> UstmAbort {
        self.rollback(ctx, Some(by));
        UstmAbort::Killed { by }
    }

    /// Full rollback: restore logged lines, release ownership, retire.
    fn rollback<U: HasUstm>(&mut self, ctx: &mut Ctx<U>, by: Option<usize>) {
        let cpu = self.cpu;
        let killer_ts = ctx.with(|w| {
            let m = &mut w.machine;
            let u = w.shared.ustm();
            u.slots[cpu].status = TxnStatus::Aborting;
            let slot_addr = u.slot_addr(cpu);
            mop(m.store(cpu, slot_addr, 2));
            mop(m.work(cpu, FINISH_COST));
            u.stats.aborts += 1;
            by.map(|k| u.slots[k].ts)
        });
        self.restore_undo(ctx);
        self.retire(ctx, false);
        self.killed_by = by.zip(killer_ts);
    }

    /// Acquires `want` permission on `line`, looping through conflict
    /// resolution. On success the caller records it in `self.owned`.
    fn acquire<U: HasUstm>(
        &mut self,
        ctx: &mut Ctx<U>,
        line: LineAddr,
        want: Perm,
    ) -> Result<(), UstmAbort> {
        let cpu = self.cpu;
        let my_ts = self.ts;
        loop {
            let mut log_snapshot: Option<[u64; WORDS]> = None;
            let outcome = ctx.with(|w| {
                let m = &mut w.machine;
                let u = w.shared.ustm();
                if let Some(by) = u.slots[cpu].doomed_by {
                    return Acquire::Doomed { by };
                }
                let start = m.now(cpu);
                let strong = u.config.strong_atomicity;
                let bin = u.otable.bin_addr_of(line);
                mop(m.work(cpu, CAS_COST));
                mop(m.load(cpu, bin));
                let found = u.otable.lookup(line);
                let out = match found {
                    None => {
                        u.otable.insert(line, want, cpu);
                        mop(m.store(cpu, bin, u.otable.chain_len(line) as u64));
                        if strong {
                            let bits = match want {
                                Perm::Read => UfoBits::FAULT_ON_WRITE,
                                Perm::Write => UfoBits::FAULT_ON_BOTH,
                            };
                            mop(m.set_ufo_bits(cpu, line.base_addr(), bits));
                        }
                        if want == Perm::Write {
                            log_snapshot = Some(snapshot_line(m, line));
                        }
                        Acquire::Done
                    }
                    Some((pos, e)) => {
                        if pos > 0 {
                            u.stats.chain_walks += 1;
                            mop(m.work(cpu, CHAIN_ENTRY_COST * pos as u64));
                        }
                        if e.owned_by(cpu) && (want == Perm::Read || e.sole_owner(cpu)) {
                            if want == Perm::Write {
                                // Upgrade from sole read ownership.
                                u.otable.upgrade(line, cpu);
                                mop(m.store(cpu, bin, u.otable.chain_len(line) as u64));
                                if strong {
                                    mop(m.add_ufo_bits(
                                        cpu,
                                        line.base_addr(),
                                        UfoBits::FAULT_ON_READ,
                                    ));
                                }
                                log_snapshot = Some(snapshot_line(m, line));
                            }
                            Acquire::Done
                        } else if want == Perm::Read && e.perm == Perm::Read {
                            u.otable.add_reader(line, cpu);
                            mop(m.store(cpu, bin, u.otable.chain_len(line) as u64));
                            Acquire::Done
                        } else {
                            resolve_conflict(u, cpu, my_ts, &e)
                        }
                    }
                };
                u.stats.barrier_cycles += m.now(cpu) - start;
                u.stats.max_chain_seen =
                    u.stats.max_chain_seen.max(u.otable.chain_len(line) as u64);
                out
            });
            match outcome {
                Acquire::Done => {
                    if let Some(words) = log_snapshot {
                        self.log_line(ctx, line, words);
                    }
                    return Ok(());
                }
                Acquire::Doomed { by } => return Err(self.unwind(ctx, by)),
                Acquire::Wait { conflictors } => {
                    self.wait_out(ctx, line, conflictors)?;
                }
            }
        }
    }

    /// Records a line pre-image in the undo log, charging log traffic.
    fn log_line<U: HasUstm>(&mut self, ctx: &mut Ctx<U>, line: LineAddr, words: [u64; WORDS]) {
        let cpu = self.cpu;
        let n = self.log_count;
        self.log_count += 2;
        ctx.with(|w| {
            let m = &mut w.machine;
            let u = w.shared.ustm();
            let start = m.now(cpu);
            mop(m.work(cpu, LOG_COST));
            let a0 = u.log_addr(cpu, n);
            let a1 = u.log_addr(cpu, n + 1);
            mop(m.store(cpu, a0, line.base_addr().0));
            mop(m.store(cpu, a1, words[0]));
            u.stats.barrier_cycles += m.now(cpu) - start;
        });
        self.undo.push((line, words));
    }

    /// Waits until none of `conflictors` still owns `line` (polling the bin
    /// with backoff), surfacing kills.
    fn wait_out<U: HasUstm>(
        &mut self,
        ctx: &mut Ctx<U>,
        line: LineAddr,
        conflictors: CpuSet,
    ) -> Result<(), UstmAbort> {
        let cpu = self.cpu;
        loop {
            let poll = ctx.with(|w| {
                let m = &mut w.machine;
                let u = w.shared.ustm();
                if let Some(by) = u.slots[cpu].doomed_by {
                    return Poll::Doomed { by };
                }
                let bin = u.otable.bin_addr_of(line);
                mop(m.load(cpu, bin));
                u.stats.stall_polls += 1;
                match u.otable.lookup(line) {
                    None => Poll::Released,
                    // Re-evaluate as soon as *any* conflictor releases: the
                    // age comparison may now swing our way (waiting for the
                    // whole snapshot would deadlock on mixed-age owner
                    // sets — A stalls behind an older reader while a
                    // younger reader stalls behind A).
                    Some((_, e)) if !e.owners.is_superset(conflictors) => Poll::Released,
                    Some(_) => Poll::NotYet,
                }
            });
            match poll {
                Poll::Released => return Ok(()),
                Poll::Doomed { by } => return Err(self.unwind(ctx, by)),
                Poll::NotYet => {
                    mop(ctx.stall(POLL_BACKOFF));
                }
            }
        }
    }
}

/// Releases `cpu`'s ownership of one line (commit or abort path), clearing
/// UFO protection when the entry drains.
fn release_line<U: HasUstm>(ctx: &mut Ctx<U>, cpu: usize, line: LineAddr) {
    ctx.with(|w| {
        let m = &mut w.machine;
        let u = w.shared.ustm();
        let start = m.now(cpu);
        let strong = u.config.strong_atomicity;
        let bin = u.otable.bin_addr_of(line);
        mop(m.work(cpu, CAS_COST));
        mop(m.load(cpu, bin));
        let removed = u.otable.release(line, cpu);
        mop(m.store(cpu, bin, u.otable.chain_len(line) as u64));
        if removed && strong {
            mop(m.set_ufo_bits(cpu, line.base_addr(), UfoBits::NONE));
        }
        u.stats.barrier_cycles += m.now(cpu) - start;
    });
}

/// Host-side snapshot of a line's eight words (the simulated cost is the
/// log-write traffic charged by `log_line`).
fn snapshot_line(m: &ufotm_machine::Machine, line: LineAddr) -> [u64; WORDS] {
    let mut words = [0u64; WORDS];
    for (i, word) in words.iter_mut().enumerate() {
        *word = m.peek(line.base_addr().add_words(i as u64));
    }
    words
}

/// Age-ordered conflict resolution (paper §4.1): stall if younger than any
/// live conflictor; otherwise kill them all and wait for their unwinding.
/// `retry`-parked owners are woken and waited out regardless of age.
fn resolve_conflict(
    u: &mut UstmShared,
    cpu: usize,
    my_ts: u64,
    entry: &crate::otable::OtableEntry,
) -> Acquire {
    let mut victims = CpuSet::EMPTY;
    let mut must_stall = false;
    let mut mask = CpuSet::EMPTY;
    for o in entry.owner_cpus() {
        if o == cpu {
            continue;
        }
        mask.insert(o);
        match u.slots[o].status {
            TxnStatus::Active => {
                if u.slots[o].ts > my_ts {
                    victims.insert(o);
                } else {
                    must_stall = true;
                }
            }
            TxnStatus::Committing | TxnStatus::Aborting => must_stall = true,
            TxnStatus::Retrying => {
                u.slots[o].woken = true;
                victims.insert(o);
            }
            TxnStatus::Inactive => {
                // Raced with a release; re-attempt will see fresh state.
            }
        }
    }
    if must_stall {
        return Acquire::Wait { conflictors: mask };
    }
    for v in victims {
        if u.doom(v, cpu) {
            u.stats.kills_issued += 1;
        }
    }
    Acquire::Wait { conflictors: mask }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufotm_machine::{Machine, MachineConfig};
    use ufotm_sim::{Sim, ThreadFn};

    use crate::txn::UstmConfig;

    const DATA: Addr = Addr(0);

    fn world(cpus: usize, cfg: UstmConfig) -> (Machine, UstmShared) {
        let mcfg = MachineConfig::table4(cpus);
        let machine = Machine::new(mcfg);
        // Keep USTM metadata far from test data.
        let shared = UstmShared::new(cfg, Addr(1 << 20), cpus, 1024);
        (machine, shared)
    }

    #[test]
    fn single_txn_commits() {
        let (machine, shared) = world(1, UstmConfig::default());
        let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<UstmShared>| {
            let mut txn = UstmTxn::new(0);
            let out = txn.run(ctx, |t, ctx| {
                let v = t.read(ctx, DATA)?;
                t.write(ctx, DATA, v + 5)?;
                Ok(v + 5)
            });
            assert_eq!(out, 5);
        }) as ThreadFn<UstmShared>]);
        assert_eq!(r.machine.peek(DATA), 5);
        assert_eq!(r.shared.stats.commits, 1);
        assert_eq!(r.shared.otable.live_entries(), 0, "ownership drained");
    }

    #[test]
    fn strong_mode_sets_and_clears_ufo_bits() {
        let (machine, shared) = world(1, UstmConfig::default());
        let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<UstmShared>| {
            let mut txn = UstmTxn::new(0);
            txn.begin(ctx);
            txn.read(ctx, DATA).unwrap();
            let bits = ctx.with(|w| w.machine.read_ufo_bits(0, DATA).unwrap());
            assert_eq!(bits, UfoBits::FAULT_ON_WRITE, "read barrier installs fow");
            txn.write(ctx, DATA, 1).unwrap();
            let bits = ctx.with(|w| w.machine.read_ufo_bits(0, DATA).unwrap());
            assert_eq!(bits, UfoBits::FAULT_ON_BOTH, "upgrade adds for");
            txn.commit(ctx).unwrap();
            let bits = ctx.with(|w| w.machine.read_ufo_bits(0, DATA).unwrap());
            assert_eq!(bits, UfoBits::NONE, "commit clears protection");
        }) as ThreadFn<UstmShared>]);
        assert_eq!(r.machine.peek(DATA), 1);
    }

    #[test]
    fn weak_mode_never_touches_ufo_bits() {
        let (machine, shared) = world(1, UstmConfig::weak());
        let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<UstmShared>| {
            let mut txn = UstmTxn::new(0);
            txn.begin(ctx);
            txn.write(ctx, DATA, 9).unwrap();
            let bits = ctx.with(|w| w.machine.read_ufo_bits(0, DATA).unwrap());
            assert_eq!(bits, UfoBits::NONE);
            txn.commit(ctx).unwrap();
        }) as ThreadFn<UstmShared>]);
        assert_eq!(r.machine.peek(DATA), 9);
    }

    #[test]
    fn rollback_restores_line_preimage() {
        let (mut machine, shared) = world(1, UstmConfig::default());
        for i in 0..8 {
            machine.poke(DATA.add_words(i), 100 + i);
        }
        let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<UstmShared>| {
            let mut txn = UstmTxn::new(0);
            txn.begin(ctx);
            txn.write(ctx, DATA, 0).unwrap();
            txn.write(ctx, DATA.add_words(3), 0).unwrap();
            let abort = txn.abort_explicit(ctx);
            assert_eq!(abort, UstmAbort::Explicit);
        }) as ThreadFn<UstmShared>]);
        for i in 0..8 {
            assert_eq!(r.machine.peek(DATA.add_words(i)), 100 + i);
        }
        assert_eq!(r.shared.stats.aborts, 1);
        assert_eq!(r.shared.otable.live_entries(), 0);
    }

    #[test]
    fn two_readers_share_a_line() {
        let (machine, shared) = world(2, UstmConfig::default());
        let mk = |cpu: usize| -> ThreadFn<UstmShared> {
            Box::new(move |ctx: &mut Ctx<UstmShared>| {
                let mut txn = UstmTxn::new(cpu);
                let v = txn.run(ctx, |t, ctx| t.read(ctx, DATA));
                assert_eq!(v, 0);
            })
        };
        let r = Sim::new(machine, shared).run(vec![mk(0), mk(1)]);
        assert_eq!(r.shared.stats.commits, 2);
        assert_eq!(r.shared.stats.kills_issued, 0);
    }

    #[test]
    fn write_write_conflict_serializes_increment() {
        let (machine, shared) = world(4, UstmConfig::default());
        let mk = |cpu: usize| -> ThreadFn<UstmShared> {
            Box::new(move |ctx: &mut Ctx<UstmShared>| {
                let mut txn = UstmTxn::new(cpu);
                for _ in 0..25 {
                    txn.run(ctx, |t, ctx| {
                        let v = t.read(ctx, DATA)?;
                        // Add compute so transactions overlap in time.
                        mop(ctx.work(50));
                        t.write(ctx, DATA, v + 1)
                    });
                }
            })
        };
        let r = Sim::new(machine, shared).run((0..4).map(mk).collect());
        assert_eq!(r.machine.peek(DATA), 100, "increments must not be lost");
        assert_eq!(r.shared.stats.commits, 100);
        assert_eq!(r.shared.otable.live_entries(), 0);
    }

    #[test]
    fn conflicting_txns_leave_consistent_multiline_state() {
        // Invariant: words A and B always move together (A == B).
        let a = Addr(0);
        let b = Addr(1024); // different line
        let (machine, shared) = world(3, UstmConfig::default());
        let mk = |cpu: usize| -> ThreadFn<UstmShared> {
            Box::new(move |ctx: &mut Ctx<UstmShared>| {
                let mut txn = UstmTxn::new(cpu);
                for _ in 0..10 {
                    txn.run(ctx, |t, ctx| {
                        let va = t.read(ctx, a)?;
                        let vb = t.read(ctx, b)?;
                        assert_eq!(va, vb, "isolation violated");
                        mop(ctx.work(30));
                        t.write(ctx, a, va + 1)?;
                        t.write(ctx, b, vb + 1)
                    });
                }
            })
        };
        let r = Sim::new(machine, shared).run((0..3).map(mk).collect());
        assert_eq!(r.machine.peek(a), 30);
        assert_eq!(r.machine.peek(b), 30);
    }

    #[test]
    fn killed_transaction_waits_for_killer() {
        let (machine, shared) = world(2, UstmConfig::default());
        let r = Sim::new(machine, shared).run(vec![
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                // Older transaction: starts first, then writes DATA.
                let mut txn = UstmTxn::new(0);
                txn.run(ctx, |t, ctx| {
                    mop(ctx.work(2_000)); // let cpu1 grab DATA first
                    t.write(ctx, DATA, 1)?;
                    mop(ctx.work(2_000));
                    Ok(())
                });
            }) as ThreadFn<UstmShared>,
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                mop(ctx.work(100));
                // Younger transaction grabs DATA, gets killed, retries.
                let mut txn = UstmTxn::new(1);
                txn.run(ctx, |t, ctx| {
                    let v = t.read(ctx, DATA)?;
                    mop(ctx.work(8_000)); // hold it long enough to be killed
                    t.write(ctx, DATA, v + 10)
                });
            }) as ThreadFn<UstmShared>,
        ]);
        assert_eq!(r.machine.peek(DATA), 11, "both eventually commit");
        assert!(r.shared.stats.kills_issued >= 1, "older killed younger");
        assert!(r.shared.stats.aborts >= 1);
        assert_eq!(r.shared.stats.commits, 2);
    }

    /// `owned_lines` against an ordered-map reference through a real run:
    /// CPU 1 issues seeded first reads, re-reads, writes, upgrades and
    /// commits while CPU 0's older writers kill it on conflict. After
    /// every barrier the handle must list the reference's lines and
    /// permissions in ascending order; after a commit or a kill, nothing.
    /// Lines are scattered so first-touch order is not ascending.
    #[test]
    fn owned_lines_match_the_ordered_map_reference_through_kills() {
        use std::collections::BTreeMap;
        use ufotm_machine::SimRng;
        let (steps, writers) = if cfg!(miri) { (60, 3) } else { (1_500, 60) };
        let addr = |i: u64| Addr((i * 0x9E37 % 4096) * 64);
        let (machine, shared) = world(2, UstmConfig::default());
        let r = Sim::new(machine, shared).run(vec![
            Box::new(move |ctx: &mut Ctx<UstmShared>| {
                let mut txn = UstmTxn::new(0);
                let mut rng = SimRng::seed_from_u64(7);
                for _ in 0..writers {
                    let a = addr(rng.gen_range(0..16));
                    txn.run(ctx, |t, ctx| {
                        mop(ctx.work(1_500)); // younger transactions begin meanwhile
                        t.write(ctx, a, 1)
                    });
                }
            }) as ThreadFn<UstmShared>,
            Box::new(move |ctx: &mut Ctx<UstmShared>| {
                let mut txn = UstmTxn::new(1);
                let mut rng = SimRng::seed_from_u64(11);
                let mut model: BTreeMap<LineAddr, Perm> = BTreeMap::new();
                let mut kills = 0;
                txn.begin(ctx);
                for step in 0..steps {
                    let a = addr(rng.gen_range(0..16));
                    let res = match rng.gen_index(0..8) {
                        0..=3 => txn.read(ctx, a).map(|_| {
                            model.entry(a.line()).or_insert(Perm::Read);
                        }),
                        4..=6 => txn.write(ctx, a, step).map(|()| {
                            model.insert(a.line(), Perm::Write);
                        }),
                        _ => txn.commit(ctx).map(|()| model.clear()),
                    };
                    if let Err(e) = res {
                        assert!(matches!(e, UstmAbort::Killed { .. }), "step {step}: {e}");
                        kills += 1;
                        model.clear();
                    }
                    let want: Vec<_> = model.iter().map(|(&l, &p)| (l, p)).collect();
                    assert_eq!(txn.owned_lines().collect::<Vec<_>>(), want, "step {step}");
                    if !txn.is_active() {
                        txn.wait_for_killer(ctx);
                        txn.begin(ctx);
                    }
                }
                txn.commit(ctx).ok();
                assert!(kills > 0, "the older writers never killed the reader");
            }) as ThreadFn<UstmShared>,
        ]);
        assert_eq!(r.shared.otable.live_entries(), 0, "ownership drained");
    }

    /// Age is the reserved timestamp, not begin order: the eldest
    /// transaction kills an owner that began before it (an ordinary
    /// latecomer would stall behind that owner instead).
    #[test]
    fn eldest_kills_an_owner_that_began_first() {
        let (machine, shared) = world(2, UstmConfig::default());
        let r = Sim::new(machine, shared).run(vec![
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                mop(ctx.work(2_000)); // let cpu1 begin and read DATA first
                let mut txn = UstmTxn::new(0);
                txn.begin_eldest(ctx);
                txn.write(ctx, DATA, 1).expect("nobody kills the eldest");
                txn.commit(ctx).expect("nobody kills the eldest");
            }) as ThreadFn<UstmShared>,
            Box::new(|ctx: &mut Ctx<UstmShared>| {
                let mut txn = UstmTxn::new(1);
                txn.run(ctx, |t, ctx| {
                    let v = t.read(ctx, DATA)?;
                    mop(ctx.work(8_000));
                    t.write(ctx, DATA, v + 10)
                });
            }) as ThreadFn<UstmShared>,
        ]);
        assert_eq!(r.machine.peek(DATA), 11, "both commit, eldest first");
        assert_eq!(r.shared.stats.kills_issued, 1);
        assert_eq!(r.shared.stats.commits, 2);
    }
}
