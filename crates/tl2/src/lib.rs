//! # `ufotm-tl2` — the TL2 baseline STM
//!
//! The paper compares USTM against TL2 (Dice, Shalev, Shavit — DISC 2006)
//! "to link our performance with previously published results". This crate
//! implements TL2 over the same simulated machine: a lazy-versioning,
//! commit-time-locking STM with a **global version clock** and a hashed
//! table of per-line versioned write locks.
//!
//! * `begin` samples the global clock into a read version `rv`.
//! * Reads post-validate: lock word sampled before and after the data load
//!   must be unlocked and no newer than `rv`.
//! * Writes are buffered locally (lazy versioning).
//! * Commit locks the write set, increments the global clock, re-validates
//!   the read set, publishes the buffered writes, and releases the locks
//!   stamped with the new version.
//!
//! TL2 is *weakly atomic*: nothing protects transactional data from plain
//! code, which is exactly the contrast the paper draws with USTM + UFO.
//! The global clock and the lock table live at simulated addresses, so
//! clock contention and lock-table cache traffic are modelled, not assumed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod write_set;

use ufotm_machine::{AccessResult, Addr, LineAddr};
use ufotm_sim::Ctx;

use write_set::WriteSet;

/// Unwraps machine ops issued from TL2 runtime code (plain accesses with
/// UFO disabled cannot fault).
fn mop<T>(r: AccessResult<T>) -> T {
    r.expect("machine op cannot fault in TL2 runtime context")
}

/// Gives TL2 access to its shared state inside a larger world type.
pub trait HasTl2 {
    /// The embedded TL2 shared state.
    fn tl2(&mut self) -> &mut Tl2Shared;
}

impl HasTl2 for Tl2Shared {
    fn tl2(&mut self) -> &mut Tl2Shared {
        self
    }
}

/// Why a TL2 transaction aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tl2Abort {
    /// A read observed a locked or too-new lock word.
    ReadValidation,
    /// Commit could not acquire a write lock.
    LockBusy,
    /// Commit-time read-set validation failed.
    CommitValidation,
}

impl std::fmt::Display for Tl2Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tl2Abort::ReadValidation => f.write_str("read validation failed"),
            Tl2Abort::LockBusy => f.write_str("write lock busy at commit"),
            Tl2Abort::CommitValidation => f.write_str("commit validation failed"),
        }
    }
}

impl std::error::Error for Tl2Abort {}

/// One versioned write lock, as `Tl2Shared::lock` decodes it.
#[derive(Clone, Copy, Debug)]
struct LockWord {
    version: u64,
    holder: Option<usize>,
}

/// A lock-table entry as stored: `[version, holder + 1]`, 0 meaning free,
/// so a fresh table is all zero. `vec![[0u64; 2]; n]` takes the
/// zeroed-allocation path: building a table writes nothing, and a page
/// materializes only when a stripe on it is first locked.
type LockEntry = [u64; 2];

/// Fixed cost of `begin` (clock sample bookkeeping).
const BEGIN_COST: u64 = 20;
/// Fixed cost of a read barrier (two lock samples are charged as simulated
/// loads already; this covers the compare/branch work).
const READ_COST: u64 = 4;
/// Fixed cost of buffering a write.
const WRITE_COST: u64 = 6;
/// Fixed per-entry cost at commit (lock CAS, validation compare).
const COMMIT_ENTRY_COST: u64 = 10;
/// Base backoff after an abort (doubles per consecutive abort).
const BACKOFF_BASE: u64 = 100;

/// Aggregate TL2 event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tl2Stats {
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Aborts by validation failure or lock contention.
    pub aborts: u64,
}

/// Shared TL2 state: the global version clock and the lock table.
#[derive(Clone, Debug)]
pub struct Tl2Shared {
    /// Event counters.
    pub stats: Tl2Stats,
    clock: u64,
    clock_addr: Addr,
    locks: Vec<LockEntry>,
    lock_base: Addr,
    mask: u64,
}

/// The version-lock stripe `line` hashes to in a table of `mask + 1`
/// entries (Fibonacci scatter). The simulated lock table's hash only:
/// the native TL2 indexes its stripes in address order instead, so
/// workers on disjoint data share no stripe-table cache line, and keeping
/// the scatter here keeps simulated results unchanged. Cross-validation
/// scripts pair only lines that are on distinct stripes under both.
#[inline]
#[must_use]
pub fn stripe_index(line: LineAddr, mask: u64) -> usize {
    ((line.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) & mask) as usize
}

impl Tl2Shared {
    /// Words of simulated memory TL2 needs for a lock table of
    /// `lock_entries` entries (plus one line for the global clock).
    #[must_use]
    pub fn required_words(lock_entries: u64) -> u64 {
        lock_entries + 8
    }

    /// Creates the shared state with its metadata at simulated address
    /// `base` (reserve [`Tl2Shared::required_words`]` * 8` bytes).
    ///
    /// # Panics
    ///
    /// Panics if `lock_entries` is not a power of two.
    #[must_use]
    pub fn new(base: Addr, lock_entries: u64) -> Self {
        assert!(
            lock_entries.is_power_of_two(),
            "lock entries must be a power of two"
        );
        Tl2Shared {
            stats: Tl2Stats::default(),
            clock: 0,
            clock_addr: base,
            locks: ufotm_machine::zeroed_pairs(lock_entries as usize),
            lock_base: Addr(base.0 + 64),
            mask: lock_entries - 1,
        }
    }

    fn lock(&self, index: usize) -> LockWord {
        let [version, holder] = self.locks[index];
        LockWord {
            version,
            holder: holder.checked_sub(1).map(|cpu| cpu as usize),
        }
    }

    fn set_lock(&mut self, index: usize, lw: LockWord) {
        self.locks[index] = [lw.version, lw.holder.map_or(0, |cpu| cpu as u64 + 1)];
    }

    fn lock_index(&self, line: LineAddr) -> usize {
        stripe_index(line, self.mask)
    }

    fn lock_addr(&self, index: usize) -> Addr {
        Addr(self.lock_base.0 + index as u64 * 8)
    }
}

/// A per-thread TL2 transaction handle. Use [`Tl2Txn::run`] for the retry
/// loop with exponential backoff.
#[derive(Debug)]
pub struct Tl2Txn {
    cpu: usize,
    rv: u64,
    reads: Vec<usize>,
    writes: WriteSet,
    write_lines: Vec<LineAddr>,
    /// The write set's lock stripes in acquisition order (ascending, one
    /// each), rebuilt by every writing commit. Kept across transactions,
    /// like the read and write sets, so a warm handle's commit allocates
    /// nothing.
    stripes: Vec<usize>,
    active: bool,
    consecutive_aborts: u32,
}

impl Tl2Txn {
    /// Creates a handle for the thread on `cpu`.
    #[must_use]
    pub fn new(cpu: usize) -> Self {
        Tl2Txn {
            cpu,
            rv: 0,
            reads: Vec::new(),
            writes: WriteSet::new(),
            write_lines: Vec::new(),
            stripes: Vec::new(),
            active: false,
            consecutive_aborts: 0,
        }
    }

    /// Whether a transaction is active on this handle.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Abandons the current attempt without committing (used when the body
    /// requests an operation TL2 cannot honour, e.g. transactional
    /// waiting): buffers are dropped and an abort is counted.
    pub fn drop_attempt<U: HasTl2>(&mut self, ctx: &mut Ctx<U>) {
        debug_assert!(self.active);
        self.fail(ctx, Tl2Abort::ReadValidation);
    }

    /// Begins a transaction: samples the global version clock.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active.
    pub fn begin<U: HasTl2>(&mut self, ctx: &mut Ctx<U>) {
        assert!(!self.active, "nested TL2 transactions are not supported");
        let cpu = self.cpu;
        self.rv = ctx.with(|w| {
            let m = &mut w.machine;
            let t = w.shared.tl2();
            mop(m.work(cpu, BEGIN_COST));
            mop(m.load(cpu, t.clock_addr));
            t.stats.begins += 1;
            t.clock
        });
        self.reads.clear();
        self.writes.clear();
        self.write_lines.clear();
        self.active = true;
    }

    /// Transactional read with post-validation.
    ///
    /// # Errors
    ///
    /// [`Tl2Abort::ReadValidation`] — the transaction must be retried (its
    /// buffers are already cleared).
    pub fn read<U: HasTl2>(&mut self, ctx: &mut Ctx<U>, addr: Addr) -> Result<u64, Tl2Abort> {
        debug_assert!(self.active);
        let cpu = self.cpu;
        if let Some(v) = self.writes.get(addr.0) {
            ctx.with(|w| mop(w.machine.work(cpu, READ_COST)));
            return Ok(v);
        }
        let rv = self.rv;
        let line = addr.line();
        let r = ctx.with(|w| {
            let m = &mut w.machine;
            let t = w.shared.tl2();
            mop(m.work(cpu, READ_COST));
            let idx = t.lock_index(line);
            let la = t.lock_addr(idx);
            mop(m.load(cpu, la)); // pre-sample
            let pre = t.lock(idx);
            let v = mop(m.load(cpu, addr));
            mop(m.load(cpu, la)); // post-sample
            let post = t.lock(idx);
            let ok = pre.holder.is_none()
                && post.holder.is_none()
                && pre.version == post.version
                && post.version <= rv;
            if ok {
                Ok((idx, v))
            } else {
                Err(Tl2Abort::ReadValidation)
            }
        });
        match r {
            Ok((idx, v)) => {
                self.reads.push(idx);
                Ok(v)
            }
            Err(e) => {
                self.fail(ctx, e);
                Err(e)
            }
        }
    }

    /// Transactional (buffered) write.
    ///
    /// # Errors
    ///
    /// Infallible today; returns `Result` for interface symmetry with the
    /// eager systems.
    pub fn write<U: HasTl2>(
        &mut self,
        ctx: &mut Ctx<U>,
        addr: Addr,
        value: u64,
    ) -> Result<(), Tl2Abort> {
        debug_assert!(self.active);
        let cpu = self.cpu;
        ctx.with(|w| mop(w.machine.work(cpu, WRITE_COST)));
        if self.writes.put(addr.0, value) {
            let line = addr.line();
            if !self.write_lines.contains(&line) {
                self.write_lines.push(line);
            }
        }
        Ok(())
    }

    /// Commits: lock write set → bump clock → validate read set → publish →
    /// release.
    ///
    /// # Errors
    ///
    /// [`Tl2Abort::LockBusy`] or [`Tl2Abort::CommitValidation`]; the
    /// transaction has been rolled back (buffers dropped, locks released).
    pub fn commit<U: HasTl2>(&mut self, ctx: &mut Ctx<U>) -> Result<(), Tl2Abort> {
        debug_assert!(self.active);
        let cpu = self.cpu;
        if self.writes.is_empty() {
            // Read-only fast path: incremental validation suffices.
            ctx.with(|w| {
                let t = w.shared.tl2();
                t.stats.commits += 1;
            });
            self.active = false;
            self.consecutive_aborts = 0;
            return Ok(());
        }
        // Phase 1: acquire write locks (sorted to keep lock order canonical).
        let (stripes, lines) = (&mut self.stripes, &self.write_lines);
        ctx.with(|w| {
            let t = w.shared.tl2();
            stripes.clear();
            stripes.extend(lines.iter().map(|&l| t.lock_index(l)));
            stripes.sort_unstable();
            stripes.dedup();
        });
        for k in 0..self.stripes.len() {
            let idx = self.stripes[k];
            let acquired = ctx.with(|w| {
                let m = &mut w.machine;
                let t = w.shared.tl2();
                mop(m.work(cpu, COMMIT_ENTRY_COST));
                let la = t.lock_addr(idx);
                mop(m.load(cpu, la));
                let lw = t.lock(idx);
                match lw.holder {
                    None => {
                        t.set_lock(
                            idx,
                            LockWord {
                                holder: Some(cpu),
                                ..lw
                            },
                        );
                        mop(m.store(cpu, la, 1));
                        true
                    }
                    Some(h) => h == cpu,
                }
            });
            if !acquired {
                self.release_locks(ctx, k);
                self.fail(ctx, Tl2Abort::LockBusy);
                return Err(Tl2Abort::LockBusy);
            }
        }
        // Phase 2: increment the global clock.
        let wv = ctx.with(|w| {
            let m = &mut w.machine;
            let t = w.shared.tl2();
            mop(m.load(cpu, t.clock_addr));
            t.clock += 1;
            let wv = t.clock;
            mop(m.store(cpu, t.clock_addr, wv));
            wv
        });
        // Phase 3: validate the read set.
        let (rv, reads) = (self.rv, &self.reads);
        let valid = ctx.with(|w| {
            let m = &mut w.machine;
            let t = w.shared.tl2();
            for &idx in reads {
                mop(m.work(cpu, COMMIT_ENTRY_COST / 2));
                let lw = t.lock(idx);
                let held_by_me = lw.holder == Some(cpu);
                if lw.version > rv || (lw.holder.is_some() && !held_by_me) {
                    return false;
                }
            }
            true
        });
        if !valid {
            self.release_locks(ctx, self.stripes.len());
            self.fail(ctx, Tl2Abort::CommitValidation);
            return Err(Tl2Abort::CommitValidation);
        }
        // Phase 4: publish the write set, ascending by address.
        for (a, v) in self.writes.ascending() {
            ctx.with(|w| mop(w.machine.store(cpu, Addr(a), v)));
        }
        // Phase 5: release locks stamped with the new version.
        let stripes = &self.stripes;
        ctx.with(|w| {
            let m = &mut w.machine;
            let t = w.shared.tl2();
            for &idx in stripes {
                t.set_lock(
                    idx,
                    LockWord {
                        version: wv,
                        holder: None,
                    },
                );
                let la = t.lock_addr(idx);
                mop(m.store(cpu, la, wv << 1));
            }
            t.stats.commits += 1;
        });
        self.reads.clear();
        self.writes.clear();
        self.active = false;
        self.consecutive_aborts = 0;
        Ok(())
    }

    /// Runs `body` as a transaction, retrying with exponential backoff until
    /// commit.
    pub fn run<U: HasTl2, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        mut body: impl FnMut(&mut Tl2Txn, &mut Ctx<U>) -> Result<R, Tl2Abort>,
    ) -> R {
        loop {
            self.begin(ctx);
            if let Ok(r) = body(self, ctx) {
                if self.commit(ctx).is_ok() {
                    return r;
                }
            }
            let shift = self.consecutive_aborts.min(6);
            mop(ctx.stall(BACKOFF_BASE << shift));
        }
    }

    /// Releases the first `held` stripes of the write set, the ones this
    /// commit acquired, at their old versions.
    fn release_locks<U: HasTl2>(&self, ctx: &mut Ctx<U>, held: usize) {
        let (cpu, idxs) = (self.cpu, &self.stripes[..held]);
        ctx.with(|w| {
            let m = &mut w.machine;
            let t = w.shared.tl2();
            for &idx in idxs {
                let lw = t.lock(idx);
                if lw.holder == Some(cpu) {
                    t.set_lock(idx, LockWord { holder: None, ..lw });
                    let la = t.lock_addr(idx);
                    mop(m.store(cpu, la, lw.version << 1));
                }
            }
        });
    }

    fn fail<U: HasTl2>(&mut self, ctx: &mut Ctx<U>, _why: Tl2Abort) {
        ctx.with(|w| w.shared.tl2().stats.aborts += 1);
        self.reads.clear();
        self.writes.clear();
        self.write_lines.clear();
        self.active = false;
        self.consecutive_aborts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufotm_machine::{Machine, MachineConfig};
    use ufotm_sim::{Sim, ThreadFn};

    const DATA: Addr = Addr(0);

    fn world(cpus: usize) -> (Machine, Tl2Shared) {
        let machine = Machine::new(MachineConfig::table4(cpus));
        let shared = Tl2Shared::new(Addr(1 << 20), 4096);
        (machine, shared)
    }

    #[test]
    fn single_txn_commits_lazily() {
        let (machine, shared) = world(1);
        let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<Tl2Shared>| {
            let mut txn = Tl2Txn::new(0);
            txn.begin(ctx);
            txn.write(ctx, DATA, 7).unwrap();
            // Lazy versioning: nothing in memory before commit.
            assert_eq!(ctx.with(|w| w.machine.peek(DATA)), 0);
            assert_eq!(txn.read(ctx, DATA).unwrap(), 7, "read-own-write");
            txn.commit(ctx).unwrap();
            assert_eq!(ctx.with(|w| w.machine.peek(DATA)), 7);
        }) as ThreadFn<Tl2Shared>]);
        assert_eq!(r.shared.stats.commits, 1);
        assert_eq!(r.shared.stats.aborts, 0);
    }

    #[test]
    fn read_only_txn_needs_no_locks() {
        let (machine, shared) = world(1);
        let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<Tl2Shared>| {
            let mut txn = Tl2Txn::new(0);
            let v = txn.run(ctx, |t, ctx| t.read(ctx, DATA));
            assert_eq!(v, 0);
        }) as ThreadFn<Tl2Shared>]);
        assert_eq!(r.shared.stats.commits, 1);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let (machine, shared) = world(4);
        let mk = |cpu: usize| -> ThreadFn<Tl2Shared> {
            Box::new(move |ctx| {
                let mut txn = Tl2Txn::new(cpu);
                for _ in 0..25 {
                    txn.run(ctx, |t, ctx| {
                        let v = t.read(ctx, DATA)?;
                        ctx.work(50).unwrap();
                        t.write(ctx, DATA, v + 1)
                    });
                }
            })
        };
        let r = Sim::new(machine, shared).run((0..4).map(mk).collect());
        assert_eq!(r.machine.peek(DATA), 100);
        assert_eq!(r.shared.stats.commits, 100);
        assert!(r.shared.stats.aborts > 0, "contention must cause aborts");
    }

    #[test]
    fn isolation_across_lines() {
        let a = Addr(0);
        let b = Addr(4096);
        let (machine, shared) = world(3);
        let mk = |cpu: usize| -> ThreadFn<Tl2Shared> {
            Box::new(move |ctx| {
                let mut txn = Tl2Txn::new(cpu);
                for _ in 0..10 {
                    txn.run(ctx, |t, ctx| {
                        let va = t.read(ctx, a)?;
                        let vb = t.read(ctx, b)?;
                        assert_eq!(va, vb, "TL2 snapshot violated");
                        ctx.work(30).unwrap();
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
    fn write_own_read_upgrade_consistency() {
        let (machine, shared) = world(1);
        let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<Tl2Shared>| {
            let mut txn = Tl2Txn::new(0);
            txn.run(ctx, |t, ctx| {
                let v = t.read(ctx, DATA)?;
                t.write(ctx, DATA, v + 1)?;
                assert_eq!(t.read(ctx, DATA)?, v + 1, "read-own-write after read");
                t.write(ctx, DATA, v + 2)?;
                assert_eq!(t.read(ctx, DATA)?, v + 2);
                Ok(())
            });
        }) as ThreadFn<Tl2Shared>]);
        assert_eq!(r.machine.peek(DATA), 2);
    }

    #[test]
    fn commit_version_advances_clock_once_per_writer() {
        let (machine, shared) = world(1);
        let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<Tl2Shared>| {
            let mut txn = Tl2Txn::new(0);
            for i in 0..5u64 {
                txn.run(ctx, |t, ctx| t.write(ctx, Addr(i * 4096), i));
            }
            // Read-only transactions leave the clock untouched.
            txn.run(ctx, |t, ctx| t.read(ctx, DATA));
        }) as ThreadFn<Tl2Shared>]);
        assert_eq!(r.shared.clock, 5);
        assert_eq!(r.shared.stats.commits, 6);
    }

    #[test]
    fn drop_attempt_counts_an_abort_and_clears_state() {
        let (machine, shared) = world(1);
        let r = Sim::new(machine, shared).run(vec![Box::new(|ctx: &mut Ctx<Tl2Shared>| {
            let mut txn = Tl2Txn::new(0);
            txn.begin(ctx);
            txn.write(ctx, DATA, 9).unwrap();
            txn.drop_attempt(ctx);
            assert!(!txn.is_active());
            // Nothing published.
            assert_eq!(ctx.with(|w| w.machine.peek(DATA)), 0);
            // A fresh attempt works normally.
            txn.run(ctx, |t, ctx| t.write(ctx, DATA, 1));
        }) as ThreadFn<Tl2Shared>]);
        assert_eq!(r.shared.stats.aborts, 1);
        assert_eq!(r.machine.peek(DATA), 1);
    }

    #[test]
    fn many_disjoint_writers_scale_without_aborts() {
        let (machine, shared) = world(4);
        let mk = |cpu: usize| -> ThreadFn<Tl2Shared> {
            Box::new(move |ctx| {
                let mut txn = Tl2Txn::new(cpu);
                for i in 0..10u64 {
                    let a = Addr(4096 * (1 + cpu as u64) + i * 64);
                    txn.run(ctx, |t, ctx| t.write(ctx, a, i));
                }
            })
        };
        let r = Sim::new(machine, shared).run((0..4).map(mk).collect());
        assert_eq!(r.shared.stats.commits, 40);
        assert_eq!(
            r.shared.stats.aborts, 0,
            "disjoint writers must not conflict"
        );
    }

    #[test]
    fn stale_read_aborts() {
        // A transaction that sampled the clock, then sees a line updated by
        // a later commit, must fail validation.
        let (machine, shared) = world(2);
        let r = Sim::new(machine, shared).run(vec![
            Box::new(|ctx: &mut Ctx<Tl2Shared>| {
                let mut txn = Tl2Txn::new(0);
                txn.begin(ctx);
                ctx.work(10_000).unwrap(); // cpu1 commits meanwhile
                let e = txn.read(ctx, DATA).unwrap_err();
                assert_eq!(e, Tl2Abort::ReadValidation);
            }) as ThreadFn<Tl2Shared>,
            Box::new(|ctx: &mut Ctx<Tl2Shared>| {
                ctx.work(100).unwrap();
                let mut txn = Tl2Txn::new(1);
                txn.run(ctx, |t, ctx| t.write(ctx, DATA, 5));
            }) as ThreadFn<Tl2Shared>,
        ]);
        assert_eq!(r.shared.stats.aborts, 1);
        assert_eq!(r.machine.peek(DATA), 5);
    }
}
