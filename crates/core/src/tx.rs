//! The unified transaction facade.
//!
//! Workload code is written once against [`Tx`] and runs unchanged on every
//! [`SystemKind`](crate::SystemKind) — the paper's Figure 4 achieves the
//! same by compiling each transaction body twice (a BTM version and a
//! USTM-instrumented version); here the dispatch is a mode match.
//!
//! Contract: when `read`/`write`/`alloc` return `Err`, the attempt is dead
//! (hardware transaction aborted, or software transaction rolled back);
//! the body must propagate the error with `?` so the driver in
//! [`TmThread`](crate::TmThread) can apply its retry/failover policy.

use ufotm_machine::{AbortInfo, AbortReason, AccessError, Addr, BtmEvent, PlainAccess};
use ufotm_sim::Ctx;
use ufotm_tl2::{Tl2Abort, Tl2Txn};
use ufotm_ustm::{retry_wait, Perm, UstmAbort, UstmTxn};

use crate::policy::{BtmUfoFaultPolicy, HybridPolicy, UFO_STALL_BACKOFF};
use crate::runtime::Bookkeeping;
use crate::shared::TmWorld;

/// §6's `malloc` model: every this-many allocations the thread-local pool
/// refills via a system call, which aborts a hardware transaction.
const ALLOC_SYSCALL_EVERY: u32 = 32;
/// Cycles charged per allocation (pool hit).
const ALLOC_COST: u64 = 30;
/// Cycles charged by a pool-refill system call.
pub(crate) const ALLOC_SYSCALL_COST: u64 = 500;

/// Why a transaction attempt ended without committing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxAbort {
    /// The USTM software transaction aborted (already rolled back).
    Stm(UstmAbort),
    /// The TL2 software transaction aborted (already rolled back).
    Tl2(Tl2Abort),
    /// The hardware transaction aborted (already finalized by the machine).
    Hw(AbortInfo),
    /// The microbenchmark hook forced a failover to software.
    Forced,
    /// The body requested transactional waiting (`retry`) in a mode that
    /// must fail over to software to honour it.
    RetryRequested,
}

impl std::fmt::Display for TxAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxAbort::Stm(a) => write!(f, "STM abort: {a}"),
            TxAbort::Tl2(a) => write!(f, "TL2 abort: {a}"),
            TxAbort::Hw(i) => write!(f, "HTM abort: {i}"),
            TxAbort::Forced => f.write_str("forced failover"),
            TxAbort::RetryRequested => f.write_str("retry requested"),
        }
    }
}

/// Execution mode of the current attempt.
pub(crate) enum Mode<'a> {
    /// Plain accesses (sequential or under the global lock).
    Plain,
    /// A BTM hardware transaction; `hytm` adds HyTM's otable checks.
    Hw {
        /// Instrument with transactional otable lookups (HyTM).
        hytm: bool,
    },
    /// USTM software transaction.
    Ustm(&'a mut UstmTxn),
    /// TL2 software transaction.
    Tl2(&'a mut Tl2Txn),
}

/// Handle the transaction body uses for all its effects.
pub struct Tx<'a> {
    pub(crate) cpu: usize,
    pub(crate) mode: Mode<'a>,
    pub(crate) policy: HybridPolicy,
    pub(crate) allocs: Vec<Addr>,
    pub(crate) frees: Vec<Addr>,
    /// Retrying STM sleepers this hardware transaction conflicted with; to
    /// be woken *after commit* (paper §6's HTM `retry` integration).
    pub(crate) wake_after_commit: Vec<usize>,
    /// Host-side actions deferred to commit (paper §6's "deferring" for
    /// side-effecting operations); dropped if the attempt aborts.
    pub(crate) deferred: Vec<Box<dyn FnOnce() + Send>>,
    pub(crate) alloc_budget: &'a mut u32,
}

impl<'a> Tx<'a> {
    pub(crate) fn new(
        cpu: usize,
        mode: Mode<'a>,
        policy: HybridPolicy,
        alloc_budget: &'a mut u32,
    ) -> Self {
        Tx {
            cpu,
            mode,
            policy,
            allocs: Vec::new(),
            frees: Vec::new(),
            wake_after_commit: Vec::new(),
            deferred: Vec::new(),
            alloc_budget,
        }
    }

    /// Whether this attempt is running in hardware.
    #[must_use]
    pub fn in_hardware(&self) -> bool {
        matches!(self.mode, Mode::Hw { .. })
    }

    /// Whether this attempt is running in an STM.
    #[must_use]
    pub fn in_software(&self) -> bool {
        matches!(self.mode, Mode::Ustm(_) | Mode::Tl2(_))
    }

    /// Transactional read of the word at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the mode's abort; the attempt is dead when this errs.
    pub fn read<U: TmWorld>(&mut self, ctx: &mut Ctx<U>, addr: Addr) -> Result<u64, TxAbort> {
        let hytm = match &mut self.mode {
            Mode::Plain => return Ok(plain_load(ctx, addr)),
            Mode::Ustm(t) => return t.read(ctx, addr).map_err(TxAbort::Stm),
            Mode::Tl2(t) => return t.read(ctx, addr).map_err(TxAbort::Tl2),
            Mode::Hw { hytm } => *hytm,
        };
        if hytm {
            hytm_barrier(ctx, addr, false)?;
        }
        self.hw_access(ctx, addr, None)
    }

    /// Transactional write of `value` to the word at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the mode's abort; the attempt is dead when this errs.
    pub fn write<U: TmWorld>(
        &mut self,
        ctx: &mut Ctx<U>,
        addr: Addr,
        value: u64,
    ) -> Result<(), TxAbort> {
        let hytm = match &mut self.mode {
            Mode::Plain => {
                plain_store(ctx, addr, value);
                return Ok(());
            }
            Mode::Ustm(t) => return t.write(ctx, addr, value).map_err(TxAbort::Stm),
            Mode::Tl2(t) => return t.write(ctx, addr, value).map_err(TxAbort::Tl2),
            Mode::Hw { hytm } => *hytm,
        };
        if hytm {
            hytm_barrier(ctx, addr, true)?;
        }
        self.hw_access(ctx, addr, Some(value)).map(|_| ())
    }

    /// Charges computation cycles inside the transaction.
    ///
    /// # Errors
    ///
    /// Surfaces a pending hardware doom.
    pub fn work<U: TmWorld>(&mut self, ctx: &mut Ctx<U>, cycles: u64) -> Result<(), TxAbort> {
        match ctx.work(cycles) {
            Ok(()) => Ok(()),
            Err(AccessError::TxnAbort(i)) => Err(TxAbort::Hw(i)),
            Err(e) => panic!("unexpected work error: {e}"),
        }
    }

    /// Allocates `words` words from the shared heap.
    ///
    /// Models the paper's `malloc` treatment (§6): allocations hit a
    /// thread-local pool; every `ALLOC_SYSCALL_EVERY`-th allocation
    /// refills the pool via a system call, which aborts a hardware
    /// transaction (hybrids then fail over; the idealized unbounded HTM
    /// retries after the refill). Allocations are undone if the attempt
    /// aborts.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Hw`] with [`AbortReason::Syscall`] on a hardware pool
    /// refill.
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted (a workload sizing bug).
    pub fn alloc<U: TmWorld>(&mut self, ctx: &mut Ctx<U>, words: u64) -> Result<Addr, TxAbort> {
        let cpu = self.cpu;
        if *self.alloc_budget == 0 {
            *self.alloc_budget = ctx.with(|w| {
                let t = w.shared.tm();
                t.stats.alloc_syscalls += 1;
                ALLOC_SYSCALL_EVERY
            });
            if self.in_hardware() {
                match ctx.btm_event(BtmEvent::Syscall) {
                    Err(AccessError::TxnAbort(i)) => return Err(TxAbort::Hw(i)),
                    other => panic!("syscall event in txn must abort, got {other:?}"),
                }
            } else {
                ctx.work(ALLOC_SYSCALL_COST)
                    .plain("syscall cost outside HW txn");
            }
        }
        *self.alloc_budget -= 1;
        let addr = ctx.with(|w| {
            w.machine.work(cpu, ALLOC_COST)?;
            Ok(w.shared
                .tm()
                .heap
                .alloc_line_aligned(words)
                .expect("simulated heap exhausted"))
        });
        match addr {
            Ok(a) => {
                self.allocs.push(a);
                Ok(a)
            }
            Err(AccessError::TxnAbort(i)) => Err(TxAbort::Hw(i)),
            Err(e) => panic!("alloc cost: {e}"),
        }
    }

    /// Frees a heap allocation. The free is *deferred to commit* so an
    /// abort cannot resurrect dangling data.
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` for symmetry.
    pub fn free<U: TmWorld>(&mut self, ctx: &mut Ctx<U>, addr: Addr) -> Result<(), TxAbort> {
        ctx.work(4).plain("free bookkeeping");
        self.frees.push(addr);
        Ok(())
    }

    /// Performs an idempotent system call (e.g. `gettimeofday`). Aborts a
    /// hardware transaction (hybrids fail over, per §6); a software or
    /// plain attempt just pays the cost.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Hw`] with [`AbortReason::Syscall`] in hardware.
    pub fn syscall<U: TmWorld>(&mut self, ctx: &mut Ctx<U>) -> Result<(), TxAbort> {
        self.event(ctx, BtmEvent::Syscall)
    }

    /// Performs I/O. Same contract as [`Tx::syscall`] with
    /// [`AbortReason::Io`].
    ///
    /// # Errors
    ///
    /// [`TxAbort::Hw`] with [`AbortReason::Io`] in hardware.
    pub fn io<U: TmWorld>(&mut self, ctx: &mut Ctx<U>) -> Result<(), TxAbort> {
        self.event(ctx, BtmEvent::Io)
    }

    fn event<U: TmWorld>(&mut self, ctx: &mut Ctx<U>, ev: BtmEvent) -> Result<(), TxAbort> {
        match ctx.btm_event(ev) {
            Ok(()) => Ok(()),
            Err(AccessError::TxnAbort(i)) => Err(TxAbort::Hw(i)),
            Err(e) => panic!("unexpected event error: {e}"),
        }
    }

    /// Microbenchmark hook (paper §5.3): force this transaction to execute
    /// in software. A no-op outside hardware modes.
    ///
    /// # Errors
    ///
    /// [`TxAbort::Forced`] in hardware.
    pub fn force_failover<U: TmWorld>(&mut self, ctx: &mut Ctx<U>) -> Result<(), TxAbort> {
        if self.in_hardware() {
            ctx.btm_abort_with(AbortInfo::new(AbortReason::Explicit));
            return Err(TxAbort::Forced);
        }
        Ok(())
    }

    /// Transactional waiting (`retry`, paper §6): park until a writer
    /// updates something this transaction read. In hardware the paper
    /// translates `retry` into an explicit abort that fails over to
    /// software, where the full mechanism lives.
    ///
    /// # Errors
    ///
    /// Always errs: the attempt never continues past `retry`.
    pub fn retry<U: TmWorld>(&mut self, ctx: &mut Ctx<U>) -> Result<(), TxAbort> {
        match &mut self.mode {
            // The eldest transaction holds the watchdog's seat, and a
            // sleeper there would wedge a waker that escalates: unwind so
            // the driver gives the seat back and reissues the body as an
            // ordinary attempt, which parks.
            Mode::Ustm(t) if t.is_eldest() => Err(TxAbort::Stm(t.abort_explicit(ctx))),
            Mode::Ustm(t) => Err(TxAbort::Stm(retry_wait(t, ctx))),
            Mode::Hw { .. } => {
                ctx.btm_abort_with(AbortInfo::new(AbortReason::Explicit));
                Err(TxAbort::RetryRequested)
            }
            Mode::Tl2(_) => {
                // TL2 has no wakeup mechanism; model as abort + backoff.
                Err(TxAbort::RetryRequested)
            }
            Mode::Plain => panic!("retry is meaningless without transactions"),
        }
    }

    /// Defers a host-side action until this transaction commits (paper §6's
    /// *deferral* pattern for side-effecting operations: the effect becomes
    /// visible exactly once, only if the transaction does). The action is
    /// dropped if the attempt aborts. The simulated *cost* of an external
    /// effect is not modelled here — combine with [`Tx::io`] when the
    /// timing and failover behaviour of the I/O itself matter.
    pub fn defer(&mut self, action: impl FnOnce() + Send + 'static) {
        self.deferred.push(Box::new(action));
    }

    pub(crate) fn into_bookkeeping(self) -> Bookkeeping {
        Bookkeeping {
            allocs: self.allocs,
            frees: self.frees,
            wakes: self.wake_after_commit,
            deferred: self.deferred,
        }
    }

    /// One BTM data access, looping on nacks and applying the UFO-fault
    /// policy. Implements the paper's §6 `retry` integration: a fault whose
    /// otable owners are all `retry`-parked sleepers is resolved *inside*
    /// the transaction — the protection is bypassed (modelling the
    /// transactional UFO-bit clear) and the sleepers are recorded to be
    /// woken after commit.
    fn hw_access<U: TmWorld>(
        &mut self,
        ctx: &mut Ctx<U>,
        addr: Addr,
        write: Option<u64>,
    ) -> Result<u64, TxAbort> {
        let cpu = self.cpu;
        let policy = self.policy;
        loop {
            let r = ctx.with(|w| match write {
                Some(v) => w.machine.store(cpu, addr, v).map(|()| v),
                None => w.machine.load(cpu, addr),
            });
            match r {
                Ok(v) => return Ok(v),
                Err(AccessError::Nacked) => { /* 20-cycle retry already charged */ }
                Err(AccessError::TxnAbort(i)) => return Err(TxAbort::Hw(i)),
                Err(AccessError::UfoFault { addr, .. }) => {
                    // UFO fault handler, executed while in BTM: inspect the
                    // otable; if every owner is parked in retry, bypass and
                    // remember to wake them post-commit.
                    enum Handled {
                        Done(u64, Vec<usize>),
                        Doomed(AbortInfo),
                        Nacked,
                        NoSleepers,
                    }
                    let line = addr.line();
                    let bypass = ctx.with(|w| {
                        // Handler entry (charges inspection work; a pending
                        // doom surfaces here).
                        if let Err(AccessError::TxnAbort(i)) = w.machine.work(cpu, 20) {
                            return Handled::Doomed(i);
                        }
                        let u = w.shared.ustm();
                        let sleepers: Option<Vec<usize>> = match u.otable.lookup(line) {
                            Some((_, e))
                                if e.owner_cpus().all(|o| {
                                    u.slots[o].status == ufotm_ustm::TxnStatus::Retrying
                                }) =>
                            {
                                Some(e.owner_cpus().collect())
                            }
                            _ => None,
                        };
                        let Some(owners) = sleepers else {
                            return Handled::NoSleepers;
                        };
                        let m = &mut w.machine;
                        m.set_ufo_enabled(cpu, false);
                        let res = match write {
                            Some(v) => m.store(cpu, addr, v).map(|()| v),
                            None => m.load(cpu, addr),
                        };
                        m.set_ufo_enabled(cpu, true);
                        match res {
                            Ok(v) => Handled::Done(v, owners),
                            Err(AccessError::TxnAbort(i)) => Handled::Doomed(i),
                            Err(AccessError::Nacked) => Handled::Nacked,
                            Err(e) => panic!("bypass access: {e}"),
                        }
                    });
                    match bypass {
                        Handled::Done(v, owners) => {
                            for o in owners {
                                if !self.wake_after_commit.contains(&o) {
                                    self.wake_after_commit.push(o);
                                }
                            }
                            return Ok(v);
                        }
                        Handled::Doomed(i) => return Err(TxAbort::Hw(i)),
                        Handled::Nacked => { /* retry whole access */ }
                        Handled::NoSleepers => match policy.btm_ufo_fault {
                            BtmUfoFaultPolicy::AbortAndRetry => {
                                let info =
                                    ctx.btm_abort_with(AbortInfo::at(AbortReason::UfoFault, addr));
                                return Err(TxAbort::Hw(info));
                            }
                            BtmUfoFaultPolicy::Stall => {
                                if let Err(AccessError::TxnAbort(i)) = ctx.stall(UFO_STALL_BACKOFF)
                                {
                                    return Err(TxAbort::Hw(i));
                                }
                            }
                        },
                    }
                }
            }
        }
    }
}

/// A plain load in a homogeneous (lock/sequential) run: no UFO protection
/// can be present, so errors are impossible.
fn plain_load<U: TmWorld>(ctx: &mut Ctx<U>, addr: Addr) -> u64 {
    let cpu = ctx.cpu();
    ctx.with(|w| w.machine.load(cpu, addr)).plain("plain load")
}

fn plain_store<U: TmWorld>(ctx: &mut Ctx<U>, addr: Addr, value: u64) {
    let cpu = ctx.cpu();
    ctx.with(|w| w.machine.store(cpu, addr, value))
        .plain("plain store");
}

/// HyTM's instrumented barrier: a *transactional* otable lookup before the
/// data access. A conflicting record (any record, for writes; a write
/// record, for reads) makes the hardware transaction abort explicitly and
/// retry (paper §5). The transactional bin read is what inflates HyTM's
/// footprint and causes its false conflicts.
fn hytm_barrier<U: TmWorld>(ctx: &mut Ctx<U>, addr: Addr, is_write: bool) -> Result<(), TxAbort> {
    let cpu = ctx.cpu();
    let line = addr.line();
    loop {
        let r = ctx.with(|w| {
            let bin = {
                let u = w.shared.ustm();
                u.otable.bin_addr_of(line)
            };
            match w.machine.load(cpu, bin) {
                Ok(_) => {
                    w.machine.work(cpu, 8)?;
                    let u = w.shared.ustm();
                    let conflict = match u.otable.lookup(line) {
                        None => false,
                        Some((_, e)) => is_write || e.perm == Perm::Write,
                    };
                    Ok(conflict)
                }
                Err(e) => Err(e),
            }
        });
        match r {
            Ok(false) => return Ok(()),
            Ok(true) => {
                let info = ctx.btm_abort_with(AbortInfo::new(AbortReason::Explicit));
                return Err(TxAbort::Hw(info));
            }
            Err(AccessError::Nacked) => {}
            Err(AccessError::TxnAbort(i)) => return Err(TxAbort::Hw(i)),
            Err(AccessError::UfoFault { .. }) => {
                unreachable!("HyTM threads run with UFO faults disabled")
            }
        }
    }
}
