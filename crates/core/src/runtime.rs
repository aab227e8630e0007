//! The per-thread transaction drivers: retry loops, the BTM abort handler
//! (paper Algorithm 3), and the hybrid failover machinery.

use ufotm_machine::{splitmix64, AbortInfo, AbortReason, AccessError, Addr, PlainAccess, SimRng};
use ufotm_sim::Ctx;
use ufotm_tl2::Tl2Txn;
use ufotm_ustm::{nont_load, UstmAbort, UstmTxn};

use crate::lockbase::{lock_acquire, lock_release};
use crate::policy::{HybridPolicy, BACKOFF_BASE, BACKOFF_JITTER_PCT};
use crate::shared::{HybridStats, SystemKind, TmWorld};
use crate::trace::{EscalationTier, TraceKind};
use crate::tx::{Mode, Tx, TxAbort, ALLOC_SYSCALL_COST};

/// Records one trace event (free when the journal is disabled). Any chaos
/// faults the machine injected since the last event are drained first, so
/// a `FaultInjected` entry always precedes the driver event it provoked.
fn trace<U: TmWorld>(ctx: &mut Ctx<U>, kind: TraceKind) {
    let cpu = ctx.cpu();
    ctx.with(|w| {
        let injected = w.machine.drain_chaos_events();
        let t = w.shared.tm();
        if t.trace.is_recording() {
            for e in &injected {
                w.shared
                    .tm()
                    .trace
                    .record(e.cycle, e.cpu, TraceKind::FaultInjected(e.kind));
            }
            let cycle = w.machine.now(cpu);
            w.shared.tm().trace.record(cycle, cpu, kind);
        }
    });
}

/// How a hardware attempt failed.
enum HwFail {
    /// The BTM transaction aborted with this reason.
    Abort(AbortInfo),
    /// The microbenchmark hook forced a failover.
    Forced,
    /// The body executed `retry`; honour it in software.
    RetryRequested,
    /// PhTM only: the system is in an STM phase.
    PhaseBusy,
}

/// The per-thread TM runtime: owns the software transaction handles and
/// drives attempts according to the selected [`SystemKind`] and
/// [`HybridPolicy`].
pub struct TmThread {
    cpu: usize,
    kind: SystemKind,
    policy: HybridPolicy,
    ustm: UstmTxn,
    tl2: Tl2Txn,
    alloc_budget: u32,
    consecutive: u32,
    /// Seeded per-thread stream for backoff jitter (watchdog tier 0);
    /// deterministic per CPU, so runs stay bit-reproducible.
    rng: SimRng,
    /// Global commit count at this thread's last watchdog observation.
    last_commits: u64,
    /// Consecutive watchdog observations with no global commit progress.
    stagnant: u32,
}

impl TmThread {
    /// Creates a runtime for `kind` on `cpu` with the default policy.
    #[must_use]
    pub fn new(kind: SystemKind, cpu: usize) -> Self {
        TmThread::with_policy(kind, cpu, HybridPolicy::default())
    }

    /// Creates a runtime with an explicit hybrid policy (Figure 8 knobs).
    #[must_use]
    pub fn with_policy(kind: SystemKind, cpu: usize, policy: HybridPolicy) -> Self {
        TmThread {
            cpu,
            kind,
            policy,
            ustm: UstmTxn::new(cpu),
            tl2: Tl2Txn::new(cpu),
            alloc_budget: 1, // first allocation refills the pool
            consecutive: 0,
            rng: SimRng::seed_from_u64(splitmix64(&mut (0x057a_7d06 ^ cpu as u64))),
            last_commits: 0,
            stagnant: 0,
        }
    }

    /// The system this runtime drives.
    #[must_use]
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// Thread-start setup: arms UFO fault delivery for strongly-atomic
    /// systems (their threads must fault on protected lines outside their
    /// own transactions — that is what protects software transactions from
    /// both plain code and hardware transactions).
    pub fn install<U: TmWorld>(&self, ctx: &mut Ctx<U>) {
        ctx.set_ufo_enabled(self.kind.strong_atomicity());
    }

    /// Runs `body` as one transaction to commit, retrying and failing over
    /// per the system's policy, and returns the body's result.
    ///
    /// The body receives a fresh [`Tx`] per attempt and must propagate
    /// `Err` from every fallible `Tx` operation.
    pub fn transaction<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        mut body: impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> R {
        self.consecutive = 0;
        match self.kind {
            SystemKind::Sequential => self.plain_path(ctx, &mut body, false),
            SystemKind::GlobalLock => self.plain_path(ctx, &mut body, true),
            SystemKind::UstmWeak | SystemKind::UstmStrong => self.ustm_path(ctx, &mut body, false),
            SystemKind::Tl2 => self.tl2_path(ctx, &mut body),
            SystemKind::UnboundedHtm => self.unbounded_path(ctx, &mut body),
            SystemKind::UfoHybrid | SystemKind::HyTm | SystemKind::PhTm => {
                self.hybrid_path(ctx, &mut body)
            }
        }
    }

    // --- baselines -------------------------------------------------------

    fn plain_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
        locked: bool,
    ) -> R {
        if locked {
            lock_acquire(ctx);
        }
        let mut tx = Tx::new(self.cpu, Mode::Plain, self.policy, &mut self.alloc_budget);
        let r = body(&mut tx, ctx);
        let bk = tx.into_bookkeeping();
        let r = r.unwrap_or_else(|e| panic!("plain-mode body cannot abort, got {e}"));
        bk.commit(ctx, |s| s.lock_commits += 1, TraceKind::PlainCommit);
        if locked {
            lock_release(ctx);
        }
        r
    }

    /// The software path: USTM attempts until one commits. `seated` says
    /// the hardware watchdog already escalated this transaction to tier 2.
    ///
    /// Tier 2 is one more USTM attempt, begun as the *eldest* transaction
    /// ([`UstmTxn::begin_eldest`]) under the global lock. The rules USTM
    /// already has isolate it — it kills every younger owner it meets,
    /// outwaits committers, and hardware transactions take a UFO fault
    /// (HyTM: an otable hit; PhTM: a phase) on the lines it owns — and
    /// nobody can kill it, so it commits on its first attempt with the
    /// rest of the system still running: the bounded-retry guarantee. The
    /// lock is the seat: age cannot order two eldest transactions.
    fn ustm_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
        mut seated: bool,
    ) -> R {
        let cpu = self.cpu;
        let mut kills: u32 = 0;
        loop {
            // Watchdog tier 2: a transaction that keeps getting killed in
            // software (or observes system-wide stagnation) takes the seat.
            if let Some(limit) = self.policy.watchdog_sw_kills.filter(|_| !seated) {
                let stagnant = kills > 0 && self.observe_stagnation(ctx);
                if kills >= limit || stagnant {
                    self.escalate(ctx, EscalationTier::Serial);
                    seated = true;
                }
            }
            if std::mem::take(&mut seated) {
                let entered = ctx.with(|w| w.machine.now(cpu));
                lock_acquire(ctx);
                let out = self.ustm_attempt(ctx, body, true);
                lock_release(ctx);
                ctx.with(|w| {
                    let window = w.machine.now(cpu) - entered;
                    w.shared.tm().stats.serial_cycles += window;
                });
                match out {
                    Ok(r) => return r,
                    Err(UstmAbort::Killed { by }) => {
                        unreachable!("the eldest transaction was killed by cpu {by}")
                    }
                    // The body asked for `retry`: the seat is free again,
                    // and the ordinary attempt below is the one that parks
                    // (a sleeper holding the lock would wedge a waker that
                    // escalates).
                    Err(UstmAbort::Explicit | UstmAbort::RetryWoken) => {}
                }
            }
            match self.ustm_attempt(ctx, body, false) {
                Ok(r) => return r,
                Err(UstmAbort::Killed { .. }) => {
                    self.ustm.wait_for_killer(ctx);
                    kills += 1;
                }
                Err(UstmAbort::Explicit | UstmAbort::RetryWoken) => {}
            }
        }
    }

    /// One USTM attempt — begin, body, commit — journaled as a serial
    /// window and counted in `serial_commits` when it is the eldest one.
    /// On `Err` the transaction is rolled back and its allocations undone.
    fn ustm_attempt<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
        eldest: bool,
    ) -> Result<R, UstmAbort> {
        let (opened, committed) = if eldest {
            (TraceKind::SerialIrrevocable, TraceKind::PlainCommit)
        } else {
            (TraceKind::SwBegin, TraceKind::SwCommit)
        };
        trace(ctx, opened);
        if eldest {
            self.ustm.begin_eldest(ctx);
        } else {
            self.ustm.begin(ctx);
        }
        let mut tx = Tx::new(
            self.cpu,
            Mode::Ustm(&mut self.ustm),
            self.policy,
            &mut self.alloc_budget,
        );
        let out = body(&mut tx, ctx);
        let bk = tx.into_bookkeeping();
        let abort = match out {
            Ok(r) => match self.ustm.commit(ctx) {
                Ok(()) => {
                    let count = |s: &mut HybridStats| {
                        if eldest {
                            s.serial_commits += 1;
                        } else {
                            s.sw_commits += 1;
                        }
                    };
                    bk.commit(ctx, count, committed);
                    return Ok(r);
                }
                Err(abort) => abort,
            },
            Err(TxAbort::Stm(abort)) => abort,
            Err(other) => unreachable!("USTM body produced {other}"),
        };
        bk.abort(ctx, TraceKind::SwAbort);
        Err(abort)
    }

    fn tl2_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> R {
        loop {
            trace(ctx, TraceKind::SwBegin);
            self.tl2.begin(ctx);
            let mut tx = Tx::new(
                self.cpu,
                Mode::Tl2(&mut self.tl2),
                self.policy,
                &mut self.alloc_budget,
            );
            let out = body(&mut tx, ctx);
            let bk = tx.into_bookkeeping();
            match out {
                Ok(r) => {
                    if self.tl2.commit(ctx).is_ok() {
                        bk.commit(ctx, |s| s.sw_commits += 1, TraceKind::SwCommit);
                        return r;
                    }
                }
                Err(TxAbort::Tl2(_) | TxAbort::RetryRequested) => {
                    if self.tl2.is_active() {
                        self.tl2.drop_attempt(ctx);
                    }
                }
                Err(other) => unreachable!("TL2 body produced {other}"),
            }
            bk.abort(ctx, TraceKind::SwAbort);
            self.consecutive += 1;
            let backoff = self.policy.backoff_for(self.consecutive);
            ctx.with(|w| w.shared.tm().stats.backoff_cycles += backoff);
            ctx.stall(backoff).plain("TL2 backoff");
        }
    }

    // --- hardware attempt ------------------------------------------------

    /// One hardware attempt: begin, body, commit. The kind picks the
    /// barrier: HyTM looks every access up in the otable transactionally,
    /// PhTM subscribes to `stm_count` right after begin, and the UFO
    /// hybrid and the unbounded HTM run the body bare.
    fn hw_attempt<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> Result<R, HwFail> {
        if let Err(AccessError::TxnAbort(i)) = ctx.btm_begin() {
            // The attempt died at begin (e.g. a timer interrupt landing on
            // the begin op). Journal both edges so every abort has a begin
            // and the trace auditor sees a balanced attempt.
            trace(ctx, TraceKind::HwBegin);
            trace(ctx, TraceKind::HwAbort(i.reason));
            return Err(HwFail::Abort(i));
        }
        trace(ctx, TraceKind::HwBegin);
        if self.kind == SystemKind::PhTm {
            // Transactionally subscribe to the STM-phase counter: if it is
            // non-zero now (or changes mid-flight), this transaction dies.
            let cpu = self.cpu;
            loop {
                let r = ctx.with(|w| {
                    let a = w.shared.tm().phtm.stm_addr();
                    w.machine.load(cpu, a).map(|_| w.shared.tm().phtm.stm_count)
                });
                match r {
                    Ok(0) => break,
                    Ok(_) => {
                        ctx.btm_abort_with(AbortInfo::new(AbortReason::Explicit));
                        ctx.with(|w| w.shared.tm().phtm.phase_aborts += 1);
                        trace(ctx, TraceKind::HwAbort(AbortReason::Explicit));
                        return Err(HwFail::PhaseBusy);
                    }
                    Err(AccessError::Nacked) => {}
                    Err(AccessError::TxnAbort(i)) => {
                        trace(ctx, TraceKind::HwAbort(i.reason));
                        return Err(HwFail::Abort(i));
                    }
                    Err(e) => panic!("phase check: {e}"),
                }
            }
        }
        let hytm = self.kind == SystemKind::HyTm;
        let mut tx = Tx::new(
            self.cpu,
            Mode::Hw { hytm },
            self.policy,
            &mut self.alloc_budget,
        );
        let out = body(&mut tx, ctx);
        let bk = tx.into_bookkeeping();
        let fail = match out {
            Ok(r) => match ctx.btm_end() {
                Ok(()) => {
                    bk.commit(ctx, |s| s.hw_commits += 1, TraceKind::HwCommit);
                    return Ok(r);
                }
                Err(AccessError::TxnAbort(i)) => HwFail::Abort(i),
                Err(e) => panic!("btm_end: {e}"),
            },
            Err(TxAbort::Hw(i)) => HwFail::Abort(i),
            // Both hooks already aborted the BTM transaction (as Explicit);
            // the abort is journaled below so the attempt is balanced.
            Err(TxAbort::Forced) => HwFail::Forced,
            Err(TxAbort::RetryRequested) => HwFail::RetryRequested,
            Err(TxAbort::Stm(_) | TxAbort::Tl2(_)) => {
                unreachable!("software abort in a hardware attempt")
            }
        };
        let reason = match &fail {
            HwFail::Abort(i) => i.reason,
            _ => AbortReason::Explicit,
        };
        bk.abort(ctx, TraceKind::HwAbort(reason));
        Err(fail)
    }

    /// Exponential backoff after a contention-class abort (Algorithm 3's
    /// counted backoff), with seeded jitter while the watchdog's tier 1 is
    /// armed (tier 0 — symmetric contenders otherwise back off in lockstep
    /// and re-collide).
    fn backoff<U: TmWorld>(&mut self, ctx: &mut Ctx<U>) {
        self.consecutive += 1;
        ctx.with(|w| w.shared.tm().stats.hw_retries += 1);
        let mut cycles = self.policy.backoff_for(self.consecutive);
        if self.policy.watchdog_hw_attempts.is_some() {
            cycles += self.rng.gen_range(0..cycles * BACKOFF_JITTER_PCT / 100);
        }
        ctx.with(|w| w.shared.tm().stats.backoff_cycles += cycles);
        ctx.stall(cycles).plain("backoff stall");
    }

    /// One watchdog observation: has the whole system committed anything
    /// since this thread last looked? Returns `true` when the stagnation
    /// limit is armed and has been reached (the livelock signature:
    /// everybody aborts, nobody commits).
    fn observe_stagnation<U: TmWorld>(&mut self, ctx: &mut Ctx<U>) -> bool {
        let Some(limit) = self.policy.watchdog_stagnation else {
            return false;
        };
        let now = ctx.with(|w| w.shared.tm().stats.total_commits());
        if now != self.last_commits {
            self.last_commits = now;
            self.stagnant = 0;
            return false;
        }
        self.stagnant += 1;
        self.stagnant >= limit
    }

    /// Records a watchdog escalation (counter + trace journal).
    fn escalate<U: TmWorld>(&mut self, ctx: &mut Ctx<U>, tier: EscalationTier) {
        self.stagnant = 0;
        ctx.with(|w| w.shared.tm().stats.watchdog_escalations += 1);
        trace(ctx, TraceKind::WatchdogEscalation(tier));
    }

    /// Watchdog tiers 1–2 for hardware attempts. `Software` once the
    /// consecutive-abort limit trips; `Serial` straight away when global
    /// commit progress has stalled (per-transaction patience cannot break
    /// a livelock — every contender must leave the optimistic path).
    fn watchdog_tier<U: TmWorld>(&mut self, ctx: &mut Ctx<U>) -> Option<EscalationTier> {
        if self.observe_stagnation(ctx) {
            return Some(EscalationTier::Serial);
        }
        self.policy
            .watchdog_hw_attempts
            .is_some_and(|n| self.consecutive + 1 >= n)
            .then_some(EscalationTier::Software)
    }

    /// Software fix-up for a page-fault abort: touch the page
    /// non-transactionally (strong-atomicity-aware), then retry in hardware
    /// (Algorithm 3).
    fn resolve_page_fault<U: TmWorld>(&mut self, ctx: &mut Ctx<U>, addr: Option<Addr>) {
        if let Some(a) = addr {
            let _ = nont_load(ctx, a);
        }
        ctx.with(|w| w.shared.tm().stats.hw_retries += 1);
    }

    // --- the hybrids ------------------------------------------------------

    /// The hybrids' one abort handler (paper Algorithm 3), shared by the
    /// UFO hybrid (§4.3), HyTM and PhTM: try BTM, classify each abort, and
    /// fail over to software when hardware cannot help. The kind picks
    /// only the barrier ([`Self::hw_attempt`]), PhTM's phase check before
    /// each attempt, and the software side ([`Self::software`]).
    fn hybrid_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> R {
        let seated = loop {
            if self.kind == SystemKind::PhTm && phtm_stm_phase(ctx) {
                return self.software(ctx, body, false, false);
            }
            match self.hw_attempt(ctx, body) {
                Ok(r) => return r,
                Err(HwFail::Forced) => {
                    ctx.with(|w| w.shared.tm().stats.forced_failovers += 1);
                    break false;
                }
                Err(HwFail::RetryRequested) => break false,
                // PhTM: an STM phase began; back to the phase check.
                Err(HwFail::PhaseBusy) => {}
                Err(HwFail::Abort(info)) if info.reason == AbortReason::PageFault => {
                    self.resolve_page_fault(ctx, info.addr);
                }
                Err(HwFail::Abort(info)) => {
                    let contention = matches!(
                        info.reason,
                        AbortReason::Conflict
                            | AbortReason::NonTConflict
                            | AbortReason::UfoSet
                            | AbortReason::UfoFault
                    );
                    let limit = self.policy.conflict_failover_after;
                    if info.reason.is_failover()
                        || (contention && limit.is_some_and(|n| self.consecutive + 1 >= n))
                    {
                        ctx.with(|w| w.shared.tm().stats.record_failover(info.reason));
                        trace(ctx, TraceKind::Failover(info.reason));
                        break false;
                    }
                    if let Some(tier) = self.watchdog_tier(ctx) {
                        self.escalate(ctx, tier);
                        break tier == EscalationTier::Serial;
                    }
                    // Contention, and on HyTM an otable conflict with a
                    // software transaction (Explicit, paper §5): retry in
                    // hardware after backoff.
                    self.backoff(ctx);
                }
            }
        };
        self.software(ctx, body, true, seated)
    }

    /// The hybrids' software side: the USTM path, inside PhTM's phase
    /// counters. `mandatory` says the transaction had to leave hardware
    /// (PhTM counts it in `must_count` too); `seated` that the watchdog
    /// escalated it to tier 2.
    fn software<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
        mandatory: bool,
        seated: bool,
    ) -> R {
        if self.kind != SystemKind::PhTm {
            return self.ustm_path(ctx, body, seated);
        }
        phtm_count(ctx, 1, mandatory);
        let r = self.ustm_path(ctx, body, seated);
        phtm_count(ctx, -1, mandatory);
        r
    }

    /// The idealized unbounded HTM: everything retries in hardware; page
    /// faults and allocator syscalls get software fix-ups (the "simplified
    /// abort handler" of §5's footnote).
    fn unbounded_path<U: TmWorld, R>(
        &mut self,
        ctx: &mut Ctx<U>,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<U>) -> Result<R, TxAbort>,
    ) -> R {
        loop {
            match self.hw_attempt(ctx, body) {
                Ok(r) => return r,
                Err(HwFail::Abort(info)) => match info.reason {
                    AbortReason::PageFault => self.resolve_page_fault(ctx, info.addr),
                    AbortReason::Syscall => {
                        // The pool refill already happened; pay its cost
                        // outside the transaction and retry.
                        ctx.work(ALLOC_SYSCALL_COST).plain("refill outside txn");
                        ctx.with(|w| w.shared.tm().stats.hw_retries += 1);
                    }
                    _ => self.backoff(ctx),
                },
                // No software to fail over to: spin and retry.
                Err(HwFail::Forced) | Err(HwFail::RetryRequested) => self.backoff(ctx),
                Err(HwFail::PhaseBusy) => unreachable!(),
            }
        }
    }
}

/// PhTM's phase check before a hardware attempt (plain reads of both
/// counters). `true` in a mandatory STM phase, where new transactions
/// start in software; while an STM phase drains back toward a hardware
/// phase, newcomers stall rather than start.
fn phtm_stm_phase<U: TmWorld>(ctx: &mut Ctx<U>) -> bool {
    let cpu = ctx.cpu();
    loop {
        let (must, stm) = ctx.with(|w| {
            let p = w.shared.tm().phtm;
            w.machine.load(cpu, p.must_addr()).plain("must read");
            w.machine.load(cpu, p.stm_addr()).plain("stm read");
            (p.must_count, p.stm_count)
        });
        if must != 0 {
            return true;
        }
        if stm == 0 {
            return false;
        }
        ctx.with(|w| w.shared.tm().phtm.phase_stalls += 1);
        ctx.stall(BACKOFF_BASE * 4).plain("phase stall");
    }
}

/// Moves PhTM's phase counters by `delta`: `stm_count` always, and
/// `must_count` too for a `mandatory` software transaction. The counter
/// stores are plain — they kill any hardware transaction subscribed to
/// the counter line, exactly the paper's "nonT conflicts on the
/// software-transactions-in-flight counter".
fn phtm_count<U: TmWorld>(ctx: &mut Ctx<U>, delta: i64, mandatory: bool) {
    let cpu = ctx.cpu();
    let bump = |n: u64| {
        n.checked_add_signed(delta)
            .expect("PhTM phase counter underflow")
    };
    ctx.with(|w| {
        let p = &mut w.shared.tm().phtm;
        p.stm_count = bump(p.stm_count);
        if mandatory {
            p.must_count = bump(p.must_count);
        }
        let p = *p;
        w.machine
            .store(cpu, p.stm_addr(), p.stm_count)
            .plain("stm count store");
        if mandatory {
            w.machine
                .store(cpu, p.must_addr(), p.must_count)
                .plain("must count store");
        }
    });
}

/// Per-attempt bookkeeping handed back to the driver, applied once the
/// attempt's outcome is known.
pub(crate) struct Bookkeeping {
    pub allocs: Vec<Addr>,
    pub frees: Vec<Addr>,
    /// `retry`-parked STM sleepers a hardware transaction bypassed (paper
    /// §6: the wake is deferred so an aborted transaction wakes no one).
    pub wakes: Vec<usize>,
    pub deferred: Vec<Box<dyn FnOnce() + Send>>,
}

impl Bookkeeping {
    /// The commit sequence: apply the deferred frees, wake the sleepers,
    /// `count` the commit, journal `event`, then run the deferred actions.
    fn commit<U: TmWorld>(
        self,
        ctx: &mut Ctx<U>,
        count: impl FnOnce(&mut HybridStats),
        event: TraceKind,
    ) {
        let cpu = ctx.cpu();
        if !self.frees.is_empty() {
            ctx.with(|w| {
                let heap = &mut w.shared.tm().heap;
                for &a in &self.frees {
                    heap.free(a).expect("double free of heap allocation");
                }
            });
        }
        if !self.wakes.is_empty() {
            ctx.with(|w| {
                for &s in &self.wakes {
                    let slot_addr = {
                        let u = w.shared.ustm();
                        u.slots[s].woken = true;
                        u.slot_addr(s)
                    };
                    w.machine.store(cpu, slot_addr, 4).plain("wake store");
                }
            });
        }
        ctx.with(|w| count(&mut w.shared.tm().stats));
        trace(ctx, event);
        for action in self.deferred {
            action();
        }
    }

    /// The abort sequence: undo the attempt's allocations, then journal
    /// `event`. The deferred actions are dropped unrun.
    fn abort<U: TmWorld>(self, ctx: &mut Ctx<U>, event: TraceKind) {
        if !self.allocs.is_empty() {
            ctx.with(|w| {
                let heap = &mut w.shared.tm().heap;
                for &a in &self.allocs {
                    heap.free(a).expect("aborted allocation already freed");
                }
            });
        }
        trace(ctx, event);
    }
}
