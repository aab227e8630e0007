//! The native hybrid: TL2 fast path, USTM slow path running beside it,
//! and abort-count failover — the real-thread rendition of the simulated
//! `HybridTm` driver.
//!
//! Each [`HybridThread`] runs transactions on the TL2 fast path
//! ([`NativeTxn`]) until `failover_after` consecutive aborts (with
//! jittered exponential backoff between attempts, the schedule of
//! `ufotm_core::HybridPolicy` that [`NativeThread`](crate::NativeThread)
//! pauses on too), then executes **one**
//! transaction on the USTM slow path ([`NativeUstmTxn`]) and returns to
//! the fast path.
//!
//! ## Fast and slow at the same time
//!
//! Fast-path transactions keep running while slow-path transactions are
//! in flight — the paper's point against phase-gated hybrids (PhTM),
//! where every software transaction stops all hardware ones. The two
//! paths order through words both already touch (the three rules of
//! [`crate::ustm`], "Beside the TL2 fast path"): a slow commit takes the
//! TL2 stripes of its write lines and releases them at a version past
//! the clock, so the fast path sees a TL2 writer; a slow reader registers its
//! ownership and then waits out whoever holds the stripe; and a fast
//! commit, holding its stripes, loads the owner word of each and
//! yields ([`Tl2Abort::LockBusy`](ufotm_tl2::Tl2Abort),
//! counted in `slow_owner_aborts`) to any slow owner. Multiple slow
//! transactions run concurrently as before — the owner words are the
//! concurrency control among them.
//!
//! ## The serial tier
//!
//! A transaction whose slow attempts keep failing (`serial_after` of
//! them) escalates, but not to a mode: it takes the serial gate and runs
//! once more as USTM's *eldest* transaction ([`crate::ustm`], "The eldest
//! transaction"). Older than everyone, it kills every younger slow owner
//! it meets, is killed by nobody, is yielded to by every fast commit and
//! strikes no failpoint, so it commits on that attempt — while every
//! other transaction keeps running. The gate keeps it the only eldest.
//!
//! ## Plain accesses
//!
//! A plain access with no worker identity ([`NativeHybrid::peek`]/
//! [`NativeHybrid::poke`], and the backend's `plain_load`/`plain_store`,
//! which route through them) waits only for whoever holds its line — the
//! simulator's rule, where a non-transactional store stalls until the
//! software owner of that one line releases it. It orders through the two
//! words that already order the paths, the line's TL2 stripe and the
//! stripe's owner word:
//!
//! * a **peek** is a stripe-validated load: it waits while the stripe is
//!   held, loads the word, and keeps the value only if the stripe has not
//!   moved — so no commit's write-back, slow or fast, is seen half done;
//! * a **poke** is a one-line TL2 writer: it takes the stripe with an
//!   anonymous held word that nobody steals or helper-completes, probes
//!   the owner word as a fast commit does (rule 3 of
//!   [`crate::ustm`]), and on a slow owner gives the stripe back and
//!   waits; otherwise it stores and releases the stripe at a fresh clock
//!   value, which fast readers of the line then revalidate against.
//!
//! The rule is the same on guarded and unguarded (boxed/TSan/non-x86_64)
//! heaps. No transaction, fast or slow, executes an atomic on behalf of
//! plain accessors: between [`TmBackend::transaction`]'s entry and
//! [`NativeTxn::attempt`] a fast attempt executes no atomic access, and a
//! slow one goes straight to its USTM attempts or the serial tier.
//!
//! ## Which heap view
//!
//! One rule (see [`crate::guard`]): every transaction — fast or slow, the
//! serial tier being a slow one — reads and writes the heap's
//! never-protected *shadow* view; only plain accesses
//! ([`NativeHybrid::peek`]/[`NativeHybrid::poke`] and the raw
//! [`NativeTl2::peek`]/[`NativeTl2::poke`]) use the public view, which
//! slow commits close page by page and plain accesses reopen on first
//! touch. A fast transaction may therefore read or write a page while a
//! slow commit's window is open over it; what keeps that sound is the
//! stripe the slow commit holds for exactly the lines it is writing, not
//! the page protection, which exists for plain accesses alone.

use std::sync::{Barrier, Mutex};

use ufotm_core::{BackendStats, Stop, TmBackend, TxScope};
use ufotm_machine::Addr;

use crate::chaos::lock_recover;
use crate::guard::GuardStats;
use crate::runner::{merged, run_workers_collect, Outcome, WorkerWorld};
use crate::tl2::{spin_work, Backoff, NativeStats, NativeTl2, NativeTxn, HELD, PLAIN_HELD};
use crate::ustm::{NativeUstm, NativeUstmStats, NativeUstmTxn};

/// Failover policy for the native hybrid: the two watchdog thresholds
/// callers actually vary (the backoff schedule between fast-path retries
/// is fixed).
#[derive(Clone, Copy, Debug)]
pub struct NativeHybridPolicy {
    /// Consecutive fast-path aborts before one slow-path execution.
    pub failover_after: u32,
    /// Slow-path attempts before escalating to the serial tier — one more
    /// slow attempt, run as the eldest transaction, which nothing can
    /// abort (the native mirror of the simulator's third watchdog tier).
    /// 0 escalates at once.
    pub serial_after: u32,
}

impl Default for NativeHybridPolicy {
    fn default() -> Self {
        NativeHybridPolicy {
            failover_after: 4,
            serial_after: 8,
        }
    }
}

/// Shared native hybrid state: the TL2 world (which owns the word
/// heap), the USTM owner words, and the serial tier's one seat.
#[derive(Debug)]
pub struct NativeHybrid {
    tl2: NativeTl2,
    ustm: NativeUstm,
    /// Serializes serial-tier transactions: each runs as USTM's eldest
    /// transaction, and there is one such seat.
    serial_gate: Mutex<()>,
    threads: usize,
    policy: NativeHybridPolicy,
}

impl NativeHybrid {
    /// Creates hybrid state: a TL2 world of `heap_words` /
    /// `lock_entries` / `alloc_base_word` (see [`NativeTl2::new`]) plus
    /// the USTM's owner words and status slots for `threads` (see
    /// [`NativeUstm::new`]).
    #[must_use]
    pub fn new(
        heap_words: u64,
        lock_entries: u64,
        alloc_base_word: u64,
        threads: usize,
        policy: NativeHybridPolicy,
    ) -> Self {
        let tl2 = NativeTl2::new(heap_words, lock_entries, alloc_base_word);
        NativeHybrid {
            ustm: NativeUstm::new(&tl2, threads),
            tl2,
            serial_gate: Mutex::new(()),
            threads,
            policy,
        }
    }

    /// Repairs everything a **dead** worker left behind in the hybrid:
    /// its USTM leavings (helper-completing a sealed commit, which
    /// releases the slow-held stripes of its record, or discarding an
    /// unsealed one with its ownerships) and its orphaned TL2 stripe
    /// locks. Until then, only the lines the corpse owned or held keep
    /// anyone waiting — plain accessors included, and only on those lines.
    /// Idempotent and safe to call from multiple survivors.
    pub fn reap_dead(&self, tid: usize) {
        self.ustm.reclaim_dead(&self.tl2, tid);
        self.tl2.sweep_orphans();
    }

    /// Reaps every tid the liveness registry has marked dead.
    pub fn reap_all_dead(&self) {
        for tid in 0..self.threads {
            if self.tl2.liveness().is_dead(tid) {
                self.reap_dead(tid);
            }
        }
    }

    /// The underlying TL2 world (heap host) — for setup/verify peeks
    /// and pokes and the debug guard scaffolding.
    #[must_use]
    pub fn tl2(&self) -> &NativeTl2 {
        &self.tl2
    }

    /// The USTM slow path's shared state — test observability.
    #[must_use]
    pub fn ustm(&self) -> &NativeUstm {
        &self.ustm
    }

    /// Plain (non-transactional) load through the public view, validated
    /// against the line's stripe like a fast-path read: never a commit's
    /// write-back half applied (module docs, "Plain accesses").
    #[must_use]
    pub fn peek(&self, addr: Addr) -> u64 {
        let tl2 = &self.tl2;
        let (w, s) = (tl2.word_index(addr), tl2.stripe_of(addr));
        loop {
            let pre = tl2.stripe_word(s);
            if pre & HELD != 0 {
                self.ustm.stripe_round(tl2, s, pre);
                continue;
            }
            let v = tl2.heap().load(w);
            if tl2.stripe_word(s) == pre {
                return v;
            }
        }
    }

    /// Plain (non-transactional) store through the public view, as a
    /// one-line TL2 writer that yields to slow-path owners of the line
    /// (module docs, "Plain accesses").
    pub fn poke(&self, addr: Addr, value: u64) {
        let tl2 = &self.tl2;
        let (w, s) = (tl2.word_index(addr), tl2.stripe_of(addr));
        loop {
            let free = tl2.stripe_word(s);
            if free & HELD != 0 {
                self.ustm.stripe_round(tl2, s, free);
            } else if tl2.lock_stripe(s, free, PLAIN_HELD) {
                // Stripe CAS, then the owner word: the fast commit's half
                // of the Dekker pair with a registering slow owner.
                if !self.ustm.is_owned(s) {
                    tl2.heap().store(w, value);
                    tl2.release_stripe(s, tl2.tick());
                    return;
                }
                tl2.release_stripe(s, free >> 1);
                std::thread::yield_now();
            }
        }
    }

    /// Host-side allocation from the shared bump allocator.
    #[must_use]
    pub fn host_alloc(&self, words: u64) -> Addr {
        self.tl2.host_alloc(words)
    }

    /// Test scaffolding: the fast-path and slow-path handles of `tid`,
    /// wired exactly as a [`HybridThread`]'s (it is built from this) but
    /// outside any retry loop, so a schedule explorer can drive
    /// `begin` / each access / `commit` of several transactions step by
    /// step on one OS thread. The one-live-handle-per-tid rule of
    /// [`HybridThread::new`] applies.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_step_handles(&self, tid: usize) -> (NativeTxn<'_>, NativeUstmTxn<'_>) {
        (
            NativeTxn::for_hybrid(&self.tl2, &self.ustm, tid),
            NativeUstmTxn::new(&self.tl2, &self.ustm, tid),
        )
    }

    /// Guard counters for the shared heap.
    #[must_use]
    pub fn guard_stats(&self) -> GuardStats {
        self.tl2.guard_stats()
    }
}

/// Merged per-thread hybrid counters: fast-path TL2 stats, slow-path
/// USTM stats, and failover accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// TL2 fast-path counters.
    pub fast: NativeStats,
    /// USTM slow-path counters.
    pub slow: NativeUstmStats,
    /// Transactions that failed over to the slow path after
    /// `failover_after` consecutive fast aborts.
    pub failovers: u64,
    /// Failovers injected by [`HybridThread::force_failover_next`]
    /// (test/cross-validation scaffolding).
    pub forced_failovers: u64,
    /// Transactions completed on the serial tier (as the eldest slow
    /// transaction; not counted in `slow`'s begins or commits).
    pub serial_commits: u64,
    /// Escalations from the slow path to the serial tier (after
    /// `serial_after` failed slow attempts).
    pub serial_escalations: u64,
}

impl HybridStats {
    /// Transactions committed on any tier.
    #[must_use]
    pub fn total_commits(&self) -> u64 {
        self.fast.commits + self.slow.commits + self.serial_commits
    }

    /// Total aborts on either retrying path (the serial tier never
    /// aborts: nobody is old enough to kill the eldest transaction).
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.fast.total_aborts() + self.slow.total_aborts()
    }

    /// Folds another thread's counters into this one. Exhaustive
    /// destructuring: adding a field without summing it here is a
    /// compile error.
    pub fn merge(&mut self, other: &HybridStats) {
        let HybridStats {
            fast,
            slow,
            failovers,
            forced_failovers,
            serial_commits,
            serial_escalations,
        } = *other;
        self.fast.merge(&fast);
        self.slow.merge(&slow);
        self.failovers += failovers;
        self.forced_failovers += forced_failovers;
        self.serial_commits += serial_commits;
        self.serial_escalations += serial_escalations;
    }
}

/// One OS thread's hybrid backend handle: a fast-path and a slow-path
/// transaction handle over the shared state, implementing
/// [`TmBackend`] so backend-generic workloads run on the hybrid
/// unchanged.
#[derive(Debug)]
pub struct HybridThread<'a> {
    shared: &'a NativeHybrid,
    fast: NativeTxn<'a>,
    slow: NativeUstmTxn<'a>,
    barrier: Option<&'a Barrier>,
    tid: usize,
    threads: usize,
    force_slow: bool,
    failovers: u64,
    forced_failovers: u64,
    serial_commits: u64,
    serial_escalations: u64,
    pub(crate) backoff: Backoff,
}

impl<'a> HybridThread<'a> {
    /// Creates the handle for thread `tid` of `threads`. `barrier` is
    /// the shared phase barrier; pass `None` for single-threaded
    /// protocol scripts that never call [`TmBackend::barrier`].
    ///
    /// At most one live `HybridThread` may exist per `tid` of a given
    /// [`NativeHybrid`]: its tid's USTM status slot describes one
    /// transaction at a time (two handles would retire each other's
    /// transaction), and creating it revives the
    /// tid in the liveness registry ([`NativeTxn::new`]),
    /// which already assumes any previous incarnation is gone. A tid may
    /// be reused once its previous handle has been dropped, or its worker
    /// has died and been reaped.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not below the `threads` the shared state was
    /// built for.
    #[must_use]
    pub fn new(
        shared: &'a NativeHybrid,
        barrier: Option<&'a Barrier>,
        tid: usize,
        threads: usize,
    ) -> Self {
        let (fast, slow) = shared.debug_step_handles(tid);
        HybridThread {
            shared,
            fast,
            slow,
            barrier,
            tid,
            threads,
            force_slow: false,
            failovers: 0,
            forced_failovers: 0,
            serial_commits: 0,
            serial_escalations: 0,
            backoff: Backoff::new(tid),
        }
    }

    /// Makes the next [`TmBackend::transaction`] on this handle run on
    /// the USTM slow path regardless of abort counts — deterministic
    /// failover for tests and cross-validation scripts (the native
    /// mirror of the simulated driver's forced failover hook).
    pub fn force_failover_next(&mut self) {
        self.force_slow = true;
    }

    /// This handle's merged counters.
    #[must_use]
    pub fn stats(&self) -> HybridStats {
        HybridStats {
            fast: self.fast.stats,
            slow: self.slow.stats,
            failovers: self.failovers,
            forced_failovers: self.forced_failovers,
            serial_commits: self.serial_commits,
            serial_escalations: self.serial_escalations,
        }
    }

    /// Runs one transaction to commit on the USTM slow path, beside
    /// whatever the fast path and plain accessors are doing: retry the
    /// body under USTM until it commits — after `serial_after` failed
    /// attempts, on the serial tier.
    fn run_slow<R>(&mut self, body: &mut impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        (0..self.shared.policy.serial_after)
            .find_map(|_| self.slow.attempt(|t| body(t)))
            .unwrap_or_else(|| self.run_serial(body))
    }

    /// The serial tier — the third watchdog tier, mirroring the
    /// simulator's: take the serial gate and run the body once more as
    /// USTM's eldest transaction, which kills every younger owner it
    /// meets, is killed by nobody and strikes no failpoint, so completion
    /// is unconditional. The native livelock of mutual kills that wedges
    /// a two-tier hybrid completes here. A plain store to a line it owns
    /// waits for it, as for any slow owner; nothing else does.
    fn run_serial<R>(&mut self, body: &mut impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        self.serial_escalations += 1;
        // A serial body that panicked poisoned the gate on its way out;
        // the seat is free again all the same.
        let (_gate, _recovered) = lock_recover(&self.shared.serial_gate);
        // Nobody can abort the eldest transaction, so a failed attempt is
        // the body's own doing. Bodies that fabricate aborts are
        // scaffolding-only; a real workload body only fails via its scope.
        let r = self
            .slow
            .attempt_eldest(|t| body(t))
            .expect("transaction body surfaced a hand-made Stop on the serial tier");
        self.serial_commits += 1;
        r
    }
}

impl TmBackend for HybridThread<'_> {
    fn transaction<R>(&mut self, mut body: impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        let mut consecutive = 0u32;
        loop {
            if self.force_slow || consecutive >= self.shared.policy.failover_after {
                let forced = std::mem::take(&mut self.force_slow);
                let r = self.run_slow(&mut body);
                self.failovers += 1;
                if forced {
                    self.forced_failovers += 1;
                }
                return r;
            }
            // Failover is decided first (above), like the simulated
            // driver: only an attempt that stays fast pays a backoff.
            if consecutive > 0 {
                self.backoff.pause(consecutive);
            }
            if let Some(r) = self.fast.attempt(|t| body(t)) {
                return r;
            }
            consecutive += 1;
        }
    }

    fn plain_load(&mut self, addr: Addr) -> u64 {
        self.shared.peek(addr)
    }

    fn plain_store(&mut self, addr: Addr, value: u64) {
        self.shared.poke(addr, value);
    }

    fn compute(&mut self, cycles: u64) {
        spin_work(cycles);
    }

    fn barrier(&mut self) {
        self.barrier
            .expect("this hybrid handle has no phase barrier")
            .wait();
    }

    fn tid(&self) -> usize {
        self.tid
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn force_failover_next(&mut self) {
        HybridThread::force_failover_next(self);
    }

    fn backend_stats(&mut self) -> BackendStats {
        BackendStats {
            fast_commits: self.fast.stats.commits,
            // Serial commits count on the "slow" side, mirroring the
            // simulated backend's sw + lock + serial rollup.
            slow_commits: self.slow.stats.commits + self.serial_commits,
            failovers: self.failovers,
            serial_commits: self.serial_commits,
            orphan_reclaims: self.shared.tl2.orphan_steals() + self.shared.ustm.orphan_releases(),
            helper_completions: self.shared.ustm.helper_completions(),
        }
    }
}

/// One worker's join outcome from [`run_hybrid_threads_collect`].
pub type HybridOutcome<R> = Outcome<HybridStats, R>;

impl WorkerWorld for NativeHybrid {
    type Handle<'a> = HybridThread<'a>;
    type Stats = HybridStats;

    fn handle<'a>(&'a self, barrier: &'a Barrier, tid: usize, threads: usize) -> HybridThread<'a> {
        HybridThread::new(self, Some(barrier), tid, threads)
    }

    fn stats(handle: &HybridThread<'_>) -> HybridStats {
        handle.stats()
    }

    /// Marks the worker dead and reaps it immediately: its USTM leavings
    /// are helper-completed or discarded and its TL2 stripe locks swept,
    /// so survivors keep committing while the corpse is still warm.
    fn on_death(&self, tid: usize) {
        self.tl2.liveness().mark_dead(tid);
        self.reap_dead(tid);
    }

    fn after_deaths(&self) {
        self.reap_all_dead();
    }
}

/// Runs `body` on `threads` real OS threads over `shared`, each with
/// its own [`HybridThread`] handle and a common phase barrier, and
/// collects **every** worker's outcome; a panicked worker is reaped
/// in-thread (see [`run_threads_collect`](crate::run_threads_collect)
/// for the contract, including the no-barrier rule for killable bodies).
pub fn run_hybrid_threads_collect<R: Send>(
    shared: &NativeHybrid,
    threads: usize,
    body: impl Fn(&mut HybridThread<'_>) -> R + Sync,
) -> Vec<HybridOutcome<R>> {
    run_workers_collect(shared, threads, body)
}

/// [`run_hybrid_threads_collect`], folded into the merged stats and each
/// thread's result (in tid order).
///
/// # Panics
///
/// Panics if any worker panicked, naming every dead tid with its payload
/// and per-thread counters.
pub fn run_hybrid_threads<R: Send>(
    shared: &NativeHybrid,
    threads: usize,
    body: impl Fn(&mut HybridThread<'_>) -> R + Sync,
) -> (HybridStats, Vec<R>) {
    merged(
        run_hybrid_threads_collect(shared, threads, body),
        HybridStats::merge,
    )
}
