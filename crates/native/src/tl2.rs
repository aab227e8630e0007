//! Host-atomics TL2: the fast path of the native hybrid (and a backend
//! in its own right).
//!
//! The same version-lock + global-clock protocol as the simulated
//! [`ufotm-tl2`](ufotm_tl2) crate — striped version-locks keyed by cache
//! line, a global version clock, read-set validation, lock-ordered
//! write-back — but executed with `AtomicU64` operations on real host
//! memory, with **zero simulator involvement**. One difference is by
//! design: a commit reads the clock and never writes it (TL2's GV5),
//! and a read that meets a line newer than its snapshot extends the
//! snapshot instead of aborting.
//!
//! ## Protocol (mirrors `ufotm_tl2::Tl2Txn` phase for phase, but for the clock)
//!
//! * **begin** — sample the global clock into `rv`.
//! * **read** — pre-sample the stripe lock, load the word, post-sample;
//!   valid iff both samples are unlocked, equal, and `version <= rv`.
//!   A stable, unlocked stripe newer than `rv` extends the snapshot, once
//!   per read: raise the clock to that version (`fetch_max`, only when the
//!   clock is behind), revalidate every read-set stripe as unlocked and
//!   `<= rv`, move `rv` to the raised clock and sample again. Anything
//!   else is [`Tl2Abort::ReadValidation`]. So a read never aborts on a
//!   finished commit that the reader's own reads did not overlap; the
//!   simulated TL2, which has no extension, aborts there.
//!   Transactional loads and the commit's publication go through the
//!   heap's never-protected *shadow* view (see [`crate::guard`]): a slow
//!   commit keeps fast transactions off the lines it is writing with the
//!   stripe locks below, not with page protection, so they must not pay a
//!   fault for a page a window closed. Only
//!   [`NativeTl2::peek`]/[`NativeTl2::poke`] use the public view.
//! * **write** — buffer in an address-sorted `Vec` (lazy versioning;
//!   binary-search insert, so publication walks ascending addresses).
//! * **commit** — acquire write-stripe locks in sorted stripe order
//!   (single-shot CAS, [`Tl2Abort::LockBusy`] on contention); as a
//!   hybrid's fast path, load the USTM owner word of each stripe it holds
//!   and yield (`LockBusy` again) to any slow-path owner; draw
//!   `wv = clock + 1` *without* incrementing the clock, validate the read
//!   set ([`Tl2Abort::CommitValidation`] on failure), publish the write
//!   set with `Release` stores, release each lock stamped `wv`.
//!
//! ## Why a commit need not move the clock
//!
//! Only readers that extend, orphan steals and plain stores move the
//! clock (`NativeTl2::tick`). Two commits may draw the same `wv`. It
//! stays sound because a commit draws `wv` only once every write stripe
//! is held: once anyone has seen the clock at `c`, every commit that drew
//! `wv <= c` already holds its stripes, and every commit yet to draw gets
//! `wv > c`. A transaction whose `rv` is `c` therefore meets each earlier
//! commit's stripe locked or released with its value, and each later
//! commit's stripe unmoved or newer than `rv`. Extension keeps the same
//! order — raise the clock, *then* revalidate — and a reader raises the
//! clock past every version it moves beyond, so a later commit cannot
//! reuse that version. Nobody writes the clock on a commit, so these
//! "drew before" relations are reads-before, not synchronises-with: every
//! load and RMW of the clock and every stripe load that takes part is
//! `SeqCst`, which costs an x86 load nothing.
//!
//! A sealed slow commit ([`crate::ustm`]) is a TL2 writer of the same
//! shape, so the argument covers it as it stands: it draws `wv = clock +
//! 1` once it holds every stripe of its redo record (taken or inherited
//! from a dead committer), writes back, and releases them at `wv`. A
//! helper that completes a dead committer's record draws afresh under
//! the same rule. What the slow commit never does is draw before its last
//! stripe is held: a reader could then see the clock at `wv` while a
//! stripe of the record was still free at an older version, and read its
//! old value in a snapshot that includes the commit.
//!
//! An attempt allocates nothing once its handle is warm: the read set,
//! the write set and commit's stripe/held scratch are `Vec`s owned by the
//! [`NativeTxn`], cleared — never dropped — between attempts.
//!
//! A stripe lock word is `version << 1` when free and
//! `[epoch | slow:1 | owner_tid:8 | 1]` when held, so readers
//! distinguish locked-by-me during commit validation exactly like the
//! simulated `LockWord { version, holder }` — and so a waiter that
//! observes a lock stamped by a **dead** owner (the
//! [`crate::chaos::Liveness`] registry, marked precisely by the runner
//! when a worker's body unwinds) can steal-and-invalidate the stripe
//! instead of spinning forever. The epoch guards tid reuse: a revived
//! worker advances its epoch, so its fresh locks can never be confused
//! with its previous incarnation's orphans.
//!
//! Who may steal what: a stripe held by a **TL2** commit (slow bit clear)
//! may be stolen from a dead owner by anyone who meets it. That is sound
//! because injected TL2 panics only fire *before* write-back begins (see
//! [`crate::chaos::FailSite::panic_safe`]); the orphaned stripe still
//! holds pre-transaction data, and restamping it with a fresh clock
//! version merely invalidates concurrent readers. A stripe held with the
//! **slow** bit belongs to a sealed USTM redo record ([`crate::ustm`]
//! takes the stripes of its write lines between its seal and its
//! write-back, so to this module a slow commit is one more TL2 writer) and
//! may be half written back: nobody steals it, dead owner or not. Only
//! helper-completion releases it, after replaying the whole record under
//! every stripe the record names. A stripe held by a plain store
//! ([`PLAIN_HELD`], epoch 0) has no worker behind it to die, and is
//! released by the store alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use ufotm_core::{BackendStats, HybridPolicy, Stop, TmBackend, TxScope, BACKOFF_JITTER_PCT};
use ufotm_machine::{Addr, SimRng};
use ufotm_tl2::Tl2Abort;

use crate::chaos::{FailSite, Liveness, NativeChaos, MAX_WORKERS};
use crate::guard::GuardStats;
use crate::heap::{CommitWindow, WordHeap};
use crate::padded::Padded;
use crate::runner::{merged, run_workers_collect, Outcome, WorkerWorld};
use crate::ustm::NativeUstm;
use crate::write_set::WriteSet;

/// Burns roughly `cycles` iterations of a pause-hinted busy loop — the
/// native stand-in for the simulator's cycle-charged `work`.
pub fn spin_work(cycles: u64) {
    for _ in 0..cycles {
        std::hint::spin_loop();
    }
}

/// The native backend's one retry pause, between a driver's failed
/// attempt and its next: [`NativeThread`] and the hybrid's fast path
/// both hold one. The schedule is the simulated hybrids'
/// ([`HybridPolicy::backoff_for`]) in spin units, ± [`BACKOFF_JITTER_PCT`]
/// %, then a `yield_now` — jitter always on, because real threads, unlike
/// simulated CPUs, gain nothing from lockstep backoff.
#[derive(Debug)]
pub(crate) struct Backoff {
    rng: SimRng,
}

impl Backoff {
    /// Thread `tid`'s pause, its jitter a stream seeded by the tid.
    pub(crate) fn new(tid: usize) -> Self {
        Backoff {
            rng: SimRng::seed_from_u64(tid as u64),
        }
    }

    /// Spin units after the `k`-th consecutive abort.
    fn spins(&mut self, k: u32) -> u64 {
        let base = HybridPolicy::default().backoff_for(k);
        let span = base * BACKOFF_JITTER_PCT / 100;
        base - span + self.rng.gen_range(0..2 * span + 1)
    }

    /// Pauses after the `k`-th consecutive abort of one transaction.
    pub(crate) fn pause(&mut self, k: u32) {
        spin_work(self.spins(k));
        std::thread::yield_now();
    }
}

// A stripe lock word is `version << 1` when free and
// `[epoch | slow | tid:8 | 1]` when held.
/// Bit 0 of a stripe lock word: set while a commit holds the stripe.
pub(crate) const HELD: u64 = 1;
const SLOW: u64 = 1 << 9;
const EPOCH_SHIFT: u32 = 10;
/// The held word of a plain store ([`crate::NativeHybrid::poke`]): epoch
/// 0, which no worker stamps — a handle revives its tid, advancing the
/// epoch, before it can lock anything. Nobody steals it and nobody
/// helper-completes it; only its writer releases it.
pub(crate) const PLAIN_HELD: u64 = HELD;

fn held_word(epoch: u64, tid: usize, slow: bool) -> u64 {
    debug_assert!(tid < MAX_WORKERS);
    epoch << EPOCH_SHIFT | if slow { SLOW } else { 0 } | (tid as u64) << 1 | HELD
}

fn holder_tid(held: u64) -> usize {
    ((held >> 1) & 0xFF) as usize
}

/// The entry of 64-byte line `line` in a power-of-two metadata table of
/// `mask + 1` entries: the low bits of the line number, as TL2 and
/// TinySTM index their lock arrays. Consecutive lines take consecutive
/// entries, so workers on disjoint data ranges share no metadata line.
/// The stripe table and the USTM owner words, one per stripe, index
/// this way.
pub(crate) fn line_slot(line: u64, mask: u64) -> usize {
    (line & mask) as usize
}

/// Shared native TL2 state: the word heap, the stripe lock table, the
/// global version clock, and a bump allocator. All atomics — shareable
/// by reference across OS threads. Also the *heap host* for the native
/// USTM and hybrid, which operate on the same words.
#[derive(Debug)]
pub struct NativeTl2 {
    heap: WordHeap,
    heap_words: u64,
    locks: Box<[AtomicU64]>,
    /// Read, not written, by a commit, fast or slow: it moves when a read
    /// extends its snapshot past it, and on every orphan steal and plain
    /// store (`NativeTl2::tick`). On a line of its own: beside
    /// `heap_words`, `mask` and the `locks` pointer, which every access
    /// reads, each move of the clock would cost every worker a miss on
    /// its next access.
    clock: Padded<AtomicU64>,
    next_free: AtomicU64,
    mask: u64,
    chaos: NativeChaos,
    liveness: Liveness,
    orphan_steals: AtomicU64,
}

impl NativeTl2 {
    /// Creates a heap of `heap_words` words (all zero), a lock table of
    /// `lock_entries` stripes, and a bump allocator starting at word
    /// index `alloc_base_word` (everything below it is workload static
    /// data, addressed with the same [`Addr`] arithmetic as the
    /// simulator).
    ///
    /// When the mprotect guard is available the heap is dual-mapped so
    /// USTM commit windows can page-protect its public view (see
    /// [`crate::guard`]); otherwise plain boxed atomics.
    ///
    /// # Panics
    ///
    /// Panics if `lock_entries` is not a power of two or
    /// `alloc_base_word` exceeds the heap.
    #[must_use]
    pub fn new(heap_words: u64, lock_entries: u64, alloc_base_word: u64) -> Self {
        assert!(
            lock_entries.is_power_of_two(),
            "lock entries must be a power of two"
        );
        assert!(
            alloc_base_word <= heap_words,
            "alloc base past the end of the heap"
        );
        NativeTl2 {
            heap: WordHeap::new(heap_words),
            heap_words,
            locks: (0..lock_entries).map(|_| AtomicU64::new(0)).collect(),
            clock: Padded::default(),
            next_free: AtomicU64::new(alloc_base_word),
            mask: lock_entries - 1,
            chaos: NativeChaos::new(),
            liveness: Liveness::new(),
            orphan_steals: AtomicU64::new(0),
        }
    }

    /// The failpoint engine shared by every layer stacked on this heap
    /// (USTM, guard, hybrid). Disarmed by default; arm it with a
    /// [`crate::ChaosPlan`] to inject faults.
    #[must_use]
    pub fn chaos(&self) -> &NativeChaos {
        &self.chaos
    }

    /// The worker-liveness registry for this world.
    #[must_use]
    pub fn liveness(&self) -> &Liveness {
        &self.liveness
    }

    /// Orphaned stripe locks stolen from dead owners so far.
    #[must_use]
    pub fn orphan_steals(&self) -> u64 {
        self.orphan_steals.load(Ordering::Relaxed)
    }

    /// Attempts to steal stripe `s`, whose lock word was observed as
    /// `observed` (held). Succeeds only when the holder is a TL2 commit
    /// whose stamped owner is marked dead **and** whose stamped epoch
    /// matches the owner's current epoch (so a revived tid's live locks
    /// are never stolen). The stripe is restamped with a freshly bumped
    /// clock version, invalidating any reader that sampled the orphaned
    /// word.
    ///
    /// A *slow-held* stripe is never stolen, whatever the liveness
    /// registry says: it belongs to a sealed redo record that may be half
    /// written back, so only helper-completion
    /// ([`NativeUstm::reclaim_dead`]) may release it — after replaying the
    /// whole record. Nor is an epoch-0 word ([`PLAIN_HELD`]): no worker
    /// stamped it.
    fn try_reclaim(&self, s: usize, observed: u64) -> bool {
        if observed & HELD == 0 || observed & SLOW != 0 {
            return false;
        }
        let tid = holder_tid(observed);
        let epoch = observed >> EPOCH_SHIFT;
        if epoch == 0 || !self.liveness.is_dead(tid) || self.liveness.epoch(tid) != epoch {
            return false;
        }
        let wv = self.tick();
        let stolen = self.locks[s]
            .compare_exchange(observed, wv << 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        if stolen {
            self.orphan_steals.fetch_add(1, Ordering::Relaxed);
        }
        stolen
    }

    /// Walks the whole stripe table, stealing every lock orphaned by a
    /// dead owner. Runners call this after any worker death so stripes
    /// no live waiter happens to touch are still released. Returns the
    /// number of steals.
    pub fn sweep_orphans(&self) -> u64 {
        let mut stolen = 0;
        for s in 0..self.locks.len() {
            let w = self.locks[s].load(Ordering::Acquire);
            if w & 1 == 1 && self.try_reclaim(s, w) {
                stolen += 1;
            }
        }
        stolen
    }

    /// Draws the next version from the global clock and moves the clock
    /// to it — for the writers that are not commits: an orphan steal and
    /// a plain store. A commit draws [`NativeTl2::draw_wv`] instead.
    pub(crate) fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// A commit's write version, `clock + 1`, leaving the clock alone
    /// (TL2's GV5). Sound only once the caller holds every stripe it will
    /// release at this version (module docs).
    pub(crate) fn draw_wv(&self) -> u64 {
        self.clock.load(Ordering::SeqCst) + 1
    }

    /// The held word a sealed slow-path committer `tid` stamps on the
    /// stripes of its redo record.
    pub(crate) fn slow_stamp(&self, tid: usize) -> u64 {
        held_word(self.liveness.epoch(tid), tid, true)
    }

    /// Stripe `s`'s lock word. `SeqCst`: the slow path's half of the
    /// Dekker pair with a fast commit's ownership probe (see
    /// [`NativeTxn::commit`]) — a slow transaction makes its ownership
    /// visible, *then* looks at the stripe.
    pub(crate) fn stripe_word(&self, s: usize) -> u64 {
        self.locks[s].load(Ordering::SeqCst)
    }

    /// Takes stripe `s`, last seen free as `free`, as `stamp` — a sealed
    /// record's, or [`PLAIN_HELD`]; `false` if the word moved.
    pub(crate) fn lock_stripe(&self, s: usize, free: u64, stamp: u64) -> bool {
        debug_assert!(free & HELD == 0 && stamp & HELD != 0);
        self.locks[s]
            .compare_exchange(free, stamp, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
    }

    /// Releases stripe `s` at version `wv`.
    pub(crate) fn release_stripe(&self, s: usize, wv: u64) {
        self.locks[s].store(wv << 1, Ordering::Release);
    }

    /// For a slow-path waiter that saw stripe `s` held as `held`: frees
    /// it if a dead TL2 owner orphaned it, and names the holder if it is a
    /// dead *sealed* committer, whose record the waiter must
    /// helper-complete. `None` for every holder that releases by itself.
    pub(crate) fn dead_sealed_holder(&self, s: usize, held: u64) -> Option<usize> {
        if held & SLOW == 0 {
            self.try_reclaim(s, held);
            return None;
        }
        Some(holder_tid(held)).filter(|&tid| self.liveness.is_dead(tid))
    }

    pub(crate) fn heap(&self) -> &WordHeap {
        &self.heap
    }

    pub(crate) fn word_index(&self, addr: Addr) -> usize {
        debug_assert_eq!(addr.0 % 8, 0, "unaligned word address {addr:?}");
        let w = (addr.0 / 8) as usize;
        assert!(
            (w as u64) < self.heap_words,
            "address {addr:?} past the native heap"
        );
        w
    }

    /// The stripe of `addr`'s 64-byte line, in address order
    /// ([`line_slot`]). Unlike the simulated TL2's scatter, two workers
    /// on disjoint line ranges that fit in the table never touch one
    /// stripe, and only a boundary cache line of the table.
    pub(crate) fn stripe_of(&self, addr: Addr) -> usize {
        line_slot(addr.line().0, self.mask)
    }

    /// Stripes in the lock table.
    pub(crate) fn stripes(&self) -> usize {
        self.locks.len()
    }

    /// Plain (non-transactional) load, for setup and verification phases.
    ///
    /// Goes through the *public* heap view: on a guarded heap, if a USTM
    /// commit window is open over the page, this access faults into the
    /// guard handler and completes after the window — the native
    /// rendition of the paper's strong atomicity for plain reads (on a
    /// boxed heap, see [`crate::NativeHybrid::peek`]). The first plain
    /// access to a page after a window has closed it also faults, once:
    /// the handler reopens the page and the access re-executes.
    #[must_use]
    pub fn peek(&self, addr: Addr) -> u64 {
        self.heap.load(self.word_index(addr))
    }

    /// Plain (non-transactional) store. Racing a live *fast-path*
    /// transaction with `poke` has the usual weakly-atomic TL2
    /// semantics. Against the USTM slow path it is guarded on a guarded
    /// heap only (it faults during commit windows and lands after, never
    /// torn into the redo write-back); on a boxed heap nothing orders the
    /// two. [`crate::NativeHybrid::poke`] is ordered against both paths on
    /// either heap.
    pub fn poke(&self, addr: Addr, value: u64) {
        self.heap.store(self.word_index(addr), value);
    }

    /// The global version clock's current value.
    #[must_use]
    pub fn clock_now(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Host-side (non-transactional) allocation from the same bump
    /// allocator transactions use — for setup phases that build linked
    /// structures before threads start.
    ///
    /// # Panics
    ///
    /// Panics on heap exhaustion.
    #[must_use]
    pub fn host_alloc(&self, words: u64) -> Addr {
        self.alloc_words(words)
    }

    /// Guard observability counters for this heap (zero/unguarded when
    /// the mprotect guard is unavailable or disabled).
    #[must_use]
    pub fn guard_stats(&self) -> GuardStats {
        self.heap.guard_stats()
    }

    /// Test scaffolding: forcibly holds `addr`'s stripe lock as
    /// `owner`, returning the displaced lock word for
    /// [`NativeTl2::debug_restore_stripe`]. Deterministically provokes
    /// [`Tl2Abort::LockBusy`] in single-threaded protocol tests — never
    /// use it with live worker threads.
    #[doc(hidden)]
    pub fn debug_lock_stripe(&self, addr: Addr, owner: usize) -> u64 {
        let s = self.stripe_of(addr);
        self.locks[s].swap((owner as u64) << 1 | 1, Ordering::AcqRel)
    }

    /// Test scaffolding: undoes [`NativeTl2::debug_lock_stripe`].
    #[doc(hidden)]
    pub fn debug_restore_stripe(&self, addr: Addr, raw: u64) {
        let s = self.stripe_of(addr);
        self.locks[s].store(raw, Ordering::Release);
    }

    /// Test scaffolding: opens a strong-atomicity commit window over the
    /// pages holding `addrs`, exactly as a USTM commit does. The window
    /// ends when the returned handle drops (its pages stay closed until a
    /// plain access reopens them). Guard tests use this to pin the window
    /// open while a racing thread pokes into it.
    #[doc(hidden)]
    pub fn debug_open_window(&self, addrs: &[Addr]) -> DebugWindow<'_> {
        DebugWindow {
            _win: self
                .heap
                .open_window(addrs.iter().map(|&a| self.word_index(a)), None),
        }
    }

    /// Test scaffolding: reads through the *shadow* view (never
    /// page-protected), so a guard test can observe heap state while a
    /// window is open without faulting itself.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_shadow_peek(&self, addr: Addr) -> u64 {
        self.heap
            .shadow_word(self.word_index(addr))
            .load(Ordering::Acquire)
    }

    /// Test scaffolding: byte offset into the heap of the most recent
    /// classified guard fault, if any.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_last_fault_offset(&self) -> Option<usize> {
        self.heap.last_fault_offset()
    }

    /// Test scaffolding: pages of the public view currently closed
    /// (`PROT_NONE`) — closed by a commit window and not yet reopened by
    /// a plain access. Always 0 on an unguarded heap.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_closed_pages(&self) -> usize {
        self.heap.closed_pages()
    }

    pub(crate) fn alloc_words(&self, words: u64) -> Addr {
        let w = self.next_free.fetch_add(words, Ordering::Relaxed);
        assert!(
            w + words <= self.heap_words,
            "native heap exhausted ({} words)",
            self.heap_words
        );
        Addr(w * 8)
    }
}

/// An open debug commit window (see [`NativeTl2::debug_open_window`]).
#[derive(Debug)]
pub struct DebugWindow<'a> {
    _win: CommitWindow<'a>,
}

/// Per-handle event counters, one [`Tl2Abort`] bucket each (the native
/// analogue of `Tl2Stats`, with aborts split by class).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NativeStats {
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Aborts from read-time validation.
    pub read_validation_aborts: u64,
    /// Aborts from a busy write lock at commit.
    pub lock_busy_aborts: u64,
    /// Of [`NativeStats::lock_busy_aborts`], those where every stripe was
    /// taken and the commit then yielded to a slow-path transaction
    /// owning one of its write lines — the native mirror of the
    /// simulator's UFO-fault abort class. Not a class of its own:
    /// [`NativeStats::total_aborts`] already counts them.
    pub slow_owner_aborts: u64,
    /// Aborts from commit-time read-set validation.
    pub commit_validation_aborts: u64,
    /// Reads that met a line newer than the snapshot and extended the
    /// snapshot instead of aborting. Not an abort class.
    pub extensions: u64,
}

impl NativeStats {
    /// Total aborts across classes.
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.read_validation_aborts + self.lock_busy_aborts + self.commit_validation_aborts
    }

    /// Folds another handle's counters into this one. Exhaustive
    /// destructuring: adding a field without summing it here is a
    /// compile error.
    pub fn merge(&mut self, other: &NativeStats) {
        let NativeStats {
            begins,
            commits,
            read_validation_aborts,
            lock_busy_aborts,
            slow_owner_aborts,
            commit_validation_aborts,
            extensions,
        } = *other;
        self.begins += begins;
        self.commits += commits;
        self.read_validation_aborts += read_validation_aborts;
        self.lock_busy_aborts += lock_busy_aborts;
        self.slow_owner_aborts += slow_owner_aborts;
        self.commit_validation_aborts += commit_validation_aborts;
        self.extensions += extensions;
    }

    fn count_abort(&mut self, abort: Tl2Abort) {
        match abort {
            Tl2Abort::ReadValidation => self.read_validation_aborts += 1,
            Tl2Abort::LockBusy => self.lock_busy_aborts += 1,
            Tl2Abort::CommitValidation => self.commit_validation_aborts += 1,
        }
    }
}

/// A per-thread transaction handle over a shared [`NativeTl2`] — the
/// native mirror of `ufotm_tl2::Tl2Txn`, usable step by step
/// (begin/read/write/commit) by the cross-validation scripts or through
/// the retry loop in [`NativeThread`].
#[derive(Debug)]
pub struct NativeTxn<'a> {
    pub(crate) shared: &'a NativeTl2,
    /// The hybrid's slow path, when this handle is a hybrid's fast path:
    /// its commits yield to slow-path owners of their write stripes.
    ustm: Option<&'a NativeUstm>,
    pub(crate) tid: usize,
    rv: u64,
    reads: Vec<usize>,
    writes: WriteSet,
    /// Commit scratch: the write set's stripes, sorted and deduplicated.
    stripes: Vec<usize>,
    /// Commit scratch: `(stripe, displaced lock word)` per lock this
    /// commit holds, in acquisition (= stripe) order.
    held: Vec<(usize, u64)>,
    active: bool,
    /// Event counters for this handle.
    pub stats: NativeStats,
}

impl<'a> NativeTxn<'a> {
    /// Creates a handle for thread `tid`. Revives `tid` in the shared
    /// liveness registry, advancing its ownership epoch so any lock
    /// words orphaned by a previous incarnation of this tid become
    /// stealable.
    ///
    /// # Panics
    ///
    /// Panics if `tid` exceeds [`MAX_WORKERS`].
    #[must_use]
    pub fn new(shared: &'a NativeTl2, tid: usize) -> Self {
        assert!(tid < MAX_WORKERS, "tid {tid} exceeds the liveness registry");
        shared.liveness.revive(tid);
        NativeTxn {
            shared,
            ustm: None,
            tid,
            rv: 0,
            reads: Vec::new(),
            writes: WriteSet::default(),
            stripes: Vec::new(),
            held: Vec::new(),
            active: false,
            stats: NativeStats::default(),
        }
    }

    /// [`NativeTxn::new`] for a hybrid's fast path, which runs beside the
    /// slow-path transactions of `ustm` and must yield to them at commit.
    pub(crate) fn for_hybrid(shared: &'a NativeTl2, ustm: &'a NativeUstm, tid: usize) -> Self {
        NativeTxn {
            ustm: Some(ustm),
            ..NativeTxn::new(shared, tid)
        }
    }

    /// This handle's held-lock stamp. Read from the registry per commit,
    /// not cached at construction: a [`crate::NativeUstmTxn`] created for
    /// the same tid afterwards revives it again and advances the epoch.
    fn my_lock_word(&self) -> u64 {
        held_word(self.shared.liveness.epoch(self.tid), self.tid, false)
    }

    /// Whether a transaction is active on this handle.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Begins a transaction: samples the global version clock.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active.
    pub fn begin(&mut self) {
        assert!(!self.active, "nested native transactions are not supported");
        self.rv = self.shared.clock.load(Ordering::SeqCst);
        self.reads.clear();
        self.writes.clear();
        self.active = true;
        self.stats.begins += 1;
    }

    fn fail(&mut self, abort: Tl2Abort) {
        self.reads.clear();
        self.writes.clear();
        self.active = false;
        self.stats.count_abort(abort);
    }

    /// Abandons the current attempt (buffers dropped, abort counted).
    pub fn drop_attempt(&mut self) {
        debug_assert!(self.active);
        self.fail(Tl2Abort::ReadValidation);
    }

    /// Transactional read with pre/post lock sampling, extending the
    /// snapshot once if the line is newer than it (module docs).
    ///
    /// The read set logs a stripe once per *run* of reads on it: a lookup
    /// that reads a node's key and then its child pointer from one line
    /// logs that line once. Commit validation checks every entry, and
    /// checking a stripe twice answers what checking it once does.
    ///
    /// # Errors
    ///
    /// [`Tl2Abort::ReadValidation`] — the attempt is already rolled
    /// back; retry the transaction.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> Result<u64, Tl2Abort> {
        debug_assert!(self.active);
        let shared = self.shared;
        if shared.chaos.strike(self.tid, FailSite::Tl2Read) {
            self.fail(Tl2Abort::ReadValidation);
            return Err(Tl2Abort::ReadValidation);
        }
        if let Some(value) = self.writes.get(addr) {
            return Ok(value);
        }
        let w = shared.word_index(addr);
        let s = shared.stripe_of(addr);
        let value = match self.sample(w, s) {
            Ok(value) => value,
            Err((pre, post)) => self.read_conflict(w, s, pre, post)?,
        };
        if self.reads.last() != Some(&s) {
            self.reads.push(s);
        }
        Ok(value)
    }

    /// Loads word `w` between two samples of its stripe `s`: `Ok(value)`
    /// iff both samples are unlocked, equal and not newer than `rv`
    /// (`pre == post` makes `post` unlocked too), else `Err((pre, post))`.
    #[inline]
    fn sample(&self, w: usize, s: usize) -> Result<u64, (u64, u64)> {
        let lock = &self.shared.locks[s];
        let pre = lock.load(Ordering::SeqCst);
        let value = self.shared.heap.shadow_word(w).load(Ordering::Acquire);
        let post = lock.load(Ordering::SeqCst);
        if pre & HELD == 0 && pre == post && post >> 1 <= self.rv {
            Ok(value)
        } else {
            Err((pre, post))
        }
    }

    /// The half of [`NativeTxn::read`] that did not sample cleanly, out of
    /// line. A stable, unlocked stripe — so one newer than `rv` — extends
    /// the snapshot and is sampled again, once. Anything else rolls the
    /// attempt back. A lock stamped by a dead owner would make the stripe
    /// unreadable forever, so a held `post` is stolen if it is an orphan,
    /// and the retry can proceed.
    #[cold]
    #[inline(never)]
    fn read_conflict(
        &mut self,
        w: usize,
        s: usize,
        pre: u64,
        mut post: u64,
    ) -> Result<u64, Tl2Abort> {
        if pre & HELD == 0 && pre == post && self.extend(post >> 1) {
            match self.sample(w, s) {
                Ok(value) => return Ok(value),
                Err((_, again)) => post = again,
            }
        }
        if post & HELD == HELD {
            self.shared.try_reclaim(s, post);
        }
        self.fail(Tl2Abort::ReadValidation);
        Err(Tl2Abort::ReadValidation)
    }

    /// Moves the snapshot forward to cover `version`, a stable stripe
    /// version newer than `rv`: raises the clock to `version` if it is
    /// behind, *then* checks that every stripe read so far is unlocked and
    /// not newer than the old `rv`, and takes the raised clock as the new
    /// `rv`. `false` if a read-set stripe moved or is held. In this order,
    /// a commit that drew its `wv` before the raise already held its
    /// stripes when the check ran, and one that draws after it gets a `wv`
    /// beyond the new `rv`.
    fn extend(&mut self, version: u64) -> bool {
        let clock = &self.shared.clock;
        let mut now = clock.load(Ordering::SeqCst);
        if now < version {
            now = clock.fetch_max(version, Ordering::SeqCst).max(version);
        }
        let valid = self.reads.iter().all(|&s| {
            let l = self.shared.locks[s].load(Ordering::SeqCst);
            l & HELD == 0 && l >> 1 <= self.rv
        });
        if valid {
            self.rv = now;
            self.stats.extensions += 1;
        }
        valid
    }

    /// Transactional (buffered) write.
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` for symmetry with the simulated API.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: u64) -> Result<(), Tl2Abort> {
        debug_assert!(self.active);
        let _ = self.shared.word_index(addr); // bounds-check now, not at publish
        self.writes.insert(addr, value);
        Ok(())
    }

    /// Transactionally allocates `words` fresh words (bump allocator).
    /// An aborted attempt leaks its allocation — acceptable for
    /// benchmark-lifetime heaps, and verification only walks reachable
    /// cells.
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` for symmetry.
    pub fn alloc(&mut self, words: u64) -> Result<Addr, Tl2Abort> {
        debug_assert!(self.active);
        Ok(self.shared.alloc_words(words))
    }

    /// Commits: lock write stripes → (hybrid) yield to slow-path owners →
    /// draw `wv = clock + 1`, leaving the clock as it is → validate read
    /// set → publish → release stamped `wv`.
    ///
    /// # Errors
    ///
    /// [`Tl2Abort::LockBusy`] — a stripe was held, or a slow-path
    /// transaction owns a write line — or [`Tl2Abort::CommitValidation`];
    /// the attempt is already rolled back (locks released, buffers
    /// dropped).
    pub fn commit(&mut self) -> Result<(), Tl2Abort> {
        debug_assert!(self.active);
        if self.writes.is_empty() {
            // Read-only fast path: every read already validated against rv.
            self.active = false;
            self.stats.commits += 1;
            return Ok(());
        }
        if self.shared.chaos.strike(self.tid, FailSite::Tl2Commit) {
            self.fail(Tl2Abort::CommitValidation);
            return Err(Tl2Abort::CommitValidation);
        }
        let wv = match self.lock_and_validate() {
            Ok(wv) => wv,
            Err(abort) => {
                for &(s, displaced) in &self.held {
                    self.shared.locks[s].store(displaced, Ordering::Release);
                }
                self.fail(abort);
                return Err(abort);
            }
        };
        // Phase 4: publish the write set, ascending by address. Delay-only
        // failpoint: a panic mid-publication would tear the heap with no
        // redo record to recover from ([`FailSite::Tl2WriteBack`] is not
        // panic-safe).
        let _ = self.shared.chaos.strike(self.tid, FailSite::Tl2WriteBack);
        for &(a, v) in self.writes.as_slice() {
            self.shared
                .heap
                .shadow_word((a / 8) as usize)
                .store(v, Ordering::Release);
        }
        // Phase 5: release locks stamped with the new version.
        for &(s, _) in &self.held {
            self.shared.release_stripe(s, wv);
        }
        self.writes.clear();
        self.reads.clear();
        self.active = false;
        self.stats.commits += 1;
        Ok(())
    }

    /// Commit phases 1–3: lock the write set's stripes (and, on a
    /// hybrid, probe their lines' ownership), draw `wv` from the clock
    /// without moving it, validate the read set; returns `wv`. On `Err`,
    /// `self.held` names exactly the locks taken so far, for the caller to
    /// roll back.
    fn lock_and_validate(&mut self) -> Result<u64, Tl2Abort> {
        let shared = self.shared;
        let mine = self.my_lock_word();
        // Phase 1: acquire write locks in canonical (sorted) stripe order.
        self.stripes.clear();
        let writes = self.writes.as_slice();
        self.stripes
            .extend(writes.iter().map(|&(a, _)| shared.stripe_of(Addr(a))));
        self.stripes.sort_unstable();
        self.stripes.dedup();
        self.held.clear();
        for &s in &self.stripes {
            let mut cur = shared.locks[s].load(Ordering::Relaxed);
            if cur & 1 == 1 && shared.try_reclaim(s, cur) {
                cur = shared.locks[s].load(Ordering::Relaxed);
            }
            // `SeqCst`: the fast path's half of the Dekker pair below.
            let acquired = cur & 1 == 0
                && shared.locks[s]
                    .compare_exchange(cur, mine, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
            if !acquired {
                return Err(Tl2Abort::LockBusy);
            }
            self.held.push((s, cur));
        }
        // Yield to slow-path owners, as a hardware transaction takes a UFO
        // fault: with every stripe held, abort if a slow transaction owns
        // one of them for read or write. A slow transaction sets its bit in
        // the stripe's owner word and *then* looks at the stripe; this
        // commit took the stripe and *then* looks at the owner word — so
        // either this probe sees the owner, or the owner sees the lock and
        // waits it out.
        if let Some(ustm) = self.ustm {
            if self.held.iter().any(|&(s, _)| ustm.is_owned(s)) {
                self.stats.slow_owner_aborts += 1;
                return Err(Tl2Abort::LockBusy);
            }
        }
        // Locks held, nothing published yet: a panic injected here
        // orphans the stripes, and a steal is still sound.
        if shared.chaos.strike(self.tid, FailSite::Tl2LockHeld) {
            return Err(Tl2Abort::LockBusy);
        }
        // Phase 2: draw `wv` from the clock without writing it (GV5). Only
        // here: after every stripe is held, the ownership probe has run and
        // the strike has passed, so a reader that sees the clock at or past
        // `wv` finds this commit's stripes held or released at `wv`.
        let wv = shared.draw_wv();
        // Phase 3: validate the read set. No rv+1 == wv shortcut: with the
        // clock unmoved, `wv == rv + 1` whenever nobody extended or ticked
        // since `begin`, however many commits drew the same `wv` and
        // released a stripe this transaction read — skipping validation
        // would be unsound. `SeqCst` loads: two commits that each read
        // what the other writes hold their own stripes, then look at the
        // other's — one of them must see the other's lock.
        // A stripe this commit itself write-locked must be validated
        // against the version it *displaced* in phase 1: acquisition
        // overwrote the packed version word, but the simulated TL2's
        // struct lock keeps `version` visible while held, and a
        // concurrent commit may have bumped it past rv mid-body.
        for &s in &self.reads {
            let l = shared.locks[s].load(Ordering::SeqCst);
            let bad = if l == mine {
                let displaced = self
                    .held
                    .iter()
                    .find(|&&(hs, _)| hs == s)
                    .expect("self-held stripe missing from held set")
                    .1;
                displaced >> 1 > self.rv
            } else if l & 1 == 1 {
                // Still abort this attempt, but free a dead owner's
                // stripe so the retry does not hit the same wall.
                shared.try_reclaim(s, l);
                true
            } else {
                l >> 1 > self.rv
            };
            if bad {
                return Err(Tl2Abort::CommitValidation);
            }
        }
        Ok(wv)
    }

    /// One single-shot attempt: begin, run `body`, commit. `Some(r)` iff
    /// the body returned `Ok(r)` **and** the commit succeeded; otherwise
    /// the attempt is rolled back and counted. Both TL2 retry loops in
    /// the crate ([`NativeThread`] and the hybrid's fast path) are loops
    /// around this.
    #[inline]
    pub fn attempt<R, E>(
        &mut self,
        body: impl FnOnce(&mut NativeTxn<'a>) -> Result<R, E>,
    ) -> Option<R> {
        self.begin();
        match body(self) {
            Ok(r) => self.commit().is_ok().then_some(r),
            Err(_) => {
                // A body may surface its own error while the attempt is
                // still live (e.g. a fabricated abort): drop it cleanly.
                if self.active {
                    self.drop_attempt();
                }
                None
            }
        }
    }
}

impl TxScope for NativeTxn<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Stop> {
        NativeTxn::read(self, addr).map_err(|_| Stop)
    }

    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Stop> {
        NativeTxn::write(self, addr, value).map_err(|_| Stop)
    }

    fn alloc(&mut self, words: u64) -> Result<Addr, Stop> {
        NativeTxn::alloc(self, words).map_err(|_| Stop)
    }

    fn work(&mut self, cycles: u64) -> Result<(), Stop> {
        spin_work(cycles);
        Ok(())
    }
}

/// One OS thread's backend handle: a [`NativeTxn`] plus the shared phase
/// barrier, implementing [`TmBackend`] so backend-generic workloads run
/// on real threads unchanged.
#[derive(Debug)]
pub struct NativeThread<'a> {
    txn: NativeTxn<'a>,
    pub(crate) backoff: Backoff,
    barrier: &'a Barrier,
    threads: usize,
}

impl<'a> NativeThread<'a> {
    /// Creates the handle for thread `tid` of `threads`.
    #[must_use]
    pub fn new(shared: &'a NativeTl2, barrier: &'a Barrier, tid: usize, threads: usize) -> Self {
        NativeThread {
            txn: NativeTxn::new(shared, tid),
            backoff: Backoff::new(tid),
            barrier,
            threads,
        }
    }

    /// This handle's event counters.
    #[must_use]
    pub fn stats(&self) -> NativeStats {
        self.txn.stats
    }
}

impl TmBackend for NativeThread<'_> {
    fn transaction<R>(&mut self, mut body: impl FnMut(&mut dyn TxScope) -> Result<R, Stop>) -> R {
        let mut aborts = 0;
        loop {
            if let Some(r) = self.txn.attempt(|t| body(t)) {
                return r;
            }
            aborts += 1;
            self.backoff.pause(aborts);
        }
    }

    fn plain_load(&mut self, addr: Addr) -> u64 {
        self.txn.shared.peek(addr)
    }

    fn plain_store(&mut self, addr: Addr, value: u64) {
        self.txn.shared.poke(addr, value);
    }

    fn compute(&mut self, cycles: u64) {
        spin_work(cycles);
    }

    fn barrier(&mut self) {
        self.barrier.wait();
    }

    fn tid(&self) -> usize {
        self.txn.tid
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn backend_stats(&mut self) -> BackendStats {
        BackendStats {
            fast_commits: self.txn.stats.commits,
            orphan_reclaims: self.txn.shared.orphan_steals(),
            ..BackendStats::default()
        }
    }
}

/// One worker's join outcome from [`run_threads_collect`].
pub type NativeOutcome<R> = Outcome<NativeStats, R>;

impl WorkerWorld for NativeTl2 {
    type Handle<'a> = NativeThread<'a>;
    type Stats = NativeStats;

    fn handle<'a>(&'a self, barrier: &'a Barrier, tid: usize, threads: usize) -> NativeThread<'a> {
        NativeThread::new(self, barrier, tid, threads)
    }

    fn stats(handle: &NativeThread<'_>) -> NativeStats {
        handle.stats()
    }

    /// Marks the worker dead so survivors start stealing its stripe
    /// locks while still running.
    fn on_death(&self, tid: usize) {
        self.liveness.mark_dead(tid);
    }

    /// Sweeps the stripe table for orphans no live waiter touched.
    fn after_deaths(&self) {
        self.sweep_orphans();
    }
}

/// Runs `body` on `threads` real OS threads over `shared`, each with its
/// own [`NativeThread`] handle and a common phase barrier, and collects
/// **every** worker's outcome: a worker's death is survivable (its locks
/// are stolen, its counters and panic payload come back in its outcome).
///
/// Bodies that may be killed by panic injection must not use the phase
/// barrier: a dead worker never arrives and the survivors would wait
/// forever.
pub fn run_threads_collect<R: Send>(
    shared: &NativeTl2,
    threads: usize,
    body: impl Fn(&mut NativeThread<'_>) -> R + Sync,
) -> Vec<NativeOutcome<R>> {
    run_workers_collect(shared, threads, body)
}

/// [`run_threads_collect`], folded into the merged stats and each
/// thread's result (in tid order).
///
/// # Panics
///
/// Panics if any worker panicked, naming every dead tid with its payload
/// and per-thread counters.
pub fn run_threads<R: Send>(
    shared: &NativeTl2,
    threads: usize,
    body: impl Fn(&mut NativeThread<'_>) -> R + Sync,
) -> (NativeStats, Vec<R>) {
    merged(
        run_threads_collect(shared, threads, body),
        NativeStats::merge,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HybridThread, NativeHybrid, NativeHybridPolicy};
    use ufotm_machine::LINE_BYTES;

    /// One native backoff schedule: for k = 1..=10 a retry pause spins
    /// within `backoff_for(k)` ± 25 %, jittered to both sides, and a
    /// [`NativeThread`] and a [`HybridThread`] of the same tid draw the
    /// same spins, pause for pause.
    #[test]
    fn both_native_drivers_back_off_on_one_jittered_schedule() {
        assert_eq!(BACKOFF_JITTER_PCT, 25);
        let (tl2, barrier) = (NativeTl2::new(64, 16, 64), Barrier::new(1));
        let hybrid = NativeHybrid::new(64, 16, 64, 3, NativeHybridPolicy::default());
        let mut native = NativeThread::new(&tl2, &barrier, 2, 3);
        let mut fast = HybridThread::new(&hybrid, None, 2, 3);
        for k in 1..=10 {
            let base = HybridPolicy::default().backoff_for(k);
            let spins: Vec<u64> = (0..200).map(|_| native.backoff.spins(k)).collect();
            let fast_spins: Vec<u64> = (0..200).map(|_| fast.backoff.spins(k)).collect();
            assert_eq!(
                spins, fast_spins,
                "k = {k}: the two drivers' schedules differ"
            );
            let (lo, hi) = (base - base / 4, base + base / 4);
            assert!(spins.iter().all(|s| (lo..=hi).contains(s)), "k = {k}");
            assert!(spins.iter().any(|&s| s < base) && spins.iter().any(|&s| s > base));
        }
    }

    /// The same dead owner, the same epoch: its TL2 lock is an orphan to
    /// steal, its slow-held stripe is not — whatever the registry says.
    #[test]
    fn a_slow_held_stripe_is_never_stolen() {
        let heap = NativeTl2::new(64, 16, 64);
        let _revives_tid_3 = NativeTxn::new(&heap, 3);
        let s = heap.stripe_of(Addr(0));
        let tl2_held = held_word(heap.liveness.epoch(3), 3, false);
        let slow_held = heap.slow_stamp(3);
        assert_eq!(slow_held, tl2_held | SLOW);
        heap.liveness.mark_dead(3);

        heap.locks[s].store(slow_held, Ordering::SeqCst);
        assert!(!heap.try_reclaim(s, slow_held));
        assert_eq!(heap.sweep_orphans(), 0);
        assert_eq!(heap.dead_sealed_holder(s, slow_held), Some(3));
        assert_eq!(heap.stripe_word(s), slow_held, "still the record's");

        heap.locks[s].store(tl2_held, Ordering::SeqCst);
        assert_eq!(heap.dead_sealed_holder(s, tl2_held), None);
        assert_eq!(heap.stripe_word(s) & HELD, 0, "an orphan, stolen");
        assert_eq!(heap.orphan_steals(), 1);
    }

    /// A plain store's hold names tid 0 at epoch 0, and is nobody's to
    /// take: neither stolen nor reported as a sealed holder — with tid 0
    /// dead before any handle revived it (the one registry state whose
    /// epoch matches the word), and dead again after one did.
    #[test]
    fn a_plain_stores_stripe_is_never_stolen() {
        let heap = NativeTl2::new(64, 16, 64);
        let s = heap.stripe_of(Addr(0));
        assert_eq!(holder_tid(PLAIN_HELD), 0);
        heap.locks[s].store(PLAIN_HELD, Ordering::SeqCst);
        let untouched = |heap: &NativeTl2| {
            assert!(!heap.try_reclaim(s, PLAIN_HELD));
            assert_eq!(heap.sweep_orphans(), 0);
            assert_eq!(heap.dead_sealed_holder(s, PLAIN_HELD), None);
            assert_eq!(heap.stripe_word(s), PLAIN_HELD, "still the store's");
        };
        heap.liveness.mark_dead(0);
        assert_eq!(heap.liveness.epoch(0), 0);
        untouched(&heap);
        let _revives_tid_0 = NativeTxn::new(&heap, 0);
        heap.liveness.mark_dead(0);
        untouched(&heap);
        assert_eq!(heap.orphan_steals(), 0);
    }

    /// A lookup reads a node's key and then its child pointer, from the
    /// node's one line: the read set logs one entry per run of reads on a
    /// line, and a line read again after another starts a new run.
    #[test]
    fn the_read_set_logs_one_entry_per_line_run() {
        let heap = NativeTl2::new(1 << 10, 1 << 6, 1 << 10);
        let (node, next) = (Addr(3 * LINE_BYTES), Addr(9 * LINE_BYTES));
        let child = |key: Addr| Addr(key.0 + 8);
        let mut t = NativeTxn::new(&heap, 0);
        t.begin();
        for addr in [node, child(node), next, child(next), node] {
            assert_eq!(t.read(addr), Ok(0));
        }
        let (s, s_next) = (heap.stripe_of(node), heap.stripe_of(next));
        assert_ne!(s, s_next);
        assert_eq!(t.reads, [s, s_next, s]);
        t.commit().unwrap();
    }

    /// Address order: two disjoint line ranges that fit in the table
    /// together share no stripe, and no cache line of the stripe table
    /// but the one their boundary may fall in.
    #[test]
    fn disjoint_line_ranges_share_at_most_one_boundary_table_line() {
        use std::collections::BTreeSet;
        let heap = NativeTl2::new(1 << 12, 1 << 12, 1 << 12);
        let per_table_line = (LINE_BYTES / 8) as usize;
        let stripes = |lines: std::ops::Range<u64>| -> BTreeSet<usize> {
            lines
                .map(|l| heap.stripe_of(Addr(l * LINE_BYTES)))
                .collect()
        };
        let table_lines = |stripes: &BTreeSet<usize>| -> BTreeSet<usize> {
            stripes.iter().map(|s| s / per_table_line).collect()
        };
        let cases = [
            (0..2048, 2048..4096),
            (100..1000, 1000..3000),
            (7..13, 40..90),
        ];
        for (a, b) in cases {
            let (sa, sb) = (stripes(a), stripes(b));
            assert!(sa.is_disjoint(&sb), "a stripe shared");
            let (ta, tb) = (table_lines(&sa), table_lines(&sb));
            let shared: Vec<_> = ta.intersection(&tb).collect();
            assert!(shared.len() <= 1, "stripe-table lines {shared:?} shared");
        }
    }
}
