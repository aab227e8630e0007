//! The native USTM slow path: a redo-log STM with an owner word per
//! stripe and age-ordered conflict resolution, on real OS threads.
//!
//! This is the host-atomics rendition of the simulated
//! [`ufotm-ustm`](ufotm_ustm) crate, reshaped for real hardware:
//!
//! * **Ownership** — one `AtomicU64` owner word per TL2 stripe, in an
//!   array of its own indexed like the lock table, where the simulated
//!   [`Otable`](ufotm_ustm::Otable) chains one record per owned line
//!   (a writer slot and a reader list) into Fibonacci-hashed bins. The
//!   word holds a reader bit per USTM slot in bits 0–55 and the writer's
//!   slot + 1 in its top byte, so ownership is per stripe, the
//!   granularity the TL2 locks already have, and at most 56 slots exist.
//!   Taking read ownership is one `fetch_or`, write ownership one CAS,
//!   releasing either one `fetch_and`: no lock, no chain walk, no
//!   allocation. A conflicting owner's timestamp is read from its status
//!   slot, which holds it for as long as the owner holds any bit, because
//!   ownership is released before the slot retires.
//! * **Versioning** — *lazy redo* instead of the simulator's eager undo:
//!   writes buffer in an address-sorted redo log (the write set TL2
//!   uses) and publish at commit, because on real hardware in-place
//!   speculative stores would be visible to uninstrumented plain code
//!   with no UFO bit to hide them. Read
//!   ownership is still eager (acquired at first read of a stripe), which
//!   keeps conflict detection eager like the paper's USTM.
//! * **Conflict resolution** — age-ordered, like the simulator: each
//!   transaction draws a monotonically increasing timestamp at begin (one
//!   older than all of them is reserved: "The eldest transaction"); an
//!   older transaction **kills** a younger conflictor (and waits for it
//!   to unwind and release ownership), a younger transaction **stalls**
//!   behind an older one. Stalling only ever waits on strictly older
//!   transactions, so waits are acyclic and the oldest transaction in
//!   the system always makes progress. Kills are delivered through a
//!   per-thread packed `AtomicU64` status slot
//!   (`[ts:40 | killer+1:16 | phase:8]`); a victim observes its doom at
//!   its next read / `work` / stall iteration / commit seal, unwinds,
//!   and returns [`UstmAbort::Killed`] with the killer recorded — the
//!   same classification (and `Display` text) as the simulated USTM.
//! * **Commit** — acquire write ownership of the redo log's stripes in
//!   ascending order (kill younger owners, stall behind older ones),
//!   publish the redo record, *seal* the status slot
//!   (`ACTIVE → COMMITTING`; a sealed transaction can no longer be killed,
//!   mirroring the simulator's committing transactions stalling their
//!   attackers), then behave as a TL2 writer: take the TL2 stripe locks of
//!   the write lines in ascending stripe order (spinning; the held word
//!   carries a *slow* bit, see [`crate::NativeTl2`]), draw `wv = clock +
//!   1` without moving the clock (the TL2 module's "Why a commit need
//!   not move the clock" covers it), open the strong-atomicity guard
//!   window ([`crate::guard`]: it closes whichever pages of the write set
//!   are still open on the public view — in steady state none, so no
//!   syscall), write the redo log back through the shadow view with
//!   `Release` stores, end the window (the pages stay closed; a plain
//!   access reopens one on first touch), release the stripes at `wv`,
//!   release ownership, retire the slot.
//!
//! ## Beside the TL2 fast path
//!
//! In the hybrid, fast-path TL2 transactions run *while* slow-path
//! transactions are in flight, as the paper's hardware transactions do.
//! Three rules order the two paths, and the stripe word plays the paper's
//! UFO bits:
//!
//! 1. *A slow commit is a TL2 writer* (above). A fast reader that meets
//!    its stripe, or a version past its `rv`, fails ordinary TL2
//!    validation; a fast committer fails its single-shot CAS. A slow-held
//!    stripe belongs to a sealed record and is never stolen: if the
//!    committer dies, [`NativeUstm::reclaim_dead`] takes (or inherits)
//!    every stripe of the record, replays it under them, and releases them
//!    at a fresh version.
//! 2. *A slow reader makes its ownership visible before it trusts the
//!    stripe*: on the first read of a stripe, after setting its bit in the
//!    stripe's owner word, it waits until the stripe is unlocked, then
//!    loads.
//! 3. *A fast commit yields to slow owners, as a hardware transaction
//!    takes a UFO fault*: holding all its stripes, it loads the owner word
//!    of each and aborts if a slow transaction owns one for read or write.
//!
//! Rules 2 and 3 are a Dekker pair over `SeqCst` accesses to two words of
//! one stripe, its lock and its owner word — owner-word RMW then stripe
//! load on the slow side, stripe CAS then owner-word load on the fast
//! side — so of a slow owner and a fast writer of one stripe at least one
//! sees the other: the fast one aborts, or the slow one waits out its
//! commit. Slow transactions are therefore never aborted by fast ones (the
//! paper's priority), the cost to the fast path is one load per *written*
//! stripe, and its reads stay uninstrumented.
//!
//! USTM's own heap reads go through the **shadow** view, like every
//! transactional access in the crate: a reader holds read ownership of
//! every stripe it has read, so no slow committer can be writing those
//! lines back concurrently and no fast one gets past its probe, and the
//! shadow view never faults — neither inside a guard window nor on a page
//! an earlier window left closed.
//!
//! The read set, the write-owned stripes and commit's sorted stripe list
//! are `Vec`s owned by the [`NativeUstmTxn`], cleared — never dropped —
//! between attempts, and so is the redo log; a warm attempt allocates
//! nothing.
//!
//! ## The eldest transaction
//!
//! The age rule has one reserved seat: a transaction begun with
//! `NativeUstmTxn::begin_eldest` carries timestamp 0, older than any
//! `begin` draws, and its caller keeps it the only one (the hybrid's
//! serial gate — two timestamp-0 owners of one line would each stall
//! behind the other forever). Kills go only to strictly younger
//! timestamps, so nobody kills it; it strikes no failpoint; fast commits
//! yield to it by rule 3 like to any slow owner. It therefore commits on
//! its first attempt with the rest of the system still running, which is
//! what the hybrid's serial tier promises. Each of its waits ends:
//!
//! * *a younger unsealed owner* it has killed notices at its next access,
//!   stall round, stripe wait or seal, and releases;
//! * *a sealed committer* cannot be killed, but waits for nothing except
//!   stripes — taken in ascending order, from single-shot TL2 holders or
//!   other sealed committers — and then releases;
//! * *a TL2 stripe holder* (rule 2, and its own write-back) is single-shot
//!   and releases without waiting for anyone;
//! * *a dead owner or holder* of any of these kinds is reclaimed by the
//!   waiter itself (`unblock_if_dead`, `stripe_round`) — a dead eldest
//!   included, which a successor cannot kill but does outlive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use ufotm_core::{Stop, TxScope};
use ufotm_machine::{Addr, CpuSet};
use ufotm_ustm::UstmAbort;

use crate::chaos::{lock_recover, FailSite};
use crate::padded::Padded;
use crate::tl2::{spin_work, NativeTl2, HELD};
use crate::write_set::WriteSet;

// Status-slot phases (low 8 bits of the packed word).
const PHASE_INACTIVE: u64 = 0;
const PHASE_ACTIVE: u64 = 1;
const PHASE_COMMITTING: u64 = 2;
/// A helper won the race to reclaim a dead owner's slot and is completing
/// (or discarding) its work; everyone else waits for the slot to retire.
const PHASE_REAPING: u64 = 3;

/// The timestamp reserved for the eldest transaction: [`NativeUstmTxn::begin`]
/// draws from 1 upwards, so this is older than any of them.
const ELDEST_TS: u64 = 0;

/// Packs a status slot: `[ts:40 | killer+1:16 | phase:8]`. `killer+1`
/// so that 0 means "not killed" and thread id 0 can still kill.
fn pack(ts: u64, killer_plus1: u64, phase: u64) -> u64 {
    debug_assert!(ts < 1 << 40, "USTM timestamp overflow");
    debug_assert!(killer_plus1 < 1 << 16);
    ts << 24 | killer_plus1 << 8 | phase
}

fn slot_ts(word: u64) -> u64 {
    word >> 24
}

fn slot_phase(word: u64) -> u64 {
    word & 0xFF
}

fn slot_killer(word: u64) -> Option<usize> {
    let k = (word >> 8) & 0xFFFF;
    (k != 0).then(|| (k - 1) as usize)
}

// An owner word is `[writer slot + 1:8 | reader bit per slot:56]`.
const WRITER_SHIFT: u32 = 56;
/// The writer byte of an owner word.
const WRITER: u64 = 0xFF << WRITER_SHIFT;
/// USTM slots an owner word can name: one reader bit each.
const MAX_SLOTS: usize = WRITER_SHIFT as usize;

fn reader_bit(tid: usize) -> u64 {
    debug_assert!(tid < MAX_SLOTS);
    CpuSet::single(tid).bits()
}

fn writer_byte(tid: usize) -> u64 {
    (tid as u64 + 1) << WRITER_SHIFT
}

fn writer_of(word: u64) -> Option<usize> {
    let w = word >> WRITER_SHIFT;
    (w != 0).then(|| (w - 1) as usize)
}

/// A published redo record: `(word addr, value)` pairs in commit order.
type RedoRecord = Vec<(u64, u64)>;

/// The TL2 stripes of `record`'s words into `out`, ascending and
/// deduplicated: the order both write ownership and the stripe locks
/// are taken in.
fn record_stripes(heap: &NativeTl2, record: &[(u64, u64)], out: &mut Vec<usize>) {
    out.clear();
    out.extend(record.iter().map(|&(a, _)| heap.stripe_of(Addr(a))));
    out.sort_unstable();
    out.dedup();
}

/// Shared native USTM state: the owner words, the per-thread status
/// slots, and the timestamp source. Operates over the word heap of a
/// [`NativeTl2`] (the two paths of the hybrid share one heap).
#[derive(Debug)]
pub struct NativeUstm {
    /// One word per stripe of the heap's lock table, indexed like it
    /// (module docs, "Ownership"); changed only with `SeqCst`
    /// read-modify-writes. A fast-path commit loads it for each stripe it
    /// holds ([`NativeUstm::is_owned`]). Not beside the lock word: a
    /// co-located pair measured slower on the single-worker rows.
    owners: Box<[AtomicU64]>,
    /// One line per slot: a transaction rewrites its own at begin, seal
    /// and retire, and reads it at every access.
    slots: Box<[Padded<AtomicU64>]>,
    next_ts: Padded<AtomicU64>,
    /// Per-thread published redo records `(word addr, value)`, written
    /// *before* the seal CAS so that a committer that dies sealed leaves
    /// everything a helper needs to finish its write-back. Only the
    /// owner writes its slot while alive; helpers read it only after
    /// winning the `PHASE_REAPING` CAS on a dead owner, so the two never
    /// race.
    records: Box<[Mutex<RedoRecord>]>,
    poison_recovered: AtomicU64,
    helper_completions: AtomicU64,
    orphan_releases: AtomicU64,
}

impl NativeUstm {
    /// Creates an owner word per stripe of `heap`'s lock table and status
    /// slots for `threads` transaction handles. Use it over `heap` only.
    ///
    /// # Panics
    ///
    /// Panics if `threads` exceeds the 56 slots an owner word can name.
    #[must_use]
    pub fn new(heap: &NativeTl2, threads: usize) -> Self {
        assert!(
            threads <= MAX_SLOTS,
            "at most {MAX_SLOTS} USTM slots: an owner word has one reader bit each"
        );
        NativeUstm {
            owners: (0..heap.stripes()).map(|_| AtomicU64::new(0)).collect(),
            slots: (0..threads).map(|_| Padded::default()).collect(),
            next_ts: Padded::default(),
            records: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
            poison_recovered: AtomicU64::new(0),
            helper_completions: AtomicU64::new(0),
            orphan_releases: AtomicU64::new(0),
        }
    }

    /// Whether any slow-path transaction owns stripe `s`, for read or
    /// write: the probe a fast-path commit (or a hybrid plain store) makes
    /// for each stripe it is about to write, holding it. One load.
    ///
    /// `SeqCst` against the owning side's `SeqCst` RMW of the same word,
    /// which precedes its look at the stripe: of a slow owner registering
    /// and a fast commit locking concurrently, at least one sees the other.
    #[inline]
    pub(crate) fn is_owned(&self, s: usize) -> bool {
        self.owners[s].load(Ordering::SeqCst) != 0
    }

    /// Drops whatever ownership `tid` holds of stripe `s`: its reader bit,
    /// and the writer byte if it is `tid`'s. Only `tid` sets its writer
    /// byte, and only `tid` — or the reaper of a dead `tid` — clears it, so
    /// a relaxed look decides whether the byte goes too.
    fn disown(&self, s: usize, tid: usize) {
        let word = &self.owners[s];
        let mut mine = reader_bit(tid);
        if writer_of(word.load(Ordering::Relaxed)) == Some(tid) {
            mine |= WRITER;
        }
        word.fetch_and(!mine, Ordering::SeqCst);
    }

    /// Stripes some slow-path transaction owns — test observability (the
    /// name is from when ownership was per line).
    #[must_use]
    pub fn owned_lines(&self) -> usize {
        self.owners
            .iter()
            .filter(|w| w.load(Ordering::SeqCst) != 0)
            .count()
    }

    /// Redo-record poison recoveries so far.
    #[must_use]
    pub fn poison_recovered(&self) -> u64 {
        self.poison_recovered.load(Ordering::Relaxed)
    }

    /// Sealed redo records of dead committers finished by helpers.
    #[must_use]
    pub fn helper_completions(&self) -> u64 {
        self.helper_completions.load(Ordering::Relaxed)
    }

    /// Unsealed dead transactions whose ownerships were swept.
    #[must_use]
    pub fn orphan_releases(&self) -> u64 {
        self.orphan_releases.load(Ordering::Relaxed)
    }

    /// Consistency audit of the owner words, for quiescence (torture
    /// tests, the benchmark's phase boundaries): every owner a word names,
    /// reader or writer, has a status slot, and that slot has not retired
    /// — ownership is released before the slot retires, and a conflicting
    /// owner's age is read from it.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn audit(&self) -> Result<(), String> {
        for (s, word) in self.owners.iter().enumerate() {
            let w = word.load(Ordering::SeqCst);
            let readers = (0..MAX_SLOTS).filter(|&t| w & reader_bit(t) != 0);
            for t in readers.chain(writer_of(w)) {
                let Some(slot) = self.slots.get(t) else {
                    return Err(format!("stripe {s}: owner {t} has no slot"));
                };
                if slot_phase(slot.load(Ordering::SeqCst)) == PHASE_INACTIVE {
                    return Err(format!("stripe {s}: owner {t}'s slot has retired"));
                }
            }
        }
        Ok(())
    }

    /// Removes every ownership `victim` holds.
    fn sweep_owner(&self, victim: usize) {
        for (s, word) in self.owners.iter().enumerate() {
            let w = word.load(Ordering::SeqCst);
            if w & reader_bit(victim) != 0 || writer_of(w) == Some(victim) {
                self.disown(s, victim);
            }
        }
    }

    /// One waiting round on stripe `s`, seen held as `held`, of a
    /// slow-path transaction or a hybrid plain accessor: a dead TL2
    /// owner's lock is stolen, a dead sealed committer is
    /// helper-completed (only that may release its stripes), and anyone
    /// else is given the core.
    pub(crate) fn stripe_round(&self, heap: &NativeTl2, s: usize, held: u64) {
        if let Some(dead) = heap.dead_sealed_holder(s, held) {
            self.reclaim_dead(heap, dead);
        }
        std::thread::yield_now();
    }

    /// Everything a commit does once sealed, for `owner`'s redo `record`
    /// (ascending addresses) over its `stripes` ([`record_stripes`]) — run
    /// by the committer itself or by the helper completing it after its
    /// death; `strikes` says whether the two failpoints below fire (an
    /// ordinary committer's do; a helper's and the eldest transaction's do
    /// not). To everyone on the fast path this is a TL2 writer: take the
    /// stripes in ascending order, draw `wv = clock + 1` without moving the
    /// clock, open the strong-atomicity window, write back through the
    /// shadow view, release the stripes at `wv`. Fast readers order against
    /// it by ordinary read-set validation; fast committers fail their
    /// single-shot CAS. Returns the rounds spent waiting for stripes.
    ///
    /// Acquisition spins, and terminates: a TL2 holder's own acquisition
    /// is single-shot, so it releases without waiting for anyone; a sealed
    /// holder waits for nothing but stripes, in the same ascending order;
    /// a dead holder is dealt with by [`NativeUstm::stripe_round`]. A
    /// stripe already stamped for `owner` is inherited from the corpse —
    /// a helper replays under **every** stripe of the record, the ones it
    /// takes stamped the same way, so nothing of a sealed record is ever
    /// visible half-written. `wv` is drawn only once the last of them is
    /// held, which is what lets the clock stay where it is.
    ///
    /// The committer's failpoints both fire with every stripe held, the
    /// window open and nothing stored yet: a delay stalls it with the
    /// public view protected (the race the plain-access tests drive); a
    /// panic leaves the sealed record to helper-completion — the window
    /// guard ends the window on the way out, the pages it closed reopen on
    /// the next plain touch like any others, and the stripes stay held
    /// until the helper has replayed the record.
    fn publish_sealed(
        &self,
        heap: &NativeTl2,
        owner: usize,
        record: &[(u64, u64)],
        stripes: &[usize],
        strikes: bool,
    ) -> u64 {
        let stamp = heap.slow_stamp(owner);
        let mut waits = 0;
        for &s in stripes {
            loop {
                let word = heap.stripe_word(s);
                if word == stamp || (word & HELD == 0 && heap.lock_stripe(s, word, stamp)) {
                    break;
                }
                if word & HELD != 0 {
                    waits += 1;
                    self.stripe_round(heap, s, word);
                }
            }
        }
        let wv = heap.draw_wv();
        {
            let chaos = strikes.then(|| (heap.chaos(), owner));
            let _win = heap
                .heap()
                .open_window(record.iter().map(|&(a, _)| (a / 8) as usize), chaos);
            if strikes {
                let _ = heap.chaos().strike(owner, FailSite::UstmSealed);
            }
            for &(a, v) in record {
                heap.heap()
                    .shadow_word((a / 8) as usize)
                    .store(v, Ordering::Release);
            }
        }
        for &s in stripes {
            heap.release_stripe(s, wv);
        }
        waits
    }

    /// Reclaims everything a **dead** worker left behind: a sealed
    /// (`COMMITTING`) transaction is *helper-completed* — its published
    /// redo record is replayed exactly as its owner would have, under
    /// every stripe of the record and through a fresh guard window
    /// (idempotent: the full record is replayed even if the dead
    /// committer had already stored some of it) — while an unsealed
    /// (`ACTIVE`) one is simply discarded; in both cases its ownerships
    /// are swept and its status slot retired.
    ///
    /// Racing helpers serialize on a `COMMITTING/ACTIVE → REAPING` CAS:
    /// the winner does the work, losers wait for the slot to retire.
    /// Callers must only name a victim that the liveness registry has
    /// marked dead (i.e. its body has actually unwound).
    pub fn reclaim_dead(&self, heap: &NativeTl2, victim: usize) {
        debug_assert!(
            heap.liveness().is_dead(victim),
            "reclaiming a live worker's ownerships"
        );
        loop {
            let cur = self.slots[victim].load(Ordering::SeqCst);
            let ts = slot_ts(cur);
            match slot_phase(cur) {
                PHASE_COMMITTING => {
                    if self.slots[victim]
                        .compare_exchange(
                            cur,
                            pack(ts, 0, PHASE_REAPING),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_err()
                    {
                        continue;
                    }
                    let record: Vec<(u64, u64)> = self.lock_record(victim).clone();
                    let mut stripes = Vec::new();
                    record_stripes(heap, &record, &mut stripes);
                    self.publish_sealed(heap, victim, &record, &stripes, false);
                    self.sweep_owner(victim);
                    self.slots[victim].store(0, Ordering::SeqCst);
                    self.helper_completions.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                PHASE_ACTIVE => {
                    if self.slots[victim]
                        .compare_exchange(
                            cur,
                            pack(ts, 0, PHASE_REAPING),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_err()
                    {
                        continue;
                    }
                    self.sweep_owner(victim);
                    self.slots[victim].store(0, Ordering::SeqCst);
                    self.orphan_releases.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                PHASE_REAPING => {
                    // Another helper won; wait for it to retire the slot.
                    while slot_phase(self.slots[victim].load(Ordering::SeqCst)) == PHASE_REAPING {
                        std::thread::yield_now();
                    }
                    return;
                }
                _ => {
                    // INACTIVE: the victim died between transactions.
                    // Sweep anyway — idempotent, and it catches any
                    // leftovers from exotic unwind paths.
                    self.sweep_owner(victim);
                    return;
                }
            }
        }
    }

    /// Locks `tid`'s redo record — the slow path's one mutex — recovering
    /// from poison instead of cascading the panic of a worker that died
    /// holding it (possible only at an injected failpoint or a genuine bug
    /// outside the protocol's own critical sections, which contain no
    /// panics). The record is rewritten whole before every seal, so
    /// recovery is safe and the event is just counted.
    fn lock_record(&self, tid: usize) -> MutexGuard<'_, RedoRecord> {
        let (rec, recovered) = lock_recover(&self.records[tid]);
        if recovered {
            self.poison_recovered.fetch_add(1, Ordering::Relaxed);
        }
        rec
    }

    /// Test scaffolding: deliberately poisons `tid`'s redo record,
    /// reproducing the cascade the poison-tolerant record defends against.
    #[doc(hidden)]
    #[expect(
        clippy::disallowed_methods,
        reason = "poisons the record on purpose; the lock result is dropped, never unwrapped"
    )]
    pub fn debug_poison_record(&self, tid: usize) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = self.records[tid].lock();
            panic!("deliberate record poison (test scaffolding)");
        }));
    }

    /// Test scaffolding: sets `bits` in the owner word of `addr`'s stripe,
    /// as if some transaction had taken ownership, so audit tests can
    /// plant what no transaction leaves.
    #[doc(hidden)]
    pub fn debug_set_owner_bits(&self, heap: &NativeTl2, addr: Addr, bits: u64) {
        self.owners[heap.stripe_of(addr)].fetch_or(bits, Ordering::SeqCst);
    }
}

/// Per-handle USTM event counters (native analogue of `UstmStats`, with
/// aborts split by [`UstmAbort`] class).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NativeUstmStats {
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Aborts because an older transaction killed this one.
    pub aborts_killed: u64,
    /// Explicit aborts requested by the body.
    pub aborts_explicit: u64,
    /// Kill requests this handle delivered to younger conflictors.
    pub kills_issued: u64,
    /// Stall iterations spent waiting for a conflicting owner to
    /// release (each is one yield/retry round).
    pub stalls: u64,
    /// Rounds spent waiting for a TL2 stripe to be released: by a reader
    /// before it trusts a line it has just taken ownership of, or by a
    /// sealed committer taking the stripes of its write lines.
    pub stripe_waits: u64,
}

impl NativeUstmStats {
    /// Total aborts across classes.
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.aborts_killed + self.aborts_explicit
    }

    /// Folds another handle's counters into this one. Exhaustive
    /// destructuring: adding a field without summing it here is a
    /// compile error.
    pub fn merge(&mut self, other: &NativeUstmStats) {
        let NativeUstmStats {
            begins,
            commits,
            aborts_killed,
            aborts_explicit,
            kills_issued,
            stalls,
            stripe_waits,
        } = *other;
        self.begins += begins;
        self.commits += commits;
        self.aborts_killed += aborts_killed;
        self.aborts_explicit += aborts_explicit;
        self.kills_issued += kills_issued;
        self.stalls += stalls;
        self.stripe_waits += stripe_waits;
    }
}

/// A per-thread USTM transaction handle — the native mirror of
/// [`UstmTxn`](ufotm_ustm::UstmTxn), usable step by step
/// (begin/read/write/commit) by protocol tests and the cross-validation
/// scripts, or through the retry loop of the hybrid's slow path.
#[derive(Debug)]
pub struct NativeUstmTxn<'a> {
    heap: &'a NativeTl2,
    ustm: &'a NativeUstm,
    tid: usize,
    ts: u64,
    /// Stripes this transaction holds read ownership of.
    reads: Vec<usize>,
    /// The redo log, published at commit.
    writes: WriteSet,
    /// Stripes write-acquired so far during commit that are not in
    /// `reads` (a stripe in both is released once, through `reads`).
    write_owned: Vec<usize>,
    /// Commit scratch: the redo log's stripes, ascending and deduplicated.
    stripes: Vec<usize>,
    active: bool,
    last_killer: Option<usize>,
    /// Event counters for this handle.
    pub stats: NativeUstmStats,
}

impl<'a> NativeUstmTxn<'a> {
    /// Creates a handle for thread `tid` over `heap`'s words and
    /// `ustm`'s owner words.
    ///
    /// # Panics
    ///
    /// Panics if `tid` has no status slot in `ustm`.
    #[must_use]
    pub fn new(heap: &'a NativeTl2, ustm: &'a NativeUstm, tid: usize) -> Self {
        assert!(tid < ustm.slots.len(), "tid {tid} has no USTM status slot");
        assert!(
            tid < crate::chaos::MAX_WORKERS,
            "tid {tid} exceeds the liveness registry"
        );
        heap.liveness().revive(tid);
        NativeUstmTxn {
            heap,
            ustm,
            tid,
            ts: 0,
            reads: Vec::new(),
            writes: WriteSet::default(),
            write_owned: Vec::new(),
            stripes: Vec::new(),
            active: false,
            last_killer: None,
            stats: NativeUstmStats::default(),
        }
    }

    /// Whether a transaction is active on this handle.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn my_slot(&self) -> &AtomicU64 {
        &self.ustm.slots[self.tid]
    }

    /// Goes `ACTIVE` at timestamp `ts` with empty sets.
    fn start(&mut self, ts: u64) {
        assert!(!self.active, "nested native transactions are not supported");
        self.ts = ts;
        self.my_slot()
            .store(pack(ts, 0, PHASE_ACTIVE), Ordering::SeqCst);
        self.reads.clear();
        self.writes.clear();
        self.write_owned.clear();
        self.last_killer = None;
        self.active = true;
    }

    /// Begins a transaction: draws a fresh (nonzero) timestamp and goes
    /// `ACTIVE`.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active.
    pub fn begin(&mut self) {
        self.start(self.ustm.next_ts.fetch_add(1, Ordering::SeqCst) + 1);
        self.stats.begins += 1;
    }

    /// Begins the *eldest* transaction (module docs, "The eldest
    /// transaction"): `ACTIVE` at `ELDEST_TS`, counted in neither
    /// `begins` nor `commits`. The caller must hold whatever makes it the
    /// only one — the hybrid's serial gate; the step explorer has a single
    /// slow handle.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active.
    #[doc(hidden)]
    pub fn begin_eldest(&mut self) {
        self.start(ELDEST_TS);
    }

    /// Whether the active transaction is the eldest one.
    fn is_eldest(&self) -> bool {
        self.ts == ELDEST_TS
    }

    /// If an older transaction has killed this one, who.
    fn doomed(&self) -> Option<usize> {
        slot_killer(self.my_slot().load(Ordering::SeqCst))
    }

    /// Releases every ownership this transaction holds, one RMW per
    /// stripe.
    fn release_ownership(&mut self) {
        for &s in self.reads.iter().chain(&self.write_owned) {
            self.ustm.disown(s, self.tid);
        }
        self.reads.clear();
        self.write_owned.clear();
    }

    /// Unwinds a killed transaction: release ownership, drop the redo
    /// log, retire the slot, record the killer for
    /// [`NativeUstmTxn::wait_for_killer`].
    fn unwind_killed(&mut self, by: usize) -> UstmAbort {
        self.release_ownership();
        self.writes.clear();
        self.my_slot().store(0, Ordering::SeqCst);
        self.active = false;
        self.last_killer = Some(by);
        self.stats.aborts_killed += 1;
        UstmAbort::Killed { by }
    }

    /// Explicitly aborts and rolls back the transaction, returning the
    /// [`UstmAbort::Explicit`] classification (mirrors the simulated
    /// `UstmTxn::abort_explicit`).
    pub fn abort_explicit(&mut self) -> UstmAbort {
        debug_assert!(self.active);
        self.release_ownership();
        self.writes.clear();
        self.my_slot().store(0, Ordering::SeqCst);
        self.active = false;
        self.stats.aborts_explicit += 1;
        UstmAbort::Explicit
    }

    /// Requests a kill of `victim`, whose status slot was just seen as
    /// `seen`, if it is still `ACTIVE` and unkilled. A sealed
    /// (`COMMITTING`) victim cannot be killed — the caller stalls behind it
    /// instead, exactly like the simulator's attacker stalling on a
    /// committing transaction.
    fn issue_kill(&mut self, victim: usize, seen: u64) {
        let victim_ts = slot_ts(seen);
        debug_assert!(victim_ts > self.ts, "only younger transactions are killed");
        if seen == pack(victim_ts, 0, PHASE_ACTIVE)
            && self.ustm.slots[victim]
                .compare_exchange(
                    seen,
                    pack(victim_ts, self.tid as u64 + 1, PHASE_ACTIVE),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
        {
            self.stats.kills_issued += 1;
        }
        // CAS failure means the victim is already killed, sealed, or
        // gone — in every case the caller just waits for its ownership
        // to clear.
    }

    /// One round of a conflict with `other`, an owner in the way: kill it
    /// if it is younger, then stall — behind a younger owner until it
    /// unwinds, behind an older or sealed one until it retires. Its age
    /// comes from its status slot, which holds it for as long as it owns
    /// anything; a retired slot means the ownership is already gone, and
    /// the caller's next look sees so.
    fn resolve(&mut self, other: usize) {
        let seen = self.ustm.slots[other].load(Ordering::SeqCst);
        if slot_phase(seen) != PHASE_INACTIVE && slot_ts(seen) > self.ts {
            self.issue_kill(other, seen);
        }
        self.unblock_if_dead(other);
        self.stats.stalls += 1;
        std::thread::yield_now();
    }

    /// If the owner this transaction is stalled behind has died, reclaim
    /// its leavings (helper-complete a sealed record, discard an
    /// unsealed one) so the stall loop can make progress instead of
    /// spinning on a ghost forever.
    fn unblock_if_dead(&self, blocker: usize) {
        if self.heap.liveness().is_dead(blocker) {
            self.ustm.reclaim_dead(self.heap, blocker);
        }
    }

    /// Acquires read ownership of stripe `s`: one `fetch_or` of this
    /// transaction's bit, taken back if a writer already owns the stripe.
    fn acquire_read(&mut self, s: usize) -> Result<(), UstmAbort> {
        let me = reader_bit(self.tid);
        let word = &self.ustm.owners[s];
        loop {
            if let Some(by) = self.doomed() {
                return Err(self.unwind_killed(by));
            }
            let Some(writer) = writer_of(word.fetch_or(me, Ordering::SeqCst)) else {
                return Ok(());
            };
            debug_assert_ne!(writer, self.tid, "read under own write ownership");
            word.fetch_and(!me, Ordering::SeqCst);
            self.resolve(writer);
        }
    }

    /// Having just registered as a reader of a line, waits until the
    /// stripe `s` is unlocked. A fast commit that locked the stripe before
    /// the registration became visible may still be writing its lines; one
    /// that locks it afterwards sees the ownership and aborts (see
    /// [`NativeUstm::is_owned`]). So from here until release the stripe's
    /// lines are stable, and later reads of them check nothing.
    fn await_stripe(&mut self, s: usize) -> Result<(), UstmAbort> {
        loop {
            let word = self.heap.stripe_word(s);
            if word & HELD == 0 {
                return Ok(());
            }
            if let Some(by) = self.doomed() {
                return Err(self.unwind_killed(by));
            }
            self.stats.stripe_waits += 1;
            self.ustm.stripe_round(self.heap, s, word);
        }
    }

    /// Acquires write ownership of stripe `s` (commit path): one CAS of
    /// the writer byte into a word no other transaction owns. Kills
    /// younger conflicting owners, stalls behind older ones.
    fn acquire_write(&mut self, s: usize) -> Result<(), UstmAbort> {
        let me = reader_bit(self.tid);
        let word = &self.ustm.owners[s];
        loop {
            if let Some(by) = self.doomed() {
                return Err(self.unwind_killed(by));
            }
            let cur = word.load(Ordering::SeqCst);
            let other = match writer_of(cur) {
                Some(writer) => {
                    debug_assert_ne!(writer, self.tid, "double write acquisition");
                    writer
                }
                None if cur & !me == 0 => {
                    if word
                        .compare_exchange(
                            cur,
                            cur | writer_byte(self.tid),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        // A stripe this transaction has read is released
                        // once, through `reads`: `disown` clears both.
                        if cur & me == 0 {
                            self.write_owned.push(s);
                        }
                        return Ok(());
                    }
                    continue;
                }
                None => (cur & !me).trailing_zeros() as usize,
            };
            self.resolve(other);
        }
    }

    /// Transactional read: redo log first, then — on the first read of a
    /// stripe — eager read-ownership acquisition and a wait for the
    /// stripe's TL2 lock, then a shadow-view load.
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if an older transaction killed this one —
    /// the transaction has already been rolled back.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> Result<u64, UstmAbort> {
        debug_assert!(self.active);
        if !self.is_eldest() && self.heap.chaos().strike(self.tid, FailSite::UstmRead) {
            return Err(self.abort_explicit());
        }
        if let Some(by) = self.doomed() {
            return Err(self.unwind_killed(by));
        }
        if let Some(v) = self.writes.get(addr) {
            return Ok(v);
        }
        let w = self.heap.word_index(addr);
        let s = self.heap.stripe_of(addr);
        if !self.reads.contains(&s) {
            self.acquire_read(s)?;
            self.reads.push(s);
            self.await_stripe(s)?;
        }
        Ok(self.heap.heap().shadow_word(w).load(Ordering::Acquire))
    }

    /// Transactional write: buffers into the redo log (lazy versioning;
    /// ownership is taken at commit).
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if a kill has landed (checked so a doomed
    /// writer-loop cannot starve its killer).
    #[inline]
    pub fn write(&mut self, addr: Addr, value: u64) -> Result<(), UstmAbort> {
        debug_assert!(self.active);
        if let Some(by) = self.doomed() {
            return Err(self.unwind_killed(by));
        }
        let _ = self.heap.word_index(addr); // bounds-check now, not at publish
        self.writes.insert(addr, value);
        Ok(())
    }

    /// Transactionally allocates `words` fresh words from the shared
    /// bump allocator (aborted attempts leak, as on the TL2 path).
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if a kill has landed.
    pub fn alloc(&mut self, words: u64) -> Result<Addr, UstmAbort> {
        debug_assert!(self.active);
        if let Some(by) = self.doomed() {
            return Err(self.unwind_killed(by));
        }
        Ok(self.heap.alloc_words(words))
    }

    /// In-transaction compute: spins, then checks for an asynchronous
    /// kill (the native analogue of the simulator delivering a kill
    /// during cycle-charged work).
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if a kill landed while computing.
    pub fn work(&mut self, cycles: u64) -> Result<(), UstmAbort> {
        debug_assert!(self.active);
        spin_work(cycles);
        if let Some(by) = self.doomed() {
            return Err(self.unwind_killed(by));
        }
        Ok(())
    }

    /// Commits: sorted-order write acquisition → seal → TL2 stripes →
    /// `wv = clock + 1` → guard window → shadow write-back → stripe release →
    /// ownership release → retire.
    ///
    /// # Errors
    ///
    /// [`UstmAbort::Killed`] if an older transaction killed this one
    /// before the seal; the transaction has been rolled back.
    pub fn commit(&mut self) -> Result<(), UstmAbort> {
        debug_assert!(self.active);
        // Phase 1: acquire write ownership in canonical (ascending)
        // stripe order. Acquisition happens while still ACTIVE (killable),
        // so an older committer can always break a would-be deadlock by
        // killing us out of our acquisition loop.
        record_stripes(self.heap, self.writes.as_slice(), &mut self.stripes);
        for i in 0..self.stripes.len() {
            self.acquire_write(self.stripes[i])?;
        }
        // Ownerships held, not yet sealed: a forced abort (or injected
        // panic) here still unwinds as a plain ACTIVE rollback.
        let strikes = !self.is_eldest();
        if strikes && self.heap.chaos().strike(self.tid, FailSite::UstmCommit) {
            return Err(self.abort_explicit());
        }
        if !self.writes.is_empty() {
            // Publish the redo record *before* sealing: once sealed, this
            // transaction is unkillable and everyone stalls behind it, so
            // if it dies a helper must be able to finish the write-back
            // from this record alone.
            {
                let mut rec = self.ustm.lock_record(self.tid);
                rec.clear();
                rec.extend_from_slice(self.writes.as_slice());
            }
            // Phase 2: seal. After this CAS no kill can land (killers
            // observe COMMITTING and stall until we retire).
            if self
                .my_slot()
                .compare_exchange(
                    pack(self.ts, 0, PHASE_ACTIVE),
                    pack(self.ts, 0, PHASE_COMMITTING),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_err()
            {
                let by = self
                    .doomed()
                    .expect("seal failed without a recorded killer");
                return Err(self.unwind_killed(by));
            }
            // Phase 3: stripes, `wv`, window, write-back, release. Plain
            // accesses to these pages fault and re-execute after the
            // window; USTM readers are excluded by ownership; the TL2 fast
            // path sees a TL2 writer.
            self.stats.stripe_waits += self.ustm.publish_sealed(
                self.heap,
                self.tid,
                self.writes.as_slice(),
                &self.stripes,
                strikes,
            );
        }
        // A read-only transaction skips seal and write-back: its reads
        // were protected by read ownership the whole time, so even a
        // kill flag that lands at this instant cannot invalidate them —
        // the commit serializes before the killer's write.
        self.release_ownership();
        self.my_slot().store(0, Ordering::SeqCst);
        self.writes.clear();
        self.active = false;
        // The eldest transaction is its caller's to count (`begin_eldest`).
        if !self.is_eldest() {
            self.stats.commits += 1;
        }
        Ok(())
    }

    /// After an `Err(Killed)`, waits until the killer transaction has
    /// advanced (retired or changed state) before the caller retries —
    /// the native mirror of the simulated `UstmTxn::wait_for_killer`,
    /// which stops a freshly-killed victim from immediately re-attacking
    /// the older transaction that killed it.
    ///
    /// "Advanced" is judged by the killer's slot word changing, and every
    /// eldest transaction of one worker writes the same words (its
    /// timestamp is a constant). A victim of the eldest that is descheduled
    /// across the gap between two of them therefore wakes to an unchanged
    /// word and waits out the second as well: a delay, never a wedge —
    /// the victim owns nothing while it waits here, so every eldest
    /// transaction still terminates and the word does change.
    pub fn wait_for_killer(&mut self) {
        let Some(k) = self.last_killer.take() else {
            return;
        };
        let slot = &self.ustm.slots[k];
        let s0 = slot.load(Ordering::SeqCst);
        if slot_phase(s0) == PHASE_INACTIVE {
            return;
        }
        while slot.load(Ordering::SeqCst) == s0 {
            // A killer that died before retiring would otherwise park
            // this victim forever; reclaiming it advances the slot.
            if self.heap.liveness().is_dead(k) {
                self.ustm.reclaim_dead(self.heap, k);
                return;
            }
            std::thread::yield_now();
        }
    }

    /// One single-shot attempt: begin, run `body`, commit. `Some(r)` iff
    /// the body returned `Ok(r)` **and** the commit succeeded. A failed
    /// attempt is rolled back (explicitly, if the body surfaced its own
    /// error with the transaction still live) and, if it was killed,
    /// parks behind its killer before returning — so callers just loop,
    /// as the hybrid's slow path does.
    #[inline]
    pub fn attempt<R, E>(
        &mut self,
        body: impl FnOnce(&mut NativeUstmTxn<'a>) -> Result<R, E>,
    ) -> Option<R> {
        self.begin();
        self.finish_attempt(body)
    }

    /// [`NativeUstmTxn::attempt`] as the eldest transaction (see
    /// [`NativeUstmTxn::begin_eldest`] for what the caller must hold).
    /// Nobody can abort it, so `None` means the body returned its own
    /// `Err`.
    pub(crate) fn attempt_eldest<R, E>(
        &mut self,
        body: impl FnOnce(&mut NativeUstmTxn<'a>) -> Result<R, E>,
    ) -> Option<R> {
        self.begin_eldest();
        self.finish_attempt(body)
    }

    /// The rest of an attempt once begun: body, commit or rollback, and
    /// the wait behind a killer.
    #[inline]
    fn finish_attempt<R, E>(
        &mut self,
        body: impl FnOnce(&mut NativeUstmTxn<'a>) -> Result<R, E>,
    ) -> Option<R> {
        let committed = match body(self) {
            Ok(r) => self.commit().is_ok().then_some(r),
            Err(_) => {
                if self.active {
                    let _ = self.abort_explicit();
                }
                None
            }
        };
        if committed.is_none() {
            // No-op unless this attempt ended in `Killed`.
            self.wait_for_killer();
        }
        committed
    }
}

impl TxScope for NativeUstmTxn<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Stop> {
        NativeUstmTxn::read(self, addr).map_err(|_| Stop)
    }

    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Stop> {
        NativeUstmTxn::write(self, addr, value).map_err(|_| Stop)
    }

    fn alloc(&mut self, words: u64) -> Result<Addr, Stop> {
        NativeUstmTxn::alloc(self, words).map_err(|_| Stop)
    }

    fn work(&mut self, cycles: u64) -> Result<(), Stop> {
        NativeUstmTxn::work(self, cycles).map_err(|_| Stop)
    }
}
