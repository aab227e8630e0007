//! Seeded failpoint engine and worker-liveness registry for the native
//! substrate.
//!
//! The simulator earned its robustness through a deterministic chaos engine;
//! real threads cannot be single-stepped, so this module takes the next-best
//! approach: **named injection points** threaded through the TL2, USTM and
//! guard layers, each of which may — driven by a per-run seed — force an
//! abort, stall the caller, or panic the worker outright. Torture tests sweep
//! seeds and failpoint mixes; a failing cell echoes its seed so the schedule
//! replays.
//!
//! The module also owns the [`Liveness`] registry: a per-worker dead flag and
//! ownership epoch. Runners mark a worker dead the moment its body unwinds
//! (`catch_unwind`), which makes death *precise* — survivors only reclaim
//! locks whose stamped owner has actually terminated, never one that is
//! merely slow. Epochs guard against tid reuse: a stolen lock stamped with
//! a stale epoch is never confused with the reincarnated worker's fresh locks.

use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use ufotm_machine::splitmix64;

/// Maximum worker threads tracked by the liveness registry (tids `0..256`).
pub const MAX_WORKERS: usize = 256;

/// Named failpoint sites threaded through the native stack.
///
/// Each site records whether a deliberate worker panic there is *sound to
/// recover from* (`panic_safe`) and whether a forced abort is meaningful
/// (`abort_capable`). The asymmetry is deliberate: a TL2 committer that dies
/// mid-publication has already torn the heap with no redo record to finish
/// from, so `Tl2WriteBack` is delay-only; a USTM committer publishes its
/// sealed redo record *before* write-back, so panics inside the commit window
/// are recoverable by helper-completion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailSite {
    /// TL2 transactional read (pre/post lock sampling).
    Tl2Read,
    /// TL2 commit, before any stripe lock is acquired.
    Tl2Commit,
    /// TL2 commit, stripe locks held, read set not yet validated.
    Tl2LockHeld,
    /// TL2 commit, mid write-back. Delay-only: a panic here would tear.
    Tl2WriteBack,
    /// USTM transactional read.
    UstmRead,
    /// USTM commit, ownerships acquired, not yet sealed.
    UstmCommit,
    /// USTM commit, sealed (`COMMITTING`), inside the guard window.
    UstmSealed,
    /// Guard commit window, right after protection was raised.
    GuardWindow,
}

/// Number of distinct failpoint sites.
pub const SITES: usize = 8;

impl FailSite {
    /// All sites, in index order.
    pub const ALL: [FailSite; SITES] = [
        FailSite::Tl2Read,
        FailSite::Tl2Commit,
        FailSite::Tl2LockHeld,
        FailSite::Tl2WriteBack,
        FailSite::UstmRead,
        FailSite::UstmCommit,
        FailSite::UstmSealed,
        FailSite::GuardWindow,
    ];

    /// Dense index of this site.
    pub fn index(self) -> usize {
        match self {
            FailSite::Tl2Read => 0,
            FailSite::Tl2Commit => 1,
            FailSite::Tl2LockHeld => 2,
            FailSite::Tl2WriteBack => 3,
            FailSite::UstmRead => 4,
            FailSite::UstmCommit => 5,
            FailSite::UstmSealed => 6,
            FailSite::GuardWindow => 7,
        }
    }

    /// Short stable name, echoed in panic payloads and reports.
    pub fn name(self) -> &'static str {
        match self {
            FailSite::Tl2Read => "tl2-read",
            FailSite::Tl2Commit => "tl2-commit",
            FailSite::Tl2LockHeld => "tl2-lock-held",
            FailSite::Tl2WriteBack => "tl2-write-back",
            FailSite::UstmRead => "ustm-read",
            FailSite::UstmCommit => "ustm-commit",
            FailSite::UstmSealed => "ustm-sealed",
            FailSite::GuardWindow => "guard-window",
        }
    }

    /// Whether a deliberate worker panic at this site is recoverable by the
    /// reclamation machinery (steal for TL2 pre-publication sites,
    /// helper-completion for sealed USTM records).
    pub fn panic_safe(self) -> bool {
        !matches!(self, FailSite::Tl2WriteBack)
    }

    /// Whether a forced abort at this site is meaningful (the transaction can
    /// still retry cleanly).
    pub fn abort_capable(self) -> bool {
        matches!(
            self,
            FailSite::Tl2Read
                | FailSite::Tl2Commit
                | FailSite::Tl2LockHeld
                | FailSite::UstmRead
                | FailSite::UstmCommit
        )
    }
}

/// A one-shot deliberate panic: kill the worker whose `tid` matches (or any
/// worker if `None`) the `hit`-th time it reaches `site` (1-based).
#[derive(Clone, Copy, Debug)]
pub struct PanicAt {
    /// Injection site to die at.
    pub site: FailSite,
    /// Victim tid, or `None` for whichever worker arrives at the hit count.
    pub tid: Option<usize>,
    /// 1-based hit count on that site's per-stream counter.
    pub hit: u64,
}

/// A declarative, seed-driven chaos schedule for one run.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Per-run seed; echo it on failure to replay the schedule.
    pub seed: u64,
    /// Forced-abort probability per site, in per-mil (`0..=1000`).
    pub abort_pmil: [u16; SITES],
    /// Delay probability per site, in per-mil (`0..=1000`).
    pub delay_pmil: [u16; SITES],
    /// Spin iterations burned when a delay fires.
    pub delay_spins: u32,
    /// One-shot deliberate worker panics.
    pub panics: Vec<PanicAt>,
}

impl ChaosPlan {
    /// No injected faults at all (rates zero, no panics).
    pub fn quiet(seed: u64) -> Self {
        ChaosPlan {
            seed,
            abort_pmil: [0; SITES],
            delay_pmil: [0; SITES],
            delay_spins: 0,
            panics: Vec::new(),
        }
    }

    /// Moderate aborts and delays on every capable site.
    pub fn mixed(seed: u64) -> Self {
        let mut plan = ChaosPlan::quiet(seed);
        for site in FailSite::ALL {
            if site.abort_capable() {
                plan.abort_pmil[site.index()] = 60;
            }
            plan.delay_pmil[site.index()] = 40;
        }
        plan.delay_spins = 400;
        plan
    }

    /// Heavy forced aborts, no delays.
    pub fn abort_storm(seed: u64) -> Self {
        let mut plan = ChaosPlan::quiet(seed);
        for site in FailSite::ALL {
            if site.abort_capable() {
                plan.abort_pmil[site.index()] = 350;
            }
        }
        plan
    }

    /// Add a one-shot worker panic to the schedule.
    pub fn with_panic(mut self, site: FailSite, tid: Option<usize>, hit: u64) -> Self {
        self.panics.push(PanicAt { site, tid, hit });
        self
    }

    /// Check the plan for unsound or out-of-range entries.
    ///
    /// Rejects probabilities above 1000 per-mil, forced aborts on sites that
    /// cannot abort, panics at sites that are not panic-safe, zero hit counts,
    /// and out-of-range victim tids.
    pub fn validate(&self) -> Result<(), String> {
        for site in FailSite::ALL {
            let i = site.index();
            if self.abort_pmil[i] > 1000 || self.delay_pmil[i] > 1000 {
                return Err(format!("{}: per-mil rate above 1000", site.name()));
            }
            if self.abort_pmil[i] > 0 && !site.abort_capable() {
                return Err(format!("{}: site cannot force aborts", site.name()));
            }
        }
        if self.panics.len() > PANIC_SLOTS {
            return Err(format!("more than {PANIC_SLOTS} one-shot panics"));
        }
        for p in &self.panics {
            if !p.site.panic_safe() {
                return Err(format!("{}: panic at this site would tear", p.site.name()));
            }
            if p.hit == 0 || p.hit >= 1 << 40 {
                return Err(format!("{}: hit count out of range", p.site.name()));
            }
            if let Some(tid) = p.tid {
                if tid >= MAX_WORKERS {
                    return Err(format!("{}: tid {tid} out of range", p.site.name()));
                }
            }
        }
        Ok(())
    }
}

/// Payload of a deliberately injected worker panic. Runners downcast this to
/// tell injected deaths from genuine bugs when rendering join outcomes.
#[derive(Clone, Copy, Debug)]
pub struct InjectedPanic {
    /// Name of the failpoint site that fired.
    pub site: &'static str,
    /// Tid of the worker that was killed.
    pub tid: usize,
}

/// Maximum number of one-shot panic points per plan.
const PANIC_SLOTS: usize = 16;

/// Sentinel tid selector meaning "any worker".
const TID_ANY: u64 = 0x3FF;

/// Outcome of [`NativeChaos::strike`] as seen by the caller: `true` means the
/// transaction must treat the strike as a forced abort.
///
/// Shared, lock-free failpoint engine. One instance is owned by the TL2 world
/// and shared (by reference) with the USTM and guard layers.
///
/// `strike` costs a single relaxed load while disarmed, so leaving the engine
/// wired into the hot paths does not move the bench floors.
pub struct NativeChaos {
    armed: AtomicBool,
    seed: AtomicU64,
    abort_pmil: [AtomicU32; SITES],
    delay_pmil: [AtomicU32; SITES],
    delay_spins: AtomicU32,
    /// Packed one-shot panic points: bit 63 live flag, bits 50..54 site,
    /// bits 40..50 tid selector (`TID_ANY` = any), bits 0..40 hit count.
    panic_slots: [AtomicU64; PANIC_SLOTS],
    /// Per-tid splitmix64 state.
    rng: Box<[AtomicU64]>,
    /// Per-(site, tid) hit counters; panic points trigger on exact counts.
    hits: Box<[AtomicU64]>,
    forced_aborts: AtomicU64,
    delays: AtomicU64,
    panics_fired: AtomicU64,
}

impl Default for NativeChaos {
    fn default() -> Self {
        Self::new()
    }
}

impl NativeChaos {
    /// New, disarmed engine. All strikes are no-ops until [`Self::arm`].
    pub fn new() -> Self {
        NativeChaos {
            armed: AtomicBool::new(false),
            seed: AtomicU64::new(0),
            abort_pmil: std::array::from_fn(|_| AtomicU32::new(0)),
            delay_pmil: std::array::from_fn(|_| AtomicU32::new(0)),
            delay_spins: AtomicU32::new(0),
            panic_slots: std::array::from_fn(|_| AtomicU64::new(0)),
            rng: (0..MAX_WORKERS).map(|_| AtomicU64::new(1)).collect(),
            hits: (0..SITES * MAX_WORKERS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            forced_aborts: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            panics_fired: AtomicU64::new(0),
        }
    }

    /// Install `plan` and start striking. Panics if the plan fails
    /// [`ChaosPlan::validate`].
    pub fn arm(&self, plan: &ChaosPlan) {
        if let Err(e) = plan.validate() {
            panic!("invalid chaos plan: {e}");
        }
        self.seed.store(plan.seed, Ordering::Relaxed);
        for i in 0..SITES {
            self.abort_pmil[i].store(u32::from(plan.abort_pmil[i]), Ordering::Relaxed);
            self.delay_pmil[i].store(u32::from(plan.delay_pmil[i]), Ordering::Relaxed);
        }
        self.delay_spins.store(plan.delay_spins, Ordering::Relaxed);
        for (i, slot) in self.panic_slots.iter().enumerate() {
            let word = match plan.panics.get(i) {
                Some(p) => {
                    let tidsel = p.tid.map_or(TID_ANY, |t| t as u64);
                    (1 << 63) | ((p.site.index() as u64) << 50) | (tidsel << 40) | p.hit
                }
                None => 0,
            };
            slot.store(word, Ordering::Relaxed);
        }
        // Seed every stream from the plan seed so schedules replay: stream
        // `s` starts at splitmix64's output `s + 1` from the plan seed, so
        // nearby seeds and streams diverge immediately.
        for (s, cell) in self.rng.iter().enumerate() {
            let mut z = plan
                .seed
                .wrapping_add((s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            cell.store(splitmix64(&mut z), Ordering::Relaxed);
        }
        for h in self.hits.iter() {
            h.store(0, Ordering::Relaxed);
        }
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stop striking. Counters are preserved for [`Self::report`].
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Hit a failpoint from worker `tid`. Returns `true` if the caller must
    /// abort the current transaction; spins in place when a delay fires;
    /// panics the calling thread (payload [`InjectedPanic`]) when a one-shot
    /// panic point matches.
    ///
    /// Inlined, so a disarmed strike is one relaxed load and a branch at
    /// the site; everything an armed one does is out of line.
    #[inline]
    pub fn strike(&self, tid: usize, site: FailSite) -> bool {
        if !self.armed.load(Ordering::Relaxed) {
            return false;
        }
        debug_assert!(tid < MAX_WORKERS);
        self.strike_stream(tid.min(MAX_WORKERS - 1), tid, site)
    }

    #[cold]
    #[inline(never)]
    fn strike_stream(&self, stream: usize, tid: usize, site: FailSite) -> bool {
        let si = site.index();
        let hit = self.hits[si * MAX_WORKERS + stream].fetch_add(1, Ordering::Relaxed) + 1;

        // One-shot panic points fire on exact hit counts, so a replayed seed
        // kills the same worker at the same dynamic instant.
        for slot in &self.panic_slots {
            let word = slot.load(Ordering::Relaxed);
            if word & (1 << 63) == 0 {
                continue;
            }
            let s_site = ((word >> 50) & 0xF) as usize;
            let s_tid = (word >> 40) & TID_ANY;
            let s_hit = word & ((1 << 40) - 1);
            if s_site == si
                && (s_tid == TID_ANY || s_tid == tid as u64)
                && s_hit == hit
                && slot
                    .compare_exchange(word, 0, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                self.panics_fired.fetch_add(1, Ordering::Relaxed);
                panic_any(InjectedPanic {
                    site: site.name(),
                    tid,
                });
            }
        }

        let delay_rate = self.delay_pmil[si].load(Ordering::Relaxed);
        let abort_rate = self.abort_pmil[si].load(Ordering::Relaxed);
        if delay_rate == 0 && abort_rate == 0 {
            return false;
        }
        let draw = self.next_rand(stream) % 1000;
        if (draw as u32) < delay_rate {
            self.delays.fetch_add(1, Ordering::Relaxed);
            let spins = self.delay_spins.load(Ordering::Relaxed);
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
        if (draw as u32) < abort_rate {
            self.forced_aborts.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    fn next_rand(&self, stream: usize) -> u64 {
        // Load, step, store, lock-free: a stream is its worker's, and a
        // helper striking for a dead worker's tid at worst repeats a draw.
        let cell = &self.rng[stream];
        let mut state = cell.load(Ordering::Relaxed);
        let x = splitmix64(&mut state);
        cell.store(state, Ordering::Relaxed);
        x
    }

    /// Snapshot of what the engine actually did this run.
    pub fn report(&self) -> ChaosReport {
        let mut site_hits = [0u64; SITES];
        for (si, out) in site_hits.iter_mut().enumerate() {
            for s in 0..MAX_WORKERS {
                *out += self.hits[si * MAX_WORKERS + s].load(Ordering::Relaxed);
            }
        }
        ChaosReport {
            seed: self.seed.load(Ordering::Relaxed),
            forced_aborts: self.forced_aborts.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            panics_fired: self.panics_fired.load(Ordering::Relaxed),
            site_hits,
        }
    }
}

impl std::fmt::Debug for NativeChaos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeChaos")
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// What the chaos engine actually injected during a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosReport {
    /// Seed the plan was armed with; echo on failure to replay.
    pub seed: u64,
    /// Forced aborts returned to callers.
    pub forced_aborts: u64,
    /// Delay strikes that spun in place.
    pub delays: u64,
    /// One-shot worker panics that fired.
    pub panics_fired: u64,
    /// Total strikes observed per site (all streams).
    pub site_hits: [u64; SITES],
}

/// Per-worker liveness registry: dead flags and ownership epochs.
///
/// Death is *precise*: only a runner that has observed the worker's body
/// unwind calls [`Liveness::mark_dead`], so reclamation never steals from a
/// stalled-but-alive owner. Epochs are stamped into TL2 lock words (and
/// checked before a steal) so a reused tid can never be confused with the
/// orphaned locks of its previous incarnation.
pub struct Liveness {
    dead: Box<[AtomicU64]>,
    epochs: Box<[AtomicU64]>,
}

impl std::fmt::Debug for Liveness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dead: Vec<usize> = (0..MAX_WORKERS).filter(|&t| self.is_dead(t)).collect();
        f.debug_struct("Liveness")
            .field("dead", &dead)
            .finish_non_exhaustive()
    }
}

impl Default for Liveness {
    fn default() -> Self {
        Self::new()
    }
}

impl Liveness {
    /// Fresh registry: every tid alive, epoch zero.
    pub fn new() -> Self {
        Liveness {
            dead: (0..MAX_WORKERS).map(|_| AtomicU64::new(0)).collect(),
            epochs: (0..MAX_WORKERS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Declare `tid` alive again and advance its epoch, invalidating any lock
    /// words stamped by a previous incarnation. Called when a worker handle is
    /// created. Returns the new epoch.
    pub fn revive(&self, tid: usize) -> u64 {
        self.dead[tid].store(0, Ordering::SeqCst);
        self.epochs[tid].fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Declare `tid` dead. Only call after its body has actually unwound.
    pub fn mark_dead(&self, tid: usize) {
        self.dead[tid].store(1, Ordering::SeqCst);
    }

    /// Whether `tid` has been marked dead.
    pub fn is_dead(&self, tid: usize) -> bool {
        self.dead[tid].load(Ordering::SeqCst) != 0
    }

    /// Current ownership epoch of `tid`.
    pub fn epoch(&self, tid: usize) -> u64 {
        self.epochs[tid].load(Ordering::SeqCst)
    }
}

/// Lock a mutex, recovering from poison instead of cascading the panic.
///
/// Returns the guard and whether poison was recovered, so callers can count
/// recoveries and trigger a structural audit of the protected data.
#[expect(
    clippy::disallowed_methods,
    reason = "the audited route: the poison error is matched, never unwrapped"
)]
pub fn lock_recover<T>(m: &Mutex<T>) -> (MutexGuard<'_, T>, bool) {
    match m.lock() {
        Ok(g) => (g, false),
        Err(poison) => (PoisonError::into_inner(poison), true),
    }
}

/// Render a panic payload for join-outcome reports, recognising
/// [`InjectedPanic`] so torture logs distinguish scheduled deaths from bugs.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(inj) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected panic at {} (tid {})", inj.site, inj.tid)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_engine_never_strikes() {
        let chaos = NativeChaos::new();
        for site in FailSite::ALL {
            assert!(!chaos.strike(0, site));
        }
        let r = chaos.report();
        assert_eq!(r.forced_aborts + r.delays + r.panics_fired, 0);
    }

    #[test]
    fn abort_storm_forces_aborts_deterministically() {
        let chaos = NativeChaos::new();
        chaos.arm(&ChaosPlan::abort_storm(42));
        let mut pattern_a = Vec::new();
        for _ in 0..256 {
            pattern_a.push(chaos.strike(3, FailSite::Tl2Commit));
        }
        assert!(
            pattern_a.iter().any(|&b| b),
            "350 pmil never fired in 256 draws"
        );
        // Re-arming with the same seed replays the identical decision stream.
        chaos.arm(&ChaosPlan::abort_storm(42));
        let pattern_b: Vec<bool> = (0..256)
            .map(|_| chaos.strike(3, FailSite::Tl2Commit))
            .collect();
        assert_eq!(pattern_a, pattern_b);
    }

    #[test]
    fn one_shot_panic_fires_exactly_once_at_hit() {
        let chaos = NativeChaos::new();
        chaos.arm(&ChaosPlan::quiet(7).with_panic(FailSite::UstmCommit, Some(2), 3));
        assert!(!chaos.strike(2, FailSite::UstmCommit));
        assert!(!chaos.strike(2, FailSite::UstmCommit));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chaos.strike(2, FailSite::UstmCommit);
        }))
        .unwrap_err();
        let inj = err
            .downcast_ref::<InjectedPanic>()
            .expect("InjectedPanic payload");
        assert_eq!(inj.site, "ustm-commit");
        assert_eq!(inj.tid, 2);
        // One-shot: the consumed slot never fires again.
        assert!(!chaos.strike(2, FailSite::UstmCommit));
        assert_eq!(chaos.report().panics_fired, 1);
    }

    #[test]
    fn plan_validation_rejects_unsound_entries() {
        let mut p = ChaosPlan::quiet(1);
        p.abort_pmil[FailSite::GuardWindow.index()] = 10;
        assert!(p.validate().is_err(), "guard window cannot force aborts");
        let p = ChaosPlan::quiet(1).with_panic(FailSite::Tl2WriteBack, None, 1);
        assert!(p.validate().is_err(), "write-back panic would tear");
        let mut p = ChaosPlan::quiet(1);
        p.delay_pmil[0] = 1001;
        assert!(p.validate().is_err(), "rate above 1000 pmil");
        assert!(ChaosPlan::mixed(9).validate().is_ok());
    }

    #[test]
    fn liveness_epochs_advance_on_revive() {
        let live = Liveness::new();
        assert!(!live.is_dead(5));
        let e1 = live.revive(5);
        live.mark_dead(5);
        assert!(live.is_dead(5));
        let e2 = live.revive(5);
        assert!(!live.is_dead(5));
        assert!(e2 > e1);
        assert_eq!(live.epoch(5), e2);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "poisons the mutex on purpose to exercise the recovery"
    )]
    fn lock_recover_survives_poison() {
        let m = Mutex::new(17u64);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        let (g, recovered) = lock_recover(&m);
        assert!(recovered);
        assert_eq!(*g, 17);
    }
}
