//! Set-associative cache models.
//!
//! The caches are *tag-only*: data always lives in the memory image (plus
//! per-transaction speculative write buffers), so the cache models exist to
//! provide timing and — crucially for BTM — capacity. A BTM transaction whose
//! speculative lines no longer fit in an L1 set must abort with
//! `AbortReason::Overflow`, exactly as in the paper.

use crate::addr::LineAddr;

/// Geometry of a set-associative cache with 64-byte lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    sets: usize,
    ways: usize,
}

impl CacheGeometry {
    /// Creates a geometry with the given number of sets and ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either argument is zero.
    #[must_use]
    pub const fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be nonzero");
        CacheGeometry { sets, ways }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * crate::LINE_BYTES as usize
    }

    /// The set index for a line.
    #[must_use]
    pub fn set_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.sets - 1)
    }
}

/// One resident line in an L1 cache. The default value fills unused ways,
/// which no scan reads: a set's scans stop at its fill count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct L1Entry {
    pub line: LineAddr,
    /// Dirty (modified relative to the next level). Speculative writes do
    /// not set `dirty`; their data lives in the transaction's write buffer.
    pub dirty: bool,
    /// Speculatively read by the current BTM transaction.
    pub sr: bool,
    /// Speculatively written by the current BTM transaction.
    pub sw: bool,
    /// LRU timestamp (larger = more recently used).
    pub lru: u64,
}

/// What happened when a line was inserted into an L1 set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum L1Insert {
    /// Room was available (or the line was already resident).
    Done,
    /// A non-speculative victim was evicted; `dirty` says whether it needs a
    /// writeback.
    Evicted { victim: LineAddr, dirty: bool },
    /// Every candidate victim is speculative: inserting would lose
    /// transactional state. The caller aborts the transaction with
    /// `Overflow` (or, for the unbounded model, spills the victim to the
    /// idealized overflow structure).
    WouldOverflow { victim: LineAddr, dirty: bool },
}

/// A per-CPU L1 data cache model with speculative (SR/SW) bits.
///
/// The sets live in one flat, set-major array: set `s`'s ways are
/// `entries[s * ways..][..ways]`, of which the first `fill[s]` are resident.
/// No set has an allocation of its own.
#[derive(Clone, Debug)]
pub(crate) struct L1Cache {
    geo: CacheGeometry,
    entries: Vec<L1Entry>,
    fill: Vec<usize>,
    /// One bit per set, set whenever one of the set's entries is handed out
    /// mutably or filled, cleared by the flashes. Only a mutable entry can
    /// gain SR or SW, so the marked sets are a superset of the sets holding
    /// speculative bits, and the flashes visit only them.
    touched: Vec<u64>,
    tick: u64,
}

impl L1Cache {
    pub fn new(geo: CacheGeometry) -> Self {
        L1Cache {
            geo,
            entries: vec![L1Entry::default(); geo.sets() * geo.ways()],
            fill: vec![0; geo.sets()],
            touched: vec![0; geo.sets().div_ceil(64)],
            tick: 0,
        }
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The flat indices of `set`'s resident entries.
    fn span(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.geo.ways();
        base..base + self.fill[set]
    }

    fn set(&self, set: usize) -> &[L1Entry] {
        &self.entries[self.span(set)]
    }

    fn mark(&mut self, set: usize) {
        // analyze: allow(unchecked-cpu-shift) -- a set index modulo 64 is below 64, so the shift cannot wrap.
        self.touched[set / 64] |= 1 << (set % 64);
    }

    fn is_marked(&self, set: usize) -> bool {
        self.touched[set / 64] >> (set % 64) & 1 != 0
    }

    /// Calls `f` on each marked set's index, then clears the marks.
    fn drain_marked(&mut self, mut f: impl FnMut(&mut Self, usize)) {
        for w in 0..self.touched.len() {
            for bit in crate::bits::BitIter::new(std::mem::take(&mut self.touched[w])) {
                f(self, w * 64 + bit);
            }
        }
    }

    /// The flat index of `line`'s entry, if resident: an early-exit scan
    /// of its set's resident ways.
    fn position(&self, line: LineAddr) -> Option<usize> {
        let span = self.span(self.geo.set_of(line));
        let start = span.start;
        self.entries[span]
            .iter()
            .position(|e| e.line == line)
            .map(|i| start + i)
    }

    /// Whether the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.position(line).is_some()
    }

    #[cfg(test)]
    pub fn entry(&self, line: LineAddr) -> Option<&L1Entry> {
        self.position(line).map(|i| &self.entries[i])
    }

    pub fn entry_mut(&mut self, line: LineAddr) -> Option<&mut L1Entry> {
        let i = self.position(line)?;
        self.mark(self.geo.set_of(line));
        Some(&mut self.entries[i])
    }

    /// Touches a resident line (LRU update) and returns its entry on a hit,
    /// so the caller updates it without probing the set again.
    pub fn touch(&mut self, line: LineAddr) -> Option<&mut L1Entry> {
        let t = self.bump();
        let e = self.entry_mut(line)?;
        e.lru = t;
        Some(e)
    }

    /// Inserts `line`; evicts the LRU non-speculative entry if the set is
    /// full. If every entry in the set is speculative, returns
    /// [`L1Insert::WouldOverflow`] naming the LRU speculative victim and the
    /// line is inserted anyway (the caller decides whether that constitutes
    /// an abort or an unbounded-mode spill; in the abort case the whole
    /// transaction's lines are flash-cleared immediately after).
    pub fn insert(&mut self, line: LineAddr) -> L1Insert {
        let t = self.bump();
        let ways = self.geo.ways();
        let s = self.geo.set_of(line);
        self.mark(s);
        let n = self.fill[s];
        // Borrow the set's ways once: every way scan below works on `set`
        // directly instead of re-indexing (and re-bounds-checking) the flat
        // array per step.
        let set = &mut self.entries[s * ways..][..ways];
        if let Some(e) = set[..n].iter_mut().find(|e| e.line == line) {
            e.lru = t;
            return L1Insert::Done;
        }
        let entry = L1Entry {
            line,
            dirty: false,
            sr: false,
            sw: false,
            lru: t,
        };
        if n < ways {
            set[n] = entry;
            self.fill[s] += 1;
            return L1Insert::Done;
        }
        // Prefer the LRU non-speculative victim.
        let victim_idx = set
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.sr && !e.sw)
            .min_by_key(|(_, e)| e.lru)
            .map(|(i, _)| i);
        if let Some(i) = victim_idx {
            let victim = std::mem::replace(&mut set[i], entry);
            return L1Insert::Evicted {
                victim: victim.line,
                dirty: victim.dirty,
            };
        }
        // All ways hold speculative lines.
        let (i, _) = set
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.lru)
            .expect("set has at least one way");
        let victim = std::mem::replace(&mut set[i], entry);
        L1Insert::WouldOverflow {
            victim: victim.line,
            dirty: victim.dirty,
        }
    }

    /// Removes a line (coherence invalidation), returning its entry. The
    /// set's last resident entry moves into the freed way; LRU timestamps
    /// are unique, so the order of a set's ways decides nothing.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<L1Entry> {
        let i = self.position(line)?;
        let s = self.geo.set_of(line);
        let last = self.span(s).end - 1;
        self.entries.swap(i, last);
        self.fill[s] -= 1;
        Some(self.entries[last])
    }

    /// Clears all SR/SW bits (transaction commit) without touching
    /// residency. Visits only the marked sets.
    pub fn flash_clear_spec(&mut self) {
        self.drain_marked(|c, s| {
            let span = c.span(s);
            for e in &mut c.entries[span] {
                e.sr = false;
                e.sw = false;
            }
        });
    }

    /// Drops all speculatively-written lines and clears SR bits (abort):
    /// speculative data never reached memory, so the lines are invalidated.
    /// Visits only the marked sets.
    pub fn flash_abort_spec(&mut self) {
        self.drain_marked(|c, s| {
            let span = c.span(s);
            let mut kept = span.start;
            for i in span {
                let mut e = c.entries[i];
                if !e.sw {
                    e.sr = false;
                    c.entries[kept] = e;
                    kept += 1;
                }
            }
            c.fill[s] = kept - s * c.geo.ways();
        });
    }

    /// The least-recently-used speculative line, if any (the chaos engine's
    /// forced-eviction victim picker).
    pub fn lru_spec_victim(&self) -> Option<LineAddr> {
        self.entries()
            .filter(|e| e.sr || e.sw)
            .min_by_key(|e| e.lru)
            .map(|e| e.line)
    }

    /// Number of resident lines.
    #[cfg(test)]
    pub fn resident(&self) -> usize {
        self.fill.iter().sum()
    }

    /// Iterates over all resident entries.
    pub fn entries(&self) -> impl Iterator<Item = &L1Entry> {
        (0..self.geo.sets()).flat_map(|s| self.set(s))
    }

    /// Asserts structural invariants: set occupancy within associativity,
    /// no duplicate tags, every entry mapped to its correct set, and every
    /// set holding an SR or SW bit marked for the next flash.
    pub fn validate(&self) {
        for i in 0..self.geo.sets() {
            assert!(
                self.fill[i] <= self.geo.ways(),
                "set {i} holds {} lines but has {} ways",
                self.fill[i],
                self.geo.ways()
            );
            let set = self.set(i);
            for (j, e) in set.iter().enumerate() {
                assert_eq!(self.geo.set_of(e.line), i, "line {:?} in wrong set", e.line);
                for other in &set[j + 1..] {
                    assert_ne!(e.line, other.line, "duplicate tag {:?}", e.line);
                }
            }
            assert!(
                self.is_marked(i) || set.iter().all(|e| !e.sr && !e.sw),
                "set {i} holds speculative bits but is not marked for the flashes"
            );
        }
    }
}

/// The shared L2: tag-only, timing-only (no speculative state).
///
/// Flat and set-major like [`L1Cache`], with `[line, lru]` entries: a fresh
/// L2 is all zero (fill counts included), so it takes the zeroed-allocation
/// path and no page is written before a set is first filled.
#[derive(Clone, Debug)]
pub(crate) struct L2Cache {
    geo: CacheGeometry,
    entries: Vec<[u64; 2]>,
    fill: Vec<usize>,
    tick: u64,
}

impl L2Cache {
    pub fn new(geo: CacheGeometry) -> Self {
        L2Cache {
            geo,
            entries: vec![[0; 2]; geo.sets() * geo.ways()],
            fill: vec![0; geo.sets()],
            tick: 0,
        }
    }

    /// Touches `line`, returning `true` on a hit; on a miss the line is
    /// installed (evicting LRU — the L2 is not inclusive in this model, so
    /// evictions have no L1 side effects).
    pub fn access(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let t = self.tick;
        let ways = self.geo.ways();
        let s = self.geo.set_of(line);
        let n = self.fill[s];
        let set = &mut self.entries[s * ways..][..ways];
        if let Some(e) = set[..n].iter_mut().find(|e| e[0] == line.0) {
            e[1] = t;
            return true;
        }
        if n < ways {
            set[n] = [line.0, t];
            self.fill[s] += 1;
        } else {
            // LRU timestamps are unique, so replacing the victim in place
            // picks what removing it and appending would.
            let victim = set.iter_mut().min_by_key(|e| e[1]).expect("nonempty set");
            *victim = [line.0, t];
        }
        false
    }

    /// The resident `[line, lru]` entries.
    #[cfg(test)]
    fn resident(&self) -> impl Iterator<Item = [u64; 2]> + '_ {
        (0..self.geo.sets()).flat_map(|s| {
            self.entries[s * self.geo.ways()..][..self.fill[s]]
                .iter()
                .copied()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn geometry_capacity() {
        let g = CacheGeometry::new(128, 4);
        assert_eq!(g.capacity_bytes(), 32 * 1024);
        assert_eq!(g.set_of(line(129)), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = CacheGeometry::new(3, 2);
    }

    #[test]
    fn insert_hits_and_evicts_lru() {
        let mut c = L1Cache::new(CacheGeometry::new(1, 2));
        assert_eq!(c.insert(line(0)), L1Insert::Done);
        assert_eq!(c.insert(line(1)), L1Insert::Done);
        assert!(c.touch(line(0)).is_some()); // 1 is now LRU
        match c.insert(line(2)) {
            L1Insert::Evicted { victim, dirty } => {
                assert_eq!(victim, line(1));
                assert!(!dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(line(0)) && c.contains(line(2)) && !c.contains(line(1)));
    }

    #[test]
    fn speculative_lines_are_protected_then_overflow() {
        let mut c = L1Cache::new(CacheGeometry::new(1, 2));
        c.insert(line(0));
        c.entry_mut(line(0)).unwrap().sr = true;
        c.insert(line(1));
        // Non-speculative line 1 is preferred as victim even though 0 is LRU.
        match c.insert(line(2)) {
            L1Insert::Evicted { victim, .. } => assert_eq!(victim, line(1)),
            other => panic!("{other:?}"),
        }
        c.entry_mut(line(2)).unwrap().sw = true;
        // Now both ways are speculative: overflow.
        match c.insert(line(3)) {
            L1Insert::WouldOverflow { victim, .. } => assert_eq!(victim, line(0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flash_clear_and_abort() {
        let mut c = L1Cache::new(CacheGeometry::new(2, 2));
        c.insert(line(0));
        c.insert(line(1));
        c.entry_mut(line(0)).unwrap().sr = true;
        c.entry_mut(line(1)).unwrap().sw = true;
        let mut commit = c.clone();
        commit.flash_clear_spec();
        assert_eq!(commit.resident(), 2);
        assert!(commit.entries().all(|e| !e.sr && !e.sw));
        c.flash_abort_spec();
        assert_eq!(c.resident(), 1); // speculatively-written line dropped
        assert!(c.contains(line(0)) && !c.contains(line(1)));
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut c = L1Cache::new(CacheGeometry::new(2, 2));
        c.insert(line(5));
        assert!(c.invalidate(line(5)).is_some());
        assert!(c.invalidate(line(5)).is_none());
        assert_eq!(c.resident(), 0);
    }

    /// The caches with one `Vec` per set, the layout the flat arrays
    /// replaced: the reference they must agree with step for step.
    mod reference {
        use super::super::{CacheGeometry, L1Entry, L1Insert};
        use crate::addr::LineAddr;

        #[derive(Clone, Debug)]
        pub struct RefL1 {
            geo: CacheGeometry,
            sets: Vec<Vec<L1Entry>>,
            tick: u64,
        }

        impl RefL1 {
            pub fn new(geo: CacheGeometry) -> Self {
                RefL1 {
                    geo,
                    sets: (0..geo.sets()).map(|_| Vec::new()).collect(),
                    tick: 0,
                }
            }

            fn bump(&mut self) -> u64 {
                self.tick += 1;
                self.tick
            }

            pub fn entry_mut(&mut self, line: LineAddr) -> Option<&mut L1Entry> {
                let set = self.geo.set_of(line);
                self.sets[set].iter_mut().find(|e| e.line == line)
            }

            pub fn touch(&mut self, line: LineAddr) -> Option<&mut L1Entry> {
                let t = self.bump();
                let e = self.entry_mut(line)?;
                e.lru = t;
                Some(e)
            }

            pub fn insert(&mut self, line: LineAddr) -> L1Insert {
                let t = self.bump();
                let ways = self.geo.ways();
                let set = &mut self.sets[self.geo.set_of(line)];
                if let Some(e) = set.iter_mut().find(|e| e.line == line) {
                    e.lru = t;
                    return L1Insert::Done;
                }
                let entry = L1Entry {
                    line,
                    dirty: false,
                    sr: false,
                    sw: false,
                    lru: t,
                };
                if set.len() < ways {
                    set.push(entry);
                    return L1Insert::Done;
                }
                let victim_idx = set
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| !e.sr && !e.sw)
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i);
                if let Some(i) = victim_idx {
                    let victim = std::mem::replace(&mut set[i], entry);
                    return L1Insert::Evicted {
                        victim: victim.line,
                        dirty: victim.dirty,
                    };
                }
                let (i, _) = set.iter().enumerate().min_by_key(|(_, e)| e.lru).unwrap();
                let victim = std::mem::replace(&mut set[i], entry);
                L1Insert::WouldOverflow {
                    victim: victim.line,
                    dirty: victim.dirty,
                }
            }

            pub fn invalidate(&mut self, line: LineAddr) -> Option<L1Entry> {
                let set = self.geo.set_of(line);
                let idx = self.sets[set].iter().position(|e| e.line == line)?;
                Some(self.sets[set].remove(idx))
            }

            pub fn flash_clear_spec(&mut self) {
                for e in self.sets.iter_mut().flatten() {
                    e.sr = false;
                    e.sw = false;
                }
            }

            pub fn flash_abort_spec(&mut self) {
                for set in &mut self.sets {
                    set.retain(|e| !e.sw);
                    for e in set.iter_mut() {
                        e.sr = false;
                    }
                }
            }

            pub fn lru_spec_victim(&self) -> Option<LineAddr> {
                self.entries()
                    .filter(|e| e.sr || e.sw)
                    .min_by_key(|e| e.lru)
                    .map(|e| e.line)
            }

            pub fn entries(&self) -> impl Iterator<Item = &L1Entry> {
                self.sets.iter().flatten()
            }
        }

        #[derive(Clone, Debug)]
        pub struct RefL2 {
            geo: CacheGeometry,
            sets: Vec<Vec<(LineAddr, u64)>>,
            tick: u64,
        }

        impl RefL2 {
            pub fn new(geo: CacheGeometry) -> Self {
                RefL2 {
                    geo,
                    sets: (0..geo.sets()).map(|_| Vec::new()).collect(),
                    tick: 0,
                }
            }

            pub fn access(&mut self, line: LineAddr) -> bool {
                self.tick += 1;
                let t = self.tick;
                let ways = self.geo.ways();
                let set = &mut self.sets[self.geo.set_of(line)];
                if let Some(e) = set.iter_mut().find(|e| e.0 == line) {
                    e.1 = t;
                    return true;
                }
                if set.len() >= ways {
                    let (i, _) = set.iter().enumerate().min_by_key(|(_, e)| e.1).unwrap();
                    set.remove(i);
                }
                set.push((line, t));
                false
            }

            pub fn resident(&self) -> Vec<[u64; 2]> {
                let mut v: Vec<_> = self.sets.iter().flatten().map(|&(l, t)| [l.0, t]).collect();
                v.sort_unstable();
                v
            }
        }
    }

    /// Steps per seed of the oracle comparisons: Miri interprets every
    /// step, so it runs a short prefix.
    const ORACLE_STEPS: usize = if cfg!(miri) { 200 } else { 3_000 };

    fn sorted(entries: impl Iterator<Item = L1Entry>) -> Vec<(u64, bool, bool, bool, u64)> {
        let mut v: Vec<_> = entries
            .map(|e| (e.line.0, e.dirty, e.sr, e.sw, e.lru))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn flat_l1_matches_the_per_set_vec_reference() {
        use crate::rng::SimRng;
        for (seed, geo) in [
            (1, CacheGeometry::new(4, 2)),
            (2, CacheGeometry::new(2, 4)),
            (3, CacheGeometry::new(1, 3)),
            (4, CacheGeometry::new(128, 4)),
        ] {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut flat = L1Cache::new(geo);
            let mut oracle = reference::RefL1::new(geo);
            let lines = (geo.sets() * geo.ways() * 3) as u64;
            for step in 0..ORACLE_STEPS {
                let l = line(rng.gen_range(0..lines));
                let what = rng.gen_range(0..100);
                let ctx = format!("seed {seed}, step {step}, op {what}, {l:?}");
                match what {
                    0..=34 => {
                        let (a, b) = (flat.insert(l), oracle.insert(l));
                        assert_eq!(a, b, "insert: {ctx}");
                        // The caller's overflow handling: undo the fill.
                        if matches!(a, L1Insert::WouldOverflow { .. }) && rng.gen_bool(0.5) {
                            assert_eq!(flat.invalidate(l), oracle.invalidate(l), "{ctx}");
                        }
                    }
                    35..=54 => {
                        let (a, b) = (flat.touch(l), oracle.touch(l));
                        assert_eq!(a.is_some(), b.is_some(), "touch: {ctx}");
                        if let (Some(a), Some(b)) = (a, b) {
                            // A transactional read hit.
                            if rng.gen_bool(0.5) {
                                a.sr = true;
                                b.sr = true;
                            }
                        }
                    }
                    55..=69 => {
                        let (a, b) = (flat.entry_mut(l), oracle.entry_mut(l));
                        assert_eq!(a.is_some(), b.is_some(), "entry_mut: {ctx}");
                        if let (Some(a), Some(b)) = (a, b) {
                            match what % 3 {
                                0 => (a.sr, b.sr) = (true, true),
                                1 => (a.sw, b.sw) = (true, true),
                                _ => (a.dirty, b.dirty) = (!a.dirty, !b.dirty),
                            }
                        }
                    }
                    70..=84 => {
                        assert_eq!(
                            flat.invalidate(l),
                            oracle.invalidate(l),
                            "invalidate: {ctx}"
                        );
                    }
                    85..=91 => {
                        flat.flash_clear_spec();
                        oracle.flash_clear_spec();
                    }
                    92..=97 => {
                        flat.flash_abort_spec();
                        oracle.flash_abort_spec();
                    }
                    _ => assert_eq!(flat.lru_spec_victim(), oracle.lru_spec_victim(), "{ctx}"),
                }
                flat.validate();
                assert_eq!(
                    flat.contains(l),
                    oracle.entries().any(|e| e.line == l),
                    "{ctx}"
                );
                assert_eq!(
                    sorted(flat.entries().copied()),
                    sorted(oracle.entries().copied()),
                    "resident state: {ctx}"
                );
            }
        }
    }

    #[test]
    fn flat_l2_matches_the_per_set_vec_reference() {
        use crate::rng::SimRng;
        for (seed, geo) in [
            (5, CacheGeometry::new(1, 2)),
            (6, CacheGeometry::new(4, 3)),
            (7, CacheGeometry::new(64, 8)),
        ] {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut flat = L2Cache::new(geo);
            let mut oracle = reference::RefL2::new(geo);
            let lines = (geo.sets() * geo.ways() * 2) as u64;
            for step in 0..ORACLE_STEPS {
                let l = line(rng.gen_range(0..lines));
                assert_eq!(
                    flat.access(l),
                    oracle.access(l),
                    "seed {seed}, step {step}, {l:?}"
                );
                let mut resident: Vec<_> = flat.resident().collect();
                resident.sort_unstable();
                assert_eq!(resident, oracle.resident(), "seed {seed}, step {step}");
            }
        }
    }

    #[test]
    fn l2_hit_miss_and_eviction() {
        let mut l2 = L2Cache::new(CacheGeometry::new(1, 2));
        assert!(!l2.access(line(0)));
        assert!(l2.access(line(0)));
        assert!(!l2.access(line(1)));
        assert!(!l2.access(line(2))); // evicts 0
        assert!(!l2.access(line(0)));
    }
}
