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

/// One resident line in an L1 cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
#[derive(Clone, Debug)]
pub(crate) struct L1Cache {
    geo: CacheGeometry,
    sets: Vec<Vec<L1Entry>>,
    tick: u64,
}

impl L1Cache {
    pub fn new(geo: CacheGeometry) -> Self {
        L1Cache {
            geo,
            // Each set holds at most `ways` entries; reserving up front means
            // fills never reallocate.
            sets: (0..geo.sets())
                .map(|_| Vec::with_capacity(geo.ways()))
                .collect(),
            tick: 0,
        }
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Whether the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.sets[self.geo.set_of(line)]
            .iter()
            .any(|e| e.line == line)
    }

    #[cfg(test)]
    pub fn entry(&self, line: LineAddr) -> Option<&L1Entry> {
        self.sets[self.geo.set_of(line)]
            .iter()
            .find(|e| e.line == line)
    }

    pub fn entry_mut(&mut self, line: LineAddr) -> Option<&mut L1Entry> {
        let set = self.geo.set_of(line);
        self.sets[set].iter_mut().find(|e| e.line == line)
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
        // Borrow the set slice once: every way scan below works on `set`
        // directly instead of re-indexing (and re-bounds-checking)
        // `self.sets[..]` per step.
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

    /// Removes a line (coherence invalidation), returning its entry.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<L1Entry> {
        let set = self.geo.set_of(line);
        let idx = self.sets[set].iter().position(|e| e.line == line)?;
        Some(self.sets[set].remove(idx))
    }

    /// Clears all SR/SW bits (transaction commit) without touching residency.
    pub fn flash_clear_spec(&mut self) {
        for set in &mut self.sets {
            for e in set.iter_mut() {
                e.sr = false;
                e.sw = false;
            }
        }
    }

    /// Drops all speculatively-written lines and clears SR bits (abort):
    /// speculative data never reached memory, so the lines are invalidated.
    pub fn flash_abort_spec(&mut self) {
        for set in &mut self.sets {
            set.retain(|e| !e.sw);
            for e in set.iter_mut() {
                e.sr = false;
            }
        }
    }

    /// The least-recently-used speculative line, if any (the chaos engine's
    /// forced-eviction victim picker).
    pub fn lru_spec_victim(&self) -> Option<LineAddr> {
        self.sets
            .iter()
            .flatten()
            .filter(|e| e.sr || e.sw)
            .min_by_key(|e| e.lru)
            .map(|e| e.line)
    }

    /// Number of resident lines.
    #[cfg(test)]
    pub fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Iterates over all resident entries.
    pub fn entries(&self) -> impl Iterator<Item = &L1Entry> {
        self.sets.iter().flatten()
    }

    /// Asserts structural invariants: set occupancy within associativity,
    /// no duplicate tags, and every entry mapped to its correct set.
    pub fn validate(&self) {
        for (i, set) in self.sets.iter().enumerate() {
            assert!(
                set.len() <= self.geo.ways(),
                "set {i} holds {} lines but has {} ways",
                set.len(),
                self.geo.ways()
            );
            for (j, e) in set.iter().enumerate() {
                assert_eq!(self.geo.set_of(e.line), i, "line {:?} in wrong set", e.line);
                for other in &set[j + 1..] {
                    assert_ne!(e.line, other.line, "duplicate tag {:?}", e.line);
                }
            }
        }
    }
}

/// The shared L2: tag-only, timing-only (no speculative state).
#[derive(Clone, Debug)]
pub(crate) struct L2Cache {
    geo: CacheGeometry,
    sets: Vec<Vec<(LineAddr, u64)>>,
    tick: u64,
}

impl L2Cache {
    pub fn new(geo: CacheGeometry) -> Self {
        L2Cache {
            geo,
            sets: (0..geo.sets())
                .map(|_| Vec::with_capacity(geo.ways()))
                .collect(),
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
        let set = &mut self.sets[self.geo.set_of(line)];
        if let Some(e) = set.iter_mut().find(|e| e.0 == line) {
            e.1 = t;
            return true;
        }
        if set.len() >= ways {
            let (i, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .expect("nonempty set");
            set.remove(i);
        }
        set.push((line, t));
        false
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
