//! The ownership table (paper Figure 3 / Algorithm 1).
//!
//! Logically a chained hash table with one record per line currently owned
//! by some software transaction. The record data is kept host-side for
//! convenience, but each hash bin has a *simulated address*, and barriers
//! issue real simulated loads/stores against it — so otable traffic costs
//! cycles, occupies cache, and (for HyTM, which reads bins transactionally)
//! inflates hardware-transaction footprints and causes false conflicts when
//! unrelated lines alias the same bin. Bins are 16 bytes, so four bins share
//! a cache line, exactly the kind of aliasing the paper discusses.
//!
//! In the paper, racy bin updates are protected by per-chain locks and
//! CAS; in this model each update executes as one atomic scheduled
//! operation, and the CAS/lock cost is charged in cycles by the barrier
//! code.

use ufotm_machine::{Addr, BitIter, CpuSet, LineAddr};

/// Permission a transaction set holds on a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Perm {
    /// One or more transactions may read the line.
    Read,
    /// Exactly one transaction may read and write the line.
    Write,
}

/// One ownership record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OtableEntry {
    /// The owned line.
    pub line: LineAddr,
    /// Permission held.
    pub perm: Perm,
    /// Owner CPUs (multiple only for [`Perm::Read`]). A [`CpuSet`], shared
    /// with the machine's directory and live-transaction masks, so a CPU
    /// enters it only by index. (A raw `1 << cpu` would be a masked shift
    /// in release builds, silently aliasing CPU 64 onto CPU 0 and
    /// corrupting ownership — the PR-4 overflow class.)
    pub owners: CpuSet,
}

impl OtableEntry {
    /// Whether `cpu` is among the owners.
    #[must_use]
    pub fn owned_by(&self, cpu: usize) -> bool {
        self.owners.contains(cpu)
    }

    /// Whether `cpu` is the *sole* owner.
    #[must_use]
    pub fn sole_owner(&self, cpu: usize) -> bool {
        self.owners == CpuSet::single(cpu)
    }

    /// Iterates over owner CPU ids (walks only the set bits of the owner
    /// mask, so cost tracks the actual owner count).
    pub fn owner_cpus(&self) -> BitIter {
        self.owners.iter()
    }
}

/// The shared ownership table.
#[derive(Clone, Debug)]
pub struct Otable {
    bins: Vec<Vec<OtableEntry>>,
    base: Addr,
    mask: u64,
}

/// Bytes per bin (two words: tag+metadata, chain pointer).
pub(crate) const BIN_BYTES: u64 = 16;

/// The ownership-table bin `line` chains into in a table of `mask + 1`
/// bins (Fibonacci hashing over the line number). The simulated otable's
/// hash only: the native USTM chains lines in address order instead, and
/// keeping the scatter here keeps simulated results unchanged.
#[inline]
#[must_use]
pub fn bin_index(line: LineAddr, mask: u64) -> u64 {
    (line.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & mask
}

impl Otable {
    /// Creates a table with `bins` bins (a power of two) whose bin array
    /// starts at simulated address `base` (the caller reserves
    /// `bins * 16` bytes there).
    ///
    /// # Panics
    ///
    /// Panics if `bins` is not a power of two.
    #[must_use]
    pub fn new(base: Addr, bins: u64) -> Self {
        assert!(bins.is_power_of_two(), "otable bins must be a power of two");
        Otable {
            bins: vec![Vec::new(); bins as usize],
            base,
            mask: bins - 1,
        }
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> u64 {
        self.bins.len() as u64
    }

    /// Bytes of simulated memory the bin array occupies.
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.bins() * BIN_BYTES
    }

    /// The hash bin index for a line.
    #[must_use]
    pub fn index_of(&self, line: LineAddr) -> u64 {
        bin_index(line, self.mask)
    }

    /// The simulated address of a bin (what barriers load/store).
    #[must_use]
    pub fn bin_addr(&self, index: u64) -> Addr {
        Addr(self.base.0 + index * BIN_BYTES)
    }

    /// The simulated address of the bin covering `line`.
    #[must_use]
    pub fn bin_addr_of(&self, line: LineAddr) -> Addr {
        self.bin_addr(self.index_of(line))
    }

    /// The entry for `line`, if present, with its chain position (0 = head).
    #[must_use]
    pub fn lookup(&self, line: LineAddr) -> Option<(usize, OtableEntry)> {
        let bin = &self.bins[self.index_of(line) as usize];
        bin.iter().position(|e| e.line == line).map(|i| (i, bin[i]))
    }

    /// Chain length of the bin covering `line` (0 = empty bin).
    #[must_use]
    pub fn chain_len(&self, line: LineAddr) -> usize {
        self.bins[self.index_of(line) as usize].len()
    }

    /// Inserts a fresh entry for `line`.
    ///
    /// # Panics
    ///
    /// Panics if an entry for `line` already exists (callers look up first).
    pub fn insert(&mut self, line: LineAddr, perm: Perm, cpu: usize) {
        let idx = self.index_of(line) as usize;
        assert!(
            self.bins[idx].iter().all(|e| e.line != line),
            "duplicate otable insert for {line:?}"
        );
        self.bins[idx].insert(
            0,
            OtableEntry {
                line,
                perm,
                owners: CpuSet::single(cpu),
            },
        );
    }

    /// Adds `cpu` as a reader of an existing read entry.
    ///
    /// # Panics
    ///
    /// Panics if there is no read entry for `line`.
    pub fn add_reader(&mut self, line: LineAddr, cpu: usize) {
        let idx = self.index_of(line) as usize;
        let e = self.bins[idx]
            .iter_mut()
            .find(|e| e.line == line)
            .expect("add_reader on missing entry");
        assert_eq!(e.perm, Perm::Read, "add_reader on write entry");
        e.owners.insert(cpu);
    }

    /// Upgrades `cpu`'s sole read entry to write permission.
    ///
    /// # Panics
    ///
    /// Panics if the entry is missing or `cpu` is not the sole owner.
    pub fn upgrade(&mut self, line: LineAddr, cpu: usize) {
        let idx = self.index_of(line) as usize;
        let e = self.bins[idx]
            .iter_mut()
            .find(|e| e.line == line)
            .expect("upgrade on missing entry");
        assert!(e.sole_owner(cpu), "upgrade requires sole ownership");
        e.perm = Perm::Write;
    }

    /// Demotes `cpu`'s sole write entry back to read permission (the
    /// `retry` path: the sleeper keeps watching the lines it read).
    ///
    /// # Panics
    ///
    /// Panics if the entry is missing or not a write entry solely owned by
    /// `cpu`.
    pub fn demote(&mut self, line: LineAddr, cpu: usize) {
        let idx = self.index_of(line) as usize;
        let e = self.bins[idx]
            .iter_mut()
            .find(|e| e.line == line)
            .expect("demote on missing entry");
        assert!(
            e.sole_owner(cpu) && e.perm == Perm::Write,
            "demote requires sole write ownership"
        );
        e.perm = Perm::Read;
    }

    /// Releases `cpu`'s ownership of `line`; removes the entry when the
    /// owner set drains. Returns `true` if the entry was removed entirely.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` does not own `line`.
    pub fn release(&mut self, line: LineAddr, cpu: usize) -> bool {
        let idx = self.index_of(line) as usize;
        let pos = self.bins[idx]
            .iter()
            .position(|e| e.line == line)
            .expect("release of unowned line");
        let e = &mut self.bins[idx][pos];
        assert!(e.owned_by(cpu), "cpu {cpu} does not own {line:?}");
        e.owners.remove(cpu);
        if e.owners.is_empty() {
            self.bins[idx].remove(pos);
            true
        } else {
            false
        }
    }

    /// Total live entries (for stats and tests).
    #[must_use]
    pub fn live_entries(&self) -> usize {
        self.bins.iter().map(Vec::len).sum()
    }

    /// Whether any entry in the bin covering `line` belongs to a different
    /// line (i.e. a lookup there would walk a chain / suffer aliasing).
    #[must_use]
    pub fn aliases(&self, line: LineAddr) -> bool {
        self.bins[self.index_of(line) as usize]
            .iter()
            .any(|e| e.line != line)
    }

    /// A point-in-time chain-length / aliasing summary of the table.
    #[must_use]
    pub fn occupancy(&self) -> OtableOccupancy {
        let mut occ = OtableOccupancy {
            bins: self.bins(),
            ..OtableOccupancy::default()
        };
        for bin in &self.bins {
            let len = bin.len() as u64;
            occ.live_entries += len;
            if len > 0 {
                occ.occupied_bins += 1;
            }
            if len > 1 {
                occ.aliased_bins += 1;
            }
            occ.max_chain = occ.max_chain.max(len);
        }
        occ
    }
}

/// A snapshot of how full and how aliased the otable is (all counts in
/// entries/bins; see [`Otable::occupancy`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OtableOccupancy {
    /// Total hash bins.
    pub bins: u64,
    /// Live entries across all bins.
    pub live_entries: u64,
    /// Bins holding at least one entry.
    pub occupied_bins: u64,
    /// Bins holding two or more entries (lookups there walk a chain).
    pub aliased_bins: u64,
    /// Longest chain in the table.
    pub max_chain: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Otable {
        Otable::new(Addr(0x1000), 64)
    }

    #[test]
    fn insert_lookup_release() {
        let mut t = table();
        let l = LineAddr(7);
        assert!(t.lookup(l).is_none());
        t.insert(l, Perm::Read, 2);
        let (pos, e) = t.lookup(l).unwrap();
        assert_eq!(pos, 0);
        assert_eq!(e.perm, Perm::Read);
        assert!(e.owned_by(2) && e.sole_owner(2));
        assert!(t.release(l, 2));
        assert!(t.lookup(l).is_none());
        assert_eq!(t.live_entries(), 0);
    }

    #[test]
    fn shared_readers_then_drain() {
        let mut t = table();
        let l = LineAddr(9);
        t.insert(l, Perm::Read, 0);
        t.add_reader(l, 1);
        t.add_reader(l, 5);
        let (_, e) = t.lookup(l).unwrap();
        assert_eq!(e.owner_cpus().collect::<Vec<_>>(), vec![0, 1, 5]);
        assert!(!t.release(l, 1));
        assert!(!t.release(l, 0));
        assert!(t.release(l, 5));
    }

    #[test]
    fn upgrade_requires_sole_ownership() {
        let mut t = table();
        let l = LineAddr(3);
        t.insert(l, Perm::Read, 0);
        t.upgrade(l, 0);
        assert_eq!(t.lookup(l).unwrap().1.perm, Perm::Write);
    }

    #[test]
    #[should_panic(expected = "sole ownership")]
    fn upgrade_with_other_readers_panics() {
        let mut t = table();
        let l = LineAddr(3);
        t.insert(l, Perm::Read, 0);
        t.add_reader(l, 1);
        t.upgrade(l, 0);
    }

    #[test]
    fn chains_handle_aliasing_lines() {
        let mut t = Otable::new(Addr(0), 2); // tiny table: heavy aliasing
        let mut inserted = Vec::new();
        for i in 0..8 {
            let l = LineAddr(i);
            t.insert(l, Perm::Read, 0);
            inserted.push(l);
        }
        assert_eq!(t.live_entries(), 8);
        for l in &inserted {
            assert!(t.lookup(*l).is_some(), "chain lookup failed for {l:?}");
        }
        assert!(inserted.iter().any(|&l| t.aliases(l)));
        for l in inserted {
            t.release(l, 0);
        }
        assert_eq!(t.live_entries(), 0);
    }

    #[test]
    fn bin_addresses_are_16_bytes_apart() {
        let t = table();
        assert_eq!(t.bin_addr(0), Addr(0x1000));
        assert_eq!(t.bin_addr(1), Addr(0x1010));
        // Four bins share one 64-byte cache line.
        assert_eq!(t.bin_addr(0).line(), t.bin_addr(3).line());
        assert_ne!(t.bin_addr(0).line(), t.bin_addr(4).line());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_insert_panics() {
        let mut t = table();
        t.insert(LineAddr(1), Perm::Read, 0);
        t.insert(LineAddr(1), Perm::Read, 1);
    }

    #[test]
    fn full_width_owner_masks_do_not_alias() {
        // Regression: cpu 63 uses the top mask bit; releasing it must not
        // disturb cpu 0 (which a masked `1 << 64`-style overflow would hit).
        let mut t = table();
        let l = LineAddr(11);
        t.insert(l, Perm::Read, 0);
        t.add_reader(l, 63);
        let (_, e) = t.lookup(l).unwrap();
        assert!(e.owned_by(0) && e.owned_by(63) && !e.owned_by(1));
        assert_eq!(e.owner_cpus().collect::<Vec<_>>(), vec![0, 63]);
        assert!(!t.release(l, 63));
        let (_, e) = t.lookup(l).unwrap();
        assert!(e.owned_by(0), "release of cpu 63 must not clear cpu 0");
        assert!(!e.owned_by(63));
        assert!(t.release(l, 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cpu_is_rejected_in_debug() {
        let mut t = table();
        t.insert(LineAddr(1), Perm::Read, 64);
    }

    #[test]
    fn index_is_stable_and_in_range() {
        let t = table();
        for i in 0..1000 {
            let idx = t.index_of(LineAddr(i));
            assert!(idx < t.bins());
            assert_eq!(idx, t.index_of(LineAddr(i)));
        }
    }
}
