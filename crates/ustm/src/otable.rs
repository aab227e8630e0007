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

use std::num::NonZeroU32;

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
///
/// Chains live in one entry arena: each bin holds a link to its chain's
/// head (newest first, as the chain position a barrier pays for walking),
/// each node a link to the next. A link is `Option<NonZeroU32>` holding
/// arena index + 1, so an empty bin is all zero bits. The bin array is
/// allocated, zeroed, at the first insert: a run that never takes the
/// software path never builds it. Freed nodes are kept on a free list for
/// the next insert.
#[derive(Clone, Debug)]
pub struct Otable {
    /// One link per bin; empty until the first insert.
    heads: Vec<Link>,
    nodes: Vec<Node>,
    /// Head of the free-node list, linked through `Node::next`.
    free: Link,
    live: usize,
    base: Addr,
    mask: u64,
}

/// Arena index + 1 of a chain node; `None` ends a chain.
type Link = Option<NonZeroU32>;

#[derive(Clone, Copy, Debug)]
struct Node {
    entry: OtableEntry,
    next: Link,
}

/// The arena slot `link` names.
fn slot(link: NonZeroU32) -> usize {
    link.get() as usize - 1
}

/// The link naming arena slot `i`.
fn link(i: usize) -> Link {
    let n = u32::try_from(i + 1).expect("otable arena exceeds u32 indices");
    NonZeroU32::new(n)
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
            heads: Vec::new(),
            nodes: Vec::new(),
            free: None,
            live: 0,
            base,
            mask: bins - 1,
        }
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> u64 {
        self.mask + 1
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

    /// The arena slots of the chain starting at `head`, head first.
    fn chain(&self, head: Link) -> impl Iterator<Item = usize> + '_ {
        let mut at = head;
        std::iter::from_fn(move || {
            let i = slot(at?);
            at = self.nodes[i].next;
            Some(i)
        })
    }

    /// The head of the chain of the bin covering `line`.
    fn head_of(&self, line: LineAddr) -> Link {
        let bin = self.index_of(line) as usize;
        self.heads.get(bin).copied().flatten()
    }

    /// The slots of the chain of the bin covering `line`.
    fn chain_of(&self, line: LineAddr) -> impl Iterator<Item = usize> + '_ {
        self.chain(self.head_of(line))
    }

    /// `line`'s chain position (0 = head) and arena slot, if present.
    fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        self.chain_of(line)
            .enumerate()
            .find(|&(_, i)| self.nodes[i].entry.line == line)
    }

    /// The entry for `line`, which must be present.
    fn entry_mut(&mut self, line: LineAddr, what: &str) -> &mut OtableEntry {
        let Some((_, i)) = self.find(line) else {
            panic!("{what} on missing entry");
        };
        &mut self.nodes[i].entry
    }

    /// The entry for `line`, if present, with its chain position (0 = head).
    #[must_use]
    pub fn lookup(&self, line: LineAddr) -> Option<(usize, OtableEntry)> {
        self.find(line).map(|(pos, i)| (pos, self.nodes[i].entry))
    }

    /// Chain length of the bin covering `line` (0 = empty bin).
    #[must_use]
    pub fn chain_len(&self, line: LineAddr) -> usize {
        self.chain_of(line).count()
    }

    /// Inserts a fresh entry for `line` at the head of its chain.
    ///
    /// # Panics
    ///
    /// Panics if an entry for `line` already exists (callers look up first).
    pub fn insert(&mut self, line: LineAddr, perm: Perm, cpu: usize) {
        assert!(
            self.find(line).is_none(),
            "duplicate otable insert for {line:?}"
        );
        if self.heads.is_empty() {
            self.heads = vec![None; self.bins() as usize];
        }
        let bin = self.index_of(line) as usize;
        let node = Node {
            entry: OtableEntry {
                line,
                perm,
                owners: CpuSet::single(cpu),
            },
            next: self.heads[bin],
        };
        let i = match self.free {
            Some(f) => {
                let i = slot(f);
                self.free = self.nodes[i].next;
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.heads[bin] = link(i);
        self.live += 1;
    }

    /// Adds `cpu` as a reader of an existing read entry.
    ///
    /// # Panics
    ///
    /// Panics if there is no read entry for `line`.
    pub fn add_reader(&mut self, line: LineAddr, cpu: usize) {
        let e = self.entry_mut(line, "add_reader");
        assert_eq!(e.perm, Perm::Read, "add_reader on write entry");
        e.owners.insert(cpu);
    }

    /// Upgrades `cpu`'s sole read entry to write permission.
    ///
    /// # Panics
    ///
    /// Panics if the entry is missing or `cpu` is not the sole owner.
    pub fn upgrade(&mut self, line: LineAddr, cpu: usize) {
        let e = self.entry_mut(line, "upgrade");
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
        let e = self.entry_mut(line, "demote");
        assert!(
            e.sole_owner(cpu) && e.perm == Perm::Write,
            "demote requires sole write ownership"
        );
        e.perm = Perm::Read;
    }

    /// Releases `cpu`'s ownership of `line`; removes the entry when the
    /// owner set drains, keeping the order of the rest of its chain.
    /// Returns `true` if the entry was removed entirely.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` does not own `line`.
    pub fn release(&mut self, line: LineAddr, cpu: usize) -> bool {
        let mut prev = None;
        let mut at = self.head_of(line);
        let i = loop {
            let i = slot(at.expect("release of unowned line"));
            if self.nodes[i].entry.line == line {
                break i;
            }
            prev = Some(i);
            at = self.nodes[i].next;
        };
        let e = &mut self.nodes[i].entry;
        assert!(e.owned_by(cpu), "cpu {cpu} does not own {line:?}");
        e.owners.remove(cpu);
        if !e.owners.is_empty() {
            return false;
        }
        let next = self.nodes[i].next;
        match prev {
            None => {
                let bin = self.index_of(line) as usize;
                self.heads[bin] = next;
            }
            Some(p) => self.nodes[p].next = next,
        }
        self.nodes[i].next = self.free;
        self.free = link(i);
        self.live -= 1;
        true
    }

    /// Total live entries (for stats and tests).
    #[must_use]
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Whether any entry in the bin covering `line` belongs to a different
    /// line (i.e. a lookup there would walk a chain / suffer aliasing).
    #[must_use]
    pub fn aliases(&self, line: LineAddr) -> bool {
        self.chain_of(line)
            .any(|i| self.nodes[i].entry.line != line)
    }

    /// A point-in-time chain-length / aliasing summary of the table.
    #[must_use]
    pub fn occupancy(&self) -> OtableOccupancy {
        let mut occ = OtableOccupancy {
            bins: self.bins(),
            ..OtableOccupancy::default()
        };
        for &head in &self.heads {
            let len = self.chain(head).count() as u64;
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

    /// The table as it was once stored, one `Vec` per bin, newest entry
    /// first: the reference the arena chains must match step for step.
    struct Model {
        bins: Vec<Vec<OtableEntry>>,
        mask: u64,
    }

    impl Model {
        fn bin(&self, line: LineAddr) -> &Vec<OtableEntry> {
            &self.bins[bin_index(line, self.mask) as usize]
        }

        fn bin_mut(&mut self, line: LineAddr) -> &mut Vec<OtableEntry> {
            &mut self.bins[bin_index(line, self.mask) as usize]
        }

        fn lookup(&self, line: LineAddr) -> Option<(usize, OtableEntry)> {
            let bin = self.bin(line);
            bin.iter().position(|e| e.line == line).map(|i| (i, bin[i]))
        }

        fn occupancy(&self) -> OtableOccupancy {
            let lens = self.bins.iter().map(|b| b.len() as u64);
            OtableOccupancy {
                bins: self.bins.len() as u64,
                live_entries: lens.clone().sum(),
                occupied_bins: lens.clone().filter(|&l| l > 0).count() as u64,
                aliased_bins: lens.clone().filter(|&l| l > 1).count() as u64,
                max_chain: lens.max().unwrap_or(0),
            }
        }
    }

    /// Random streams of every mutation against the reference: after each
    /// step, every line's lookup (chain position and entry), chain length
    /// and aliasing, and the table's live count and occupancy must agree.
    /// Only operations whose preconditions hold in the reference are
    /// issued; the rest of a draw is a plain lookup.
    #[test]
    fn arena_chains_match_the_vec_per_bin_reference() {
        use ufotm_machine::SimRng;
        let (seeds, steps) = if cfg!(miri) { (1, 150) } else { (6, 3_000) };
        const LINES: u64 = 24;
        const CPUS: usize = 4;
        for bins in [2u64, 8, 64] {
            for seed in 0..seeds {
                let mut rng = SimRng::seed_from_u64(seed * 1_000 + bins);
                let mut t = Otable::new(Addr(0), bins);
                let mut m = Model {
                    bins: vec![Vec::new(); bins as usize],
                    mask: bins - 1,
                };
                for step in 0..steps {
                    let line = LineAddr(rng.gen_range(0..LINES));
                    let cpu = rng.gen_index(0..CPUS);
                    let found = m.lookup(line).map(|(_, e)| e);
                    match (rng.gen_index(0..6), found) {
                        (0 | 1, None) => {
                            let perm = if rng.gen_bool(0.5) {
                                Perm::Read
                            } else {
                                Perm::Write
                            };
                            t.insert(line, perm, cpu);
                            let owners = CpuSet::single(cpu);
                            m.bin_mut(line)
                                .insert(0, OtableEntry { line, perm, owners });
                        }
                        (2, Some(e)) if e.perm == Perm::Read => {
                            t.add_reader(line, cpu);
                            let bin = m.bin_mut(line);
                            let e = bin.iter_mut().find(|e| e.line == line).unwrap();
                            e.owners.insert(cpu);
                        }
                        (3, Some(e)) if e.perm == Perm::Read && e.owners.len() == 1 => {
                            let owner = e.owner_cpus().next().unwrap();
                            t.upgrade(line, owner);
                            let bin = m.bin_mut(line);
                            bin.iter_mut().find(|e| e.line == line).unwrap().perm = Perm::Write;
                        }
                        (3, Some(e)) if e.perm == Perm::Write => {
                            let owner = e.owner_cpus().next().unwrap();
                            t.demote(line, owner);
                            let bin = m.bin_mut(line);
                            bin.iter_mut().find(|e| e.line == line).unwrap().perm = Perm::Read;
                        }
                        (4 | 5, Some(e)) => {
                            let owners: Vec<usize> = e.owner_cpus().collect();
                            let owner = owners[rng.gen_index(0..owners.len())];
                            let bin = m.bin_mut(line);
                            let pos = bin.iter().position(|e| e.line == line).unwrap();
                            bin[pos].owners.remove(owner);
                            let drained = bin[pos].owners.is_empty();
                            if drained {
                                bin.remove(pos);
                            }
                            assert_eq!(t.release(line, owner), drained, "step {step}");
                        }
                        _ => {}
                    }
                    for l in (0..LINES).map(LineAddr) {
                        assert_eq!(t.lookup(l), m.lookup(l), "lookup {l:?}, step {step}");
                        assert_eq!(t.chain_len(l), m.bin(l).len(), "chain_len, step {step}");
                        let aliases = m.bin(l).iter().any(|e| e.line != l);
                        assert_eq!(t.aliases(l), aliases, "aliases, step {step}");
                    }
                    let occ = m.occupancy();
                    assert_eq!(t.live_entries() as u64, occ.live_entries, "step {step}");
                    assert_eq!(t.occupancy(), occ, "occupancy, step {step}");
                }
            }
        }
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
