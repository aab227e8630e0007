//! The coherence directory.
//!
//! One entry per cache line of the memory image records which CPUs hold the
//! line (a sharer bitmask), whether one of them holds it exclusively, and the
//! line's UFO bits — the UFO bits are directory/memory state precisely so
//! that they "travel with the data" and stay coherent, as the paper's
//! Appendix A prescribes. Protocol *actions* (who gets invalidated, which
//! speculative transactions die) are orchestrated by
//! [`Machine`](crate::Machine); this module only maintains the state and its
//! invariants.

use crate::addr::LineAddr;
use crate::bits::cpu_bit;
use crate::ufo::UfoBits;

/// Directory state for one line, packed so that the all-zero value is an
/// uncached, unprotected line: `[sharers, flags]`, where `flags` holds the
/// UFO bits' raw encoding in bits 0–1 and [`EXCLUSIVE`] in bit 2. The owner
/// is not stored: when `EXCLUSIVE` is set it is the single sharer.
///
/// A plain array rather than a struct because `vec![[0u64; 2]; n]` takes
/// the zeroed-allocation path: a Table 4 directory (8 MiB) costs no write at
/// construction, and a page materializes only when a line on it is first
/// touched. One allocation keeps the UFO check and the owner check of an
/// access on one host cache line.
type Entry = [u64; 2];

/// The sharer mask's index in an [`Entry`].
const SHARERS: usize = 0;
/// The flag word's index in an [`Entry`].
const FLAGS: usize = 1;
/// The flag word's UFO bits.
const UFO_MASK: u64 = 0b11;
/// The flag word's bit for "the single sharer holds the line exclusively".
const EXCLUSIVE: u64 = 0b100;

/// The full directory: dense per-line state.
#[derive(Clone, Debug)]
pub(crate) struct Directory {
    lines: Vec<Entry>,
}

/// The fewest entries a directory allocates: a block of more than 32 MiB.
///
/// glibc's `malloc` maps a large block fresh, so a zeroed allocation costs
/// no write. But each time a mapped block is freed, its mmap threshold
/// rises to that block's size, up to 32 MiB. From the third Table 4
/// machine a process builds on, an 8 MiB directory would come from the
/// heap, and `calloc` would clear the 8 MiB the previous one left there.
/// A block above the ceiling is always mapped fresh. Only the pages a run
/// touches become resident; the rest is address space. Miri has its own
/// allocator, which this does not concern.
const MIN_ALLOC_ENTRIES: usize = if cfg!(miri) {
    0
} else {
    (32 << 20) / std::mem::size_of::<Entry>() + 1
};

impl Directory {
    pub fn new(lines: u64) -> Self {
        let n = usize::try_from(lines).expect("line count fits usize");
        let mut lines = vec![[0; 2]; n.max(MIN_ALLOC_ENTRIES)];
        lines.truncate(n);
        Directory { lines }
    }

    fn idx(&self, line: LineAddr) -> usize {
        let i = line.index();
        assert!(
            (i as usize) < self.lines.len(),
            "line {line:?} outside directory ({} lines)",
            self.lines.len()
        );
        i as usize
    }

    fn entry(&self, line: LineAddr) -> Entry {
        self.lines[self.idx(line)]
    }

    fn entry_mut(&mut self, line: LineAddr) -> &mut Entry {
        let i = self.idx(line);
        &mut self.lines[i]
    }

    /// The CPU holding the line exclusively, if any.
    pub fn owner(&self, line: LineAddr) -> Option<usize> {
        let e = self.entry(line);
        (e[FLAGS] & EXCLUSIVE != 0).then(|| e[SHARERS].trailing_zeros() as usize)
    }

    /// CPUs (other than `except`) currently holding the line. Walks only
    /// the set bits of the sharer mask, so the cost tracks the actual
    /// holder count rather than a fixed 0..64 scan.
    #[cfg(test)]
    pub fn holders_except(&self, line: LineAddr, except: usize) -> crate::bits::BitIter {
        crate::bits::BitIter::new(self.holders_mask_except(line, except))
    }

    /// The sharer mask with `except` removed. The mask is `Copy`, so
    /// callers that need to mutate the machine per holder can grab it
    /// first and iterate `BitIter::new(mask)` without borrowing `self`.
    pub fn holders_mask_except(&self, line: LineAddr, except: usize) -> u64 {
        self.entry(line)[SHARERS] & !cpu_bit(except)
    }

    /// Whether `cpu` holds the line (in any state).
    pub fn is_sharer(&self, line: LineAddr, cpu: usize) -> bool {
        self.entry(line)[SHARERS] & cpu_bit(cpu) != 0
    }

    /// Number of CPUs holding the line (the chaos engine scales injected
    /// nack delays by how many caches would have had to respond).
    pub fn sharer_count(&self, line: LineAddr) -> u32 {
        self.entry(line)[SHARERS].count_ones()
    }

    /// Records `cpu` as a (non-exclusive) sharer; demotes any owner flag if
    /// the owner keeps a shared copy.
    pub fn add_sharer(&mut self, line: LineAddr, cpu: usize) {
        let e = self.entry_mut(line);
        e[SHARERS] |= cpu_bit(cpu);
        e[FLAGS] &= !EXCLUSIVE;
        self.check(line);
    }

    /// Records `cpu` as the sole, exclusive holder.
    pub fn set_exclusive(&mut self, line: LineAddr, cpu: usize) {
        let e = self.entry_mut(line);
        e[SHARERS] = cpu_bit(cpu);
        e[FLAGS] |= EXCLUSIVE;
        self.check(line);
    }

    /// Removes `cpu` from the sharer set (eviction or invalidation).
    pub fn remove_sharer(&mut self, line: LineAddr, cpu: usize) {
        let owned = self.owner(line) == Some(cpu);
        let e = self.entry_mut(line);
        e[SHARERS] &= !cpu_bit(cpu);
        if owned {
            e[FLAGS] &= !EXCLUSIVE;
        }
        self.check(line);
    }

    pub fn ufo(&self, line: LineAddr) -> UfoBits {
        // The mask keeps the value in a u8's range.
        UfoBits::from_raw((self.entry(line)[FLAGS] & UFO_MASK) as u8)
    }

    pub fn set_ufo(&mut self, line: LineAddr, bits: UfoBits) {
        let e = self.entry_mut(line);
        e[FLAGS] = (e[FLAGS] & !UFO_MASK) | u64::from(bits.to_raw());
    }

    pub fn or_ufo(&mut self, line: LineAddr, bits: UfoBits) {
        self.entry_mut(line)[FLAGS] |= u64::from(bits.to_raw());
    }

    /// Debug invariant: an exclusive owner is the only sharer.
    fn check(&self, line: LineAddr) {
        let e = self.entry(line);
        if e[FLAGS] & EXCLUSIVE != 0 {
            debug_assert_eq!(
                e[SHARERS].count_ones(),
                1,
                "the exclusive owner of {line:?} must be its sole sharer"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharer_bookkeeping() {
        let mut d = Directory::new(8);
        let l = LineAddr(2);
        d.add_sharer(l, 0);
        d.add_sharer(l, 3);
        assert!(d.is_sharer(l, 0) && d.is_sharer(l, 3) && !d.is_sharer(l, 1));
        assert_eq!(d.holders_except(l, 0).collect::<Vec<_>>(), vec![3]);
        d.remove_sharer(l, 0);
        assert!(!d.is_sharer(l, 0));
    }

    #[test]
    fn exclusive_ownership_replaces_sharers() {
        let mut d = Directory::new(8);
        let l = LineAddr(1);
        d.add_sharer(l, 0);
        d.add_sharer(l, 1);
        d.set_exclusive(l, 2);
        assert_eq!(d.owner(l), Some(2));
        assert!(d.is_sharer(l, 2) && !d.is_sharer(l, 0));
        d.remove_sharer(l, 2);
        assert_eq!(d.owner(l), None);
    }

    #[test]
    fn cpu_63_shares_and_owns() {
        let mut d = Directory::new(4);
        let l = LineAddr(3);
        d.add_sharer(l, 63);
        d.add_sharer(l, 0);
        assert!(d.is_sharer(l, 63) && d.is_sharer(l, 0));
        assert_eq!(d.sharer_count(l), 2);
        assert_eq!(d.owner(l), None);
        d.set_exclusive(l, 63);
        assert_eq!(d.owner(l), Some(63));
        assert_eq!(d.holders_mask_except(l, 0), cpu_bit(63));
        assert_eq!(d.holders_mask_except(l, 63), 0);
        d.remove_sharer(l, 63);
        assert_eq!((d.owner(l), d.sharer_count(l)), (None, 0));
    }

    #[test]
    fn a_new_sharer_drops_exclusive_ownership() {
        let mut d = Directory::new(4);
        let l = LineAddr(0);
        d.set_exclusive(l, 5);
        d.add_sharer(l, 7);
        assert_eq!(d.owner(l), None);
        assert!(d.is_sharer(l, 5) && d.is_sharer(l, 7));
        // The former owner keeps a shared copy: removing it leaves 7.
        d.remove_sharer(l, 5);
        assert_eq!(d.holders_mask_except(l, 63), cpu_bit(7));
        assert_eq!(d.owner(l), None);
    }

    #[test]
    fn removing_the_owner_clears_ownership() {
        let mut d = Directory::new(4);
        let l = LineAddr(2);
        d.set_exclusive(l, 1);
        // A CPU that holds no copy leaves the owner alone.
        d.remove_sharer(l, 4);
        assert_eq!(d.owner(l), Some(1));
        d.remove_sharer(l, 1);
        assert_eq!(d.owner(l), None);
        assert_eq!(d.sharer_count(l), 0);
        // With no owner left, a new exclusive holder takes the line.
        d.set_exclusive(l, 2);
        assert_eq!(d.owner(l), Some(2));
    }

    #[test]
    fn ufo_bits_survive_every_sharer_transition() {
        let mut d = Directory::new(4);
        let l = LineAddr(1);
        for bits in [
            UfoBits::NONE,
            UfoBits::FAULT_ON_READ,
            UfoBits::FAULT_ON_WRITE,
            UfoBits::FAULT_ON_BOTH,
        ] {
            d.set_ufo(l, bits);
            d.add_sharer(l, 0);
            assert_eq!(d.ufo(l), bits);
            d.add_sharer(l, 63);
            assert_eq!(d.ufo(l), bits);
            d.set_exclusive(l, 63);
            assert_eq!(d.ufo(l), bits);
            d.add_sharer(l, 2);
            assert_eq!(d.ufo(l), bits);
            d.set_exclusive(l, 2);
            d.remove_sharer(l, 2);
            assert_eq!(d.ufo(l), bits);
            assert_eq!((d.owner(l), d.sharer_count(l)), (None, 0));
        }
        // And sharer state survives UFO updates.
        d.set_exclusive(l, 9);
        d.set_ufo(l, UfoBits::FAULT_ON_BOTH);
        d.set_ufo(l, UfoBits::NONE);
        d.or_ufo(l, UfoBits::FAULT_ON_WRITE);
        assert_eq!(d.owner(l), Some(9));
        assert_eq!(d.ufo(l), UfoBits::FAULT_ON_WRITE);
        // Neighbouring lines are untouched.
        assert_eq!(d.ufo(LineAddr(0)), UfoBits::NONE);
        assert_eq!(d.sharer_count(LineAddr(2)), 0);
    }

    #[test]
    fn ufo_bits_are_per_line() {
        let mut d = Directory::new(4);
        d.set_ufo(LineAddr(0), UfoBits::FAULT_ON_WRITE);
        d.or_ufo(LineAddr(0), UfoBits::FAULT_ON_READ);
        assert_eq!(d.ufo(LineAddr(0)), UfoBits::FAULT_ON_BOTH);
        assert_eq!(d.ufo(LineAddr(1)), UfoBits::NONE);
        d.set_ufo(LineAddr(0), UfoBits::NONE);
        assert!(d.ufo(LineAddr(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "outside directory")]
    fn out_of_range_line_panics() {
        Directory::new(2).ufo(LineAddr(2));
    }
}
