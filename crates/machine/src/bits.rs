//! CPU sets, and bitmask iteration.
//!
//! CPU sets throughout the machine (directory sharer masks, otable owner
//! masks, the live-transaction set, USTM conflict masks) are [`CpuSet`]s:
//! `u64` bitmasks whose only way in is a CPU index — the machine asserts
//! `cpus ∈ 1..=64`. Iterating one walks only the *set* bits ([`BitIter`],
//! via `trailing_zeros`), so the cost is proportional to the population
//! count and naturally clamps to the CPUs that actually appear — a machine
//! configured with 4 CPUs never loops 64 times.

/// The single-CPU bitmask `1 << cpu`, checked.
///
/// Only CPUs 0..=63 are representable. With a larger id, a raw
/// `1 << cpu` is a *masked* shift in release builds and CPU 64 silently
/// aliases CPU 0, corrupting owner and sharer masks — the PR-4 overflow
/// class. [`Machine::new`](crate::Machine::new) rejects configurations
/// with more than 64 CPUs; the debug assertion here catches any other
/// caller handing an out-of-range id straight to a set.
#[inline]
fn cpu_bit(cpu: usize) -> u64 {
    debug_assert!(
        cpu < 64,
        "CPU sets are u64 bitmasks: cpu {cpu} out of range"
    );
    1u64 << (cpu & 63)
}

/// A set of CPU ids, stored as a `u64` bitmask.
///
/// A CPU enters a set only through [`CpuSet::single`] or
/// [`CpuSet::insert`], which take the CPU's index and range-check it, so
/// a raw `1 << cpu` cannot reach a mask without a type error. Iterating
/// yields the members ascending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuSet(u64);

impl CpuSet {
    /// The set with no CPUs.
    pub const EMPTY: CpuSet = CpuSet(0);

    /// The set holding `cpu` alone.
    #[inline]
    #[must_use]
    pub fn single(cpu: usize) -> Self {
        CpuSet(cpu_bit(cpu))
    }

    /// The set whose mask is `bits`: storage that keeps the raw mask
    /// converts here, inside this crate only.
    #[inline]
    pub(crate) fn from_bits(bits: u64) -> Self {
        CpuSet(bits)
    }

    /// The raw mask: bit `i` set iff CPU `i` is a member.
    #[inline]
    #[must_use]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Adds `cpu`.
    #[inline]
    pub fn insert(&mut self, cpu: usize) {
        self.0 |= cpu_bit(cpu);
    }

    /// Removes `cpu`.
    #[inline]
    pub fn remove(&mut self, cpu: usize) {
        self.0 &= !cpu_bit(cpu);
    }

    /// The set without `cpu`.
    #[inline]
    #[must_use]
    pub fn without(self, cpu: usize) -> Self {
        CpuSet(self.0 & !cpu_bit(cpu))
    }

    /// Whether `cpu` is a member.
    #[inline]
    #[must_use]
    pub fn contains(self, cpu: usize) -> bool {
        self.0 & cpu_bit(cpu) != 0
    }

    /// Whether every member of `other` is a member of `self`.
    #[inline]
    #[must_use]
    pub fn is_superset(self, other: CpuSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether the set has no members.
    #[inline]
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The number of members.
    #[inline]
    #[must_use]
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// The members, ascending.
    #[inline]
    pub fn iter(self) -> BitIter {
        BitIter(self.0)
    }
}

impl IntoIterator for CpuSet {
    type Item = usize;
    type IntoIter = BitIter;

    #[inline]
    fn into_iter(self) -> BitIter {
        self.iter()
    }
}

/// Iterator over the set-bit positions of a `u64`, ascending.
#[derive(Clone, Copy, Debug)]
pub struct BitIter(u64);

impl BitIter {
    /// Iterates the set bits of `mask` from least to most significant.
    pub(crate) fn new(mask: u64) -> Self {
        BitIter(mask)
    }
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1; // clear the lowest set bit
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BitIter {}

impl std::iter::FusedIterator for BitIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mask_yields_nothing() {
        assert_eq!(BitIter::new(0).count(), 0);
    }

    #[test]
    fn bits_come_out_ascending() {
        let got: Vec<usize> = BitIter::new(0b1010_0110).collect();
        assert_eq!(got, vec![1, 2, 5, 7]);
    }

    #[test]
    fn extreme_bits_round_trip() {
        let got: Vec<usize> = BitIter::new(1 | (1 << 63)).collect();
        assert_eq!(got, vec![0, 63]);
        assert_eq!(BitIter::new(u64::MAX).count(), 64);
    }

    #[test]
    fn size_hint_is_exact() {
        let it = BitIter::new(0b1011);
        assert_eq!(it.len(), 3);
        assert_eq!(it.size_hint(), (3, Some(3)));
    }

    #[test]
    fn cpu_bit_matches_raw_shift_in_range() {
        for cpu in 0..64 {
            assert_eq!(cpu_bit(cpu), 1u64 << cpu);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    #[cfg(debug_assertions)]
    fn cpu_bit_rejects_cpu_64() {
        let _ = cpu_bit(64);
    }

    #[test]
    fn matches_naive_scan() {
        for mask in [0u64, 1, 0xFF, 0xDEAD_BEEF_CAFE_F00D, u64::MAX] {
            let naive: Vec<usize> = (0..64).filter(|i| mask & (1 << i) != 0).collect();
            assert_eq!(BitIter::new(mask).collect::<Vec<_>>(), naive);
        }
    }
}
