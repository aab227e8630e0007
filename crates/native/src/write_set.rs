//! The buffered write set both native paths publish at commit: TL2's
//! write buffer and USTM's redo log are the same structure.

use ufotm_machine::Addr;

/// Buffered writes as `(byte address, value)`, sorted by address, one
/// entry per word. Handle-owned: cleared — never dropped — between
/// attempts, so a warm attempt does not allocate for it.
#[derive(Debug, Default)]
pub(crate) struct WriteSet(Vec<(u64, u64)>);

impl WriteSet {
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Read-own-write: the value this transaction last wrote to `addr`.
    /// A transaction that has written nothing skips the probe.
    #[inline]
    pub(crate) fn get(&self, addr: Addr) -> Option<u64> {
        if self.0.is_empty() {
            return None;
        }
        self.slot(addr).ok().map(|i| self.0[i].1)
    }

    /// Buffers `value` for `addr`, replacing an earlier write to it.
    #[inline]
    pub(crate) fn insert(&mut self, addr: Addr, value: u64) {
        match self.slot(addr) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (addr.0, value)),
        }
    }

    /// The entries, ascending by address — the order both paths acquire
    /// in and publish in.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[(u64, u64)] {
        &self.0
    }

    /// Where `addr` sits in the sorted set (`Ok`), or where it would be
    /// inserted (`Err`).
    #[inline]
    fn slot(&self, addr: Addr) -> Result<usize, usize> {
        self.0.binary_search_by_key(&addr.0, |&(a, _)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descending_inserts_and_overwrites_come_out_ascending_with_last_values() {
        let mut set = WriteSet::default();
        assert_eq!(set.get(Addr(8)), None);
        for a in (1..=100u64).rev() {
            set.insert(Addr(8 * a), a);
            if a % 10 == 0 {
                set.insert(Addr(8 * a), a + 1000);
            }
        }
        let want: Vec<(u64, u64)> = (1..=100u64)
            .map(|a| (8 * a, if a % 10 == 0 { a + 1000 } else { a }))
            .collect();
        assert_eq!(set.as_slice(), want);
        assert_eq!(set.get(Addr(80)), Some(1010));
        assert_eq!(set.get(Addr(4)), None);
        set.clear();
        assert!(set.is_empty());
    }
}
