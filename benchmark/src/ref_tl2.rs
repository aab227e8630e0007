//! Lower-bound reference cell: the smallest correct TL2 for word slots,
//! so `native.tl2.*_ns` is read against a floor and not in isolation.
//! Fixed word and `lock_ver` arrays (one version-lock per word, bit 0 =
//! locked), `Acquire` version checks, one `AcqRel` clock bump per writing
//! commit, read/write set on the stack. No striping, allocation, liveness
//! or failpoints: what it lacks is what the product's fast path pays for.

use std::sync::atomic::{AtomicU64, Ordering};

/// Words one transaction may touch.
const MAX_SET: usize = 4;

pub struct RefTl2 {
    words: Box<[AtomicU64]>,
    lock_ver: Box<[AtomicU64]>,
    clock: AtomicU64,
}

impl RefTl2 {
    pub fn new(words: usize) -> Self {
        RefTl2 {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            lock_ver: (0..words).map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(0),
        }
    }

    pub fn peek(&self, i: usize) -> u64 {
        self.words[i].load(Ordering::Acquire)
    }

    /// One read-modify-write increment of word `i`, retried to commit.
    pub fn increment(&self, i: usize) {
        while self.try_rmw(&[i]).is_none() {
            std::hint::spin_loop();
        }
    }

    /// One attempt: reads every word of `idx` (ascending, at most
    /// [`MAX_SET`]) and writes back value + 1.
    fn try_rmw(&self, idx: &[usize]) -> Option<()> {
        let rv = self.clock.load(Ordering::Acquire);
        // (word, version seen at read time, value to write)
        let mut set = [(0usize, 0u64, 0u64); MAX_SET];
        for (n, &i) in idx.iter().enumerate() {
            // Pre-sample, load, post-sample. The word load is Acquire and
            // pairs with the committer's Release word store, so a reader
            // that sees a new value also sees that word's lock bit or a
            // newer version in the post-sample.
            let pre = self.lock_ver[i].load(Ordering::Acquire);
            let v = self.words[i].load(Ordering::Acquire);
            let post = self.lock_ver[i].load(Ordering::Relaxed);
            if pre & 1 == 1 || pre != post || pre >> 1 > rv {
                return None;
            }
            set[n] = (i, pre, v + 1);
        }
        let set = &set[..idx.len()];
        // Commit: lock in index order. Every word read is also written,
        // so the CAS from the version seen at read time is the read-set
        // validation as well.
        for (n, &(i, seen, _)) in set.iter().enumerate() {
            let locked = self.lock_ver[i].compare_exchange(
                seen,
                seen | 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            );
            if locked.is_err() {
                for &(j, old, _) in &set[..n] {
                    self.lock_ver[j].store(old, Ordering::Release);
                }
                return None;
            }
        }
        let wv = self.clock.fetch_add(1, Ordering::AcqRel) + 1;
        for &(i, _, v) in set {
            self.words[i].store(v, Ordering::Release);
        }
        // Release: the new version is visible only after the new value.
        for &(i, _, _) in set {
            self.lock_ver[i].store(wv << 1, Ordering::Release);
        }
        Some(())
    }
}
