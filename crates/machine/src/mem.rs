//! The simulated physical memory image.
//!
//! Data always lives here (the caches are tag-only models); BTM speculative
//! writes are buffered per-CPU and only applied at commit, so the image never
//! contains uncommitted hardware-transactional state.

use crate::addr::Addr;

/// `n` all-zero entries in a block that construction never writes and
/// whose free moves no allocator threshold: the storage of the directory,
/// the L2 and the simulated TL2 lock table.
///
/// The block is always more than 32 MiB. glibc's `malloc` maps a large
/// block fresh, so a zeroed allocation costs no write. But each time a
/// mapped block is freed, its mmap threshold rises to that block's size,
/// up to 32 MiB, and its trim threshold to twice that. A process builds
/// world after world (figure cells, seeds, set-up samples), so from the
/// second one a smaller table would come from the heap, where `calloc`
/// clears what the previous world left, and the freed heap top would be
/// trimmed and faulted back in by the next world. A block above the
/// ceiling is always mapped fresh and raises nothing. Only the pages a run
/// touches become resident; the rest is address space. Miri has its own
/// allocator, which this does not concern.
#[must_use]
pub fn zeroed_pairs(n: usize) -> Vec<[u64; 2]> {
    let min = if cfg!(miri) {
        0
    } else {
        (32 << 20) / std::mem::size_of::<[u64; 2]>() + 1
    };
    let mut v = vec![[0; 2]; n.max(min)];
    v.truncate(n);
    v
}

/// A flat, word-addressed memory image.
#[derive(Clone, Debug)]
pub(crate) struct MemImage {
    words: Vec<u64>,
}

impl MemImage {
    pub fn new(words: u64) -> Self {
        MemImage {
            words: vec![0; usize::try_from(words).expect("memory size fits usize")],
        }
    }

    /// Number of words.
    pub fn len(&self) -> u64 {
        self.words.len() as u64
    }

    fn index(&self, addr: Addr) -> usize {
        let idx = addr.word_index();
        assert!(
            idx < self.len(),
            "simulated address {addr} out of range ({} words)",
            self.len()
        );
        idx as usize
    }

    pub fn read(&self, addr: Addr) -> u64 {
        self.words[self.index(addr)]
    }

    pub fn write(&mut self, addr: Addr, value: u64) {
        let i = self.index(addr);
        self.words[i] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = MemImage::new(16);
        let a = Addr::from_word_index(3);
        assert_eq!(m.read(a), 0);
        m.write(a, 42);
        assert_eq!(m.read(a), 42);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        MemImage::new(4).read(Addr::from_word_index(4));
    }
}
