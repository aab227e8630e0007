//! The write buffer of one TL2 handle (lazy versioning).

#![expect(
    clippy::disallowed_types,
    reason = "probed by every TL2 read (read-own-write), so a hash table; hashed with the \
              fixed `IndexBuild` (no per-process seed), pre-sized and kept across \
              transactions so a warm one never allocates, and never iterated: publication \
              visits the ascending `order` instead"
)]

use std::collections::HashMap;

use ufotm_machine::IndexBuild;

/// Words a fresh buffer holds before its first growth.
const PRESIZE: usize = 64;

/// Buffered transactional writes, keyed by word address.
///
/// Commit publishes one cycle-charged store per word, so publication
/// order is timing-visible. It visits [`WriteSet::ascending`], one sort of
/// the addresses in first-write order, which is the order the ordered map
/// this buffer replaced iterated in.
#[derive(Debug)]
pub(crate) struct WriteSet {
    values: HashMap<u64, u64, IndexBuild>,
    /// Every address of `values` once, in first-write order until
    /// `ascending` sorts it.
    order: Vec<u64>,
}

impl WriteSet {
    pub(crate) fn new() -> Self {
        WriteSet {
            values: HashMap::with_capacity_and_hasher(PRESIZE, IndexBuild::default()),
            order: Vec::with_capacity(PRESIZE),
        }
    }

    /// The buffered value of the word at `addr`, if it was written.
    pub(crate) fn get(&self, addr: u64) -> Option<u64> {
        self.values.get(&addr).copied()
    }

    /// Buffers `value` for the word at `addr`; returns whether the word is
    /// new to the buffer (an overwrite returns `false`).
    pub(crate) fn put(&mut self, addr: u64, value: u64) -> bool {
        let new = self.values.insert(addr, value).is_none();
        if new {
            self.order.push(addr);
        }
        new
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The buffered words with their values, ascending by address.
    pub(crate) fn ascending(&mut self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.order.sort_unstable();
        let values = &self.values;
        self.order.iter().map(move |a| (*a, values[a]))
    }

    /// Drops every buffered word, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.values.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use ufotm_machine::SimRng;

    use super::*;

    /// Random streams of first writes, overwrites, read-own-write probes
    /// and commits against the ordered map the buffer replaced. After
    /// every step each word's buffered value must agree; a commit must
    /// publish the reference's entries in its key order and leave the
    /// buffer empty. Addresses are spread so the hash order is not the
    /// ascending one.
    #[test]
    fn write_set_matches_the_ordered_map_reference() {
        let (seeds, steps) = if cfg!(miri) { (1, 120) } else { (8, 4_000) };
        const WORDS: u64 = 150;
        let addr = |i: u64| i.wrapping_mul(0x9E37_79B9) << 3;
        for seed in 0..seeds {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut set = WriteSet::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for step in 0..steps {
                let a = addr(rng.gen_range(0..WORDS));
                match rng.gen_index(0..8) {
                    // A first write or an overwrite.
                    0..=3 => {
                        let v = rng.next_u64();
                        assert_eq!(
                            set.put(a, v),
                            model.insert(a, v).is_none(),
                            "seed {seed} step {step}: new word"
                        );
                    }
                    // Read-own-write.
                    4..=6 => {
                        assert_eq!(
                            set.get(a),
                            model.get(&a).copied(),
                            "seed {seed} step {step}"
                        );
                    }
                    // Commit: publish in order, then drop the buffer.
                    _ => {
                        let want: Vec<_> = model.iter().map(|(&a, &v)| (a, v)).collect();
                        let got: Vec<_> = set.ascending().collect();
                        assert_eq!(got, want, "seed {seed} step {step}: publication");
                        set.clear();
                        model.clear();
                    }
                }
                assert_eq!(set.is_empty(), model.is_empty(), "seed {seed} step {step}");
                for w in (0..WORDS).map(addr) {
                    assert_eq!(
                        set.get(w),
                        model.get(&w).copied(),
                        "seed {seed} step {step}"
                    );
                }
            }
        }
    }
}
