//! genome: segment de-duplication and sorted assembly (paper §5.1).
//!
//! Phase 1 inserts overlapping random segments into a shared hash set
//! (small transactions, moderate contention on buckets). Phase 2 inserts
//! the unique segments into a shared **sorted linked list** — the paper
//! singles this out: inserts read the whole list prefix, so a writer kills
//! every younger reader of the written prefix, making genome the stress
//! test for robust contention management and the source of its periodic
//! cache overflows (long prefixes overflow the L1).
//!
//! The workload is one [`Workload`] impl, written once against
//! [`TmBackend`], and runs on both substrates:
//! [`run_sim`](crate::harness::run_sim) on the simulated machine
//! (cycle-charged, deterministic),
//! [`run_native`](crate::harness::run_native) on host atomics — TL2-only
//! or the failover hybrid, per `spec.kind`.

use ufotm_core::TmBackend;
use ufotm_machine::Addr;

use crate::harness::{chunk, Workload, STATIC_BASE};
use crate::structures::{HashSet, Peek, SortedList};

/// genome parameters.
#[derive(Clone, Copy, Debug)]
pub struct GenomeParams {
    /// Raw segments generated (with duplicates).
    pub segments: usize,
    /// Distinct segment value space (smaller = more duplicates).
    pub segment_space: u64,
    /// Hash-set buckets (power of two).
    pub buckets: u64,
}

impl GenomeParams {
    /// The scaled-down default configuration.
    #[must_use]
    pub fn standard() -> Self {
        GenomeParams {
            segments: 384,
            segment_space: 1 << 30,
            buckets: 128,
        }
    }

    fn set_base(&self) -> Addr {
        STATIC_BASE
    }

    fn list_head(&self) -> Addr {
        self.set_base().add_words(self.buckets)
    }

    /// The number of distinct segments the seed produces — deterministic,
    /// so both the ops count and the verifier know it up front.
    fn distinct_segments(&self, seed: u64) -> Vec<u64> {
        let mut all: Vec<u64> = (0..self.segments).map(|i| segment(seed, i)).collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

fn segment(seed: u64, i: usize) -> u64 {
    let mut x = seed ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    // Bias toward duplicates: fold into the segment space, then square off
    // the low bits so nearby indices collide sometimes.
    (x % (1 << 16)) % 977 + (x % 7) * 1000 + 1 // never 0 (0 = null key)
}

impl Workload for GenomeParams {
    /// The bucket array plus the list-head word.
    fn static_end(&self) -> Addr {
        self.list_head().add_words(1)
    }

    /// One node per raw segment in each of the two structures, with
    /// slack.
    fn native_alloc_words(&self) -> u64 {
        (self.segments as u64 * 2 + 64) * 8
    }

    /// One transaction per raw segment in phases 1 and 3, plus one per
    /// distinct segment in phase 2 — deterministic from the seed.
    fn ops(&self, seed: u64) -> u64 {
        (self.segments * 2 + self.distinct_segments(seed).len()) as u64
    }

    fn body<B: TmBackend>(&self, b: &mut B, seed: u64) {
        let p = *self;
        let set = HashSet::new(p.set_base(), p.buckets);
        let list = SortedList::new(p.list_head());
        let (start, end) = chunk(p.segments, b.threads(), b.tid());
        // Phase 1: de-duplicate into the hash set. Remember which keys
        // *we* inserted first — exactly those are ours to assemble.
        let mut mine = Vec::new();
        for i in start..end {
            let key = segment(seed, i);
            let fresh = b.transaction(|tx| set.insert(tx, key));
            if fresh {
                mine.push(key);
            }
            b.compute(30);
        }
        b.barrier();
        // Phase 2: sorted assembly (the contention stress).
        for key in mine {
            let inserted = b.transaction(|tx| list.insert(tx, key, key ^ 1));
            assert!(inserted, "key {key} was uniquely ours");
            b.compute(20);
        }
        b.barrier();
        // Phase 3: matching — read-mostly probes against the set (the
        // bulk of STAMP genome's runtime; embarrassingly parallel).
        for i in start..end {
            let key = segment(seed, i);
            let probes = [key, key ^ 3, key.wrapping_add(17)];
            let hits = b.transaction(|tx| {
                let mut hits = 0u64;
                for p in probes {
                    if set.contains(tx, p)? {
                        hits += 1;
                    }
                }
                Ok(hits)
            });
            assert!(hits >= 1, "own segment must be present");
            b.compute(120);
        }
    }

    /// The final list must contain exactly the distinct segments, in
    /// sorted order, and the hash set must agree.
    fn verify(&self, seed: u64, peek: &Peek<'_>) {
        let p = *self;
        let set = HashSet::new(p.set_base(), p.buckets);
        let list = SortedList::new(p.list_head());
        let expected = p.distinct_segments(seed);
        let keys = list.peek_keys(peek);
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "list must be strictly sorted"
        );
        assert_eq!(
            keys, expected,
            "list contents diverge from the distinct segments"
        );
        let mut set_keys = set.peek_all(peek);
        set_keys.sort_unstable();
        assert_eq!(set_keys, expected, "hash set contents diverge");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_native, run_sim, RunSpec};
    use ufotm_core::SystemKind;

    fn tiny() -> GenomeParams {
        GenomeParams {
            segments: 80,
            segment_space: 1 << 30,
            buckets: 32,
        }
    }

    #[test]
    fn genome_verifies_on_sequential() {
        run_sim(&RunSpec::new(SystemKind::Sequential, 1), &tiny());
    }

    #[test]
    fn genome_verifies_on_hybrids_and_stms() {
        for kind in [
            SystemKind::UfoHybrid,
            SystemKind::PhTm,
            SystemKind::UstmStrong,
            SystemKind::Tl2,
        ] {
            run_sim(&RunSpec::new(kind, 3), &tiny());
        }
    }

    #[test]
    fn genome_verifies_on_native_threads() {
        let p = tiny();
        let out = run_native(&RunSpec::new(SystemKind::Tl2, 3), &p);
        assert_eq!(out.total_commits(), out.ops, "one commit per transaction");
    }

    #[test]
    fn genome_verifies_on_native_hybrid() {
        let p = tiny();
        let out = run_native(&RunSpec::new(SystemKind::UfoHybrid, 3), &p);
        assert_eq!(out.total_commits(), out.ops, "one commit per transaction");
    }

    #[test]
    fn genome_has_duplicates_to_deduplicate() {
        let p = tiny();
        let all = p.distinct_segments(1);
        let total = p.segments;
        assert!(all.len() < total, "parameters should produce duplicates");
        assert!(all.len() > total / 4, "but not only duplicates");
    }
}
