//! A small, dependency-free, deterministic PRNG.
//!
//! Everything random in this workspace — workload generation, fault
//! injection ([`crate::FaultPlan`]), randomized backoff — must be a pure
//! function of an explicit seed so that any run replays bit-for-bit from
//! that seed alone. Host RNGs (and external crates) are therefore off the
//! table; this module provides the one generator the whole workspace
//! shares: xoshiro256** seeded via splitmix64.
//!
//! The stream is stable across platforms and releases: tests encode
//! seed-derived expectations, so the algorithm must never change silently.

/// One splitmix64 step: advances `state` and returns the next output.
///
/// Exposed because it is also handy as a cheap stateless hash for
/// deterministic setup code (mixing a seed with loop indices).
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic seeded generator (xoshiro256**).
///
/// ```
/// use ufotm_machine::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Returns the next 64 uniformly-distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: core::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = range.end - range.start;
        // Debiased multiply-shift rejection (Lemire).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut lo = m as u64;
        if lo < span {
            let threshold = span.wrapping_neg() % span;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                lo = m as u64;
            }
        }
        range.start + (m >> 64) as u64
    }

    /// Uniform `usize` in `[range.start, range.end)`; panics if empty.
    pub fn gen_index(&mut self, range: core::ops::Range<usize>) -> usize {
        usize::try_from(self.gen_range(range.start as u64..range.end as u64))
            .expect("index fits usize")
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // Compare the top 53 bits against p with 2^-53 resolution.
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(0xDEAD_BEEF);
        let mut b = SimRng::seed_from_u64(0xDEAD_BEEF);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be unrelated, {same} collisions");
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a membership count only; the set is never iterated"
    )]
    fn zero_seed_is_not_degenerate() {
        let mut r = SimRng::seed_from_u64(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(r.next_u64());
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut r = SimRng::seed_from_u64(42);
        let mut hit = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(5..15);
            assert!((5..15).contains(&v));
            hit[(v - 5) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "1000 draws should cover 10 buckets");
    }

    #[test]
    fn gen_bool_extremes_and_rate() {
        let mut r = SimRng::seed_from_u64(9);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        let heads = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&heads), "p=0.25 gave {heads}/10000");
    }

    #[test]
    fn splitmix_hash_is_stable() {
        // Known-answer test: pins the stream across refactors.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
    }
}
