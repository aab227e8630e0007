//! Multi-seed test harness: every randomized test sweeps seeds through
//! [`for_each_seed`] so a red run always prints the seed that broke it and
//! `CHAOS_SEED=<n>` replays exactly that schedule.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Environment variable that pins a sweep to a single seed.
pub const SEED_ENV: &str = "CHAOS_SEED";

/// Environment variable that overrides how many seeds a sweep runs
/// (see [`seed_count`]).
pub const SEED_COUNT_ENV: &str = "CHAOS_SEEDS";

/// Number of seeds a sweep should run: `CHAOS_SEEDS` if set, else
/// `default`. CI smoke jobs set a small count; nightly/soak runs raise it.
#[must_use]
pub fn seed_count(default: u64) -> u64 {
    match std::env::var(SEED_COUNT_ENV) {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{SEED_COUNT_ENV}={v} is not a number")),
        Err(_) => default,
    }
}

/// Runs `body(seed)` for `count` seeds starting at `base`.
///
/// If any iteration panics, the failing seed is printed as
/// `CHAOS_SEED=<n>` before the panic propagates, so the failure replays
/// with `CHAOS_SEED=<n> cargo test <name>`. Setting `CHAOS_SEED` runs only
/// that seed (ignoring `base`/`count`).
///
/// # Panics
///
/// Re-raises the body's panic; also panics if `CHAOS_SEED` is set but not
/// a number.
pub fn for_each_seed<F: FnMut(u64)>(base: u64, count: u64, mut body: F) {
    if let Ok(v) = std::env::var(SEED_ENV) {
        let seed = v
            .parse()
            .unwrap_or_else(|_| panic!("{SEED_ENV}={v} is not a number"));
        eprintln!("[seed-sweep] replaying pinned {SEED_ENV}={seed}");
        body(seed);
        return;
    }
    for seed in base..base + count {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(seed))) {
            eprintln!("[seed-sweep] FAILED at seed {seed}; replay with {SEED_ENV}={seed}");
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_every_seed_in_order() {
        let mut seen = Vec::new();
        for_each_seed(10, 5, |s| seen.push(s));
        assert_eq!(seen, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn failing_seed_propagates_panic() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            for_each_seed(0, 8, |s| assert_ne!(s, 3, "boom at seed 3"));
        }));
        assert!(r.is_err());
    }
}
