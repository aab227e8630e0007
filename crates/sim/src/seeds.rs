//! Multi-seed test harness: every randomized test sweeps seeds through
//! [`for_each_seed`] so a red run always prints the seed that broke it and
//! `CHAOS_SEED=<n>` replays exactly that schedule.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use ufotm_machine::FaultPlan;

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

/// [`for_each_seed`] for sweeps whose randomness comes from a
/// [`FaultPlan`]: builds `make_plan(seed)` for each seed and runs
/// `body(seed, plan)`.
///
/// Guards against the *vacuous sweep* bug: a multi-seed sweep over a plan
/// that ignores its seed (e.g. [`FaultPlan::quiet`], whose seed is never
/// consulted because every injection rate is zero) runs the identical
/// cell `count` times while looking like coverage. The guard accepts a
/// sweep iff the plan is seed-sensitive **or** the plan itself varies
/// with the seed in some other field (e.g. a seed-derived
/// `nack_delay`), and panics up front otherwise. Single-seed sweeps
/// are exempt — one quiet control cell is legitimate.
///
/// # Panics
///
/// Panics when `count > 1` and `make_plan` produces seed-insensitive,
/// seed-independent plans; re-raises `body` panics like
/// [`for_each_seed`].
pub fn for_each_seed_plan<F: FnMut(u64, FaultPlan)>(
    base: u64,
    count: u64,
    make_plan: impl Fn(u64) -> FaultPlan,
    mut body: F,
) {
    if count > 1 {
        let mut a = make_plan(base);
        let sensitive = a.seed_sensitive();
        let mut b = make_plan(base.wrapping_add(1));
        a.seed = 0;
        b.seed = 0;
        assert!(
            sensitive || a != b,
            "vacuous seed sweep: the fault plan ignores its seed (every \
             injection rate is zero and no other field varies with the \
             seed), so all {count} seeds would run the identical cell — \
             use a seed-sensitive plan (e.g. FaultPlan::mixed) or a \
             single-seed control run"
        );
    }
    for_each_seed(base, count, |seed| body(seed, make_plan(seed)));
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

    #[test]
    fn vacuous_quiet_sweep_is_rejected() {
        // Multi-seed sweep over `quiet`: every cell identical — caught.
        let r = catch_unwind(AssertUnwindSafe(|| {
            for_each_seed_plan(0, 4, FaultPlan::quiet, |_, _| {});
        }));
        let msg = *r
            .expect_err("vacuous sweep must panic")
            .downcast::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("vacuous seed sweep"), "got: {msg}");
    }

    #[test]
    fn seed_sensitive_and_seed_varying_sweeps_run() {
        // An injecting plan: the seed drives the PRNG, sweep is real.
        let mut seen = Vec::new();
        for_each_seed_plan(5, 3, FaultPlan::mixed, |seed, plan| {
            assert_eq!(plan.seed, seed);
            seen.push(seed);
        });
        assert_eq!(seen, vec![5, 6, 7]);

        // A quiet plan with another field varying with the seed: no PRNG
        // use, but the cells still differ — accepted.
        let mut cells = 0;
        for_each_seed_plan(
            0,
            3,
            |seed| {
                let mut p = FaultPlan::quiet(seed);
                p.nack_delay = 1_000 + seed * 500;
                p
            },
            |_, plan| {
                assert!(plan.nack_delay >= 1_000);
                cells += 1;
            },
        );
        assert_eq!(cells, 3);

        // A single quiet cell is a legitimate control arm.
        let mut ran = false;
        for_each_seed_plan(9, 1, FaultPlan::quiet, |seed, _| {
            assert_eq!(seed, 9);
            ran = true;
        });
        assert!(ran);
    }
}
