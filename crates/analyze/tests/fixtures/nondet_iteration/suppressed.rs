//@ path: crates/ustm/src/fixture.rs
//! D1 suppressed: a justified order-insensitive sweep.
use std::collections::HashSet;

pub struct Tracker {
    seen: HashSet<u64>,
}

impl Tracker {
    pub fn total(&self) -> u64 {
        // analyze: allow(nondet-iteration) -- order-insensitive: summation commutes and charges no per-element cycles.
        self.seen.iter().sum()
    }
}
