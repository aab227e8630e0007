//@ path: crates/tl2/src/fixture.rs
//! Meta-fixture: the PR-3 regression, replayed.
//!
//! PR 3 kept the TL2 write log in a `HashMap` and published it with
//! `for (&addr, &val) in log.iter()` at commit. Store order reached the
//! simulated memory system in hasher order, so two runs of the *same
//! seed* charged coherence traffic in different interleavings and the
//! bit-identical replay check failed. D1 must catch the pattern if it is
//! ever reintroduced (clippy's `disallowed_types` flags the import).
use std::collections::HashMap;

pub struct WriteLog {
    entries: HashMap<u64, u64>,
}

impl WriteLog {
    pub fn record(&mut self, addr: u64, val: u64) {
        self.entries.insert(addr, val);
    }

    pub fn publish(&mut self, mem: &mut [u64]) {
        for (&addr, &val) in self.entries.iter() { //~ nondet-iteration
            mem[addr as usize] = val;
        }
        self.entries.clear();
    }
}
