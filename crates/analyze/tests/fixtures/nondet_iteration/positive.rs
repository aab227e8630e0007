//@ path: crates/ustm/src/fixture.rs
//! D1 positive: hasher-ordered iteration in a cycle-charged crate.
use std::collections::{HashMap, HashSet};

pub struct OwnerTable {
    entries: HashMap<u64, u64>,
    parked: HashSet<usize>,
}

impl OwnerTable {
    pub fn release_all(&mut self) {
        for (&addr, &owner) in self.entries.iter() { //~ nondet-iteration
            release(addr, owner);
        }
        self.parked.retain(|&cpu| cpu != 0); //~ nondet-iteration
    }

    pub fn wake(&mut self) {
        for &cpu in &self.parked { //~ nondet-iteration
            kick(cpu);
        }
    }
}

fn release(_a: u64, _o: u64) {}
fn kick(_c: usize) {}
