//! vacation: a travel-reservation system (paper §5.1).
//!
//! Three relation tables (cars, flights, rooms) are binary search trees in
//! shared memory; customers are a fourth tree. A reservation task runs
//! one long transaction: several tree lookups (each reading a line per
//! level), picking the cheapest available item, decrementing its free
//! count, and crediting the customer record. Table-update tasks insert new
//! relations or reprice existing ones.
//!
//! These transactions have large, pointer-chasing footprints; with the
//! low-contention configuration (more queries over a wider id range) they
//! regularly overflow the L1 and force hybrids to fail over — the paper's
//! central stress for hybrid designs. The high-contention configuration
//! concentrates fewer queries on a hot id range.
//!
//! The workload is one [`Workload`] impl, written once against
//! [`TmBackend`], and runs on both substrates:
//! [`run_sim`](crate::harness::run_sim) on the simulated machine
//! (cycle-charged, deterministic),
//! [`run_native`](crate::harness::run_native) on host atomics — TL2-only
//! or the failover hybrid, per `spec.kind`.
//!
//! Simplifications vs. STAMP: relations are repriced rather than deleted
//! (BST deletion adds no new TM behaviour), and customer records accumulate
//! reservation counts instead of linked reservation lists.

use ufotm_core::TmBackend;
use ufotm_machine::{Addr, SimRng};

use crate::harness::{chunk, Workload, STATIC_BASE};
use crate::structures::{BstMap, Peek};

/// Table indices.
const TABLES: usize = 3;

/// vacation parameters.
#[derive(Clone, Copy, Debug)]
pub struct VacationParams {
    /// Relations initially populated per table.
    pub relations: usize,
    /// Id space per table (≥ `relations`).
    pub id_space: usize,
    /// Queries per reservation task.
    pub queries: usize,
    /// Fraction of the id space tasks query, in percent (smaller = hotter).
    pub query_range_pct: usize,
    /// Percentage of tasks that are reservations (the rest update tables).
    pub reserve_pct: usize,
    /// Total tasks, split across threads.
    pub total_tasks: usize,
    /// Customers.
    pub customers: usize,
}

impl VacationParams {
    /// High contention: fewer queries, hot id range (scaled-down STAMP).
    #[must_use]
    pub fn high_contention() -> Self {
        VacationParams {
            relations: 512,
            id_space: 1024,
            queries: 8,
            query_range_pct: 10,
            reserve_pct: 90,
            total_tasks: 96,
            customers: 64,
        }
    }

    /// Low contention: more queries over a wide range — bigger footprints,
    /// more cache overflows (as the paper observes).
    #[must_use]
    pub fn low_contention() -> Self {
        VacationParams {
            relations: 512,
            id_space: 1024,
            queries: 16,
            query_range_pct: 90,
            reserve_pct: 98,
            total_tasks: 96,
            customers: 64,
        }
    }

    /// Root pointer cell of table `t` (0 = cars, 1 = flights, 2 = rooms).
    fn table_root(&self, t: usize) -> Addr {
        STATIC_BASE.add_words(t as u64)
    }

    /// Root pointer cell of the customer tree.
    fn customer_root(&self) -> Addr {
        STATIC_BASE.add_words(TABLES as u64)
    }
}

/// Shuffled-feeling but deterministic pseudo-random stream for setup.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

impl Workload for VacationParams {
    /// Only the four root cells are static; everything else is heap
    /// nodes.
    fn static_end(&self) -> Addr {
        STATIC_BASE.add_words(TABLES as u64 + 1)
    }

    /// Every initial relation/customer node plus every possible insert
    /// task, 8 words each, with slack.
    fn native_alloc_words(&self) -> u64 {
        ((TABLES * self.relations + self.customers + self.total_tasks) as u64 + 64) * 8
    }

    /// One transaction per task.
    fn ops(&self, _seed: u64) -> u64 {
        self.total_tasks as u64
    }

    /// Populates the tables and customers (non-transactional; runs before
    /// the workers).
    fn setup(
        &self,
        seed: u64,
        peek: &Peek<'_>,
        poke: &mut dyn FnMut(Addr, u64),
        alloc: &mut dyn FnMut(u64) -> Addr,
    ) {
        let p = *self;
        // Relation node values: [total, free, price, 0]
        // Customer node values: [reservations, spent, 0, 0]
        for t in 0..TABLES {
            let map = BstMap::new(p.table_root(t));
            for i in 0..p.relations {
                // Insert ids in mixed order to keep the BST shallow.
                let id = mix(seed, t as u64, i as u64) % p.id_space as u64;
                let price = 50 + mix(seed, id, t as u64 + 7) % 450;
                let total = 3 + mix(seed, id, 99) % 5;
                map.host_insert(peek, poke, alloc, id, &[total, total, price, 0]);
            }
        }
        let customers = BstMap::new(p.customer_root());
        for c in 0..p.customers {
            customers.host_insert(peek, poke, alloc, c as u64, &[0, 0, 0, 0]);
        }
    }

    fn body<B: TmBackend>(&self, b: &mut B, seed: u64) {
        let p = *self;
        let tid = b.tid();
        let mut rng = SimRng::seed_from_u64(seed ^ (tid as u64) << 32);
        let range = (p.id_space * p.query_range_pct / 100).max(1) as u64;
        let (start, end) = chunk(p.total_tasks, b.threads(), tid);
        for _ in start..end {
            let action = rng.gen_range(0..100);
            if action < p.reserve_pct as u64 {
                // Reservation task: one long transaction.
                let customer = rng.gen_range(0..p.customers as u64);
                let queries: Vec<(usize, u64)> = (0..p.queries)
                    .map(|_| (rng.gen_index(0..TABLES), rng.gen_range(0..range)))
                    .collect();
                b.transaction(|tx| {
                    let mut best: Option<(Addr, u64)> = None;
                    for &(table, id) in &queries {
                        let map = BstMap::new(p.table_root(table));
                        if let Some(node) = map.lookup(tx, id)? {
                            let free = map.value(tx, node, 1)?;
                            let price = map.value(tx, node, 2)?;
                            if free > 0 && best.is_none_or(|(_, bp)| price < bp) {
                                best = Some((node, price));
                            }
                        }
                        tx.work(20)?;
                    }
                    if let Some((node, price)) = best {
                        let map = BstMap::new(p.table_root(0)); // field helpers only
                        let free = map.value(tx, node, 1)?;
                        if free > 0 {
                            map.set_value(tx, node, 1, free - 1)?;
                            let cust = BstMap::new(p.customer_root());
                            let cnode = cust.lookup(tx, customer)?.expect("customer exists");
                            let n = cust.value(tx, cnode, 0)?;
                            let spent = cust.value(tx, cnode, 1)?;
                            cust.set_value(tx, cnode, 0, n + 1)?;
                            cust.set_value(tx, cnode, 1, spent + price)?;
                        }
                    }
                    Ok(())
                });
            } else {
                // Table update task: insert or reprice a relation.
                let table = rng.gen_index(0..TABLES);
                let id = rng.gen_range(0..p.id_space as u64);
                let price = 50 + rng.gen_range(0..450);
                b.transaction(|tx| {
                    let map = BstMap::new(p.table_root(table));
                    if let Some(node) = map.lookup(tx, id)? {
                        map.set_value(tx, node, 2, price)?;
                    } else {
                        let total = 3 + (id % 5);
                        map.insert(tx, id, &[total, total, price, 0])?;
                    }
                    Ok(())
                });
            }
        }
    }

    /// For every table, `Σ (total − free) == Σ customers' reservations`,
    /// and every relation keeps `0 ≤ free ≤ total`.
    fn verify(&self, _seed: u64, peek: &Peek<'_>) {
        let p = *self;
        let mut reserved_by_tables = 0u64;
        for t in 0..TABLES {
            let map = BstMap::new(p.table_root(t));
            map.peek_each(peek, |_key, vals| {
                let (total, free) = (vals[0], vals[1]);
                assert!(free <= total, "free {free} > total {total} in table {t}");
                reserved_by_tables += total - free;
            });
        }
        let mut reserved_by_customers = 0u64;
        let mut spent = 0u64;
        let cust = BstMap::new(p.customer_root());
        cust.peek_each(peek, |_key, vals| {
            reserved_by_customers += vals[0];
            spent += vals[1];
        });
        assert_eq!(
            reserved_by_tables, reserved_by_customers,
            "reservation conservation violated"
        );
        if reserved_by_customers > 0 {
            assert!(spent >= reserved_by_customers * 50, "prices below minimum");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_native, run_sim, RunSpec};
    use ufotm_core::SystemKind;

    fn tiny() -> VacationParams {
        VacationParams {
            relations: 64,
            id_space: 128,
            queries: 6,
            query_range_pct: 50,
            reserve_pct: 90,
            total_tasks: 30,
            customers: 16,
        }
    }

    #[test]
    fn vacation_verifies_on_sequential() {
        let out = run_sim(&RunSpec::new(SystemKind::Sequential, 1), &tiny());
        assert_eq!(out.total_commits(), 30);
    }

    #[test]
    fn vacation_verifies_on_hybrids() {
        for kind in [SystemKind::UfoHybrid, SystemKind::HyTm, SystemKind::PhTm] {
            let out = run_sim(&RunSpec::new(kind, 3), &tiny());
            assert_eq!(out.total_commits(), 30, "{kind}");
        }
    }

    #[test]
    fn vacation_verifies_on_stms_and_lock() {
        for kind in [
            SystemKind::UstmStrong,
            SystemKind::UstmWeak,
            SystemKind::Tl2,
            SystemKind::GlobalLock,
        ] {
            let out = run_sim(&RunSpec::new(kind, 2), &tiny());
            assert_eq!(out.total_commits(), 30, "{kind}");
        }
    }

    #[test]
    fn vacation_verifies_on_native_threads() {
        let out = run_native(&RunSpec::new(SystemKind::Tl2, 4), &tiny());
        assert_eq!(out.ops, 30);
        assert_eq!(out.total_commits(), 30, "one commit per task");
    }

    #[test]
    fn vacation_verifies_on_native_hybrid() {
        let out = run_native(&RunSpec::new(SystemKind::UfoHybrid, 4), &tiny());
        assert_eq!(out.ops, 30);
        assert_eq!(out.total_commits(), 30, "one commit per task across paths");
    }

    #[test]
    fn low_contention_overflows_more_than_high() {
        use ufotm_machine::AbortReason;
        let hi = run_sim(
            &RunSpec::new(SystemKind::UfoHybrid, 4),
            &VacationParams::high_contention(),
        );
        let lo = run_sim(
            &RunSpec::new(SystemKind::UfoHybrid, 4),
            &VacationParams::low_contention(),
        );
        assert!(
            lo.aborts_for(AbortReason::Overflow) >= hi.aborts_for(AbortReason::Overflow),
            "low contention should overflow at least as much (lo={}, hi={})",
            lo.aborts_for(AbortReason::Overflow),
            hi.aborts_for(AbortReason::Overflow)
        );
    }
}
