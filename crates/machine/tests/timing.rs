//! Cycle-accounting regression tests: the cost model is the experiment's
//! measuring stick, so charge paths are pinned down exactly.

use ufotm_machine::{cost, Addr, Machine, MachineConfig};

fn machine(cpus: usize) -> Machine {
    // No timer interrupts: deterministic arithmetic.
    Machine::new(MachineConfig::small(cpus))
}

#[test]
fn cold_load_pays_l1_plus_memory() {
    let mut m = machine(1);
    m.load(0, Addr(0)).unwrap();
    assert_eq!(m.now(0), cost::L1_HIT + cost::MEM);
}

#[test]
fn warm_load_pays_only_l1_hit() {
    let mut m = machine(1);
    m.load(0, Addr(0)).unwrap();
    let before = m.now(0);
    m.load(0, Addr(8)).unwrap(); // same line
    assert_eq!(m.now(0) - before, cost::L1_HIT);
}

#[test]
fn l2_hit_fill_is_cheaper_than_memory() {
    let mut m = machine(1);
    // Fill line 0 (into L1 and L2), then evict it from L1 by walking the
    // set (4-set, 2-way small config: lines 0, 4, 8 share set 0).
    m.load(0, Addr(0)).unwrap();
    m.load(0, Addr(4 * 64)).unwrap();
    m.load(0, Addr(8 * 64)).unwrap(); // evicts line 0 from L1, still in L2
    let before = m.now(0);
    m.load(0, Addr(0)).unwrap();
    assert_eq!(m.now(0) - before, cost::L1_HIT + cost::L2_HIT);
}

#[test]
fn remote_dirty_line_costs_a_transfer() {
    let mut m = machine(2);
    m.store(0, Addr(0), 5).unwrap(); // dirty + exclusive on cpu 0
    let before = m.now(1);
    m.load(1, Addr(0)).unwrap();
    assert_eq!(m.now(1) - before, cost::L1_HIT + cost::CACHE_TO_CACHE);
}

#[test]
fn upgrade_store_invalidate_then_write() {
    let mut m = machine(2);
    m.load(0, Addr(0)).unwrap();
    m.load(1, Addr(0)).unwrap(); // both share the line
    let before = m.now(1);
    m.store(1, Addr(0), 9).unwrap(); // invalidates cpu 0's copy
    assert_eq!(m.now(1) - before, cost::L1_HIT + cost::CACHE_TO_CACHE);
    // CPU 0 must re-fetch.
    let before0 = m.now(0);
    m.load(0, Addr(0)).unwrap();
    assert!(m.now(0) - before0 > cost::L1_HIT);
}

#[test]
fn nack_charges_the_paper_twenty_cycles() {
    let mut m = machine(2);
    m.btm_begin(0).unwrap();
    m.btm_begin(1).unwrap();
    m.store(0, Addr(0), 1).unwrap();
    let before = m.now(1);
    assert!(m.store(1, Addr(0), 2).is_err()); // nacked (younger)
                                              // The nack retry delay is charged on top of the access issue cost.
    assert_eq!(m.now(1) - before, cost::L1_HIT + cost::NACK_RETRY);
    assert_eq!(cost::NACK_RETRY, 20, "paper's constant");
}

#[test]
fn work_and_stall_are_exact() {
    let mut m = machine(1);
    m.work(0, 123).unwrap();
    m.stall(0, 77).unwrap();
    assert_eq!(m.now(0), 200);
    assert_eq!(m.stats().cpus[0].stall_cycles, 77);
}

#[test]
fn btm_begin_commit_costs() {
    let mut m = machine(1);
    m.btm_begin(0).unwrap();
    m.btm_end(0).unwrap();
    assert_eq!(m.now(0), cost::BTM_BEGIN + cost::BTM_COMMIT);
}

#[test]
fn ufo_fault_costs_dispatch() {
    let mut m = machine(2);
    m.set_ufo_bits(0, Addr(0), ufotm_machine::UfoBits::FAULT_ON_BOTH)
        .unwrap();
    m.set_ufo_enabled(1, true);
    let before = m.now(1);
    assert!(m.load(1, Addr(0)).is_err());
    assert_eq!(m.now(1) - before, cost::L1_HIT + cost::FAULT_DISPATCH);
}

#[test]
fn makespan_is_per_cpu_not_summed() {
    let mut m = machine(2);
    m.work(0, 1000).unwrap();
    m.work(1, 10).unwrap();
    assert_eq!(m.clocks().iter().copied().max().unwrap(), 1000);
    assert_eq!(m.clocks()[1], 10);
}
