//! Coherence-protocol edge cases: downgrades, invalidations, eviction
//! interplay with UFO bits and speculative state.

use ufotm_machine::{cost, AbortReason, AccessError, Addr, Machine, MachineConfig, UfoBits};

fn machine(cpus: usize) -> Machine {
    Machine::new(MachineConfig::small(cpus))
}

#[test]
fn remote_read_downgrades_exclusive_owner() {
    let mut m = machine(2);
    m.store(0, Addr(0), 1).unwrap(); // cpu0 exclusive+dirty
    m.load(1, Addr(0)).unwrap(); // downgrade to shared
                                 // Both can now read cheaply; a write must re-arbitrate.
    let t0 = m.now(0);
    m.load(0, Addr(0)).unwrap();
    assert_eq!(m.now(0) - t0, cost::L1_HIT);
    m.store(1, Addr(0), 2).unwrap();
    assert_eq!(m.peek(Addr(0)), 2);
    m.debug_validate();
}

#[test]
fn writeback_preserves_data_across_eviction() {
    let mut m = machine(1); // 4 sets, 2 ways
                            // Dirty line 0, then evict it by filling set 0 (lines 0, 4, 8).
    m.store(0, Addr(0), 42).unwrap();
    m.load(0, Addr(4 * 64)).unwrap();
    m.load(0, Addr(8 * 64)).unwrap();
    // Line 0 evicted; value must persist.
    assert_eq!(m.load(0, Addr(0)).unwrap(), 42);
    m.debug_validate();
}

#[test]
fn ufo_bits_survive_cache_eviction() {
    let mut m = machine(2);
    m.set_ufo_bits(0, Addr(0), UfoBits::FAULT_ON_WRITE).unwrap();
    // Evict the line from cpu0's L1 via set pressure.
    m.load(0, Addr(4 * 64)).unwrap();
    m.load(0, Addr(8 * 64)).unwrap();
    m.load(0, Addr(12 * 64)).unwrap();
    // The bits are directory/memory state: still in force.
    m.set_ufo_enabled(1, true);
    assert!(matches!(
        m.store(1, Addr(0), 1),
        Err(AccessError::UfoFault { .. })
    ));
    m.debug_validate();
}

#[test]
fn spec_read_line_survives_commit_and_stays_cached() {
    let mut m = machine(2);
    m.btm_begin(0).unwrap();
    m.load(0, Addr(0)).unwrap();
    m.btm_end(0).unwrap();
    // Still cached post-commit: hit cost only.
    let t = m.now(0);
    m.load(0, Addr(0)).unwrap();
    assert_eq!(m.now(0) - t, cost::L1_HIT);
}

#[test]
fn aborted_spec_write_line_leaves_the_cache() {
    let mut m = machine(1);
    m.btm_begin(0).unwrap();
    m.store(0, Addr(0), 9).unwrap();
    m.btm_abort(0);
    // The speculative line was invalidated: next access misses.
    let t = m.now(0);
    m.load(0, Addr(0)).unwrap();
    assert!(m.now(0) - t > cost::L1_HIT);
    assert_eq!(m.peek(Addr(0)), 0);
    m.debug_validate();
}

#[test]
fn two_txns_disjoint_lines_commit_concurrently() {
    let mut m = machine(2);
    m.btm_begin(0).unwrap();
    m.btm_begin(1).unwrap();
    m.store(0, Addr(0), 1).unwrap();
    m.store(1, Addr(4096), 2).unwrap();
    m.btm_end(0).unwrap();
    m.btm_end(1).unwrap();
    assert_eq!(m.peek(Addr(0)), 1);
    assert_eq!(m.peek(Addr(4096)), 2);
    assert_eq!(m.stats().aggregate().btm_commits, 2);
    assert_eq!(m.stats().aggregate().total_aborts(), 0);
}

#[test]
fn nont_load_of_spec_read_line_is_harmless() {
    let mut m = machine(2);
    m.btm_begin(0).unwrap();
    m.load(0, Addr(0)).unwrap(); // spec read
                                 // A plain load elsewhere shares the line without killing the txn.
    m.load(1, Addr(0)).unwrap();
    m.btm_end(0).unwrap();
    assert_eq!(m.stats().aggregate().btm_commits, 1);
}

#[test]
fn nont_store_kills_spec_reader_with_nont_reason() {
    let mut m = machine(2);
    m.btm_begin(0).unwrap();
    m.load(0, Addr(0)).unwrap();
    m.store(1, Addr(0), 7).unwrap();
    match m.load(0, Addr(0)) {
        Err(AccessError::TxnAbort(info)) => {
            assert_eq!(info.reason, AbortReason::NonTConflict);
            assert_eq!(info.addr, Some(Addr(0)));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn exclusive_reacquisition_after_remote_share() {
    // cpu0 owns exclusively; cpu1 reads (downgrade); cpu0 writes again
    // (must re-invalidate cpu1).
    let mut m = machine(2);
    m.store(0, Addr(0), 1).unwrap();
    m.load(1, Addr(0)).unwrap();
    m.store(0, Addr(0), 2).unwrap();
    // cpu1's next read misses (its copy was invalidated) but sees 2.
    let t = m.now(1);
    assert_eq!(m.load(1, Addr(0)).unwrap(), 2);
    assert!(m.now(1) - t > cost::L1_HIT);
    m.debug_validate();
}

#[test]
fn set_ufo_claims_exclusive_ownership() {
    let mut m = machine(2);
    m.load(0, Addr(0)).unwrap();
    m.load(1, Addr(0)).unwrap();
    // The UFO set on cpu1 invalidates cpu0's copy.
    m.set_ufo_bits(1, Addr(0), UfoBits::FAULT_ON_WRITE).unwrap();
    let t = m.now(0);
    m.load(0, Addr(0)).unwrap(); // must refetch
    assert!(m.now(0) - t > cost::L1_HIT);
    m.debug_validate();
}

#[test]
fn owner_state_ufo_sets_spare_speculative_readers() {
    let mut cfg = MachineConfig::small(2);
    cfg.ufo_owner_state_sets = true;
    let mut m = Machine::new(cfg);
    m.btm_begin(1).unwrap();
    m.load(1, Addr(0)).unwrap(); // speculative reader
                                 // Read-barrier protection (fault-on-write only): published in the owner
                                 // state — the reader survives and even keeps its cached copy.
    m.set_ufo_bits(0, Addr(0), UfoBits::FAULT_ON_WRITE).unwrap();
    let t = m.now(1);
    m.load(1, Addr(0)).unwrap();
    assert_eq!(m.now(1) - t, cost::L1_HIT, "copy must still be cached");
    m.btm_end(1).unwrap();
    // The protection is still live for UFO-enabled writers.
    m.set_ufo_enabled(1, true);
    assert!(matches!(
        m.store(1, Addr(0), 1),
        Err(AccessError::UfoFault { .. })
    ));
    m.debug_validate();
}

#[test]
fn owner_state_sets_still_kill_speculative_writers() {
    let mut cfg = MachineConfig::small(2);
    cfg.ufo_owner_state_sets = true;
    let mut m = Machine::new(cfg);
    m.btm_begin(1).unwrap();
    m.store(1, Addr(0), 5).unwrap(); // speculative writer: true conflict
    m.set_ufo_bits(0, Addr(0), UfoBits::FAULT_ON_WRITE).unwrap();
    match m.load(1, Addr(0)) {
        Err(AccessError::TxnAbort(info)) => assert_eq!(info.reason, AbortReason::UfoSet),
        other => panic!("{other:?}"),
    }
}

#[test]
fn owner_state_does_not_apply_to_write_barrier_sets() {
    let mut cfg = MachineConfig::small(2);
    cfg.ufo_owner_state_sets = true;
    let mut m = Machine::new(cfg);
    m.btm_begin(1).unwrap();
    m.load(1, Addr(0)).unwrap();
    // Write-barrier protection includes fault-on-read: exclusive path,
    // reader killed (a true conflict — the software txn will write).
    m.set_ufo_bits(0, Addr(0), UfoBits::FAULT_ON_BOTH).unwrap();
    assert!(matches!(m.load(1, Addr(0)), Err(AccessError::TxnAbort(_))));
}
