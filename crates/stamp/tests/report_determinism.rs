//! The run report must serialize byte-identically across same-seed runs —
//! the property the `BENCH_*.json` artifacts rely on for diffable CI
//! uploads. Also checks the report is actually populated (a vacuously
//! empty report would be trivially deterministic).

use ufotm_core::SystemKind;
use ufotm_stamp::harness::RunSpec;
use ufotm_stamp::micro::{self, MicroParams};

fn traced_spec(kind: SystemKind) -> RunSpec {
    let mut s = RunSpec::new(kind, 4);
    s.trace_cap = 1 << 16;
    s
}

#[test]
fn same_seed_reports_are_byte_identical() {
    // A failover rate in the middle gives the report both hardware and
    // software commits to serialize.
    let params = MicroParams::with_rate(0.2);
    let a = micro::run(&traced_spec(SystemKind::UfoHybrid), &params);
    let b = micro::run(&traced_spec(SystemKind::UfoHybrid), &params);
    let ja = a.report.to_json();
    let jb = b.report.to_json();
    assert_eq!(ja, jb, "same seed must serialize byte-identically");

    // Populated, not vacuous.
    a.report.assert_audit_clean();
    assert!(a.report.trace.txns > 0, "txns reconstructed from journal");
    assert!(
        !a.report.trace.latency_log2.is_empty(),
        "latency histogram populated"
    );
    assert_eq!(
        a.report.trace.latency_log2.total(),
        a.report.trace.txns,
        "every txn contributes one latency sample"
    );
    assert!(a.report.hybrid.hw_commits > 0, "hardware commits happened");
    assert!(a.report.hybrid.sw_commits > 0, "failovers reached software");
    assert!(ja.starts_with("{\"schema\":4,"), "schema field leads");
    // Commit-path breakdown from the journal agrees with driver counters.
    let paths = &a.report.trace.commit_paths;
    assert_eq!(paths["hw"], a.report.hybrid.hw_commits);
    assert_eq!(paths["sw"], a.report.hybrid.sw_commits);
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the degenerate explanation for byte-identity: the
    // trace/report machinery ignoring the run entirely.
    let params = MicroParams::with_rate(0.2);
    let a = micro::run(&traced_spec(SystemKind::UfoHybrid), &params);
    let mut spec = traced_spec(SystemKind::UfoHybrid);
    spec.seed ^= 0x5EED;
    let c = micro::run(&spec, &params);
    assert_ne!(
        a.report.to_json(),
        c.report.to_json(),
        "different seeds must produce different reports"
    );
}

#[test]
fn broadcast_engine_matches_targeted_engine_byte_for_byte() {
    // The engine-rewrite regression oracle: the broadcast scheduler (no
    // yield phase, every waiter woken at each handoff) and the targeted
    // fast path must produce the same simulation. At quantum 0 every operation
    // is a handoff, so this exercises the scheduler maximally. Identical
    // trace journals prove per-event equality, identical report JSON
    // proves every derived counter and histogram agrees.
    let params = MicroParams::with_rate(0.2);
    let targeted = micro::run(&traced_spec(SystemKind::UfoHybrid), &params);
    let mut spec = traced_spec(SystemKind::UfoHybrid);
    spec.broadcast_handoff = true;
    let broadcast = micro::run(&spec, &params);
    assert_eq!(
        targeted.journal, broadcast.journal,
        "trace journals must be identical across handoff modes"
    );
    assert_eq!(
        targeted.report.to_json(),
        broadcast.report.to_json(),
        "RunReport JSON must be byte-identical across handoff modes"
    );
    assert!(
        !targeted.journal.is_empty(),
        "journal comparison must not be vacuous"
    );
}

#[test]
fn quantum_50_traced_run_satisfies_the_auditor() {
    // Batched scheduling (quantum > 0) changes interleavings but not
    // correctness: the trace auditor must still find a well-formed,
    // strongly-atomic history, and the batched run must itself be
    // deterministic in both handoff modes.
    let params = MicroParams::with_rate(0.2);
    let mut spec = traced_spec(SystemKind::UfoHybrid);
    spec.quantum = 50;
    let a = micro::run(&spec, &params);
    a.report.assert_audit_clean();
    assert!(a.report.trace.txns > 0, "txns reconstructed from journal");
    let mut bspec = spec.clone();
    bspec.broadcast_handoff = true;
    let b = micro::run(&bspec, &params);
    assert_eq!(a.journal, b.journal, "quantum 50: journals identical");
    assert_eq!(
        a.report.to_json(),
        b.report.to_json(),
        "quantum 50: reports byte-identical across handoff modes"
    );
}

#[test]
fn untraced_report_is_still_deterministic_and_audit_clean() {
    // trace_cap = 0: no journal, histograms empty, audit vacuously clean.
    let params = MicroParams::with_rate(0.0);
    let spec = RunSpec::new(SystemKind::UfoHybrid, 2);
    let a = micro::run(&spec, &params);
    let b = micro::run(&spec, &params);
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(a.report.trace.events, 0);
    a.report.assert_audit_clean();
}
