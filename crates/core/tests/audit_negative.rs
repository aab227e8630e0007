//! Negative tests for the trace auditor: hand-crafted malformed journals
//! must be rejected with the right violation, and the equivalent
//! well-formed journals must pass. This is the auditor's own test — the
//! positive path (real runs audit clean) is covered by the hybrid and
//! chaos-torture suites.

use ufotm_core::{audit_events, EscalationTier, TraceEvent, TraceKind};
use ufotm_machine::AbortReason;

fn ev(cycle: u64, cpu: usize, kind: TraceKind) -> TraceEvent {
    TraceEvent { cycle, cpu, kind }
}

#[test]
fn unbalanced_begin_is_flagged() {
    // Second hw-begin with the first still open.
    let events = [
        ev(10, 0, TraceKind::HwBegin),
        ev(20, 0, TraceKind::HwBegin),
        ev(30, 0, TraceKind::HwCommit),
    ];
    let r = audit_events(&events, false);
    assert!(!r.is_clean());
    assert!(
        r.violations[0].message.contains("hw-begin in state InHw"),
        "got: {}",
        r.violations[0]
    );
}

#[test]
fn commit_without_begin_is_flagged() {
    let events = [ev(10, 0, TraceKind::HwCommit)];
    let r = audit_events(&events, false);
    assert!(!r.is_clean());
    assert!(r.violations[0]
        .message
        .contains("without an open hw attempt"));

    let events = [ev(10, 0, TraceKind::SwCommit)];
    let r = audit_events(&events, false);
    assert!(!r.is_clean());
    assert!(r.violations[0]
        .message
        .contains("without an open sw attempt"));
}

#[test]
fn journal_ending_mid_attempt_is_flagged_unless_truncated() {
    let events = [
        ev(10, 0, TraceKind::SwBegin),
        ev(20, 1, TraceKind::HwBegin),
        ev(30, 1, TraceKind::HwCommit),
    ];
    let r = audit_events(&events, false);
    assert_eq!(r.violations.len(), 1);
    assert_eq!(r.violations[0].cpu, 0);
    assert!(r.violations[0].message.contains("open attempt"));
    // A capped journal legitimately ends mid-stream.
    assert!(audit_events(&events, true).is_clean());
}

#[test]
fn failover_without_preceding_abort_is_flagged() {
    // Failover directly after a *commit* — the driver never does this.
    let events = [
        ev(10, 0, TraceKind::HwBegin),
        ev(20, 0, TraceKind::HwCommit),
        ev(21, 0, TraceKind::Failover(AbortReason::Conflict)),
        ev(25, 0, TraceKind::SwBegin),
        ev(40, 0, TraceKind::SwCommit),
    ];
    let r = audit_events(&events, false);
    assert!(!r.is_clean());
    assert!(
        r.violations[0]
            .message
            .contains("failover not directly after a hw abort"),
        "got: {}",
        r.violations[0]
    );

    // Failover as the journal's very first event: same violation.
    let events = [
        ev(10, 0, TraceKind::Failover(AbortReason::Overflow)),
        ev(15, 0, TraceKind::SwBegin),
        ev(30, 0, TraceKind::SwCommit),
    ];
    assert!(!audit_events(&events, false).is_clean());
}

#[test]
fn overlapping_serial_windows_are_flagged() {
    // CPU 1 opens a serial window while CPU 0 still holds one.
    let events = [
        ev(10, 0, TraceKind::SerialIrrevocable),
        ev(20, 1, TraceKind::SerialIrrevocable),
        ev(30, 0, TraceKind::PlainCommit),
        ev(40, 1, TraceKind::PlainCommit),
    ];
    let r = audit_events(&events, false);
    assert!(!r.is_clean());
    assert_eq!(r.violations[0].cpu, 1);
    assert!(
        r.violations[0]
            .message
            .contains("while cpu 0 holds the serial-irrevocable window"),
        "got: {}",
        r.violations[0]
    );
}

#[test]
fn hw_commit_inside_serial_window_is_tolerated() {
    // The window's owner is isolated by ownership: a hardware commit that
    // lands inside it touched nothing the owner holds.
    let events = [
        ev(5, 1, TraceKind::HwBegin),
        ev(10, 0, TraceKind::SerialIrrevocable),
        ev(20, 1, TraceKind::HwCommit),
        ev(30, 0, TraceKind::PlainCommit),
    ];
    audit_events(&events, false).assert_clean();
}

#[test]
fn sw_commit_inside_serial_window_is_tolerated() {
    let events = [
        ev(5, 1, TraceKind::SwBegin),
        ev(10, 0, TraceKind::SerialIrrevocable),
        ev(20, 1, TraceKind::SwCommit),
        ev(30, 0, TraceKind::PlainCommit),
    ];
    audit_events(&events, false).assert_clean();
}

#[test]
fn serial_window_closed_by_sw_abort_frees_the_seat() {
    // An eldest attempt whose body asked for `retry` gives the seat back:
    // the next window may open, and the CPU goes on to an ordinary attempt.
    let events = [
        ev(10, 0, TraceKind::SerialIrrevocable),
        ev(20, 0, TraceKind::SwAbort),
        ev(25, 1, TraceKind::SerialIrrevocable),
        ev(30, 0, TraceKind::SwBegin),
        ev(40, 1, TraceKind::PlainCommit),
        ev(50, 0, TraceKind::SwAbort),
    ];
    audit_events(&events, false).assert_clean();
}

#[test]
fn escalation_must_be_followed_by_promised_attempt() {
    // Software escalation followed by a hardware attempt: violation.
    let events = [
        ev(
            10,
            0,
            TraceKind::WatchdogEscalation(EscalationTier::Software),
        ),
        ev(20, 0, TraceKind::HwBegin),
        ev(30, 0, TraceKind::HwCommit),
    ];
    let r = audit_events(&events, false);
    assert!(!r.is_clean());
    assert!(r.violations[0].message.contains("escalation to software"));

    // Serial escalation honoured: clean.
    let events = [
        ev(10, 0, TraceKind::WatchdogEscalation(EscalationTier::Serial)),
        ev(20, 0, TraceKind::SerialIrrevocable),
        ev(40, 0, TraceKind::PlainCommit),
    ];
    audit_events(&events, false).assert_clean();
}

#[test]
fn fault_postdating_its_driver_event_is_flagged() {
    // The trace() helper drains chaos events *before* recording the
    // driver event they provoked, so a fault stamped later than the next
    // driver event means the drain ordering broke.
    let events = [
        ev(10, 0, TraceKind::HwBegin),
        ev(
            50,
            0,
            TraceKind::FaultInjected(ufotm_machine::ChaosFaultKind::SpuriousAbort),
        ),
        ev(20, 0, TraceKind::HwAbort(AbortReason::Spurious)),
    ];
    let r = audit_events(&events, false);
    assert!(!r.is_clean());
    assert!(
        r.violations
            .iter()
            .any(|v| v.message.contains("postdates the driver event")),
        "got: {:?}",
        r.violations
    );
}

#[test]
fn per_cpu_cycle_regression_is_flagged() {
    let events = [
        ev(100, 0, TraceKind::HwBegin),
        ev(90, 0, TraceKind::HwCommit),
    ];
    let r = audit_events(&events, false);
    assert!(!r.is_clean());
    assert!(r.violations[0].message.contains("cycle went backwards"));
}

#[test]
fn interleaved_cpus_with_failover_chain_audit_clean() {
    // A realistic interleaving: cpu 0 commits in hardware while cpu 1
    // aborts, fails over, and commits in software.
    let events = [
        ev(10, 0, TraceKind::HwBegin),
        ev(12, 1, TraceKind::HwBegin),
        ev(20, 1, TraceKind::HwAbort(AbortReason::Overflow)),
        ev(21, 1, TraceKind::Failover(AbortReason::Overflow)),
        ev(25, 0, TraceKind::HwCommit),
        ev(26, 1, TraceKind::SwBegin),
        ev(90, 1, TraceKind::SwCommit),
    ];
    let r = audit_events(&events, false);
    r.assert_clean();
    assert_eq!(r.txns.len(), 2);
    // Commit order: cpu 0's hw commit at 25, then cpu 1's sw commit at 90.
    assert_eq!(r.txns[0].cpu, 0);
    assert_eq!(r.txns[1].cpu, 1);
    assert_eq!(r.txns[1].attempts, 2);
}
