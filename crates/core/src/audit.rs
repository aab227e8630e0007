//! Post-pass invariant checking over the trace journal.
//!
//! The drivers journal every attempt edge (begin / commit / abort), every
//! failover, escalation, serial window, and injected fault. This module
//! replays that journal through a per-CPU state machine and checks the
//! protocol invariants that any correct run must satisfy:
//!
//! 1. **Balanced attempts** — every `HwCommit`/`HwAbort` closes a matching
//!    `HwBegin` on the same CPU (likewise `SwCommit`/`SwAbort` for
//!    `SwBegin`), and a complete journal leaves every CPU idle at the end.
//! 2. **Failover follows an abort** — a `Failover` entry appears only
//!    directly after a `HwAbort` on the same CPU (the driver decides to
//!    abandon hardware only because an attempt just died).
//! 3. **Escalations are honoured** — after `WatchdogEscalation(Software)`
//!    the CPU's next attempt is software; after
//!    `WatchdogEscalation(Serial)` it is serial-irrevocable.
//! 4. **One serial window at a time** — `SerialIrrevocable` is journaled
//!    under the global lock, so no second one appears until the holder's
//!    `PlainCommit` (or its `SwAbort`, when the body asked for `retry` and
//!    gave the seat back). Everybody else keeps running and committing:
//!    the window's owner is isolated by ownership, not by exclusion.
//! 5. **Faults precede their driver event** — a `FaultInjected` entry is
//!    drained into the journal before the driver event it provoked, so it
//!    must not carry a cycle later than the CPU's next driver event.
//! 6. **Per-CPU time is monotonic** — a CPU's entries carry non-decreasing
//!    cycles.
//!
//! As a by-product of the replay the auditor reconstructs per-transaction
//! records (first begin → final commit, attempt counts, commit path),
//! which [`RunReport`](crate::RunReport) turns into latency and retry
//! histograms.

use crate::trace::{EscalationTier, TraceEvent, TraceKind, TraceLog};

/// Which path finally committed a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitPath {
    /// Committed by a hardware (BTM) attempt.
    Hw,
    /// Committed by a software (STM) attempt.
    Sw,
    /// Committed on the watchdog's last tier (the eldest transaction).
    Serial,
    /// Committed on the plain/lock path (no attempt events journaled).
    Plain,
}

impl CommitPath {
    /// Stable label used in reports.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            CommitPath::Hw => "hw",
            CommitPath::Sw => "sw",
            CommitPath::Serial => "serial",
            CommitPath::Plain => "plain",
        }
    }
}

/// One transaction reconstructed from the journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnRecord {
    /// The committing CPU.
    pub cpu: usize,
    /// Cycle of the transaction's first attempt begin (for the plain path,
    /// the commit cycle: no begin is journaled).
    pub start_cycle: u64,
    /// Cycle of the final commit.
    pub commit_cycle: u64,
    /// Attempts made (begins observed; 1 = committed first try).
    pub attempts: u32,
    /// The committing path.
    pub path: CommitPath,
}

impl TxnRecord {
    /// First-begin-to-commit latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.commit_cycle - self.start_cycle
    }

    /// Retries before the committing attempt.
    #[must_use]
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// One invariant violation found by the auditor.
#[derive(Clone, Debug)]
pub struct AuditViolation {
    /// Index of the offending event in the journal (`usize::MAX` for
    /// end-of-journal violations).
    pub index: usize,
    /// The CPU the violation is charged to.
    pub cpu: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.index == usize::MAX {
            write!(f, "[end of journal] cpu {}: {}", self.cpu, self.message)
        } else {
            write!(
                f,
                "[event {}] cpu {}: {}",
                self.index, self.cpu, self.message
            )
        }
    }
}

/// The auditor's verdict plus the reconstructed transactions.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Transactions reconstructed from the journal, in commit order.
    pub txns: Vec<TxnRecord>,
    /// All invariant violations, in journal order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Whether the journal satisfied every invariant.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with every violation listed unless the journal is clean.
    ///
    /// # Panics
    ///
    /// Panics if any invariant was violated.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "trace audit found {} violation(s):\n{}",
            self.violations.len(),
            self.violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}

/// What a CPU is doing, per the journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CpuState {
    Idle,
    InHw,
    InSw,
    InSerial,
}

#[derive(Clone, Debug)]
struct CpuTrack {
    state: CpuState,
    last_cycle: u64,
    /// Cycle of the first begin of the in-progress transaction.
    txn_start: Option<u64>,
    attempts: u32,
    /// The CPU's previous driver (non-`FaultInjected`) event kind.
    last_driver: Option<TraceKind>,
    /// Escalation tier awaiting its promised follow-up attempt.
    pending_escalation: Option<EscalationTier>,
    /// Cycle of the latest fault still awaiting a driver event.
    pending_fault: Option<u64>,
}

impl Default for CpuTrack {
    fn default() -> Self {
        CpuTrack {
            state: CpuState::Idle,
            last_cycle: 0,
            txn_start: None,
            attempts: 0,
            last_driver: None,
            pending_escalation: None,
            pending_fault: None,
        }
    }
}

/// Audits a [`TraceLog`], tolerating cap truncation automatically.
#[must_use]
pub fn audit_log(log: &TraceLog) -> AuditReport {
    audit_events(log.events(), log.truncated())
}

/// Audits a raw event slice. Pass `truncated = true` when the journal hit
/// its cap (end-of-journal balance is then not checked).
#[must_use]
pub fn audit_events(events: &[TraceEvent], truncated: bool) -> AuditReport {
    let cpus = events.iter().map(|e| e.cpu + 1).max().unwrap_or(0);
    let mut tracks: Vec<CpuTrack> = vec![CpuTrack::default(); cpus];
    let mut report = AuditReport::default();
    // The CPU currently holding a journaled serial window, if any.
    let mut serial_holder: Option<usize> = None;

    for (i, e) in events.iter().enumerate() {
        let violation = |msg: String| AuditViolation {
            index: i,
            cpu: e.cpu,
            message: msg,
        };

        let t = &mut tracks[e.cpu];

        // Invariant 6: per-CPU cycles never go backwards.
        if e.cycle < t.last_cycle {
            report.violations.push(violation(format!(
                "cycle went backwards ({} after {}) at {}",
                e.cycle, t.last_cycle, e.kind
            )));
        }
        t.last_cycle = t.last_cycle.max(e.cycle);

        if let TraceKind::FaultInjected(_) = e.kind {
            // Invariant 5 is checked when the next driver event arrives.
            t.pending_fault = Some(t.pending_fault.unwrap_or(0).max(e.cycle));
            continue;
        }

        // Invariant 5: the fault was journaled before this driver event,
        // and must not postdate it.
        if let Some(fault_cycle) = t.pending_fault.take() {
            if fault_cycle > e.cycle {
                report.violations.push(violation(format!(
                    "injected fault at cycle {fault_cycle} postdates the driver \
                     event {} at cycle {} it precedes",
                    e.kind, e.cycle
                )));
            }
        }

        // Invariant 3: an escalation promises a specific next attempt.
        if let Some(tier) = t.pending_escalation {
            let honoured = match (tier, e.kind) {
                (EscalationTier::Software, TraceKind::SwBegin)
                | (EscalationTier::Serial, TraceKind::SerialIrrevocable) => true,
                // A second escalation may override the first (software
                // tier escalating again to serial).
                (_, TraceKind::WatchdogEscalation(_)) => true,
                _ => false,
            };
            if !honoured {
                report.violations.push(violation(format!(
                    "escalation to {tier} followed by {} instead of the \
                     promised attempt",
                    e.kind
                )));
            }
            if !matches!(e.kind, TraceKind::WatchdogEscalation(_)) {
                t.pending_escalation = None;
            }
        }

        // Invariant 4: no second serial window while one is open on
        // another CPU.
        if let Some(holder) = serial_holder {
            if holder != e.cpu && e.kind == TraceKind::SerialIrrevocable {
                report.violations.push(violation(format!(
                    "{} while cpu {holder} holds the serial-irrevocable window",
                    e.kind
                )));
            }
        }

        // Invariants 1–2: the per-CPU attempt state machine.
        match e.kind {
            TraceKind::HwBegin => {
                if t.state != CpuState::Idle {
                    report
                        .violations
                        .push(violation(format!("hw-begin in state {:?}", t.state)));
                }
                t.state = CpuState::InHw;
                t.txn_start.get_or_insert(e.cycle);
                t.attempts += 1;
            }
            TraceKind::SwBegin => {
                if t.state != CpuState::Idle {
                    report
                        .violations
                        .push(violation(format!("sw-begin in state {:?}", t.state)));
                }
                t.state = CpuState::InSw;
                t.txn_start.get_or_insert(e.cycle);
                t.attempts += 1;
            }
            TraceKind::HwCommit | TraceKind::HwAbort(_) => {
                if t.state != CpuState::InHw {
                    report.violations.push(violation(format!(
                        "{} without an open hw attempt (state {:?})",
                        e.kind, t.state
                    )));
                }
                t.state = CpuState::Idle;
                if e.kind == TraceKind::HwCommit {
                    report.txns.push(TxnRecord {
                        cpu: e.cpu,
                        start_cycle: t.txn_start.take().unwrap_or(e.cycle),
                        commit_cycle: e.cycle,
                        attempts: std::mem::take(&mut t.attempts).max(1),
                        path: CommitPath::Hw,
                    });
                }
            }
            // The eldest attempt gave its seat back (`retry`).
            TraceKind::SwAbort if t.state == CpuState::InSerial => {
                if serial_holder == Some(e.cpu) {
                    serial_holder = None;
                }
                t.state = CpuState::Idle;
            }
            TraceKind::SwCommit | TraceKind::SwAbort => {
                if t.state != CpuState::InSw {
                    report.violations.push(violation(format!(
                        "{} without an open sw attempt (state {:?})",
                        e.kind, t.state
                    )));
                }
                t.state = CpuState::Idle;
                if e.kind == TraceKind::SwCommit {
                    report.txns.push(TxnRecord {
                        cpu: e.cpu,
                        start_cycle: t.txn_start.take().unwrap_or(e.cycle),
                        commit_cycle: e.cycle,
                        attempts: std::mem::take(&mut t.attempts).max(1),
                        path: CommitPath::Sw,
                    });
                }
            }
            TraceKind::SerialIrrevocable => {
                if t.state != CpuState::Idle {
                    report.violations.push(violation(format!(
                        "serial-irrevocable in state {:?}",
                        t.state
                    )));
                }
                if serial_holder.is_none() {
                    serial_holder = Some(e.cpu);
                }
                t.state = CpuState::InSerial;
                t.txn_start.get_or_insert(e.cycle);
                t.attempts += 1;
            }
            TraceKind::PlainCommit => {
                let path = if t.state == CpuState::InSerial {
                    if serial_holder == Some(e.cpu) {
                        serial_holder = None;
                    }
                    CommitPath::Serial
                } else {
                    if t.state != CpuState::Idle {
                        report
                            .violations
                            .push(violation(format!("plain-commit in state {:?}", t.state)));
                    }
                    CommitPath::Plain
                };
                t.state = CpuState::Idle;
                report.txns.push(TxnRecord {
                    cpu: e.cpu,
                    start_cycle: t.txn_start.take().unwrap_or(e.cycle),
                    commit_cycle: e.cycle,
                    attempts: std::mem::take(&mut t.attempts).max(1),
                    path,
                });
            }
            TraceKind::Failover(_) => {
                if t.state != CpuState::Idle {
                    report
                        .violations
                        .push(violation(format!("failover in state {:?}", t.state)));
                }
                if !matches!(t.last_driver, Some(TraceKind::HwAbort(_))) {
                    report.violations.push(violation(format!(
                        "failover not directly after a hw abort (previous driver \
                         event: {})",
                        t.last_driver
                            .map_or_else(|| "none".to_string(), |k| k.to_string()),
                    )));
                }
            }
            TraceKind::WatchdogEscalation(tier) => {
                if t.state != CpuState::Idle {
                    report
                        .violations
                        .push(violation(format!("escalation in state {:?}", t.state)));
                }
                t.pending_escalation = Some(tier);
            }
            TraceKind::FaultInjected(_) => unreachable!("handled above"),
        }
        t.last_driver = Some(e.kind);
    }

    // End-of-journal balance: meaningless for a truncated journal.
    if !truncated {
        for (cpu, t) in tracks.iter().enumerate() {
            if t.state != CpuState::Idle {
                report.violations.push(AuditViolation {
                    index: usize::MAX,
                    cpu,
                    message: format!("journal ends with an open attempt ({:?})", t.state),
                });
            }
        }
        if let Some(holder) = serial_holder {
            report.violations.push(AuditViolation {
                index: usize::MAX,
                cpu: holder,
                message: "journal ends inside a serial-irrevocable window".to_string(),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufotm_machine::AbortReason;

    fn ev(cycle: u64, cpu: usize, kind: TraceKind) -> TraceEvent {
        TraceEvent { cycle, cpu, kind }
    }

    #[test]
    fn clean_hw_commit_reconstructs_txn() {
        let events = [
            ev(10, 0, TraceKind::HwBegin),
            ev(20, 0, TraceKind::HwAbort(AbortReason::Conflict)),
            ev(30, 0, TraceKind::HwBegin),
            ev(50, 0, TraceKind::HwCommit),
        ];
        let r = audit_events(&events, false);
        r.assert_clean();
        assert_eq!(r.txns.len(), 1);
        let t = r.txns[0];
        assert_eq!(t.start_cycle, 10);
        assert_eq!(t.commit_cycle, 50);
        assert_eq!(t.latency(), 40);
        assert_eq!(t.attempts, 2);
        assert_eq!(t.retries(), 1);
        assert_eq!(t.path, CommitPath::Hw);
    }

    #[test]
    fn failover_chain_counts_as_one_txn() {
        let events = [
            ev(10, 0, TraceKind::HwBegin),
            ev(20, 0, TraceKind::HwAbort(AbortReason::Overflow)),
            ev(21, 0, TraceKind::Failover(AbortReason::Overflow)),
            ev(25, 0, TraceKind::SwBegin),
            ev(80, 0, TraceKind::SwCommit),
        ];
        let r = audit_events(&events, false);
        r.assert_clean();
        assert_eq!(r.txns.len(), 1);
        assert_eq!(r.txns[0].path, CommitPath::Sw);
        assert_eq!(r.txns[0].attempts, 2);
        assert_eq!(r.txns[0].latency(), 70);
    }

    #[test]
    fn truncated_journal_tolerates_open_attempt() {
        let events = [ev(10, 0, TraceKind::HwBegin)];
        assert!(audit_events(&events, true).is_clean());
        assert!(!audit_events(&events, false).is_clean());
    }
}
