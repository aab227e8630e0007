//! An optional transaction-event journal.
//!
//! When enabled, the drivers record begin/commit/abort/failover events with
//! their simulated timestamps — the moral equivalent of the event dumps a
//! hardware-simulator study pores over. Host-side only: recording charges
//! no simulated cycles and cannot perturb results.

use ufotm_machine::{AbortReason, ChaosFaultKind};

/// Which degradation tier the progress watchdog escalated to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EscalationTier {
    /// Give up on hardware for this transaction; run it in the STM.
    Software,
    /// Take the global lock and run once more as the eldest software
    /// transaction, which nothing can kill.
    Serial,
}

impl std::fmt::Display for EscalationTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EscalationTier::Software => f.write_str("software"),
            EscalationTier::Serial => f.write_str("serial"),
        }
    }
}

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A hardware (BTM) attempt began.
    HwBegin,
    /// A hardware attempt committed.
    HwCommit,
    /// A hardware attempt aborted for this reason.
    HwAbort(AbortReason),
    /// The driver decided to fail this transaction over to software.
    Failover(AbortReason),
    /// A software (STM) attempt began.
    SwBegin,
    /// A software attempt committed.
    SwCommit,
    /// A software attempt aborted (killed, woken, or explicit).
    SwAbort,
    /// The transaction committed under the global lock / serially.
    PlainCommit,
    /// The chaos engine injected this fault (drained from the machine's
    /// journal; timestamped with the machine-side injection cycle).
    FaultInjected(ChaosFaultKind),
    /// The progress watchdog escalated this transaction to a stronger tier.
    WatchdogEscalation(EscalationTier),
    /// The transaction took the watchdog's last tier: it holds the global
    /// lock and begins as the eldest software transaction.
    SerialIrrevocable,
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceKind::HwBegin => f.write_str("hw-begin"),
            TraceKind::HwCommit => f.write_str("hw-commit"),
            TraceKind::HwAbort(r) => write!(f, "hw-abort({r})"),
            TraceKind::Failover(r) => write!(f, "failover({r})"),
            TraceKind::SwBegin => f.write_str("sw-begin"),
            TraceKind::SwCommit => f.write_str("sw-commit"),
            TraceKind::SwAbort => f.write_str("sw-abort"),
            TraceKind::PlainCommit => f.write_str("plain-commit"),
            TraceKind::FaultInjected(k) => write!(f, "fault-injected({k})"),
            TraceKind::WatchdogEscalation(t) => write!(f, "watchdog-escalation({t})"),
            TraceKind::SerialIrrevocable => f.write_str("serial-irrevocable"),
        }
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The issuing CPU's simulated clock at the event.
    pub cycle: u64,
    /// The CPU.
    pub cpu: usize,
    /// The event.
    pub kind: TraceKind,
}

/// A bounded event journal (disabled and empty by default).
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    cap: usize,
    enabled: bool,
}

impl TraceLog {
    /// Enables recording of up to `cap` events (older events are kept;
    /// recording stops at the cap).
    pub fn enable(&mut self, cap: usize) {
        self.enabled = true;
        self.cap = cap;
        self.events.reserve(cap.min(1 << 20));
    }

    /// Whether recording is on (and below the cap).
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.enabled && self.events.len() < self.cap
    }

    /// Whether recording was enabled but hit the cap: the journal ends
    /// mid-stream, so end-of-journal balance checks do not apply.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.enabled && self.events.len() >= self.cap
    }

    pub(crate) fn record(&mut self, cycle: u64, cpu: usize, kind: TraceKind) {
        if self.is_recording() {
            self.events.push(TraceEvent { cycle, cpu, kind });
        }
    }

    /// The recorded events, in recording order (which is also
    /// non-decreasing simulated time per CPU).
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events for one CPU.
    pub fn for_cpu(&self, cpu: usize) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.cpu == cpu)
    }

    /// Renders a compact per-CPU timeline (for examples and debugging).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let cpus: std::collections::BTreeSet<usize> = self.events.iter().map(|e| e.cpu).collect();
        for cpu in cpus {
            let _ = writeln!(out, "cpu {cpu}:");
            for e in self.for_cpu(cpu) {
                let _ = writeln!(out, "  @{:>10}  {}", e.cycle, e.kind);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::default();
        log.record(1, 0, TraceKind::HwBegin);
        assert!(log.events().is_empty());
        assert!(!log.is_recording());
    }

    #[test]
    fn cap_bounds_recording() {
        let mut log = TraceLog::default();
        log.enable(2);
        log.record(1, 0, TraceKind::HwBegin);
        log.record(2, 0, TraceKind::HwCommit);
        log.record(3, 0, TraceKind::HwBegin);
        assert_eq!(log.events().len(), 2);
    }

    #[test]
    fn render_groups_by_cpu() {
        let mut log = TraceLog::default();
        log.enable(16);
        log.record(5, 1, TraceKind::HwBegin);
        log.record(9, 0, TraceKind::SwBegin);
        log.record(12, 1, TraceKind::HwCommit);
        let s = log.render();
        assert!(s.contains("cpu 0:"));
        assert!(s.contains("cpu 1:"));
        assert!(s.contains("hw-commit"));
        let cpu0_pos = s.find("cpu 0:").unwrap();
        let cpu1_pos = s.find("cpu 1:").unwrap();
        assert!(cpu0_pos < cpu1_pos);
    }
}
