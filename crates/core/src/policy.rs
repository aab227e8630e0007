//! Hybrid contention-management and failover policy knobs (paper §4.4).
//!
//! Together with the machine-level knobs
//! ([`HwCmPolicy`](ufotm_machine::HwCmPolicy),
//! [`UfoKillPolicy`](ufotm_machine::UfoKillPolicy)), these reproduce every
//! bar of the paper's Figure 8 sensitivity study.

/// What a hardware transaction does when it takes a UFO fault (i.e. touches
/// a line held by an in-flight software transaction).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BtmUfoFaultPolicy {
    /// Abort the hardware transaction and let the abort handler back off
    /// and retry (the paper's default).
    #[default]
    AbortAndRetry,
    /// Stall inside the transaction until the protection clears (Figure 8,
    /// third bar: "preventing hardware transactions from aborting unless
    /// absolutely necessary").
    Stall,
}

/// Base of the exponential backoff applied after contention-class aborts
/// (doubled per consecutive abort, counted up to [`BACKOFF_CAP_EXP`]).
pub(crate) const BACKOFF_BASE: u64 = 50;
/// Consecutive-abort count saturates here (the paper counts "up to 7").
const BACKOFF_CAP_EXP: u32 = 7;
/// Percent of each backoff added as seeded random jitter whenever watchdog
/// tier 1 ([`HybridPolicy::watchdog_hw_attempts`]) is armed: tier 0,
/// because symmetric contenders otherwise back off in lockstep and
/// re-collide. Unarmed, the schedule is the paper's pure exponential one.
/// The native hybrid jitters its fast-path retries by the same share.
pub const BACKOFF_JITTER_PCT: u64 = 25;
/// Cycles a [`BtmUfoFaultPolicy::Stall`] retry waits between attempts.
pub(crate) const UFO_STALL_BACKOFF: u64 = 60;

/// The hybrids' software policy, consumed by their one BTM abort handler
/// (Algorithm 3). The default is the paper's: abort and retry on UFO
/// faults, never fail over on contention, no watchdog.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HybridPolicy {
    /// UFO-fault handling inside hardware transactions.
    pub btm_ufo_fault: BtmUfoFaultPolicy,
    /// Fail over to software after this many consecutive contention-class
    /// aborts. `None` — the paper's recommendation — never fails over on
    /// contention ("the STM's overhead will increase the transaction's
    /// duration, … increasing contention"; such policies are metastable).
    pub conflict_failover_after: Option<u32>,
    /// Watchdog tier 1: after this many *consecutive* hardware aborts of
    /// any recoverable class, stop retrying in hardware and fail the
    /// transaction over to the STM. Arming it also jitters every backoff
    /// by [`BACKOFF_JITTER_PCT`] (tier 0). `None` (the default) disables
    /// both and keeps the paper's retry-forever policy.
    pub watchdog_hw_attempts: Option<u32>,
    /// Watchdog tier 2: after this many software kills of the same
    /// transaction, run it once more as the eldest software transaction
    /// under the global lock, which nothing can kill. `None` disables.
    pub watchdog_sw_kills: Option<u32>,
    /// Watchdog livelock accelerator: if the *global* commit count has not
    /// advanced across this many consecutive abort/backoff observations by
    /// this thread, escalate straight to the strongest available tier
    /// (nobody is making progress, so per-transaction patience is
    /// pointless). `None` disables.
    pub watchdog_stagnation: Option<u32>,
}

impl HybridPolicy {
    /// The backoff (in cycles) after the `n`-th consecutive
    /// contention-class abort.
    #[must_use]
    pub fn backoff_for(&self, consecutive_aborts: u32) -> u64 {
        BACKOFF_BASE << consecutive_aborts.min(BACKOFF_CAP_EXP)
    }

    /// Figure 8, second bar: fail over to software after `n` conflict
    /// aborts.
    #[must_use]
    pub fn failover_on_nth_conflict(n: u32) -> Self {
        HybridPolicy {
            conflict_failover_after: Some(n),
            ..HybridPolicy::default()
        }
    }

    /// The progress watchdog, armed with its default limits: jittered
    /// backoff, software failover after 16 consecutive hardware aborts,
    /// the eldest-transaction seat after 8 software kills, and immediate
    /// escalation once 8 consecutive observations show zero global commit
    /// progress. Guarantees every transaction on a hybrid (UFO, HyTM or
    /// PhTM — they share one abort handler) commits within a bounded
    /// number of attempts, at the price of abandoning the paper's
    /// never-fail-over-on-contention recommendation when the system is
    /// demonstrably stuck.
    #[must_use]
    pub fn watchdog() -> Self {
        HybridPolicy {
            watchdog_hw_attempts: Some(16),
            watchdog_sw_kills: Some(8),
            watchdog_stagnation: Some(8),
            ..HybridPolicy::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_saturates() {
        let p = HybridPolicy::default();
        assert_eq!(p.backoff_for(0), 50);
        assert_eq!(p.backoff_for(1), 100);
        assert_eq!(p.backoff_for(7), 50 << 7);
        assert_eq!(p.backoff_for(20), 50 << 7, "saturates at the cap");
    }

    #[test]
    fn presets_set_the_right_knobs() {
        assert_eq!(
            HybridPolicy::failover_on_nth_conflict(5).conflict_failover_after,
            Some(5)
        );
        assert_eq!(HybridPolicy::default().conflict_failover_after, None);
    }

    #[test]
    fn watchdog_is_off_by_default_and_bounded_when_armed() {
        let d = HybridPolicy::default();
        assert_eq!(d.watchdog_hw_attempts, None);
        assert_eq!(d.watchdog_sw_kills, None);
        assert_eq!(d.watchdog_stagnation, None);
        let w = HybridPolicy::watchdog();
        assert!(w.watchdog_hw_attempts.is_some());
        assert!(w.watchdog_sw_kills.is_some());
        assert!(w.watchdog_stagnation.is_some());
        // The armed watchdog leaves the paper's CM knobs alone.
        assert_eq!(w.conflict_failover_after, None);
        assert_eq!(w.backoff_for(1), d.backoff_for(1));
    }
}
