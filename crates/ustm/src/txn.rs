//! Shared USTM state: transaction status slots, configuration, counters.

use ufotm_machine::{Addr, LINE_BYTES};

use crate::otable::Otable;

/// Lifecycle state of a CPU's software transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TxnStatus {
    /// No software transaction on this CPU.
    #[default]
    Inactive,
    /// Executing (possibly with a pending doom — see
    /// [`TxnSlot::doomed_by`]).
    Active,
    /// Past its serialization point, releasing ownership; can no longer be
    /// killed.
    Committing,
    /// Noticed a doom and is unwinding (restoring logged values, releasing
    /// ownership); killers wait for this to finish.
    Aborting,
    /// Issued `retry` (transactional waiting): speculative writes undone,
    /// ownership converted to read, descheduled until a writer wakes it.
    Retrying,
}

/// Per-CPU software-transaction descriptor.
///
/// The descriptor itself is host-side data, but it has a simulated address
/// ([`UstmShared::slot_addr`]) that pollers load, so status polling costs
/// cycles and coherence traffic.
#[derive(Clone, Copy, Debug, Default)]
pub struct TxnSlot {
    /// Current lifecycle state.
    pub status: TxnStatus,
    /// Age sequence number of the current/last transaction (smaller =
    /// older; [`UstmShared::ELDEST_TS`] is the eldest transaction's).
    pub ts: u64,
    /// Set when an older transaction killed this one (the killer's CPU).
    pub doomed_by: Option<usize>,
    /// Set when a writer woke this transaction out of `retry`.
    pub woken: bool,
}

/// Fixed cost of `ustm_begin` (checkpoint, descriptor setup).
pub(crate) const BEGIN_COST: u64 = 40;
/// Barrier fast path: line already owned with sufficient permission.
pub(crate) const BARRIER_HIT_COST: u64 = 6;
/// One compare&swap / chain-lock acquisition on an otable bin.
pub(crate) const CAS_COST: u64 = 12;
/// Walking one chained entry past the bin head.
pub(crate) const CHAIN_ENTRY_COST: u64 = 8;
/// Snapshotting a line into the undo log (beyond the log-write traffic).
pub(crate) const LOG_COST: u64 = 10;
/// Fixed commit/abort cost (beyond per-entry release traffic).
pub(crate) const FINISH_COST: u64 = 40;
/// Cycles a stalled transaction waits between status polls.
pub(crate) const POLL_BACKOFF: u64 = 40;

/// USTM configuration. The barriers' fixed costs (cycles charged beyond
/// the simulated memory traffic they generate) are constants of this
/// module; what a run chooses is only whether protection is installed.
#[derive(Clone, Debug)]
pub struct UstmConfig {
    /// Install UFO protection on owned lines (strong atomicity, §4.2).
    /// `false` gives the paper's weakly-atomic USTM baseline.
    pub strong_atomicity: bool,
}

impl Default for UstmConfig {
    fn default() -> Self {
        UstmConfig {
            strong_atomicity: true,
        }
    }
}

impl UstmConfig {
    /// The paper's weakly-atomic USTM baseline (no UFO operations).
    #[must_use]
    pub fn weak() -> Self {
        UstmConfig {
            strong_atomicity: false,
        }
    }
}

/// Aggregate USTM event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UstmStats {
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted (all causes).
    pub aborts: u64,
    /// Kill requests issued by older transactions.
    pub kills_issued: u64,
    /// Poll iterations spent stalling (waiting for a conflictor or victim).
    pub stall_polls: u64,
    /// Otable lookups that had to walk a hash chain (aliasing indicator).
    pub chain_walks: u64,
    /// Non-transactional UFO faults handled by the USTM runtime.
    pub nont_faults: u64,
    /// Transactions entering `retry` (transactional waiting).
    pub retries_entered: u64,
    /// `retry` sleepers woken by writers.
    pub retries_woken: u64,
    /// Cycles charged inside read/write barriers (otable CAS + bin traffic,
    /// chain walks, UFO bit updates, undo logging, barrier hits) — the
    /// Table 4-style "instrumentation" share of a run.
    pub barrier_cycles: u64,
    /// Longest otable hash chain observed by any barrier (aliasing
    /// indicator alongside `chain_walks`).
    pub max_chain_seen: u64,
}

/// All shared USTM state, embedded in the simulation world.
#[derive(Clone, Debug)]
pub struct UstmShared {
    /// Atomicity and non-transactional fault policy.
    pub config: UstmConfig,
    /// The ownership table.
    pub otable: Otable,
    /// Per-CPU transaction descriptors.
    pub slots: Vec<TxnSlot>,
    /// Event counters.
    pub stats: UstmStats,
    seq: u64,
    slot_base: Addr,
    log_base: Addr,
    log_words_per_cpu: u64,
    cpus: usize,
}

impl UstmShared {
    /// Words of simulated memory USTM needs for `cpus` CPUs and
    /// `otable_bins` bins: the bin array, one status line per CPU, and a
    /// per-CPU undo-log window.
    #[must_use]
    pub fn required_words(cpus: usize, otable_bins: u64) -> u64 {
        let otable = otable_bins * crate::otable::BIN_BYTES / 8;
        let slots = cpus as u64 * (LINE_BYTES / 8);
        let logs = cpus as u64 * Self::LOG_WORDS_PER_CPU;
        otable + slots + logs
    }

    const LOG_WORDS_PER_CPU: u64 = 1024;

    /// The age reserved for the eldest transaction
    /// ([`UstmTxn::begin_eldest`](crate::UstmTxn::begin_eldest)):
    /// [`UstmShared::next_seq`] draws from 1 upwards, so this is older than
    /// any of them.
    pub const ELDEST_TS: u64 = 0;

    /// Creates the shared state, laying out its metadata starting at the
    /// simulated address `base` (reserve
    /// [`UstmShared::required_words`]` * 8` bytes there).
    ///
    /// # Panics
    ///
    /// Panics if `otable_bins` is not a power of two.
    #[must_use]
    pub fn new(config: UstmConfig, base: Addr, cpus: usize, otable_bins: u64) -> Self {
        let otable = Otable::new(base, otable_bins);
        let slot_base = Addr(base.0 + otable.footprint_bytes());
        let log_base = Addr(slot_base.0 + cpus as u64 * LINE_BYTES);
        UstmShared {
            config,
            otable,
            slots: vec![TxnSlot::default(); cpus],
            stats: UstmStats::default(),
            seq: Self::ELDEST_TS + 1,
            slot_base,
            log_base,
            log_words_per_cpu: Self::LOG_WORDS_PER_CPU,
            cpus,
        }
    }

    /// The simulated address of `cpu`'s status word (one line per CPU to
    /// avoid false sharing among pollers).
    #[must_use]
    pub fn slot_addr(&self, cpu: usize) -> Addr {
        Addr(self.slot_base.0 + cpu as u64 * LINE_BYTES)
    }

    /// The simulated address for `cpu`'s `n`-th log append (wrapping
    /// window).
    #[must_use]
    pub fn log_addr(&self, cpu: usize, n: u64) -> Addr {
        let off = (n % self.log_words_per_cpu) * 8;
        Addr(self.log_base.0 + cpu as u64 * self.log_words_per_cpu * 8 + off)
    }

    /// Allocates the next age sequence number.
    pub fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Number of CPUs this state was built for.
    #[must_use]
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Marks `victim`'s transaction as killed by `killer` (no effect unless
    /// the victim is `Active`, not already doomed and not the eldest
    /// transaction, which age already spares). Returns whether the doom
    /// landed.
    pub fn doom(&mut self, victim: usize, killer: usize) -> bool {
        let s = &mut self.slots[victim];
        if s.status == TxnStatus::Active && s.doomed_by.is_none() && s.ts != Self::ELDEST_TS {
            s.doomed_by = Some(killer);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> UstmShared {
        UstmShared::new(UstmConfig::default(), Addr(0x10000), 4, 64)
    }

    #[test]
    fn layout_is_disjoint() {
        let s = shared();
        let otable_end = s.otable.bin_addr(63).0 + 16;
        assert!(s.slot_addr(0).0 >= otable_end);
        assert!(s.slot_addr(3).0 < s.log_addr(0, 0).0);
        // Slot lines don't alias.
        assert_ne!(s.slot_addr(0).line(), s.slot_addr(1).line());
        // Log windows are per-CPU and wrap.
        assert_ne!(s.log_addr(0, 0), s.log_addr(1, 0));
        assert_eq!(s.log_addr(0, 0), s.log_addr(0, 1024));
    }

    #[test]
    fn required_words_covers_layout() {
        let words = UstmShared::required_words(4, 64);
        let s = shared();
        let last = s.log_addr(3, 1023);
        assert!(last.0 + 8 <= 0x10000 + words * 8);
    }

    #[test]
    fn seq_is_monotonic() {
        let mut s = shared();
        let a = s.next_seq();
        let b = s.next_seq();
        assert!(b > a);
    }

    #[test]
    fn doom_only_lands_on_active() {
        let mut s = shared();
        assert!(!s.doom(1, 0), "inactive victim");
        s.slots[1].status = TxnStatus::Active;
        assert!(!s.doom(1, 0), "nobody kills the eldest transaction");
        s.slots[1].ts = s.next_seq();
        assert!(s.doom(1, 0));
        assert!(!s.doom(1, 2), "already doomed");
        assert_eq!(s.slots[1].doomed_by, Some(0));
        s.slots[2].status = TxnStatus::Committing;
        assert!(!s.doom(2, 0), "committing txns are past their kill window");
    }
}
