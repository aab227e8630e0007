//! The combined shared state for all TM systems, and system selection.

use std::collections::BTreeMap;

use ufotm_machine::{AbortReason, Addr, MachineConfig, SimAlloc};
use ufotm_tl2::{HasTl2, Tl2Shared};
use ufotm_ustm::{HasUstm, UstmConfig, UstmShared};

use crate::lockbase::LockShared;
use crate::phtm::PhtmShared;
use crate::trace::TraceLog;

/// Which TM system executes the transactions (paper §5's comparison set).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemKind {
    /// Serial execution, no synchronization (the speedup baseline).
    Sequential,
    /// A single global test-and-set lock.
    GlobalLock,
    /// USTM without strong atomicity.
    UstmWeak,
    /// USTM with UFO-based strong atomicity.
    UstmStrong,
    /// The TL2 baseline.
    Tl2,
    /// Idealized unbounded HTM (requires
    /// [`MachineConfig::btm_unbounded`]).
    UnboundedHtm,
    /// The paper's UFO hybrid.
    UfoHybrid,
    /// HyTM: hardware transactions instrumented with otable checks.
    HyTm,
    /// Phased TM.
    PhTm,
}

impl SystemKind {
    /// All systems, in presentation order.
    #[must_use]
    pub const fn all() -> [SystemKind; 9] {
        use SystemKind::*;
        [
            Sequential,
            GlobalLock,
            UstmWeak,
            UstmStrong,
            Tl2,
            UnboundedHtm,
            UfoHybrid,
            HyTm,
            PhTm,
        ]
    }

    /// Short label for tables (matches the paper's legends).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            SystemKind::Sequential => "sequential",
            SystemKind::GlobalLock => "global-lock",
            SystemKind::UstmWeak => "USTM",
            SystemKind::UstmStrong => "USTM+UFO",
            SystemKind::Tl2 => "TL2",
            SystemKind::UnboundedHtm => "unbounded-HTM",
            SystemKind::UfoHybrid => "UFO-hybrid",
            SystemKind::HyTm => "HyTM",
            SystemKind::PhTm => "PhTM",
        }
    }

    /// Whether the machine must be configured with an unbounded BTM.
    #[must_use]
    pub const fn needs_unbounded_btm(self) -> bool {
        matches!(self, SystemKind::UnboundedHtm)
    }

    /// Whether this system's STM component runs strongly atomic (and its
    /// threads therefore run with UFO faults enabled outside transactions).
    #[must_use]
    pub const fn strong_atomicity(self) -> bool {
        matches!(self, SystemKind::UstmStrong | SystemKind::UfoHybrid)
    }

    /// Whether transactions may execute in BTM.
    #[must_use]
    pub const fn uses_htm(self) -> bool {
        matches!(
            self,
            SystemKind::UnboundedHtm | SystemKind::UfoHybrid | SystemKind::HyTm | SystemKind::PhTm
        )
    }

    /// Whether this is a hybrid (has a software failover path).
    #[must_use]
    pub const fn is_hybrid(self) -> bool {
        matches!(
            self,
            SystemKind::UfoHybrid | SystemKind::HyTm | SystemKind::PhTm
        )
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Driver-level counters (the machine counts hardware events; these count
/// what the software layers did with them).
#[derive(Clone, Debug, Default)]
pub struct HybridStats {
    /// Transactions committed in hardware.
    pub hw_commits: u64,
    /// Transactions committed in software.
    pub sw_commits: u64,
    /// Transactions committed while holding the global lock.
    pub lock_commits: u64,
    /// Transactions committed on the watchdog's last tier, as the eldest
    /// software transaction under the global lock (counted apart from
    /// `sw_commits` and `lock_commits` so degradation is visible).
    pub serial_commits: u64,
    /// Times the progress watchdog escalated a transaction to a stronger
    /// tier (software failover or the eldest-transaction seat).
    pub watchdog_escalations: u64,
    /// Failovers to software, by the abort reason that triggered them.
    pub failovers: BTreeMap<AbortReason, u64>,
    /// Failovers forced by the microbenchmark hook.
    pub forced_failovers: u64,
    /// Hardware retries after recoverable aborts.
    pub hw_retries: u64,
    /// Allocator pool refills modelled as system calls.
    pub alloc_syscalls: u64,
    /// Cycles spent in post-abort exponential backoff (jitter included) —
    /// Table 4-style attribution of contention-management time.
    pub backoff_cycles: u64,
    /// Cycles spent on the watchdog's last tier (lock acquisition, the
    /// eldest attempt, lock release).
    pub serial_cycles: u64,
}

impl HybridStats {
    /// Total commits across modes.
    #[must_use]
    pub fn total_commits(&self) -> u64 {
        self.hw_commits + self.sw_commits + self.lock_commits + self.serial_commits
    }

    /// Total failovers.
    #[must_use]
    pub fn total_failovers(&self) -> u64 {
        self.failovers.values().sum::<u64>() + self.forced_failovers
    }

    pub(crate) fn record_failover(&mut self, reason: AbortReason) {
        *self.failovers.entry(reason).or_insert(0) += 1;
    }
}

/// TL2 lock-table entries (power of two).
const TL2_LOCKS: u64 = 16 * 1024;

/// Simulated-memory layout for the combined shared state.
#[derive(Clone, Copy, Debug)]
pub struct TmSharedLayout {
    /// Start of the metadata region (otable, TL2 locks, counters, lock).
    pub meta_base: Addr,
    /// USTM otable bins (power of two).
    pub otable_bins: u64,
    /// Start of the shared heap.
    pub heap_base: Addr,
    /// Heap size in words.
    pub heap_words: u64,
}

impl TmSharedLayout {
    /// Words of metadata needed for `cpus` CPUs with an otable of
    /// `otable_bins` bins.
    #[must_use]
    pub fn required_meta_words(cpus: usize, otable_bins: u64) -> u64 {
        UstmShared::required_words(cpus, otable_bins)
            + Tl2Shared::required_words(TL2_LOCKS)
            + 8  // global lock line
            + 16 // PhTM counters (two lines)
            + 32 // padding
    }

    /// A standard layout for a machine configuration: metadata at the top
    /// of memory, the heap in the upper middle, everything below
    /// `heap_base` left to the workload's own static data.
    ///
    /// # Panics
    ///
    /// Panics if the machine's memory is too small (< ~1 MiB of words).
    #[must_use]
    pub fn standard(cfg: &MachineConfig) -> Self {
        let otable_bins = 16 * 1024;
        let meta_words = Self::required_meta_words(cfg.cpus, otable_bins);
        let total = cfg.memory_words;
        assert!(
            total > meta_words + (1 << 17),
            "memory too small for standard layout"
        );
        let meta_base_word = total - meta_words;
        let heap_base_word = total / 4;
        TmSharedLayout {
            meta_base: Addr::from_word_index(meta_base_word),
            otable_bins,
            heap_base: Addr::from_word_index(heap_base_word),
            heap_words: meta_base_word - heap_base_word,
        }
    }
}

/// The combined software-shared state: every TM system's metadata plus the
/// shared heap. One `TmShared` is built per run, configured for the
/// [`SystemKind`] under test.
#[derive(Debug)]
pub struct TmShared {
    /// The system being run.
    pub kind: SystemKind,
    /// USTM state (used by USTM runs and as the hybrids' software side).
    pub ustm: UstmShared,
    /// TL2 state.
    pub tl2: Tl2Shared,
    /// PhTM phase counters.
    pub phtm: PhtmShared,
    /// The global lock.
    pub lock: LockShared,
    /// The shared heap allocator.
    pub heap: SimAlloc,
    /// Driver-level counters.
    pub stats: HybridStats,
    /// Optional transaction-event journal (disabled by default; enable with
    /// [`TraceLog::enable`](crate::TraceLog::enable)).
    pub trace: TraceLog,
}

impl TmShared {
    /// Builds the shared state for `kind` with the given layout.
    #[must_use]
    pub fn new(kind: SystemKind, cpus: usize, layout: TmSharedLayout) -> Self {
        let ustm_cfg = if kind.strong_atomicity() {
            UstmConfig::default()
        } else {
            UstmConfig::weak()
        };
        let ustm_base = layout.meta_base;
        let ustm_words = UstmShared::required_words(cpus, layout.otable_bins);
        let tl2_base = Addr(ustm_base.0 + ustm_words * 8);
        let tl2_words = Tl2Shared::required_words(TL2_LOCKS);
        let lock_base = Addr(tl2_base.0 + tl2_words * 8);
        let phtm_base = Addr(lock_base.0 + 64);
        TmShared {
            kind,
            ustm: UstmShared::new(ustm_cfg, ustm_base, cpus, layout.otable_bins),
            tl2: Tl2Shared::new(tl2_base, TL2_LOCKS),
            phtm: PhtmShared::new(phtm_base),
            lock: LockShared::new(lock_base),
            heap: SimAlloc::new(layout.heap_base, layout.heap_words),
            stats: HybridStats::default(),
            trace: TraceLog::default(),
        }
    }

    /// Builds the shared state with the standard layout for `cfg`.
    #[must_use]
    pub fn standard(kind: SystemKind, cfg: &MachineConfig) -> Self {
        TmShared::new(kind, cfg.cpus, TmSharedLayout::standard(cfg))
    }
}

impl HasUstm for TmShared {
    fn ustm(&mut self) -> &mut UstmShared {
        &mut self.ustm
    }
}

impl HasTl2 for TmShared {
    fn tl2(&mut self) -> &mut Tl2Shared {
        &mut self.tl2
    }
}

/// Access to the combined state inside a larger world type.
pub trait HasTm {
    /// The embedded combined state.
    fn tm(&mut self) -> &mut TmShared;
}

impl HasTm for TmShared {
    fn tm(&mut self) -> &mut TmShared {
        self
    }
}

/// The world type drivers operate over.
pub trait TmWorld: HasTm + HasUstm + HasTl2 + Send {}
impl<T: HasTm + HasUstm + HasTl2 + Send> TmWorld for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_layout_regions_are_disjoint_and_ordered() {
        let cfg = MachineConfig::table4(8);
        let layout = TmSharedLayout::standard(&cfg);
        assert!(layout.heap_base < layout.meta_base);
        let heap_end = layout.heap_base.0 + layout.heap_words * 8;
        assert!(heap_end <= layout.meta_base.0);
        let meta_end = layout.meta_base.word_index()
            + TmSharedLayout::required_meta_words(8, layout.otable_bins);
        assert!(meta_end <= cfg.memory_words);
    }

    #[test]
    fn kind_configures_ustm_atomicity() {
        let cfg = MachineConfig::table4(2);
        let strong = TmShared::standard(SystemKind::UfoHybrid, &cfg);
        assert!(strong.ustm.config.strong_atomicity);
        let weak = TmShared::standard(SystemKind::HyTm, &cfg);
        assert!(!weak.ustm.config.strong_atomicity);
        let tl2 = TmShared::standard(SystemKind::Tl2, &cfg);
        assert!(!tl2.ustm.config.strong_atomicity);
    }

    #[test]
    fn kind_predicates() {
        assert!(SystemKind::UfoHybrid.is_hybrid());
        assert!(SystemKind::UfoHybrid.uses_htm());
        assert!(SystemKind::UfoHybrid.strong_atomicity());
        assert!(!SystemKind::Tl2.uses_htm());
        assert!(SystemKind::UnboundedHtm.needs_unbounded_btm());
        assert!(!SystemKind::PhTm.strong_atomicity());
        assert_eq!(SystemKind::all().len(), 9);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = HybridStats {
            hw_commits: 3,
            sw_commits: 2,
            ..Default::default()
        };
        s.record_failover(AbortReason::Overflow);
        s.record_failover(AbortReason::Overflow);
        s.forced_failovers = 1;
        assert_eq!(s.total_commits(), 5);
        assert_eq!(s.total_failovers(), 3);
    }
}
