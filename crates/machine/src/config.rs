//! Machine configuration: geometry and hardware policy knobs, plus the
//! latencies and the L2 geometry every configuration shares.
//!
//! The values approximate the paper's Table 4 (a 1 GHz out-of-order x86
//! with a 32 KiB 4-way L1, a 1 MiB 8-way unified L2, 64-byte lines, and a
//! directory protocol). Pipeline effects are folded into fixed per-operation
//! costs; the relative magnitudes (hit ≪ L2 ≪ memory, 20-cycle nack retry)
//! are what the paper's results depend on.

use crate::cache::CacheGeometry;
use crate::chaos::FaultPlan;

/// Latencies (in cycles) charged to a CPU's local clock by each
/// operation. No figure varies them, so they are constants, not
/// configuration.
pub mod cost {
    /// A load or store that hits in the L1.
    pub const L1_HIT: u64 = 2;
    /// Additional cost of filling from the shared L2.
    pub const L2_HIT: u64 = 18;
    /// Additional cost of filling from memory.
    pub const MEM: u64 = 200;
    /// Cost of a cache-to-cache transfer (remote L1 owns the line dirty).
    pub const CACHE_TO_CACHE: u64 = 30;
    /// Cost of writing back a dirty victim.
    pub const WRITEBACK: u64 = 10;
    /// Delay before a nacked transactional request retries (paper: 20).
    pub const NACK_RETRY: u64 = 20;
    /// Executing `btm_begin` (register checkpoint).
    pub const BTM_BEGIN: u64 = 4;
    /// Executing `btm_end` on a successful commit (flash-clear of SR/SW).
    pub const BTM_COMMIT: u64 = 4;
    /// Hardware abort handling (flash invalidate + checkpoint restore).
    pub const BTM_ABORT: u64 = 20;
    /// A `set/add/read_ufo_bits` instruction, beyond its coherence traffic.
    pub const UFO_OP: u64 = 4;
    /// Delivering a fault (UFO fault or exception) to a software handler.
    pub const FAULT_DISPATCH: u64 = 100;
    /// Servicing a timer interrupt (context switch in and out).
    pub const INTERRUPT_SERVICE: u64 = 2_000;
    /// Servicing a page-in from the swap device.
    pub const PAGE_IN: u64 = 100_000;
    /// Servicing a page-out to the swap device.
    pub const PAGE_OUT: u64 = 100_000;
}

/// The shared L2's geometry (timing only): Table 4's 1 MiB, 8-way
/// unified cache. No figure varies it, so it is a constant, not
/// configuration.
pub const L2: CacheGeometry = CacheGeometry::new(2048, 8);

/// Maximum hardware (flattened) nesting depth: one more `btm_begin` is
/// [`AbortReason::DepthOverflow`](crate::AbortReason::DepthOverflow).
pub const BTM_MAX_DEPTH: u32 = 8;

/// Which BTM transactions a `set_ufo_bits` coherence invalidation kills.
///
/// Reproduces the Figure 8 limit study: because USTM read barriers set
/// fault-on-write with exclusive coherence permission, they kill BTM
/// transactions that merely *read* the same line — a false conflict. The
/// `TrueConflictsOnly` policy models idealized hardware that spares those
/// readers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum UfoKillPolicy {
    /// Faithful hardware: acquiring exclusive permission to set the bits
    /// invalidates every cached copy, killing any speculative holder.
    #[default]
    AllSpeculativeHolders,
    /// Limit study: only kill holders for which the protection actually
    /// signals a conflict (the set includes fault-on-read — i.e. the software
    /// transaction will write — or the hardware transaction has
    /// speculatively written the line).
    TrueConflictsOnly,
}

/// The hardware contention-management policy for HTM/HTM conflicts.
///
/// The paper finds that "there appears to be no substitute for having a good
/// contention management policy in hardware" (§4.4) and demonstrates it with
/// the requester-wins straw man in Figure 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum HwCmPolicy {
    /// Age-ordered arbitration: an older requester aborts the current
    /// holder; a younger requester is nacked and retries after 20 cycles.
    #[default]
    AgeOrdered,
    /// Naïve policy: the requester always wins and the holder is aborted.
    /// Guarantees progress only via software failover; performs poorly under
    /// contention (Figure 8, first bar).
    RequesterWins,
}

/// Full configuration of a simulated [`Machine`](crate::Machine).
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of CPUs (1–64).
    pub cpus: usize,
    /// Size of simulated memory in 8-byte words.
    pub memory_words: u64,
    /// Per-CPU L1 data cache geometry (speculative lines must fit here).
    pub l1: CacheGeometry,
    /// Timer interrupt quantum in cycles; `None` disables timer interrupts.
    /// A BTM transaction spanning a quantum boundary is aborted with
    /// [`AbortReason::Interrupt`](crate::AbortReason::Interrupt).
    pub timer_quantum: Option<u64>,
    /// If `true`, the BTM never aborts for capacity: evicted speculative
    /// lines stay tracked in an idealized overflow structure. Used to model
    /// the paper's *unbounded HTM* baseline.
    pub btm_unbounded: bool,
    /// Which speculative holders a `set_ufo_bits` kills (Figure 8 knob).
    pub ufo_kill_policy: UfoKillPolicy,
    /// Hardware contention management for HTM/HTM conflicts (Figure 8 knob).
    pub hw_cm: HwCmPolicy,
    /// §4.3's proposed coherence change: permit setting UFO bits "in the
    /// owner state". When enabled, a set that adds no fault-on-read bit (a
    /// USTM *read barrier*, or a clear) publishes the bits without acquiring
    /// exclusive permission — remote cached copies survive, so speculative
    /// *readers* of the line are no longer killed by false conflicts.
    pub ufo_owner_state_sets: bool,
    /// Seeded fault-injection plan (chaos engine); `None` injects nothing.
    pub fault_plan: Option<FaultPlan>,
}

impl MachineConfig {
    /// The paper's Table 4 configuration with the given CPU count.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is 0 or greater than 64.
    #[must_use]
    pub fn table4(cpus: usize) -> Self {
        assert!((1..=64).contains(&cpus), "cpus must be in 1..=64");
        MachineConfig {
            cpus,
            memory_words: 1 << 22,          // 32 MiB of simulated data
            l1: CacheGeometry::new(128, 4), // 32 KiB, 4-way, 64 B lines
            timer_quantum: Some(200_000),
            btm_unbounded: false,
            ufo_kill_policy: UfoKillPolicy::AllSpeculativeHolders,
            hw_cm: HwCmPolicy::AgeOrdered,
            ufo_owner_state_sets: false,
            fault_plan: None,
        }
    }

    /// A tiny machine for unit tests and doctests: a 4-set, 2-way L1 so
    /// capacity effects are easy to trigger, and no timer interrupts.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is 0 or greater than 64.
    #[must_use]
    pub fn small(cpus: usize) -> Self {
        assert!((1..=64).contains(&cpus), "cpus must be in 1..=64");
        MachineConfig {
            cpus,
            memory_words: 1 << 16,
            l1: CacheGeometry::new(4, 2),
            timer_quantum: None,
            btm_unbounded: false,
            ufo_kill_policy: UfoKillPolicy::AllSpeculativeHolders,
            hw_cm: HwCmPolicy::AgeOrdered,
            ufo_owner_state_sets: false,
            fault_plan: None,
        }
    }

    /// Returns this configuration with the BTM made unbounded (the paper's
    /// idealized unbounded-HTM baseline).
    #[must_use]
    pub fn unbounded(mut self) -> Self {
        self.btm_unbounded = true;
        self
    }

    /// Returns this configuration with a fault-injection plan installed.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Number of cache lines covered by the memory image.
    #[must_use]
    pub fn memory_lines(&self) -> u64 {
        (self.memory_words * crate::WORD_BYTES).div_ceil(crate::LINE_BYTES)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::table4(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_geometry_matches_paper() {
        let c = MachineConfig::table4(16);
        assert_eq!(c.l1.capacity_bytes(), 32 * 1024);
        assert_eq!(L2.capacity_bytes(), 1024 * 1024);
        assert_eq!(L2.ways(), 8);
        assert_eq!(cost::NACK_RETRY, 20);
        // `small()` shrinks the L1 only: after 1024 distinct lines (four
        // times what a 64-set, 4-way L2 holds) the first one still fills
        // from the Table 4 L2.
        let mut m = crate::Machine::new(MachineConfig::small(1));
        for line in 0..1024 {
            m.load(0, crate::Addr(line * crate::LINE_BYTES)).unwrap();
        }
        let before = m.now(0);
        m.load(0, crate::Addr(0)).unwrap();
        assert_eq!(m.now(0) - before, cost::L1_HIT + cost::L2_HIT);
    }

    #[test]
    #[should_panic(expected = "cpus")]
    fn zero_cpus_rejected() {
        let _ = MachineConfig::table4(0);
    }

    #[test]
    fn unbounded_builder_sets_flag() {
        assert!(MachineConfig::small(1).unbounded().btm_unbounded);
    }

    #[test]
    fn memory_lines_rounds_up() {
        let mut c = MachineConfig::small(1);
        c.memory_words = 9; // 72 bytes -> 2 lines
        assert_eq!(c.memory_lines(), 2);
    }
}
