//! The [`Machine`]: CPUs, clocks, and the instruction-level API.
//!
//! A `Machine` is a purely sequential object — callers interleave CPUs by
//! choosing which CPU's "instruction" to execute next (the `ufotm-sim`
//! engine always picks the CPU with the smallest local clock, giving a
//! deterministic lockstep interleaving). Every operation charges cycles to
//! the issuing CPU's local clock from the constants in [`cost`](crate::cost).

use std::fmt;

use crate::addr::Addr;
use crate::bits::cpu_bit;
use crate::btm::{AbortInfo, AbortReason, BtmCpu, BtmEvent, BtmStatus};
use crate::cache::{L1Cache, L2Cache};
use crate::chaos::{ChaosFaultKind, ChaosState};
use crate::coherence::Directory;
use crate::config::{cost, MachineConfig, UfoKillPolicy, BTM_MAX_DEPTH};
use crate::mem::MemImage;
use crate::stats::MachineStats;
use crate::swap::SwapState;
use crate::ufo::{UfoBits, UfoFaultKind};

/// Identifies a simulated CPU (0-based).
pub type CpuId = usize;

/// Result type of machine operations.
pub type AccessResult<T> = Result<T, AccessError>;

/// Why a machine operation did not complete normally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessError {
    /// The CPU's BTM transaction aborted. The machine has already finalized
    /// the abort (speculative state discarded, statistics recorded); the
    /// caller unwinds to its abort handler.
    TxnAbort(AbortInfo),
    /// A transactional coherence request lost age arbitration and was
    /// nacked. The nack-retry delay has already been charged; the caller
    /// simply retries the access. Only returned while in a transaction.
    Nacked,
    /// A non-transactional access (or, with a stall/handler policy, a
    /// transactional one) hit a UFO-protected line. The access did **not**
    /// complete; software decides how to resolve the conflict.
    UfoFault {
        /// The faulting address.
        addr: Addr,
        /// Whether the faulting access was a write.
        kind: UfoFaultKind,
    },
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::TxnAbort(info) => write!(f, "transaction aborted: {info}"),
            AccessError::Nacked => f.write_str("transactional request nacked"),
            AccessError::UfoFault { addr, kind } => {
                write!(f, "UFO {kind} fault at {addr}")
            }
        }
    }
}

impl std::error::Error for AccessError {}

/// Unwrapping extension for machine results on *plain-access* paths.
///
/// Software layers frequently issue machine operations at points where the
/// protocol guarantees the operation cannot fail: the CPU is outside any BTM
/// transaction (so no [`AccessError::TxnAbort`], and no
/// [`AccessError::Nacked`] — NACKs, including chaos-injected ones, target
/// only live-transaction requesters), and UFO fault delivery is either
/// disabled or already resolved by the caller. Scattering `.unwrap()` /
/// `.expect()` over such sites is exactly the chaos-NACK crash class: a
/// later protocol change silently turns the "impossible" error into a
/// panic. The `panicking-machine-access` pass of `cargo xtask analyze`
/// rejects those raw unwraps; this trait is the audited replacement — one
/// place that states the invariant, with a per-site label for diagnostics.
pub trait PlainAccess<T> {
    /// Unwraps the result of a machine operation issued on a plain-access
    /// path, panicking with `what` and the machine error if the protocol
    /// invariant above was violated (always a bug in the calling layer).
    fn plain(self, what: &str) -> T;
}

impl<T> PlainAccess<T> for AccessResult<T> {
    #[track_caller]
    fn plain(self, what: &str) -> T {
        match self {
            Ok(v) => v,
            Err(e) => panic!("{what}: machine error on a plain-access path: {e}"),
        }
    }
}

/// The simulated multiprocessor. See the [crate docs](crate) for an overview.
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) mem: MemImage,
    pub(crate) dir: Directory,
    pub(crate) l1: Vec<L1Cache>,
    pub(crate) l2: L2Cache,
    pub(crate) btm: Vec<BtmCpu>,
    /// Bitmask of CPUs with an active (live or doomed) BTM transaction —
    /// lets conflict arbitration walk only transacting CPUs instead of
    /// scanning `0..cpus` on every access.
    pub(crate) live_txns: u64,
    pub(crate) ufo_enabled: Vec<bool>,
    pub(crate) clock: Vec<u64>,
    pub(crate) next_timer: Vec<u64>,
    pub(crate) txn_seq: u64,
    pub(crate) stats: MachineStats,
    pub(crate) swap: Option<SwapState>,
    pub(crate) chaos: Option<ChaosState>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("cpus", &self.cfg.cpus)
            .field("clock", &self.clock)
            .field("txn_seq", &self.txn_seq)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.cpus` is in `1..=64`. The software layers above
    /// (notably the USTM ownership table) encode CPU sets as `u64` bitmasks,
    /// so a 65th CPU would silently alias CPU 0 via the masked shift. The
    /// named constructors already assert this, but `MachineConfig` is a
    /// plain struct — this guard cannot be bypassed by literal construction.
    #[must_use]
    pub fn new(cfg: MachineConfig) -> Self {
        let cpus = cfg.cpus;
        assert!(
            (1..=64).contains(&cpus),
            "cpus must be in 1..=64 (owner masks are u64 bitmasks), got {cpus}"
        );
        // The preset FaultPlan constructors are const fns and cannot examine
        // floats, so a hand-built plan is validated here — the one gate every
        // construction path passes through.
        if let Some(plan) = &cfg.fault_plan {
            plan.validate();
        }
        let first_timer = cfg.timer_quantum.unwrap_or(u64::MAX);
        Machine {
            mem: MemImage::new(cfg.memory_words),
            dir: Directory::new(cfg.memory_lines()),
            l1: (0..cpus).map(|_| L1Cache::new(cfg.l1)).collect(),
            l2: L2Cache::new(crate::config::L2),
            // Pre-size each CPU's speculative buffers to L1 capacity: the
            // bounded BTM can never track more lines than fit in the L1, so
            // the steady state allocates nothing per transaction.
            btm: (0..cpus)
                .map(|_| BtmCpu::with_capacity(cfg.l1.sets() * cfg.l1.ways()))
                .collect(),
            live_txns: 0,
            ufo_enabled: vec![false; cpus],
            clock: vec![0; cpus],
            next_timer: vec![first_timer; cpus],
            txn_seq: 0,
            stats: MachineStats::new(cpus),
            swap: None,
            chaos: cfg.fault_plan.map(ChaosState::new),
            cfg,
        }
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of CPUs.
    #[must_use]
    pub fn cpus(&self) -> usize {
        self.cfg.cpus
    }

    /// The local cycle clock of `cpu`.
    #[must_use]
    pub fn now(&self, cpu: CpuId) -> u64 {
        self.clock[cpu]
    }

    /// All local clocks (used by the lockstep scheduler).
    #[must_use]
    pub fn clocks(&self) -> &[u64] {
        &self.clock
    }

    /// Event counters gathered so far.
    #[must_use]
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Resets all event counters (clocks are left running).
    pub fn reset_stats(&mut self) {
        self.stats = MachineStats::new(self.cfg.cpus);
        if let Some(s) = &mut self.swap {
            s.reset_stats();
        }
        if let Some(c) = &mut self.chaos {
            c.stats = crate::ChaosStats::default();
        }
    }

    /// Whether `cpu` is currently inside a (live or doomed) BTM transaction.
    #[must_use]
    pub fn in_txn(&self, cpu: CpuId) -> bool {
        self.btm[cpu].active
    }

    /// Reads the transactional status registers.
    #[must_use]
    pub fn btm_status(&self, cpu: CpuId) -> BtmStatus {
        self.btm[cpu].status()
    }

    pub(crate) fn charge(&mut self, cpu: CpuId, cycles: u64) {
        self.clock[cpu] += cycles;
    }

    /// Runs the per-operation preamble: service any pending timer interrupt
    /// (which dooms an in-flight transaction) and surface a pending doom.
    pub(crate) fn begin_op(&mut self, cpu: CpuId) -> AccessResult<()> {
        if let Some(q) = self.cfg.timer_quantum {
            if self.clock[cpu] >= self.next_timer[cpu] {
                self.stats.cpus[cpu].interrupts += 1;
                self.charge(cpu, cost::INTERRUPT_SERVICE);
                // Re-arm relative to the post-service clock: missed quanta
                // collapse into the one interrupt just delivered.
                self.next_timer[cpu] = self.clock[cpu] + q;
                if self.btm[cpu].active && self.btm[cpu].doomed.is_none() {
                    self.btm[cpu].doomed = Some(AbortInfo::new(AbortReason::Interrupt));
                }
            }
        }
        // Chaos: spuriously doom a live transaction at this instruction
        // boundary; the pending-doom path below finalizes it normally.
        if self.btm[cpu].active
            && self.btm[cpu].doomed.is_none()
            && self.chaos_roll(ChaosFaultKind::SpuriousAbort)
        {
            self.btm[cpu].doomed = Some(AbortInfo::new(AbortReason::Spurious));
            self.chaos_record(cpu, ChaosFaultKind::SpuriousAbort);
        }
        if self.btm[cpu].active {
            if let Some(info) = self.btm[cpu].doomed {
                self.finalize_abort(cpu, info);
                return Err(AccessError::TxnAbort(info));
            }
        }
        Ok(())
    }

    /// Discards `cpu`'s speculative state, records the abort, and charges the
    /// hardware abort cost.
    pub(crate) fn finalize_abort(&mut self, cpu: CpuId, info: AbortInfo) {
        debug_assert!(self.btm[cpu].active);
        self.charge(cpu, cost::BTM_ABORT);
        // Speculatively-written lines never reached memory: drop them from
        // this CPU's cache and the directory. Staged through the reusable
        // scratch buffer because the cache/directory mutations below
        // preclude iterating the write set in place.
        let mut written = std::mem::take(&mut self.btm[cpu].scratch_lines);
        written.clear();
        // analyze: allow(nondet-iteration) -- order-insensitive: each line is invalidated/removed independently, no cycles are charged per element, and the final cache/directory state commutes.
        written.extend(self.btm[cpu].write_set.iter().copied());
        for &line in &written {
            if self.l1[cpu].invalidate(line).is_some() || self.dir.is_sharer(line, cpu) {
                self.dir.remove_sharer(line, cpu);
            }
        }
        written.clear();
        self.btm[cpu].scratch_lines = written;
        self.l1[cpu].flash_abort_spec();
        self.stats.cpus[cpu].record_abort(info.reason);
        self.btm[cpu].last_abort = Some(info);
        self.btm[cpu].reset();
        self.live_txns &= !cpu_bit(cpu);
    }

    /// Marks another CPU's live transaction as killed; it will notice (and
    /// finalize) at its next instruction boundary.
    pub(crate) fn doom(&mut self, victim: CpuId, info: AbortInfo) {
        let b = &mut self.btm[victim];
        if b.active && b.doomed.is_none() {
            b.doomed = Some(info);
        }
    }

    // --- BTM instructions (paper Table 1) -------------------------------

    /// `btm_begin`: starts (or nests) a hardware transaction.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError::TxnAbort`] if a pending doom is discovered, or
    /// if nesting exceeds [`BTM_MAX_DEPTH`]
    /// ([`AbortReason::DepthOverflow`]).
    pub fn btm_begin(&mut self, cpu: CpuId) -> AccessResult<()> {
        self.begin_op(cpu)?;
        self.charge(cpu, cost::BTM_BEGIN);
        if self.btm[cpu].active {
            if self.btm[cpu].depth >= BTM_MAX_DEPTH {
                let info = AbortInfo::new(AbortReason::DepthOverflow);
                self.finalize_abort(cpu, info);
                return Err(AccessError::TxnAbort(info));
            }
            self.btm[cpu].depth += 1;
            return Ok(());
        }
        let ts = self.txn_seq;
        self.txn_seq += 1;
        let b = &mut self.btm[cpu];
        b.active = true;
        b.depth = 1;
        b.ts = ts;
        b.doomed = None;
        self.live_txns |= cpu_bit(cpu);
        Ok(())
    }

    /// `btm_end`: commits the innermost transaction; an outermost commit
    /// publishes the speculative writes and flash-clears the SR/SW bits.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError::TxnAbort`] if the transaction was doomed.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is not in a transaction (a program bug, not a
    /// simulated fault).
    pub fn btm_end(&mut self, cpu: CpuId) -> AccessResult<()> {
        assert!(self.btm[cpu].active, "btm_end outside a transaction");
        self.begin_op(cpu)?;
        self.charge(cpu, cost::BTM_COMMIT);
        if self.btm[cpu].depth > 1 {
            self.btm[cpu].depth -= 1;
            return Ok(());
        }
        // Outermost commit: publish the write buffer, staged through the
        // reusable scratch buffer.
        let mut writes = std::mem::take(&mut self.btm[cpu].scratch_writes);
        writes.clear();
        // analyze: allow(nondet-iteration) -- order-insensitive: speculative writes target distinct words, so the published memory image is identical under any HashMap iteration order, and no cycles are charged per element.
        writes.extend(self.btm[cpu].spec_writes.iter().map(|(&a, &v)| (a, v)));
        for &(word, value) in &writes {
            self.mem.write(Addr::from_word_index(word), value);
        }
        writes.clear();
        self.btm[cpu].scratch_writes = writes;
        self.l1[cpu].flash_clear_spec();
        self.stats.cpus[cpu].btm_commits += 1;
        self.btm[cpu].reset();
        self.live_txns &= !cpu_bit(cpu);
        Ok(())
    }

    /// `btm_abort`: explicitly aborts the current transaction, returning the
    /// recorded abort information.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is not in a transaction.
    pub fn btm_abort(&mut self, cpu: CpuId) -> AbortInfo {
        self.btm_abort_with(cpu, AbortInfo::new(AbortReason::Explicit))
    }

    /// Aborts the current transaction with a caller-supplied reason. Used by
    /// software policy layers, e.g. to convert a UFO fault taken inside a
    /// hardware transaction into an abort.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is not in a transaction.
    pub fn btm_abort_with(&mut self, cpu: CpuId, info: AbortInfo) -> AbortInfo {
        assert!(self.btm[cpu].active, "btm_abort outside a transaction");
        // A doom that raced in first takes precedence.
        let info = self.btm[cpu].doomed.unwrap_or(info);
        self.finalize_abort(cpu, info);
        info
    }

    /// Raises a transactional event (syscall, I/O, exception, …). Inside a
    /// transaction this aborts it; outside, it merely charges time.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError::TxnAbort`] when executed inside a transaction.
    pub fn btm_event(&mut self, cpu: CpuId, event: BtmEvent) -> AccessResult<()> {
        self.begin_op(cpu)?;
        self.charge(cpu, cost::FAULT_DISPATCH);
        if self.btm[cpu].active {
            let info = AbortInfo::new(event.abort_reason());
            self.finalize_abort(cpu, info);
            return Err(AccessError::TxnAbort(info));
        }
        Ok(())
    }

    // --- UFO instructions (paper Table 2) --------------------------------

    /// Whether UFO faults are enabled on `cpu`.
    #[must_use]
    pub fn ufo_enabled(&self, cpu: CpuId) -> bool {
        self.ufo_enabled[cpu]
    }

    /// `enable_ufo` / `disable_ufo`: toggles UFO fault delivery for `cpu`.
    pub fn set_ufo_enabled(&mut self, cpu: CpuId, enabled: bool) {
        self.ufo_enabled[cpu] = enabled;
    }

    /// `read_ufo_bits`: returns the UFO bits of the line containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError::TxnAbort`] if a pending doom is discovered.
    pub fn read_ufo_bits(&mut self, cpu: CpuId, addr: Addr) -> AccessResult<UfoBits> {
        self.begin_op(cpu)?;
        self.charge(cpu, cost::UFO_OP);
        self.page_in_if_needed(cpu, addr)?;
        Ok(self.dir.ufo(addr.line()))
    }

    /// `set_ufo_bits`: replaces the UFO bits of the line containing `addr`.
    ///
    /// Acquiring the required exclusive coherence permission invalidates all
    /// other cached copies and kills speculative holders with
    /// [`AbortReason::UfoSet`] (subject to the configured
    /// [`UfoKillPolicy`](crate::UfoKillPolicy)).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError::TxnAbort`] if issued inside a BTM transaction
    /// (modelled as an illegal operation) or if a pending doom is discovered.
    pub fn set_ufo_bits(&mut self, cpu: CpuId, addr: Addr, bits: UfoBits) -> AccessResult<()> {
        self.ufo_update(cpu, addr, bits, false)
    }

    /// `add_ufo_bits`: ORs `bits` into the line's UFO bits (same coherence
    /// behaviour as [`Machine::set_ufo_bits`]).
    ///
    /// # Errors
    ///
    /// As for [`Machine::set_ufo_bits`].
    pub fn add_ufo_bits(&mut self, cpu: CpuId, addr: Addr, bits: UfoBits) -> AccessResult<()> {
        self.ufo_update(cpu, addr, bits, true)
    }

    // --- Time ------------------------------------------------------------

    /// Charges `cycles` of computation to `cpu`'s clock.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError::TxnAbort`] if a pending doom is discovered.
    pub fn work(&mut self, cpu: CpuId, cycles: u64) -> AccessResult<()> {
        self.begin_op(cpu)?;
        self.charge(cpu, cycles);
        Ok(())
    }

    /// Charges `cycles` of stall time (counted separately in the stats).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError::TxnAbort`] if a pending doom is discovered.
    pub fn stall(&mut self, cpu: CpuId, cycles: u64) -> AccessResult<()> {
        self.begin_op(cpu)?;
        self.charge(cpu, cycles);
        self.stats.cpus[cpu].stall_cycles += cycles;
        Ok(())
    }

    /// Reads a word without simulating anything (no cycles, no coherence, no
    /// faults) — for harness setup, verification, and debugging only.
    #[must_use]
    pub fn peek(&self, addr: Addr) -> u64 {
        self.mem.read(addr)
    }

    /// Reads a line's UFO bits without simulating anything — for
    /// verification and debugging only.
    #[must_use]
    pub fn peek_ufo(&self, line: crate::LineAddr) -> crate::UfoBits {
        self.dir.ufo(line)
    }

    /// Asserts the machine's internal invariants (for tests and property
    /// checks): cache structural invariants, L1↔directory residency
    /// agreement, and speculative bits only under live transactions.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated (always a bug in this crate).
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        for (cpu, b) in self.btm.iter().enumerate() {
            assert_eq!(
                self.live_txns & cpu_bit(cpu) != 0,
                b.active,
                "live-txn mask out of sync with cpu {cpu}"
            );
        }
        for (cpu, l1) in self.l1.iter().enumerate() {
            l1.validate();
            for e in l1.entries() {
                assert!(
                    self.dir.is_sharer(e.line, cpu),
                    "cpu {cpu} caches {:?} without a directory entry",
                    e.line
                );
                if e.sr || e.sw {
                    assert!(
                        self.btm[cpu].active,
                        "cpu {cpu} has speculative bits on {:?} outside a txn",
                        e.line
                    );
                }
                // The read hit's SR shortcut rests on SR ⇒ read set.
                assert!(
                    !e.sr || self.btm[cpu].read_set.contains(&e.line),
                    "cpu {cpu} has SR on {:?} outside its read set",
                    e.line
                );
                assert!(
                    !e.sw || self.btm[cpu].write_set.contains(&e.line),
                    "cpu {cpu} has SW on {:?} outside its write set",
                    e.line
                );
            }
            let b = &self.btm[cpu];
            if !b.active {
                assert!(
                    b.spec_writes.is_empty() && b.read_set.is_empty() && b.write_set.is_empty()
                );
            } else {
                // analyze: allow(nondet-iteration) -- order-insensitive: assertion-only sweep; every key is checked independently and nothing is charged or mutated.
                for &word in b.spec_writes.keys() {
                    let line = Addr::from_word_index(word).line();
                    assert!(
                        b.write_set.contains(&line),
                        "spec write to {word} outside the write set"
                    );
                }
                // Equality, too, wherever a live transaction's line cannot
                // leave the L1 without dooming it: not under the unbounded
                // model (spills), nor under `TrueConflictsOnly` (a spared
                // speculative reader loses its copy to the UFO set's
                // exclusive acquisition). With the subsets above and no
                // duplicate tags, equal counts mean equal sets.
                if b.doomed.is_none()
                    && !self.cfg.btm_unbounded
                    && self.cfg.ufo_kill_policy == UfoKillPolicy::AllSpeculativeHolders
                {
                    let sr = l1.entries().filter(|e| e.sr).count();
                    let sw = l1.entries().filter(|e| e.sw).count();
                    assert_eq!(sr, b.read_set.len(), "cpu {cpu}: read set not all SR");
                    assert_eq!(sw, b.write_set.len(), "cpu {cpu}: write set not all SW");
                }
            }
        }
        // Directory sharers must be cached (except spilled unbounded lines,
        // which leave the directory too — so strict equality holds).
        for cpu in 0..self.cfg.cpus {
            for line in self.l1[cpu].entries().map(|e| e.line) {
                assert!(self.dir.is_sharer(line, cpu));
            }
        }
    }

    /// Writes a word without simulating anything — for harness setup only.
    ///
    /// # Panics
    ///
    /// Panics if any CPU is inside a BTM transaction (pokes under a live
    /// transaction would break speculative bookkeeping).
    pub fn poke(&mut self, addr: Addr, value: u64) {
        assert!(
            self.live_txns == 0,
            "poke while a BTM transaction is active"
        );
        self.mem.write(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    #[test]
    #[should_panic(expected = "cpus must be in 1..=64")]
    fn more_than_64_cpus_is_rejected() {
        // Regression: the named MachineConfig constructors assert the CPU
        // range, but a struct-literal config could bypass them; owner masks
        // above the machine are u64 bitmasks, so CPU 64 would alias CPU 0.
        let mut cfg = MachineConfig::small(2);
        cfg.cpus = 65;
        let _ = Machine::new(cfg);
    }

    #[test]
    fn btm_commit_publishes_writes() {
        let mut m = Machine::new(MachineConfig::small(1));
        let a = Addr::from_word_index(10);
        m.btm_begin(0).unwrap();
        m.store(0, a, 5).unwrap();
        assert_eq!(m.load(0, a).unwrap(), 5, "txn sees its own write");
        assert_eq!(m.peek(a), 0, "memory unchanged before commit");
        m.btm_end(0).unwrap();
        assert_eq!(m.peek(a), 5);
        assert_eq!(m.stats().cpus[0].btm_commits, 1);
    }

    #[test]
    fn btm_abort_discards_writes() {
        let mut m = Machine::new(MachineConfig::small(1));
        let a = Addr::from_word_index(10);
        m.store(0, a, 1).unwrap();
        m.btm_begin(0).unwrap();
        m.store(0, a, 2).unwrap();
        let info = m.btm_abort(0);
        assert_eq!(info.reason, AbortReason::Explicit);
        assert_eq!(m.peek(a), 1);
        assert_eq!(m.load(0, a).unwrap(), 1);
        assert_eq!(
            m.btm_status(0).last_abort.unwrap().reason,
            AbortReason::Explicit
        );
        assert!(!m.btm_status(0).in_txn);
    }

    #[test]
    fn flattened_nesting_commits_only_at_outermost() {
        let mut m = Machine::new(MachineConfig::small(1));
        let a = Addr::from_word_index(3);
        m.btm_begin(0).unwrap();
        m.btm_begin(0).unwrap();
        m.store(0, a, 9).unwrap();
        m.btm_end(0).unwrap();
        assert_eq!(m.peek(a), 0, "inner commit publishes nothing");
        assert!(m.btm_status(0).in_txn);
        m.btm_end(0).unwrap();
        assert_eq!(m.peek(a), 9);
    }

    #[test]
    fn nesting_depth_overflow_aborts() {
        let mut m = Machine::new(MachineConfig::small(1));
        for _ in 0..BTM_MAX_DEPTH {
            m.btm_begin(0).unwrap();
        }
        let err = m.btm_begin(0).unwrap_err();
        assert_eq!(
            err,
            AccessError::TxnAbort(AbortInfo::new(AbortReason::DepthOverflow))
        );
        assert!(!m.btm_status(0).in_txn);
    }

    #[test]
    fn syscall_aborts_transaction_but_not_plain_code() {
        let mut m = Machine::new(MachineConfig::small(1));
        m.btm_event(0, BtmEvent::Syscall).unwrap();
        m.btm_begin(0).unwrap();
        let err = m.btm_event(0, BtmEvent::Syscall).unwrap_err();
        assert_eq!(
            err,
            AccessError::TxnAbort(AbortInfo::new(AbortReason::Syscall))
        );
    }

    #[test]
    fn timer_interrupt_dooms_transaction() {
        let mut cfg = MachineConfig::small(1);
        cfg.timer_quantum = Some(1_000);
        let mut m = Machine::new(cfg);
        m.btm_begin(0).unwrap();
        m.work(0, 2_000).unwrap(); // crosses the quantum boundary
        let err = m.work(0, 1).unwrap_err();
        assert_eq!(
            err,
            AccessError::TxnAbort(AbortInfo::new(AbortReason::Interrupt))
        );
        assert!(m.stats().cpus[0].interrupts >= 1);
    }

    #[test]
    fn clock_advances_per_work() {
        let mut m = Machine::new(MachineConfig::small(2));
        m.work(0, 100).unwrap();
        assert_eq!(m.now(0), 100);
        assert_eq!(m.now(1), 0);
        m.stall(1, 50).unwrap();
        assert_eq!(m.now(1), 50);
        assert_eq!(m.stats().cpus[1].stall_cycles, 50);
    }

    #[test]
    fn a_read_hit_alone_marks_the_set_its_commit_clears() {
        let mut m = Machine::new(MachineConfig::small(1));
        let a = Addr::from_word_index(10);
        m.load(0, a).unwrap();
        // An empty transaction's commit clears the marks the fill left.
        m.btm_begin(0).unwrap();
        m.btm_end(0).unwrap();
        m.btm_begin(0).unwrap();
        m.load(0, a).unwrap(); // a hit: only the touch marks the set
        assert!(m.l1[0].entry(a.line()).unwrap().sr);
        m.debug_validate();
        m.btm_end(0).unwrap();
        assert!(m.l1[0].entries().all(|e| !e.sr && !e.sw));
        m.debug_validate();
    }

    #[test]
    fn abort_after_an_invalidation_moved_an_entry_within_its_set() {
        let mut cfg = MachineConfig::small(2);
        cfg.l1 = crate::CacheGeometry::new(1, 4);
        let mut m = Machine::new(cfg);
        let line_word = |n: u64| Addr::from_word_index(n * crate::LINE_WORDS);
        for n in 0..3 {
            m.load(0, line_word(n)).unwrap();
        }
        m.btm_begin(0).unwrap();
        m.store(0, line_word(3), 7).unwrap(); // fills the set's last way
        m.load(0, line_word(2)).unwrap();
        // A plain store from CPU 1 invalidates line 0's non-speculative
        // copy; the set's last entry (the speculative write) moves into
        // the freed way.
        m.store(1, line_word(0), 1).unwrap();
        assert!(m.in_txn(0));
        assert_eq!(m.l1[0].entries().next().unwrap().line, line_word(3).line());
        m.debug_validate();
        let info = m.btm_abort(0);
        assert_eq!(info.reason, AbortReason::Explicit);
        assert!(!m.l1[0].contains(line_word(3).line()));
        assert!(m.l1[0].contains(line_word(2).line()));
        assert!(m.l1[0].entries().all(|e| !e.sr && !e.sw));
        assert_eq!(m.peek(line_word(3)), 0);
        m.debug_validate();
    }

    #[test]
    #[should_panic(expected = "poke while")]
    fn poke_under_txn_panics() {
        let mut m = Machine::new(MachineConfig::small(1));
        m.btm_begin(0).unwrap();
        m.poke(Addr(0), 1);
    }
}
