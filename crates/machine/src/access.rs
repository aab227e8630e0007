//! The data-access path: loads, stores, and UFO-bit updates.
//!
//! This is where the paper's mechanisms meet: UFO protection checks,
//! directory permission acquisition (with its BTM-killing side effects), L1
//! capacity (set overflow aborts), and the age-ordered hardware contention
//! manager. Both plain (non-transactional) and BTM-transactional accesses
//! take the same path — exactly the property that makes the hybrid's
//! hardware transactions zero-overhead.

use crate::addr::{Addr, LineAddr};
use crate::bits::{cpu_bit, BitIter};
use crate::btm::{AbortInfo, AbortReason};
use crate::cache::L1Insert;
use crate::chaos::ChaosFaultKind;
use crate::config::{cost, HwCmPolicy, UfoKillPolicy};
use crate::machine::{AccessError, AccessResult, CpuId, Machine};
use crate::ufo::{UfoBits, UfoFaultKind};

impl Machine {
    /// Loads the word at `addr` from CPU `cpu`.
    ///
    /// Inside a BTM transaction the load is speculative: the line joins the
    /// transaction's read set and the value reflects the transaction's own
    /// buffered writes.
    ///
    /// # Errors
    ///
    /// * [`AccessError::UfoFault`] if the line is protected fault-on-read
    ///   and `cpu` has UFO faults enabled (the load did not complete).
    /// * [`AccessError::Nacked`] if a transactional request lost age
    ///   arbitration (retry after the already-charged delay).
    /// * [`AccessError::TxnAbort`] if the CPU's transaction aborted
    ///   (overflow, interrupt, pending doom, page fault, …).
    pub fn load(&mut self, cpu: CpuId, addr: Addr) -> AccessResult<u64> {
        self.data_access(cpu, addr, None)
    }

    /// Stores `value` to the word at `addr` from CPU `cpu`.
    ///
    /// Inside a BTM transaction the store is speculative (buffered; the line
    /// joins the write set). Outside, the store is performed in place and
    /// invalidates remote copies — killing any speculative holder, which is
    /// what makes BTM strongly atomic with respect to plain code.
    ///
    /// # Errors
    ///
    /// As for [`Machine::load`], with [`AccessError::UfoFault`] raised
    /// against fault-on-write protection.
    pub fn store(&mut self, cpu: CpuId, addr: Addr, value: u64) -> AccessResult<()> {
        self.data_access(cpu, addr, Some(value)).map(|_| ())
    }

    fn data_access(&mut self, cpu: CpuId, addr: Addr, write: Option<u64>) -> AccessResult<u64> {
        self.begin_op(cpu)?;
        self.stats.cpus[cpu].accesses += 1;
        self.charge(cpu, cost::L1_HIT);
        self.page_in_if_needed(cpu, addr)?;
        let line = addr.line();
        let is_write = write.is_some();

        // UFO protection check (skipped when this CPU has faults disabled,
        // as STM transactions do for their own data).
        if self.ufo_enabled[cpu] && self.dir.ufo(line).faults_on(is_write) {
            self.charge(cpu, cost::FAULT_DISPATCH);
            self.stats.cpus[cpu].ufo_faults += 1;
            let kind = if is_write {
                UfoFaultKind::Write
            } else {
                UfoFaultKind::Read
            };
            return Err(AccessError::UfoFault { addr, kind });
        }

        // Coherence permission + conflict arbitration.
        if is_write {
            let have_excl = self.dir.owner(line) == Some(cpu) && self.l1[cpu].contains(line);
            if have_excl {
                self.l1[cpu].touch(line);
            } else {
                self.arbitrate(cpu, line, true)?;
                // Invalidate all other cached copies. The holder mask is
                // copied out first so the machine can be mutated per holder
                // without an intermediate Vec.
                let others = self.dir.holders_mask_except(line, cpu);
                let transfer = others != 0;
                for o in BitIter::new(others) {
                    if let Some(e) = self.l1[o].invalidate(line) {
                        if e.dirty {
                            self.charge(cpu, cost::WRITEBACK);
                        }
                    }
                    self.dir.remove_sharer(line, o);
                }
                self.fill(cpu, line, transfer)?;
                self.dir.set_exclusive(line, cpu);
            }
        } else if let Some(e) = self.l1[cpu].touch(line) {
            // Shared hit: no live remote speculative writer can exist
            // (acquiring exclusive permission would have invalidated us).
            // SR is set only together with the read-set insert and both are
            // cleared together, so a set SR means the line is already in
            // the read set: a re-read skips the hash.
            if self.btm[cpu].active && !e.sr {
                e.sr = true;
                self.btm[cpu].read_set.insert(line);
            }
        } else {
            self.arbitrate(cpu, line, false)?;
            let owner = self.dir.owner(line);
            let transfer = owner.is_some_and(|o| o != cpu);
            self.fill(cpu, line, transfer)?;
            self.dir.add_sharer(line, cpu);
            if self.btm[cpu].active {
                self.btm[cpu].read_set.insert(line);
                if let Some(e) = self.l1[cpu].entry_mut(line) {
                    e.sr = true;
                }
            }
        }

        // Perform the data movement.
        let word = addr.word_index();
        if self.btm[cpu].active {
            if let Some(value) = write {
                // "Ensure the to-be-written block is clean" (paper §3.1).
                if let Some(e) = self.l1[cpu].entry_mut(line) {
                    if e.dirty {
                        e.dirty = false;
                        self.charge(cpu, cost::WRITEBACK);
                    }
                }
                self.btm[cpu].spec_writes.insert(word, value);
                self.btm[cpu].write_set.insert(line);
                if let Some(e) = self.l1[cpu].entry_mut(line) {
                    e.sw = true;
                }
                Ok(value)
            } else {
                // The read-set insert and SR bit were set above.
                let v = self.btm[cpu]
                    .spec_writes
                    .get(&word)
                    .copied()
                    .unwrap_or_else(|| self.mem.read(addr));
                Ok(v)
            }
        } else if let Some(value) = write {
            self.mem.write(addr, value);
            if let Some(e) = self.l1[cpu].entry_mut(line) {
                e.dirty = true;
            }
            Ok(value)
        } else {
            Ok(self.mem.read(addr))
        }
    }

    /// Detects conflicts between this request and other CPUs' speculative
    /// state, resolving them with the configured hardware CM policy.
    ///
    /// A write conflicts with any speculative holder; a read conflicts only
    /// with speculative writers. Non-transactional requesters always win
    /// (strong atomicity; the paper statically prioritizes software
    /// transactions — which issue plain accesses — over hardware ones).
    fn arbitrate(&mut self, cpu: CpuId, line: LineAddr, is_write: bool) -> AccessResult<()> {
        // Chaos: nack a transactional request as if a remote cache were slow
        // to respond. Only live-transaction requesters can be nacked — plain
        // accesses have no retry path and must always succeed.
        if self.btm[cpu].active
            && self.btm[cpu].doomed.is_none()
            && self.chaos_roll(ChaosFaultKind::CoherenceNack)
        {
            let responders = u64::from(self.dir.sharer_count(line)).max(1);
            let delay = self
                .chaos
                .as_ref()
                .map_or(0, |c| c.plan.nack_delay)
                .saturating_mul(responders);
            self.charge(cpu, cost::NACK_RETRY + delay);
            self.stats.cpus[cpu].nacks += 1;
            self.stats.cpus[cpu].nack_stall_cycles += cost::NACK_RETRY + delay;
            self.chaos_record(cpu, ChaosFaultKind::CoherenceNack);
            return Err(AccessError::Nacked);
        }
        // Only CPUs inside a transaction can hold speculative state, so the
        // scan walks the live-transaction mask instead of 0..cpus.
        let mut conflictors = 0u64;
        for o in BitIter::new(self.live_txns & !cpu_bit(cpu)) {
            let conflicts = if is_write {
                self.btm[o].holds_spec(line)
            } else {
                self.btm[o].wrote_spec(line)
            };
            if conflicts {
                conflictors |= cpu_bit(o);
            }
        }
        if conflictors == 0 {
            return Ok(());
        }
        let requester_txn = self.btm[cpu].active && self.btm[cpu].doomed.is_none();
        if requester_txn {
            match self.cfg.hw_cm {
                HwCmPolicy::AgeOrdered => {
                    let my_ts = self.btm[cpu].ts;
                    if BitIter::new(conflictors).any(|o| self.btm[o].ts < my_ts) {
                        // An older transaction holds the line: nack.
                        self.charge(cpu, cost::NACK_RETRY);
                        self.stats.cpus[cpu].nacks += 1;
                        self.stats.cpus[cpu].nack_stall_cycles += cost::NACK_RETRY;
                        return Err(AccessError::Nacked);
                    }
                }
                HwCmPolicy::RequesterWins => {}
            }
            for o in BitIter::new(conflictors) {
                self.doom(o, AbortInfo::at(AbortReason::Conflict, line.base_addr()));
            }
        } else {
            for o in BitIter::new(conflictors) {
                self.doom(
                    o,
                    AbortInfo::at(AbortReason::NonTConflict, line.base_addr()),
                );
            }
        }
        Ok(())
    }

    /// Brings `line` into `cpu`'s L1, charging fill latency and handling the
    /// victim. A bounded BTM whose victim is speculative aborts with
    /// [`AbortReason::Overflow`]; the unbounded model spills the victim to an
    /// idealized overflow structure (its conflict tracking lives in the BTM
    /// read/write sets, so correctness is unaffected).
    fn fill(&mut self, cpu: CpuId, line: LineAddr, transfer: bool) -> AccessResult<()> {
        // Chaos: force a capacity eviction of a speculative line, as if
        // unrelated fills had crowded its set. The unbounded model spills
        // instead of aborting, so it is exempt.
        if !self.cfg.btm_unbounded
            && self.btm[cpu].active
            && self.btm[cpu].doomed.is_none()
            && self.chaos_roll(ChaosFaultKind::ForcedEviction)
        {
            if let Some(victim) = self.l1[cpu].lru_spec_victim() {
                self.chaos_record(cpu, ChaosFaultKind::ForcedEviction);
                let info = AbortInfo::at(AbortReason::Overflow, victim.base_addr());
                self.finalize_abort(cpu, info);
                return Err(AccessError::TxnAbort(info));
            }
        }
        self.stats.cpus[cpu].l1_misses += 1;
        let l2_hit = self.l2.access(line);
        if transfer {
            self.charge(cpu, cost::CACHE_TO_CACHE);
        } else if l2_hit {
            self.charge(cpu, cost::L2_HIT);
        } else {
            self.stats.cpus[cpu].l2_misses += 1;
            self.charge(cpu, cost::MEM);
        }
        match self.l1[cpu].insert(line) {
            L1Insert::Done => Ok(()),
            L1Insert::Evicted { victim, dirty } => {
                self.dir.remove_sharer(victim, cpu);
                if dirty {
                    self.charge(cpu, cost::WRITEBACK);
                }
                Ok(())
            }
            L1Insert::WouldOverflow { victim, dirty } => {
                if self.cfg.btm_unbounded {
                    self.dir.remove_sharer(victim, cpu);
                    if dirty {
                        self.charge(cpu, cost::WRITEBACK);
                    }
                    // SR/SW state was dropped from the L1 but survives in
                    // the BTM read/write sets.
                    Ok(())
                } else {
                    // Undo the fill (the line was never registered in the
                    // directory) and abort for capacity.
                    self.l1[cpu].invalidate(line);
                    let info = AbortInfo::at(AbortReason::Overflow, victim.base_addr());
                    self.finalize_abort(cpu, info);
                    Err(AccessError::TxnAbort(info))
                }
            }
        }
    }

    /// Shared implementation of `set_ufo_bits` / `add_ufo_bits`.
    pub(crate) fn ufo_update(
        &mut self,
        cpu: CpuId,
        addr: Addr,
        bits: UfoBits,
        or_mode: bool,
    ) -> AccessResult<()> {
        self.begin_op(cpu)?;
        self.charge(cpu, cost::UFO_OP);
        if self.btm[cpu].active {
            // Updating protection inside a hardware transaction is not part
            // of the modelled ISA: treat as an illegal operation.
            let info = AbortInfo::at(AbortReason::IllegalOp, addr);
            self.finalize_abort(cpu, info);
            return Err(AccessError::TxnAbort(info));
        }
        self.page_in_if_needed(cpu, addr)?;
        let line = addr.line();

        // Chaos: the bit-set's coherence transaction transiently fails and
        // is retried in hardware for 1–3 rounds before succeeding. The
        // failure is invisible except in time; the update below proceeds.
        let mut retry_delay = 0;
        if let Some(c) = &mut self.chaos {
            if c.plan.ufo_set_failure > 0.0 && c.rng.gen_bool(c.plan.ufo_set_failure) {
                retry_delay = c
                    .plan
                    .ufo_retry_cycles
                    .saturating_mul(c.rng.gen_range(1..4));
            }
        }
        if retry_delay > 0 {
            self.charge(cpu, retry_delay);
            self.chaos_record(cpu, ChaosFaultKind::UfoSetRetry);
        }

        // §4.3's proposed coherence change: a set that adds no fault-on-read
        // (read-barrier protection, or a clear) may be published "in the
        // owner state" — no exclusive acquisition, remote copies survive,
        // and only true conflicts (speculative writers) are killed.
        let owner_state = self.cfg.ufo_owner_state_sets && !bits.contains(UfoBits::FAULT_ON_READ);

        // Kill speculative holders per policy (under the faithful protocol
        // the copies are invalidated by the exclusive acquisition below).
        for o in BitIter::new(self.live_txns & !cpu_bit(cpu)) {
            if !self.btm[o].holds_spec(line) {
                continue;
            }
            let true_conflict =
                bits.contains(UfoBits::FAULT_ON_READ) || self.btm[o].wrote_spec(line);
            let kill = if owner_state {
                true_conflict
            } else {
                match self.cfg.ufo_kill_policy {
                    UfoKillPolicy::AllSpeculativeHolders => true,
                    UfoKillPolicy::TrueConflictsOnly => true_conflict,
                }
            };
            if kill {
                self.doom(o, AbortInfo::at(AbortReason::UfoSet, addr));
            }
        }

        if owner_state {
            // Publish the bits without disturbing sharers; join them.
            if !self.l1[cpu].contains(line) {
                self.fill(cpu, line, false)?;
            } else {
                self.l1[cpu].touch(line);
            }
            self.dir.add_sharer(line, cpu);
        } else {
            // Acquire exclusive permission: invalidate all other copies.
            let others = self.dir.holders_mask_except(line, cpu);
            let transfer = others != 0;
            for o in BitIter::new(others) {
                if let Some(e) = self.l1[o].invalidate(line) {
                    if e.dirty {
                        self.charge(cpu, cost::WRITEBACK);
                    }
                }
                self.dir.remove_sharer(line, o);
            }
            if !self.l1[cpu].contains(line) || self.dir.owner(line) != Some(cpu) {
                self.fill(cpu, line, transfer)?;
            } else {
                self.l1[cpu].touch(line);
            }
            self.dir.set_exclusive(line, cpu);
        }

        if or_mode {
            self.dir.or_ufo(line, bits);
        } else {
            self.dir.set_ufo(line, bits);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BtmStatus, MachineConfig};

    fn word(n: u64) -> Addr {
        Addr::from_word_index(n)
    }

    /// Two addresses in the same cache line.
    fn same_line_pair() -> (Addr, Addr) {
        (word(8), word(9))
    }

    #[test]
    fn plain_store_then_load_other_cpu() {
        let mut m = Machine::new(MachineConfig::small(2));
        m.store(0, word(0), 11).unwrap();
        assert_eq!(m.load(1, word(0)).unwrap(), 11);
        // CPU 1's fill was a cache-to-cache transfer; both now share.
        assert!(m.dir.is_sharer(Addr(0).line(), 0) || m.dir.is_sharer(Addr(0).line(), 1));
    }

    #[test]
    fn txn_isolation_from_other_cpu() {
        let mut m = Machine::new(MachineConfig::small(2));
        let a = word(0);
        m.btm_begin(0).unwrap();
        m.store(0, a, 42).unwrap();
        // CPU 1's plain load kills the transaction (strong atomicity) and
        // sees the old value.
        assert_eq!(m.load(1, a).unwrap(), 0);
        let err = m.load(0, a).unwrap_err();
        match err {
            AccessError::TxnAbort(info) => assert_eq!(info.reason, AbortReason::NonTConflict),
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn txn_vs_txn_age_arbitration() {
        let mut m = Machine::new(MachineConfig::small(2));
        let a = word(0);
        m.btm_begin(0).unwrap(); // older
        m.btm_begin(1).unwrap(); // younger
        m.store(0, a, 1).unwrap();
        // Younger writer is nacked by older holder.
        assert_eq!(m.store(1, a, 2).unwrap_err(), AccessError::Nacked);
        assert_eq!(m.stats().cpus[1].nacks, 1);
        // Older transaction can still commit.
        m.btm_end(0).unwrap();
        // Retry now succeeds.
        m.store(1, a, 2).unwrap();
        m.btm_end(1).unwrap();
        assert_eq!(m.peek(a), 2);
    }

    #[test]
    fn older_requester_aborts_younger_holder() {
        let mut m = Machine::new(MachineConfig::small(2));
        let a = word(0);
        m.btm_begin(0).unwrap(); // older
        m.btm_begin(1).unwrap(); // younger
        m.store(1, a, 7).unwrap();
        // Older transaction writes: younger holder is doomed.
        m.store(0, a, 8).unwrap();
        let err = m.load(1, a).unwrap_err();
        match err {
            AccessError::TxnAbort(info) => assert_eq!(info.reason, AbortReason::Conflict),
            other => panic!("{other:?}"),
        }
        m.btm_end(0).unwrap();
        assert_eq!(m.peek(a), 8);
    }

    #[test]
    fn requester_wins_policy_never_nacks() {
        let mut cfg = MachineConfig::small(2);
        cfg.hw_cm = HwCmPolicy::RequesterWins;
        let mut m = Machine::new(cfg);
        let a = word(0);
        m.btm_begin(0).unwrap(); // older
        m.btm_begin(1).unwrap(); // younger
        m.store(0, a, 1).unwrap();
        // Younger requester wins under RequesterWins.
        m.store(1, a, 2).unwrap();
        assert!(matches!(m.load(0, a), Err(AccessError::TxnAbort(_))));
        m.btm_end(1).unwrap();
        assert_eq!(m.peek(a), 2);
    }

    #[test]
    fn read_read_sharing_is_not_a_conflict() {
        let mut m = Machine::new(MachineConfig::small(2));
        let a = word(0);
        m.btm_begin(0).unwrap();
        m.btm_begin(1).unwrap();
        assert_eq!(m.load(0, a).unwrap(), 0);
        assert_eq!(m.load(1, a).unwrap(), 0);
        m.btm_end(0).unwrap();
        m.btm_end(1).unwrap();
        assert_eq!(m.stats().aggregate().btm_commits, 2);
    }

    #[test]
    fn set_overflow_aborts_bounded_txn() {
        let mut m = Machine::new(MachineConfig::small(1)); // 4 sets, 2 ways
        m.btm_begin(0).unwrap();
        // Three distinct lines mapping to set 0: lines 0, 4, 8.
        m.load(0, word(0)).unwrap();
        m.load(0, word(4 * 8)).unwrap();
        let err = m.load(0, word(8 * 8)).unwrap_err();
        match err {
            AccessError::TxnAbort(info) => assert_eq!(info.reason, AbortReason::Overflow),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            m.btm_status(0),
            BtmStatus {
                in_txn: false,
                depth: 0,
                last_abort: m.btm_status(0).last_abort,
            }
        );
    }

    #[test]
    fn unbounded_txn_survives_overflow_and_stays_conflict_tracked() {
        let mut m = Machine::new(MachineConfig::small(2).unbounded());
        m.btm_begin(0).unwrap();
        m.load(0, word(0)).unwrap();
        m.load(0, word(4 * 8)).unwrap();
        m.load(0, word(8 * 8)).unwrap(); // spills line 0 (LRU spec victim)
                                         // A plain store by CPU 1 to the spilled line still kills the txn.
        m.store(1, word(0), 5).unwrap();
        assert!(matches!(m.load(0, word(0)), Err(AccessError::TxnAbort(_))));
    }

    #[test]
    fn reread_line_stays_tracked_until_a_remote_store_dooms_it() {
        // A read hit with SR already set skips the read-set insert; the
        // line must still be in the read set a remote store consults —
        // bounded, and unbounded after a spill and a re-read.
        for unbounded in [false, true] {
            let cfg = MachineConfig::small(2); // 4 sets, 2 ways
            let mut m = Machine::new(if unbounded { cfg.unbounded() } else { cfg });
            let x = word(0);
            m.btm_begin(0).unwrap();
            for _ in 0..2 {
                m.load(0, x).unwrap();
                m.debug_validate();
            }
            if unbounded {
                // Lines 4 and 8 share X's set: X is spilled, then re-read.
                m.load(0, word(4 * 8)).unwrap();
                m.debug_validate();
                m.load(0, word(8 * 8)).unwrap();
                m.debug_validate();
                assert!(!m.l1[0].contains(x.line()), "X was spilled");
                for _ in 0..2 {
                    m.load(0, x).unwrap();
                    m.debug_validate();
                }
            }
            assert!(m.l1[0].entry(x.line()).is_some_and(|e| e.sr));
            m.store(1, x, 5).unwrap();
            m.debug_validate();
            match m.load(0, x).unwrap_err() {
                AccessError::TxnAbort(info) => {
                    assert_eq!(
                        info.reason,
                        AbortReason::NonTConflict,
                        "unbounded {unbounded}"
                    );
                }
                other => panic!("unbounded {unbounded}: {other:?}"),
            }
            m.debug_validate();
        }
    }

    #[test]
    fn unbounded_txn_commits_large_write_set() {
        let mut m = Machine::new(MachineConfig::small(1).unbounded());
        m.btm_begin(0).unwrap();
        for i in 0..32 {
            m.store(0, word(i * 8), i).unwrap();
        }
        m.btm_end(0).unwrap();
        for i in 0..32 {
            assert_eq!(m.peek(word(i * 8)), i);
        }
    }

    #[test]
    fn ufo_fault_on_plain_access() {
        let mut m = Machine::new(MachineConfig::small(2));
        let (a, b) = same_line_pair();
        m.set_ufo_bits(0, a, UfoBits::FAULT_ON_BOTH).unwrap();
        m.set_ufo_enabled(1, true);
        match m.load(1, b).unwrap_err() {
            AccessError::UfoFault { addr, kind } => {
                assert_eq!(addr, b);
                assert_eq!(kind, UfoFaultKind::Read);
            }
            other => panic!("{other:?}"),
        }
        // Same line, write: also faults.
        assert!(matches!(
            m.store(1, a, 1),
            Err(AccessError::UfoFault {
                kind: UfoFaultKind::Write,
                ..
            })
        ));
        // With faults disabled, the access sails through.
        m.set_ufo_enabled(1, false);
        assert_eq!(m.load(1, b).unwrap(), 0);
        assert_eq!(m.stats().cpus[1].ufo_faults, 2);
    }

    #[test]
    fn fault_on_write_permits_reads() {
        let mut m = Machine::new(MachineConfig::small(2));
        let a = word(0);
        m.set_ufo_bits(0, a, UfoBits::FAULT_ON_WRITE).unwrap();
        m.set_ufo_enabled(1, true);
        assert_eq!(m.load(1, a).unwrap(), 0);
        assert!(m.store(1, a, 1).is_err());
    }

    #[test]
    fn add_ufo_bits_ors_and_read_reports() {
        let mut m = Machine::new(MachineConfig::small(1));
        let a = word(0);
        m.set_ufo_bits(0, a, UfoBits::FAULT_ON_WRITE).unwrap();
        m.add_ufo_bits(0, a, UfoBits::FAULT_ON_READ).unwrap();
        assert_eq!(m.read_ufo_bits(0, a).unwrap(), UfoBits::FAULT_ON_BOTH);
        m.set_ufo_bits(0, a, UfoBits::NONE).unwrap();
        assert_eq!(m.read_ufo_bits(0, a).unwrap(), UfoBits::NONE);
    }

    #[test]
    fn ufo_set_kills_speculative_reader() {
        let mut m = Machine::new(MachineConfig::small(2));
        let a = word(0);
        m.btm_begin(1).unwrap();
        m.load(1, a).unwrap();
        // An STM read barrier on CPU 0 sets fault-on-write: false conflict,
        // but the exclusive acquisition kills the speculative reader.
        m.set_ufo_bits(0, a, UfoBits::FAULT_ON_WRITE).unwrap();
        match m.load(1, a).unwrap_err() {
            AccessError::TxnAbort(info) => assert_eq!(info.reason, AbortReason::UfoSet),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precise_ufo_kill_policy_spares_false_conflicts() {
        let mut cfg = MachineConfig::small(2);
        cfg.ufo_kill_policy = UfoKillPolicy::TrueConflictsOnly;
        let mut m = Machine::new(cfg);
        let a = word(0);
        m.btm_begin(1).unwrap();
        m.load(1, a).unwrap();
        // Read-barrier protection (fault-on-write only) vs a speculative
        // reader: a false conflict, spared under the precise policy.
        m.set_ufo_bits(0, a, UfoBits::FAULT_ON_WRITE).unwrap();
        m.load(1, a).unwrap();
        m.btm_end(1).unwrap();
        // Write-barrier protection (includes fault-on-read) is a true
        // conflict and still kills.
        m.btm_begin(1).unwrap();
        m.load(1, a).unwrap();
        m.set_ufo_bits(0, a, UfoBits::FAULT_ON_BOTH).unwrap();
        assert!(matches!(m.load(1, a), Err(AccessError::TxnAbort(_))));
    }

    #[test]
    fn btm_txn_takes_ufo_fault_without_dying() {
        let mut m = Machine::new(MachineConfig::small(2));
        let a = word(0);
        m.set_ufo_bits(0, a, UfoBits::FAULT_ON_BOTH).unwrap();
        m.set_ufo_enabled(1, true);
        m.btm_begin(1).unwrap();
        // The transactional access faults; the transaction itself is alive
        // and software chooses whether to stall or abort.
        assert!(matches!(m.load(1, a), Err(AccessError::UfoFault { .. })));
        assert!(m.btm_status(1).in_txn);
        let info = m.btm_abort_with(1, AbortInfo::at(AbortReason::UfoFault, a));
        assert_eq!(info.reason, AbortReason::UfoFault);
    }

    #[test]
    fn set_ufo_inside_txn_is_illegal() {
        let mut m = Machine::new(MachineConfig::small(1));
        m.btm_begin(0).unwrap();
        let err = m
            .set_ufo_bits(0, word(0), UfoBits::FAULT_ON_WRITE)
            .unwrap_err();
        match err {
            AccessError::TxnAbort(info) => assert_eq!(info.reason, AbortReason::IllegalOp),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn txn_reads_own_writes_and_tracks_sets() {
        let mut m = Machine::new(MachineConfig::small(1));
        let (a, b) = same_line_pair();
        m.store(0, a, 1).unwrap();
        m.btm_begin(0).unwrap();
        assert_eq!(m.load(0, a).unwrap(), 1);
        m.store(0, a, 2).unwrap();
        assert_eq!(m.load(0, a).unwrap(), 2);
        assert_eq!(m.load(0, b).unwrap(), 0, "other word in line unaffected");
        m.btm_end(0).unwrap();
        assert_eq!(m.peek(a), 2);
    }

    #[test]
    fn dirty_line_written_back_before_speculative_write() {
        let mut m = Machine::new(MachineConfig::small(1));
        let a = word(0);
        m.store(0, a, 1).unwrap(); // line now dirty in L1
        m.btm_begin(0).unwrap();
        m.store(0, a, 2).unwrap();
        // Abort: memory must hold the pre-transaction value 1, which
        // required the dirty line to be cleaned first.
        m.btm_abort(0);
        assert_eq!(m.peek(a), 1);
        assert_eq!(m.load(0, a).unwrap(), 1);
    }

    #[test]
    fn cache_misses_are_counted() {
        let mut m = Machine::new(MachineConfig::small(1));
        m.load(0, word(0)).unwrap();
        m.load(0, word(0)).unwrap();
        assert_eq!(m.stats().cpus[0].accesses, 2);
        assert_eq!(m.stats().cpus[0].l1_misses, 1);
        assert_eq!(m.stats().cpus[0].l2_misses, 1);
    }
}
