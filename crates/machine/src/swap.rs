//! Demand paging with UFO-bit save/restore (paper Appendix A).
//!
//! The paper modifies the Linux kernel to save a page's UFO bits when it is
//! swapped out and restore them when it is swapped back in, with a fast path
//! for pages whose bits are all clear. This module models exactly that
//! responsibility: residency, an LRU victim policy, the per-page bit store,
//! and the all-clear optimization. Data itself always stays in the memory
//! image (a timing-neutral simplification — what must survive swap is the
//! *protection*, which is what we model and test).
//!
//! Paging is off by default; enable it with [`Machine::enable_swap`].

use std::collections::BTreeMap;

use crate::addr::{Addr, PageAddr, PAGE_LINES};
use crate::btm::{AbortInfo, AbortReason};
use crate::config::cost;
use crate::machine::{AccessError, AccessResult, CpuId, Machine};
use crate::ufo::UfoBits;

/// Configuration for the paging model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwapConfig {
    /// Maximum number of simultaneously resident pages.
    pub max_resident_pages: usize,
}

/// Counters for the paging model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Pages faulted in.
    pub page_ins: u64,
    /// Pages evicted.
    pub page_outs: u64,
    /// Evictions that had to save UFO bits.
    pub ufo_pages_saved: u64,
    /// Evictions that took the all-clear fast path (no bits to save).
    pub all_clear_fast_path: u64,
    /// Page-ins that restored saved UFO bits.
    pub ufo_pages_restored: u64,
    /// Saved UFO line bits that could not be restored on page-in because the
    /// line fell outside configured memory. Losing protection silently would
    /// break strong atomicity, so any occurrence is a bug: debug builds
    /// assert, release builds count it here so the run report surfaces it.
    pub ufo_bits_dropped: u64,
}

impl SwapStats {
    /// Adds another machine's paging counters into this one.
    ///
    /// Destructures exhaustively so a newly added counter is a compile
    /// error until it is merged.
    pub fn merge(&mut self, other: &SwapStats) {
        let SwapStats {
            page_ins,
            page_outs,
            ufo_pages_saved,
            all_clear_fast_path,
            ufo_pages_restored,
            ufo_bits_dropped,
        } = other;
        self.page_ins += page_ins;
        self.page_outs += page_outs;
        self.ufo_pages_saved += ufo_pages_saved;
        self.all_clear_fast_path += all_clear_fast_path;
        self.ufo_pages_restored += ufo_pages_restored;
        self.ufo_bits_dropped += ufo_bits_dropped;
    }
}

#[derive(Debug)]
pub(crate) struct SwapState {
    cfg: SwapConfig,
    /// Resident pages with an LRU timestamp. A `BTreeMap`, not a
    /// `HashMap`: the eviction loop and the LRU scan iterate this map, and
    /// replay determinism requires those sweeps to visit pages in an order
    /// independent of hasher seeding (the PR-3 nondet-iteration class).
    resident: BTreeMap<PageAddr, u64>,
    tick: u64,
    /// Saved UFO bits for swapped-out pages (one entry per line of the
    /// page). Ordered for the same reason as `resident`.
    saved_bits: BTreeMap<PageAddr, Vec<UfoBits>>,
    stats: SwapStats,
}

impl SwapState {
    fn new(cfg: SwapConfig) -> Self {
        assert!(
            cfg.max_resident_pages >= 1,
            "need at least one resident page"
        );
        SwapState {
            cfg,
            resident: BTreeMap::new(),
            tick: 0,
            saved_bits: BTreeMap::new(),
            stats: SwapStats::default(),
        }
    }

    /// Touches `page` if resident, returning whether it was.
    fn touch_resident(&mut self, page: PageAddr) -> bool {
        self.tick += 1;
        let t = self.tick;
        if let Some(lru) = self.resident.get_mut(&page) {
            *lru = t;
            true
        } else {
            false
        }
    }

    fn lru_victim(&self) -> Option<PageAddr> {
        self.resident
            .iter()
            .min_by_key(|&(p, &t)| (t, p.0))
            .map(|(&p, _)| p)
    }

    pub(crate) fn reset_stats(&mut self) {
        self.stats = SwapStats::default();
    }
}

impl Machine {
    /// Turns on demand paging. All pages start non-resident; the first
    /// access to each page takes a (transparent, for plain code) page fault.
    /// BTM transactions touching a non-resident page abort with
    /// [`AbortReason::PageFault`] and the faulting address, which the
    /// hybrid's abort handler resolves by touching the page
    /// non-transactionally.
    pub fn enable_swap(&mut self, cfg: SwapConfig) {
        self.swap = Some(SwapState::new(cfg));
    }

    /// Paging counters (zeroed if paging is disabled).
    #[must_use]
    pub fn swap_stats(&self) -> SwapStats {
        self.swap.as_ref().map(|s| s.stats).unwrap_or_default()
    }

    /// Whether `page` is currently resident (always `true` with paging off).
    #[must_use]
    pub fn page_resident(&self, page: PageAddr) -> bool {
        self.swap
            .as_ref()
            .is_none_or(|s| s.resident.contains_key(&page))
    }

    /// Ensures the page containing `addr` is resident, evicting an LRU
    /// victim (saving its UFO bits) if necessary.
    pub(crate) fn page_in_if_needed(&mut self, cpu: CpuId, addr: Addr) -> AccessResult<()> {
        let Some(swap) = &mut self.swap else {
            return Ok(());
        };
        let page = addr.page();
        if swap.touch_resident(page) {
            // Chaos: swap thrash — the OS reclaims the page out from under
            // the access, which then re-faults exactly like a cold miss
            // (aborting an enclosing BTM transaction with a page fault).
            if !self.chaos_roll(crate::ChaosFaultKind::SwapThrash) {
                return Ok(());
            }
            self.chaos_record(cpu, crate::ChaosFaultKind::SwapThrash);
            let mut s = self.swap.take().expect("swap present");
            self.page_out(&mut s, cpu, page);
            self.swap = Some(s);
        }
        if self.btm[cpu].active {
            let info = AbortInfo::at(AbortReason::PageFault, addr);
            self.finalize_abort(cpu, info);
            return Err(AccessError::TxnAbort(info));
        }
        let mut swap = self.swap.take().expect("swap present");
        while swap.resident.len() >= swap.cfg.max_resident_pages {
            let victim = swap.lru_victim().expect("resident set nonempty");
            self.page_out(&mut swap, cpu, victim);
        }
        // Fault the page in, restoring any saved UFO bits.
        self.charge(cpu, cost::PAGE_IN);
        swap.stats.page_ins += 1;
        swap.tick += 1;
        let t = swap.tick;
        swap.resident.insert(page, t);
        if let Some(bits) = swap.saved_bits.remove(&page) {
            swap.stats.ufo_pages_restored += 1;
            let first = page.first_line();
            for (i, b) in bits.into_iter().enumerate() {
                let line = crate::addr::LineAddr(first.0 + i as u64);
                if line.index() < self.cfg.memory_lines() {
                    self.dir.set_ufo(line, b);
                } else {
                    // page_out truncates the save at memory_lines(), so a
                    // saved bit for an out-of-range line means the save and
                    // restore disagree about the memory size — protection
                    // would be silently lost.
                    debug_assert!(
                        false,
                        "saved UFO bits for out-of-range {line:?} (memory has {} lines)",
                        self.cfg.memory_lines()
                    );
                    swap.stats.ufo_bits_dropped += 1;
                }
            }
        }
        self.swap = Some(swap);
        Ok(())
    }

    fn page_out(&mut self, swap: &mut SwapState, cpu: CpuId, victim: PageAddr) {
        self.charge(cpu, cost::PAGE_OUT);
        swap.stats.page_outs += 1;
        swap.resident.remove(&victim);
        let first = victim.first_line();
        let mut bits = Vec::with_capacity(PAGE_LINES as usize);
        let mut any = false;
        for i in 0..PAGE_LINES {
            let line = crate::addr::LineAddr(first.0 + i);
            if line.index() >= self.cfg.memory_lines() {
                break;
            }
            // Evict cached copies; speculative holders lose their lines.
            for o in 0..self.cfg.cpus {
                if self.btm[o].holds_spec(line) {
                    self.doom(
                        o,
                        AbortInfo::at(AbortReason::NonTConflict, line.base_addr()),
                    );
                }
                if self.dir.is_sharer(line, o) {
                    self.l1[o].invalidate(line);
                    self.dir.remove_sharer(line, o);
                }
            }
            let b = self.dir.ufo(line);
            any |= !b.is_none();
            bits.push(b);
            self.dir.set_ufo(line, UfoBits::NONE);
        }
        if any {
            swap.stats.ufo_pages_saved += 1;
            swap.saved_bits.insert(victim, bits);
        } else {
            // Appendix A's optimization: an all-clear page needs no save.
            swap.stats.all_clear_fast_path += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MachineConfig, PAGE_BYTES};

    fn page_addr(p: u64) -> Addr {
        Addr(p * PAGE_BYTES)
    }

    fn swap_machine(max_pages: usize) -> Machine {
        let mut cfg = MachineConfig::small(2);
        cfg.memory_words = 1 << 16; // 128 pages
        let mut m = Machine::new(cfg);
        m.enable_swap(SwapConfig {
            max_resident_pages: max_pages,
        });
        m
    }

    #[test]
    fn pages_fault_in_on_demand() {
        let mut m = swap_machine(2);
        assert!(!m.page_resident(Addr(0).page()));
        m.load(0, Addr(0)).unwrap();
        assert!(m.page_resident(Addr(0).page()));
        assert_eq!(m.swap_stats().page_ins, 1);
    }

    #[test]
    fn lru_page_is_evicted_at_capacity() {
        let mut m = swap_machine(2);
        m.load(0, page_addr(0)).unwrap();
        m.load(0, page_addr(1)).unwrap();
        m.load(0, page_addr(0)).unwrap(); // page 1 is now LRU
        m.load(0, page_addr(2)).unwrap();
        assert!(m.page_resident(Addr(0).page()));
        assert!(!m.page_resident(page_addr(1).page()));
        assert_eq!(m.swap_stats().page_outs, 1);
        assert_eq!(m.swap_stats().all_clear_fast_path, 1);
    }

    #[test]
    fn ufo_bits_survive_swap_round_trip() {
        let mut m = swap_machine(2);
        let protected = page_addr(0);
        m.set_ufo_bits(0, protected, UfoBits::FAULT_ON_BOTH)
            .unwrap();
        // Force the protected page out and back in.
        m.load(0, page_addr(1)).unwrap();
        m.load(0, page_addr(2)).unwrap();
        assert!(!m.page_resident(protected.page()));
        assert_eq!(m.swap_stats().ufo_pages_saved, 1);
        m.set_ufo_enabled(1, true);
        assert!(
            matches!(m.store(1, protected, 1), Err(AccessError::UfoFault { .. })),
            "protection must survive the swap round trip"
        );
        assert_eq!(m.swap_stats().ufo_pages_restored, 1);
        assert_eq!(
            m.read_ufo_bits(0, protected).unwrap(),
            UfoBits::FAULT_ON_BOTH
        );
    }

    #[test]
    fn txn_page_fault_aborts_with_address() {
        let mut m = swap_machine(4);
        m.btm_begin(0).unwrap();
        let err = m.load(0, page_addr(3)).unwrap_err();
        match err {
            AccessError::TxnAbort(info) => {
                assert_eq!(info.reason, AbortReason::PageFault);
                assert_eq!(info.addr, Some(page_addr(3)));
            }
            other => panic!("{other:?}"),
        }
        // The hybrid's fix-up: touch the page non-transactionally, retry.
        m.load(0, page_addr(3)).unwrap();
        m.btm_begin(0).unwrap();
        m.load(0, page_addr(3)).unwrap();
        m.btm_end(0).unwrap();
    }

    #[test]
    fn all_clear_fast_path_counted_separately() {
        let mut m = swap_machine(1);
        m.set_ufo_bits(0, page_addr(0), UfoBits::FAULT_ON_WRITE)
            .unwrap();
        m.load(0, page_addr(1)).unwrap(); // evicts protected page 0 (save)
        m.load(0, page_addr(2)).unwrap(); // evicts clean page 1 (fast path)
        let s = m.swap_stats();
        assert_eq!(s.ufo_pages_saved, 1);
        assert_eq!(s.all_clear_fast_path, 1);
    }
}
