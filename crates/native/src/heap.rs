//! The native word heap: boxed atomics, or — when the mprotect guard is
//! available — a dual-mapped region whose public view is page-protected
//! by USTM commit windows.
//!
//! All transactional and plain accesses in the crate go through
//! [`WordHeap`]. The two storage shapes present the same word-indexed
//! `AtomicU64` interface; the only semantic difference is that the
//! mapped shape distinguishes the *public* view (plain accesses, and
//! nothing else) from the *shadow* view (every transactional path, TL2
//! and USTM — they are excluded from commit windows by protocol, and must
//! not fault on a page a window closed).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::chaos::NativeChaos;
use crate::guard::{self, DualMapping, GuardStats};

/// Word-addressed shared storage for a native TM heap.
#[derive(Debug)]
pub(crate) enum WordHeap {
    /// Plain boxed atomics: no guard, identical public/shadow views.
    Boxed(Box<[AtomicU64]>),
    /// Dual-mapped guardable storage.
    Mapped(DualMapping),
}

/// An open strong-atomicity commit window (no-op on boxed storage).
/// Dropping it ends the window; the pages it closed stay closed until a
/// plain access reopens them.
#[derive(Debug)]
pub(crate) struct CommitWindow<'a> {
    _win: Option<guard::Window<'a>>,
}

impl WordHeap {
    /// Builds storage for `words` words, preferring the guardable dual
    /// mapping when [`guard::available`] and falling back to boxed
    /// atomics otherwise.
    pub(crate) fn new(words: u64) -> Self {
        if guard::available() {
            if let Some(m) = DualMapping::new(words as usize * 8) {
                return WordHeap::Mapped(m);
            }
        }
        WordHeap::Boxed((0..words).map(|_| AtomicU64::new(0)).collect())
    }

    /// The public view of word `w` — what plain accesses touch; faults
    /// while its page is closed (during a commit window, and after one
    /// until the fault handler reopens the page).
    #[inline]
    pub(crate) fn word(&self, w: usize) -> &AtomicU64 {
        match self {
            WordHeap::Boxed(b) => &b[w],
            WordHeap::Mapped(m) => m.word(w),
        }
    }

    /// The shadow view of word `w` — what transactions touch; never on a
    /// closed page (the second mapping once the heap has had a commit
    /// window; see [`crate::guard`]). Identical to [`WordHeap::word`] on
    /// boxed storage.
    #[inline]
    pub(crate) fn shadow_word(&self, w: usize) -> &AtomicU64 {
        match self {
            WordHeap::Boxed(b) => &b[w],
            WordHeap::Mapped(m) => m.shadow_word(w),
        }
    }

    /// Convenience: `Acquire` load of the public view.
    pub(crate) fn load(&self, w: usize) -> u64 {
        self.word(w).load(Ordering::Acquire)
    }

    /// Convenience: `Release` store to the public view.
    pub(crate) fn store(&self, w: usize, v: u64) {
        self.word(w).store(v, Ordering::Release);
    }

    /// Opens a strong-atomicity window over the pages containing
    /// `word_idxs` (ascending). A no-op handle on boxed storage (strong
    /// atomicity then rests on the hybrid's plain accessors ordering
    /// through the stripes alone). `chaos` is
    /// the committing worker's failpoint handle, struck at the
    /// `GuardWindow` site once protection is up (and, on boxed storage,
    /// struck once anyway so failpoint schedules keep their shape when
    /// the guard is unavailable).
    pub(crate) fn open_window(
        &self,
        word_idxs: impl Iterator<Item = usize>,
        chaos: Option<(&NativeChaos, usize)>,
    ) -> CommitWindow<'_> {
        match self {
            WordHeap::Boxed(_) => {
                let _ = word_idxs;
                if let Some((c, tid)) = chaos {
                    let _ = c.strike(tid, crate::chaos::FailSite::GuardWindow);
                }
                CommitWindow { _win: None }
            }
            WordHeap::Mapped(m) => CommitWindow {
                _win: Some(m.open_window(word_idxs, chaos)),
            },
        }
    }

    /// Guard counters for this heap (all-zero/unguarded on boxed
    /// storage).
    pub(crate) fn guard_stats(&self) -> GuardStats {
        match self {
            WordHeap::Boxed(_) => GuardStats::default(),
            WordHeap::Mapped(m) => m.stats(),
        }
    }

    /// Byte offset of the most recent classified guard fault, if any.
    pub(crate) fn last_fault_offset(&self) -> Option<usize> {
        match self {
            WordHeap::Boxed(_) => None,
            WordHeap::Mapped(m) => m.last_fault_offset(),
        }
    }

    /// Pages currently closed on the public view (0 on boxed storage).
    pub(crate) fn closed_pages(&self) -> usize {
        match self {
            WordHeap::Boxed(_) => 0,
            WordHeap::Mapped(m) => m.closed_pages(),
        }
    }
}
