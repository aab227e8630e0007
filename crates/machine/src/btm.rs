//! BTM: the best-effort hardware transactional memory (paper §3.1).
//!
//! BTM supports transactions that fit in the L1 data cache, raise no
//! exceptions, receive no interrupts, need only flattened nesting, and
//! perform no I/O. Everything else aborts with a recorded [`AbortReason`]
//! that software (the hybrid's abort handler) inspects through the
//! transactional status registers ([`BtmStatus`]).
//!
//! The per-CPU transactional state lives here; the instruction
//! implementations (`btm_begin`/`btm_end`/…) are methods on
//! [`Machine`](crate::Machine).

#![expect(
    clippy::disallowed_types,
    reason = "hot-path membership/lookup state, pre-sized to L1 capacity so the steady \
              state never allocates; hashed with the fixed `IndexHasher` below (no \
              per-process seed), and the only iterations are three order-insensitive \
              sweeps in machine.rs, each commented with why its order cannot matter"
)]

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::{Addr, LineAddr};

/// Why a BTM transaction aborted — the contents of the abort-reason status
/// register (paper §3.1 lists this exact set, plus the UFO interactions from
/// §4.3 which we track separately for the Figure 6 breakdown).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AbortReason {
    /// Lost an age-ordered conflict with another hardware transaction.
    Conflict,
    /// A non-transactional (or STM) access invalidated a speculative line.
    NonTConflict,
    /// A `set_ufo_bits` by a software transaction invalidated a speculative
    /// line (the paper's "killed by UFO bit sets").
    UfoSet,
    /// The transaction itself touched a UFO-protected line and took the
    /// protection fault (conflict with an in-flight software transaction).
    UfoFault,
    /// A speculative line no longer fit in the L1 (cache set overflow).
    Overflow,
    /// `btm_abort` was executed.
    Explicit,
    /// A (timer) interrupt arrived mid-transaction.
    Interrupt,
    /// The transaction invoked a system call.
    Syscall,
    /// The transaction performed I/O.
    Io,
    /// The transaction touched an uncacheable region.
    Uncacheable,
    /// The transaction raised a non-page-fault exception.
    Exception,
    /// The transaction touched a non-resident page.
    PageFault,
    /// Hardware (flattened) nesting depth exceeded.
    DepthOverflow,
    /// An illegal operation was executed transactionally.
    IllegalOp,
    /// A chaos-injected spurious abort (fault injection only; the modelled
    /// hardware never raises this by itself). Transient by construction, so
    /// classified as recoverable.
    Spurious,
}

impl AbortReason {
    /// Whether the hybrid's abort handler should *fail over to software*
    /// immediately: these conditions nearly guarantee the transaction will
    /// abort again if retried in hardware (paper Algorithm 3).
    #[must_use]
    pub const fn is_failover(self) -> bool {
        matches!(
            self,
            AbortReason::Overflow
                | AbortReason::Syscall
                | AbortReason::Io
                | AbortReason::Exception
                | AbortReason::Uncacheable
                | AbortReason::DepthOverflow
                | AbortReason::IllegalOp
        )
    }

    /// Whether the condition is transient and worth retrying in hardware
    /// (possibly after backoff or a software fix-up).
    #[must_use]
    pub const fn is_recoverable(self) -> bool {
        !self.is_failover() && !matches!(self, AbortReason::Explicit)
    }

    /// All reasons, in a stable order (for stats tables).
    #[must_use]
    pub const fn all() -> [AbortReason; 15] {
        use AbortReason::*;
        [
            Conflict,
            NonTConflict,
            UfoSet,
            UfoFault,
            Overflow,
            Explicit,
            Interrupt,
            Syscall,
            Io,
            Uncacheable,
            Exception,
            PageFault,
            DepthOverflow,
            IllegalOp,
            Spurious,
        ]
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::Conflict => "conflict",
            AbortReason::NonTConflict => "nonT-conflict",
            AbortReason::UfoSet => "ufo-set",
            AbortReason::UfoFault => "ufo-fault",
            AbortReason::Overflow => "overflow",
            AbortReason::Explicit => "explicit",
            AbortReason::Interrupt => "interrupt",
            AbortReason::Syscall => "syscall",
            AbortReason::Io => "io",
            AbortReason::Uncacheable => "uncacheable",
            AbortReason::Exception => "exception",
            AbortReason::PageFault => "page-fault",
            AbortReason::DepthOverflow => "depth-overflow",
            AbortReason::IllegalOp => "illegal-op",
            AbortReason::Spurious => "spurious",
        };
        f.write_str(s)
    }
}

/// The abort-reason register pair: reason plus the associated address when
/// one exists (e.g. the faulting address of a page fault or UFO fault).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AbortInfo {
    /// Why the transaction aborted.
    pub reason: AbortReason,
    /// The address associated with the event, if any.
    pub addr: Option<Addr>,
}

impl AbortInfo {
    /// An abort with no associated address.
    #[must_use]
    pub const fn new(reason: AbortReason) -> Self {
        AbortInfo { reason, addr: None }
    }

    /// An abort with an associated faulting address.
    #[must_use]
    pub const fn at(reason: AbortReason, addr: Addr) -> Self {
        AbortInfo {
            reason,
            addr: Some(addr),
        }
    }
}

impl fmt::Display for AbortInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.addr {
            Some(a) => write!(f, "{} @ {a}", self.reason),
            None => write!(f, "{}", self.reason),
        }
    }
}

/// Events a transaction can raise explicitly (modelling instructions the
/// simulated workload "executes"), all of which abort a BTM transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BtmEvent {
    /// A system-call instruction.
    Syscall,
    /// An I/O operation.
    Io,
    /// A synchronous exception (non page-fault).
    Exception,
    /// An access to an uncacheable region.
    Uncacheable,
    /// An illegal operation.
    IllegalOp,
}

impl BtmEvent {
    pub(crate) fn abort_reason(self) -> AbortReason {
        match self {
            BtmEvent::Syscall => AbortReason::Syscall,
            BtmEvent::Io => AbortReason::Io,
            BtmEvent::Exception => AbortReason::Exception,
            BtmEvent::Uncacheable => AbortReason::Uncacheable,
            BtmEvent::IllegalOp => AbortReason::IllegalOp,
        }
    }
}

/// The transactional status registers exposed to software (`btm_mov`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct BtmStatus {
    /// Whether a transaction is currently executing on this CPU.
    pub in_txn: bool,
    /// Current flattened nesting depth (0 when not in a transaction).
    pub depth: u32,
    /// The reason for the last transaction abort, if any.
    pub last_abort: Option<AbortInfo>,
}

/// A fixed multiplicative hasher for integer keys (word and line
/// addresses), in place of the per-process-seeded SipHash: one rotate, xor
/// and multiply per key (Fx-style). `finish` rotates so the well-mixed
/// high bits of the product pick the bucket, which keeps strided addresses
/// apart. The keys are simulated addresses, never outside input, so
/// SipHash's collision resistance bought nothing. Named outside this crate
/// only through [`IndexBuild`].
#[derive(Default)]
pub struct IndexHasher(u64);

impl IndexHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The hasher of the simulator's address-keyed hash tables: the BTM sets
/// here, and the STMs' per-transaction ownership and write sets. It has no
/// per-process seed, so a table's layout, and any order read from it, is
/// the same on every run. Code that charges simulated cycles in a table's
/// iteration order must still fix that order itself.
pub type IndexBuild = BuildHasherDefault<IndexHasher>;

/// Per-CPU BTM machine state (crate-internal).
#[derive(Clone, Debug, Default)]
pub(crate) struct BtmCpu {
    /// Whether a transaction is active.
    pub active: bool,
    /// Flattened nesting depth.
    pub depth: u32,
    /// Global age timestamp of the current transaction (smaller = older).
    pub ts: u64,
    /// Set when the transaction has been killed but the CPU has not yet
    /// noticed (it notices at its next instruction boundary).
    pub doomed: Option<AbortInfo>,
    /// Speculative write buffer: word address → speculative value.
    pub spec_writes: HashMap<u64, u64, IndexBuild>,
    /// Lines speculatively read (authoritative read set; the L1's SR bits
    /// mirror the subset still resident — identical for a live transaction
    /// unless unbounded mode spilled lines past L1 capacity or a
    /// `TrueConflictsOnly` UFO set took a spared reader's copy).
    pub read_set: HashSet<LineAddr, IndexBuild>,
    /// Lines speculatively written.
    pub write_set: HashSet<LineAddr, IndexBuild>,
    /// Last abort info (status register), surviving past the transaction.
    pub last_abort: Option<AbortInfo>,
    /// Reusable drain buffer for the commit/abort paths (the write set and
    /// write buffer cannot be iterated while the machine is mutated, so the
    /// entries are staged here instead of a fresh `Vec` per transaction).
    pub scratch_lines: Vec<LineAddr>,
    /// Reusable drain buffer for publishing the speculative write buffer.
    pub scratch_writes: Vec<(u64, u64)>,
}

impl BtmCpu {
    /// State pre-sized for transactions up to `lines` cache lines, so the
    /// steady state (transactions within L1 capacity) never reallocates.
    /// Unbounded-mode transactions may still grow past this.
    pub fn with_capacity(lines: usize) -> Self {
        BtmCpu {
            spec_writes: HashMap::with_capacity_and_hasher(lines * 2, IndexBuild::default()),
            read_set: HashSet::with_capacity_and_hasher(lines, IndexBuild::default()),
            write_set: HashSet::with_capacity_and_hasher(lines, IndexBuild::default()),
            scratch_lines: Vec::with_capacity(lines),
            scratch_writes: Vec::with_capacity(lines * 2),
            ..Default::default()
        }
    }

    /// Whether this CPU holds `line` speculatively in a live transaction.
    pub fn holds_spec(&self, line: LineAddr) -> bool {
        self.active
            && self.doomed.is_none()
            && (self.read_set.contains(&line) || self.write_set.contains(&line))
    }

    /// Whether this CPU speculatively wrote `line` in a live transaction.
    pub fn wrote_spec(&self, line: LineAddr) -> bool {
        self.active && self.doomed.is_none() && self.write_set.contains(&line)
    }

    /// Clears all transactional state (after commit or abort finalization).
    pub fn reset(&mut self) {
        self.active = false;
        self.depth = 0;
        self.doomed = None;
        self.spec_writes.clear();
        self.read_set.clear();
        self.write_set.clear();
    }

    /// Status-register view.
    pub fn status(&self) -> BtmStatus {
        BtmStatus {
            in_txn: self.active,
            depth: self.depth,
            last_abort: self.last_abort,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_classification_matches_algorithm3() {
        use AbortReason::*;
        for r in [
            Overflow,
            Syscall,
            Io,
            Exception,
            Uncacheable,
            DepthOverflow,
            IllegalOp,
        ] {
            assert!(r.is_failover(), "{r} should fail over");
            assert!(!r.is_recoverable());
        }
        for r in [
            Conflict,
            NonTConflict,
            UfoSet,
            UfoFault,
            Interrupt,
            PageFault,
            Spurious,
        ] {
            assert!(!r.is_failover(), "{r} should not fail over");
            assert!(r.is_recoverable(), "{r} should be recoverable");
        }
        assert!(!Explicit.is_failover() && !Explicit.is_recoverable());
    }

    #[test]
    fn abort_info_display() {
        assert_eq!(
            AbortInfo::new(AbortReason::Overflow).to_string(),
            "overflow"
        );
        assert_eq!(
            AbortInfo::at(AbortReason::PageFault, Addr(0x40)).to_string(),
            "page-fault @ 0x40"
        );
    }

    #[test]
    fn btm_cpu_holds_and_reset() {
        let mut b = BtmCpu {
            active: true,
            ..Default::default()
        };
        b.read_set.insert(LineAddr(3));
        b.write_set.insert(LineAddr(4));
        assert!(b.holds_spec(LineAddr(3)));
        assert!(b.wrote_spec(LineAddr(4)));
        assert!(!b.wrote_spec(LineAddr(3)));
        b.doomed = Some(AbortInfo::new(AbortReason::Conflict));
        assert!(!b.holds_spec(LineAddr(3)), "doomed txns hold nothing");
        b.reset();
        assert!(!b.active && b.spec_writes.is_empty() && b.read_set.is_empty());
    }

    #[test]
    fn event_reason_mapping() {
        assert_eq!(BtmEvent::Syscall.abort_reason(), AbortReason::Syscall);
        assert_eq!(BtmEvent::Io.abort_reason(), AbortReason::Io);
    }

    #[test]
    fn all_reasons_unique() {
        let all = AbortReason::all();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
