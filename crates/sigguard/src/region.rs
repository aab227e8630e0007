//! The guarded-region registry, the classifying SIGSEGV handler, and its
//! install-once logic.

use core::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

use crate::sys::{
    restorer, sched_yield, syscall3, syscall4, KernelSigaction, PAGE_BYTES, PROT_READ, PROT_WRITE,
    SA_ONSTACK, SA_RESTORER, SA_SIGINFO, SIGSEGV, SYS_MPROTECT, SYS_RT_SIGACTION,
};

/// Fixed-size registry of guarded regions (multiple test heaps can be
/// live in one process; `cargo test` runs tests on concurrent
/// threads). Registration stores `base` last with `SeqCst` so the
/// handler — which may run on any thread at any instruction — never
/// sees a half-registered slot.
const MAX_REGIONS: usize = 16;

/// `REGION_BASE` sentinel: the slot is claimed by a registering
/// thread but its real base/length are not published yet. The
/// handler skips it like an empty slot.
const SLOT_CLAIMED: usize = usize::MAX;

static REGION_BASE: [AtomicUsize; MAX_REGIONS] = [const { AtomicUsize::new(0) }; MAX_REGIONS];
static REGION_LEN: [AtomicUsize; MAX_REGIONS] = [const { AtomicUsize::new(0) }; MAX_REGIONS];
static REGION_FAULTS_IN: [AtomicU64; MAX_REGIONS] = [const { AtomicU64::new(0) }; MAX_REGIONS];
static REGION_FAULTS_AFTER: [AtomicU64; MAX_REGIONS] = [const { AtomicU64::new(0) }; MAX_REGIONS];
static REGION_LAST_FAULT: [AtomicUsize; MAX_REGIONS] = [const { AtomicUsize::new(0) }; MAX_REGIONS];
/// Commit windows opened on the region. Here, not in the caller's
/// mapping: a counter every committer bumps must not share a cache line
/// with the base addresses every heap access reads.
static REGION_WINDOWS: [AtomicU64; MAX_REGIONS] = [const { AtomicU64::new(0) }; MAX_REGIONS];

/// Per-region protocol word excluding committers and reopening
/// handlers from each other: bit 0 ([`WINDOW_OPEN`]) is set while a
/// commit window is open on the region, the bits above count handlers
/// mid-reopen ([`REOPENING`] each). A committer CASes 0 → `WINDOW_OPEN`
/// (so it also waits out other committers on the same heap); a handler
/// waits for bit 0 to clear, then adds `REOPENING`. Per region, so a
/// fault in heap A never waits for heap B's window.
static REGION_STATE: [AtomicU64; MAX_REGIONS] = [const { AtomicU64::new(0) }; MAX_REGIONS];
/// Address of the region's per-page closed flags (one `AtomicU8` per
/// page, owned by the registering caller): nonzero = the page is
/// `PROT_NONE` on the public view. Only the holder of the state word —
/// a committer, or a handler mid-reopen — changes a page's protection
/// or its flag. Published before `REGION_BASE`.
static REGION_CLOSED: [AtomicUsize; MAX_REGIONS] = [const { AtomicUsize::new(0) }; MAX_REGIONS];

const WINDOW_OPEN: u64 = 1;
const REOPENING: u64 = 2;

/// Yields a stalled handler gives a window before it decides the
/// committer is wedged: minutes of wall time.
const WEDGED_SPINS: u64 = 1 << 32;

/// [`install`]'s state word, in place of `std::sync::Once`.
static INSTALL: AtomicU8 = AtomicU8::new(NOT_INSTALLED);
const NOT_INSTALLED: u8 = 0;
const INSTALLING: u8 = 1;
const INSTALLED: u8 = 2;
const INSTALL_FAILED: u8 = 3;

static OLD_HANDLER: AtomicUsize = AtomicUsize::new(0);
static OLD_FLAGS: AtomicUsize = AtomicUsize::new(0);
static OLD_RESTORER: AtomicUsize = AtomicUsize::new(0);
static OLD_MASK: AtomicU64 = AtomicU64::new(0);

/// Reinstalls the SIGSEGV disposition that was in place before
/// [`install`], so the re-executed faulting instruction re-faults into
/// the old handler (or the default crash). Async-signal-safe: atomics
/// and one `rt_sigaction` syscall.
fn restore_previous_disposition() {
    let old = KernelSigaction {
        handler: OLD_HANDLER.load(Ordering::SeqCst),
        flags: OLD_FLAGS.load(Ordering::SeqCst),
        restorer: OLD_RESTORER.load(Ordering::SeqCst),
        mask: OLD_MASK.load(Ordering::SeqCst),
    };
    // SAFETY: `old` is exactly the sigaction rt_sigaction reported at
    // install time.
    unsafe {
        syscall4(
            SYS_RT_SIGACTION,
            SIGSEGV,
            core::ptr::addr_of!(old) as usize,
            0,
            8,
        );
    }
}

/// The classifying SIGSEGV handler. Async-signal-safe: atomics,
/// `sched_yield`, `mprotect`, and `rt_sigaction` only — everything it can
/// reach is this `no_std` crate.
///
/// # Safety
///
/// Installed via rt_sigaction with SA_SIGINFO, so the kernel
/// calls it with the documented (sig, siginfo, ucontext) arguments;
/// never called from Rust.
unsafe extern "C" fn segv_handler(
    _sig: i32,
    info: *mut core::ffi::c_void,
    _ucontext: *mut core::ffi::c_void,
) {
    // x86_64 siginfo_t: si_signo/si_errno/si_code then the union;
    // for SIGSEGV the first union field (offset 16) is si_addr.
    // SAFETY: `info` points at the kernel-written siginfo_t (SA_SIGINFO
    // guarantees it is non-null and at least 128 bytes); offset 16 is
    // in bounds and usize-aligned.
    let fault_addr = unsafe { core::ptr::read(info.cast::<u8>().add(16).cast::<usize>()) };
    for region in (0..MAX_REGIONS).filter_map(Region::at) {
        let base = region.base.load(Ordering::SeqCst);
        if base == 0 || base == SLOT_CLAIMED {
            continue;
        }
        let len = region.len.load(Ordering::SeqCst);
        let Some(offset) = fault_addr.checked_sub(base) else {
            continue;
        };
        if offset >= len {
            continue;
        }
        // Ours: a plain access touched a closed page of this heap.
        region.last_fault.store(fault_addr, Ordering::SeqCst);
        let state = region.state;
        if state.load(Ordering::SeqCst) & WINDOW_OPEN == 0 {
            // No window: an earlier one left the page closed (or just
            // dropped). Reopen it below and re-execute.
            region.faults_after.fetch_add(1, Ordering::SeqCst);
        } else {
            region.faults_in.fetch_add(1, Ordering::SeqCst);
        }
        // Stall until this region's window drops, then register as a
        // reopener in the same step, so that no window can open until
        // the page is consistently open again. Returning re-executes
        // the faulting instruction, so an access that raced a window
        // lands strictly after the commit — strong atomicity by
        // deferral.
        let mut spins: u64 = 0;
        loop {
            let cur = state.load(Ordering::SeqCst);
            if cur & WINDOW_OPEN != 0 {
                sched_yield();
                spins = spins.wrapping_add(1);
                if spins > WEDGED_SPINS {
                    // A window has been open for minutes: a committer
                    // is wedged. Fall back to the previous disposition
                    // so the re-fault (the page is still PROT_NONE)
                    // crashes loudly instead of hanging this thread
                    // forever.
                    restore_previous_disposition();
                    return;
                }
            } else if state
                .compare_exchange(
                    cur,
                    cur.wrapping_add(REOPENING),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                break;
            }
        }
        let page = offset / PAGE_BYTES;
        let flags = region.closed.load(Ordering::SeqCst) as *const AtomicU8;
        // SAFETY: `flags` is the registered array of one flag per page of
        // the region (published before `REGION_BASE`, checked against
        // `len` by `register`, and alive until `unregister` by its
        // contract), and `page` < len / PAGE_BYTES by the range check
        // above.
        let closed = unsafe { &*flags.add(page) };
        // Another handler may have reopened the page since the fault.
        if closed.load(Ordering::SeqCst) != 0 {
            // SAFETY: one whole page inside the registered mapping.
            let rc = unsafe {
                syscall3(
                    SYS_MPROTECT,
                    base.wrapping_add(page.wrapping_mul(PAGE_BYTES)),
                    PAGE_BYTES,
                    PROT_READ | PROT_WRITE,
                )
            };
            if rc == 0 {
                closed.store(0, Ordering::SeqCst);
            } else {
                // The kernel refused (out of VMAs): the page stays
                // closed, so crash loudly on the re-fault rather than
                // fault here forever.
                restore_previous_disposition();
            }
        }
        state.fetch_sub(REOPENING, Ordering::SeqCst);
        return;
    }
    // Not ours (a genuine segfault elsewhere in the process): put the
    // previous disposition back and return. The instruction re-faults
    // straight into the old handler or the default crash.
    restore_previous_disposition();
}

/// Installs the handler once per process; returns whether it is in
/// place. A caller that finds another thread mid-install waits for it.
pub fn install() -> bool {
    if INSTALL
        .compare_exchange(
            NOT_INSTALLED,
            INSTALLING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
        .is_ok()
    {
        let act = KernelSigaction {
            handler: segv_handler as *const () as usize,
            flags: SA_SIGINFO | SA_RESTORER | SA_ONSTACK,
            restorer: restorer as *const () as usize,
            mask: 0,
        };
        let mut old = KernelSigaction {
            handler: 0,
            flags: 0,
            restorer: 0,
            mask: 0,
        };
        // SAFETY: both structs are valid kernel sigactions; size of
        // the kernel sigset_t on x86_64 is 8 bytes.
        let rc = unsafe {
            syscall4(
                SYS_RT_SIGACTION,
                SIGSEGV,
                core::ptr::addr_of!(act) as usize,
                core::ptr::addr_of_mut!(old) as usize,
                8,
            )
        };
        let outcome = if rc == 0 {
            OLD_HANDLER.store(old.handler, Ordering::SeqCst);
            OLD_FLAGS.store(old.flags, Ordering::SeqCst);
            OLD_RESTORER.store(old.restorer, Ordering::SeqCst);
            OLD_MASK.store(old.mask, Ordering::SeqCst);
            INSTALLED
        } else {
            INSTALL_FAILED
        };
        INSTALL.store(outcome, Ordering::SeqCst);
    }
    while INSTALL.load(Ordering::SeqCst) == INSTALLING {
        sched_yield();
    }
    INSTALL.load(Ordering::SeqCst) == INSTALLED
}

/// One registered guarded region: a handle on its slot of the registry.
///
/// Obtained from [`Region::register`]; the owner calls
/// [`Region::unregister`] before unmapping the region or freeing its
/// closed flags.
#[derive(Debug)]
pub struct Region {
    base: &'static AtomicUsize,
    len: &'static AtomicUsize,
    faults_in: &'static AtomicU64,
    faults_after: &'static AtomicU64,
    last_fault: &'static AtomicUsize,
    windows: &'static AtomicU64,
    state: &'static AtomicU64,
    closed: &'static AtomicUsize,
}

impl Region {
    /// Slot `slot` of the registry, whatever its state.
    fn at(slot: usize) -> Option<Region> {
        Some(Region {
            base: REGION_BASE.get(slot)?,
            len: REGION_LEN.get(slot)?,
            faults_in: REGION_FAULTS_IN.get(slot)?,
            faults_after: REGION_FAULTS_AFTER.get(slot)?,
            last_fault: REGION_LAST_FAULT.get(slot)?,
            windows: REGION_WINDOWS.get(slot)?,
            state: REGION_STATE.get(slot)?,
            closed: REGION_CLOSED.get(slot)?,
        })
    }

    /// Registers `base..base + len` (whole pages) with the fault handler,
    /// with `closed` its per-page closed flags. `None` if the slot table
    /// is full or `closed` does not hold one flag per page.
    ///
    /// Claims a registry slot with a CAS to the claimed sentinel — never
    /// touching slots owned by other live regions — then fills in this
    /// slot's length, counters and closed-flag pointer (its state word is
    /// 0: never used, or cleared by the last owner's `unregister`), and
    /// publishes the real base *last* (the handler skips both 0 and the
    /// sentinel, so it never sees a half-registered slot).
    ///
    /// # Safety
    ///
    /// `base..base + len` must be a mapping the caller owns, whose pages
    /// the handler may `mprotect` back to read-write, and it and `closed`
    /// must stay alive until [`Region::unregister`]: the handler reads
    /// them from any thread at any instruction.
    pub unsafe fn register(base: usize, len: usize, closed: &[AtomicU8]) -> Option<Region> {
        if closed.len() != len / PAGE_BYTES {
            return None;
        }
        let slot = REGION_BASE.iter().position(|b| {
            b.compare_exchange(0, SLOT_CLAIMED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        })?;
        let region = Region::at(slot)?;
        region.len.store(len, Ordering::SeqCst);
        region.faults_in.store(0, Ordering::SeqCst);
        region.faults_after.store(0, Ordering::SeqCst);
        region.last_fault.store(0, Ordering::SeqCst);
        region.windows.store(0, Ordering::SeqCst);
        region
            .closed
            .store(closed.as_ptr() as usize, Ordering::SeqCst);
        region.base.store(base, Ordering::SeqCst);
        Some(region)
    }

    /// Frees the slot. No window may be open, but a fault handler on
    /// another thread may still be inspecting the slot; callers must
    /// quiesce plain accessors first. The state word and flag pointer
    /// are cleared before the base, so whoever claims the slot next finds
    /// them at rest.
    pub fn unregister(&self) {
        self.state.store(0, Ordering::SeqCst);
        self.closed.store(0, Ordering::SeqCst);
        self.base.store(0, Ordering::SeqCst);
    }

    /// Takes the region's window bit, waiting out reopening handlers and
    /// other committers' windows (both a handful of instructions or one
    /// syscall long), and counts the window. While the bit is up no
    /// handler reopens a page, so the caller may close pages and set
    /// their flags.
    #[inline]
    pub fn open_window(&self) {
        while self
            .state
            .compare_exchange(0, WINDOW_OPEN, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            sched_yield();
        }
        self.windows.fetch_add(1, Ordering::SeqCst);
    }

    /// Lowers the window bit; the pages the window closed stay closed.
    #[inline]
    pub fn close_window(&self) {
        self.state.fetch_and(!WINDOW_OPEN, Ordering::SeqCst);
    }

    /// Commit windows opened on the region.
    #[must_use]
    pub fn windows_opened(&self) -> u64 {
        self.windows.load(Ordering::SeqCst)
    }

    /// Faults classified while a window was open.
    #[must_use]
    pub fn faults_in_window(&self) -> u64 {
        self.faults_in.load(Ordering::SeqCst)
    }

    /// Faults classified with no window open (lazy reopens).
    #[must_use]
    pub fn faults_after_window(&self) -> u64 {
        self.faults_after.load(Ordering::SeqCst)
    }

    /// Address of the most recent classified fault, 0 if none.
    #[must_use]
    pub fn last_fault(&self) -> usize {
        self.last_fault.load(Ordering::SeqCst)
    }
}
