//! The mprotect strong-atomicity guard: real MMU protection standing in
//! for the paper's per-line UFO bits.
//!
//! The paper's USTM keeps plain (non-transactional) code honest with
//! per-cache-line UFO fault-on-read/fault-on-write bits: any plain access
//! that would observe a software transaction's intermediate state takes a
//! hardware fault *before* it completes. Real hardware has no UFO bits,
//! but it has an MMU — this module rebuilds the mechanism at **page**
//! granularity with `mprotect(2)`:
//!
//! * The native heap is a `memfd` file mapped **twice**: a *public* view
//!   (every plain access goes through it) and a *shadow* view of the same
//!   physical pages, never protected, which every transactional path uses —
//!   TL2 reads and write-back, USTM reads and commit write-back (the
//!   hybrid's serial tier is a USTM transaction). Transactions are kept
//!   off the lines a commit window is writing
//!   by protocol (ownership, the TL2 stripes a slow commit holds), so they
//!   never needed the guard and never pay for it. (Until a heap's first commit window no page of
//!   it can be closed, and the transactional view is simply the public
//!   mapping: a heap whose slow path never runs does not pay a second set
//!   of PTEs for its pages.)
//! * A native-USTM commit window **closes** (`PROT_NONE`, public view only)
//!   those pages of its write set that are still open. A racing plain
//!   access to those pages takes a real SIGSEGV.
//! * Protection is **sticky**: dropping the window only lowers the region's
//!   window bit. The pages stay closed, so the next commit to them issues
//!   no syscall and no TLB shootdown; a page is reopened lazily, by the
//!   fault handler, the first time a plain access touches it with no
//!   window open. The price of a slow commit moves to the plain access
//!   that really lands on a page a slow commit has written — the paper's
//!   cost model.
//! * The installed SIGSEGV handler classifies the fault: if the address
//!   falls in a registered guarded region it is a plain access to a closed
//!   page — the handler counts it, records the address, spins (with
//!   `sched_yield`) until that region's window bit is clear, reopens the
//!   one page (`mprotect(RW)`), and returns, which *re-executes* the
//!   faulting instruction. A plain access that raced a window therefore
//!   completes after the commit, serialized — detected and deferred, never
//!   lost and never torn. Faults outside every registered region restore
//!   the previously-installed disposition and return, so the re-executed
//!   instruction reaches the old handler (or the default crash) untouched.
//! * Committers and reopening handlers exclude each other through one
//!   state word per region (bit 0 = window open, the rest = handlers
//!   mid-reopen): a committer CASes 0→1, a handler waits for bit 0 to
//!   clear and adds 2, so no page is reopened under an open window and no
//!   window opens over a page half-way through a reopen. The same word
//!   serializes committers on one heap.
//!
//! ## Limits vs. the paper's UFO bits (docs/ARCHITECTURE.md §5)
//!
//! Page granularity means false sharing: a plain access to an *unrelated*
//! word on a closed page faults and reopens it (and stalls for the window,
//! if one is open) — correct, just slower — where UFO bits would have let
//! it through. And the guard only *holds* during the commit window
//! (redo-log USTM publishes lazily), not for the whole transaction as eager
//! UFO acquisition would — the window is exactly the span in which
//! intermediate state exists.
//!
//! Everything here is raw Linux syscalls (`mmap`/`mprotect`/
//! `rt_sigaction`/`memfd_create`) via inline assembly — the workspace has
//! no libc dependency. The implementation exists under
//! `cfg(all(target_os = "linux", target_arch = "x86_64"))`; elsewhere
//! `DualMapping`/`Window` are uninhabited (the heap's matches on them
//! compile everywhere but can never be reached), and there — or when
//! `UFOTM_SKIP_GUARD` is set, e.g. under ThreadSanitizer — the heap uses
//! plain boxed storage and [`available`] reports `false`.

/// Whether the guard is usable: right platform, and not disabled via the
/// `UFOTM_SKIP_GUARD` environment variable.
#[must_use]
pub fn available() -> bool {
    cfg!(all(target_os = "linux", target_arch = "x86_64"))
        && std::env::var_os("UFOTM_SKIP_GUARD").is_none()
}

/// Guard observability counters for one heap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Whether this heap is actually dual-mapped and guardable.
    pub guarded: bool,
    /// Commit windows opened on this heap.
    pub windows_opened: u64,
    /// Plain accesses that faulted on this heap's pages *during* a commit
    /// window — each one a strong-atomicity event: detected, stalled past
    /// the window, then re-executed.
    pub faults_in_window: u64,
    /// Faults on this heap's pages that found no window open: lazy reopens
    /// of a page an earlier window left closed, and accesses that faulted
    /// just as a window dropped. The handler reopens the page and the
    /// access re-executes; still never lost.
    pub faults_after_window: u64,
}

pub(crate) use imp::{DualMapping, Window};

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(
    unsafe_code,
    reason = "the raw-syscall module: the crate's only unsafe, each site documented"
)]
mod imp {
    //! The real (x86_64 Linux) implementation. All `unsafe` in the crate
    //! lives in this module: raw syscalls, the signal handler, and the
    //! word views over the two mappings.

    use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
    use std::sync::Once;

    use super::GuardStats;
    use crate::chaos::{FailSite, NativeChaos};

    // ---- raw syscalls ----------------------------------------------------

    const SYS_CLOSE: usize = 3;
    const SYS_MMAP: usize = 9;
    const SYS_MPROTECT: usize = 10;
    const SYS_MUNMAP: usize = 11;
    const SYS_RT_SIGACTION: usize = 13;
    const SYS_SCHED_YIELD: usize = 24;
    const SYS_FTRUNCATE: usize = 77;
    const SYS_MEMFD_CREATE: usize = 319;

    const PROT_NONE: usize = 0;
    const PROT_READ: usize = 1;
    const PROT_WRITE: usize = 2;
    const MAP_SHARED: usize = 1;
    const SIGSEGV: usize = 11;
    const SA_SIGINFO: usize = 0x4;
    const SA_RESTORER: usize = 0x0400_0000;
    const SA_ONSTACK: usize = 0x0800_0000;

    pub(crate) const PAGE_BYTES: usize = 4096;

    /// Raw 6-argument syscall. Returns the kernel's raw result
    /// (`-errno` on failure).
    ///
    /// # Safety
    ///
    /// The caller must pass arguments valid for syscall `n`.
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: the `syscall` instruction with the kernel's register
        // convention; clobbers rcx/r11 as declared. Soundness of the call
        // itself is the forwarded caller contract.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// # Safety
    ///
    /// Same contract as `syscall6` — caller passes arguments valid
    /// for syscall `n`; the tail positions are zero-filled, which every
    /// syscall used here ignores.
    unsafe fn syscall4(n: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        // SAFETY: forwarded caller contract.
        unsafe { syscall6(n, a1, a2, a3, a4, 0, 0) }
    }

    /// # Safety
    ///
    /// Same contract as `syscall6`; unused argument registers are 0.
    unsafe fn syscall3(n: usize, a1: usize, a2: usize, a3: usize) -> isize {
        // SAFETY: forwarded caller contract.
        unsafe { syscall6(n, a1, a2, a3, 0, 0, 0) }
    }

    /// # Safety
    ///
    /// Same contract as `syscall6`; unused argument registers are 0.
    unsafe fn syscall2(n: usize, a1: usize, a2: usize) -> isize {
        // SAFETY: forwarded caller contract.
        unsafe { syscall6(n, a1, a2, 0, 0, 0, 0) }
    }

    /// Async-signal-safe yield, usable from inside the SIGSEGV handler.
    fn sched_yield() {
        // SAFETY: sched_yield takes no arguments and has no memory effects.
        unsafe {
            syscall6(SYS_SCHED_YIELD, 0, 0, 0, 0, 0, 0);
        }
    }

    /// The kernel's `struct sigaction` on x86_64 (`k_sa_handler`,
    /// `sa_flags`, `sa_restorer`, `sa_mask`).
    #[repr(C)]
    struct KernelSigaction {
        handler: usize,
        flags: usize,
        restorer: usize,
        mask: u64,
    }

    /// `sigreturn` trampoline the kernel jumps to when the handler
    /// returns (we install with `SA_RESTORER` since there is no libc to
    /// provide one).
    ///
    /// # Safety
    ///
    /// Never called from Rust — the kernel jumps here on handler
    /// return with the signal frame already on the stack, which is exactly
    /// what `rt_sigreturn` (syscall 15) consumes; naked, so no prologue
    /// disturbs that frame.
    #[unsafe(naked)]
    unsafe extern "C" fn restorer() {
        core::arch::naked_asm!("mov rax, 15", "syscall");
    }

    // ---- region registry + handler ---------------------------------------

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
    static REGION_FAULTS_AFTER: [AtomicU64; MAX_REGIONS] =
        [const { AtomicU64::new(0) }; MAX_REGIONS];
    static REGION_LAST_FAULT: [AtomicUsize; MAX_REGIONS] =
        [const { AtomicUsize::new(0) }; MAX_REGIONS];
    /// Commit windows opened on the region. Here, not in the
    /// [`DualMapping`]: a counter every committer bumps must not share a
    /// cache line with the base addresses every heap access reads.
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
    /// page, owned by the [`DualMapping`]): nonzero = the page is
    /// `PROT_NONE` on the public view. Only the holder of the state word —
    /// a committer, or a handler mid-reopen — changes a page's protection
    /// or its flag. Published before `REGION_BASE`.
    static REGION_CLOSED: [AtomicUsize; MAX_REGIONS] = [const { AtomicUsize::new(0) }; MAX_REGIONS];

    const WINDOW_OPEN: u64 = 1;
    const REOPENING: u64 = 2;

    static INSTALL: Once = Once::new();
    static INSTALL_OK: AtomicUsize = AtomicUsize::new(0);
    static OLD_HANDLER: AtomicUsize = AtomicUsize::new(0);
    static OLD_FLAGS: AtomicUsize = AtomicUsize::new(0);
    static OLD_RESTORER: AtomicUsize = AtomicUsize::new(0);
    static OLD_MASK: AtomicU64 = AtomicU64::new(0);

    /// Reinstalls the SIGSEGV disposition that was in place before
    /// [`install_handler`], so the re-executed faulting instruction
    /// re-faults into the old handler (or the default crash).
    /// Async-signal-safe: atomics and one `rt_sigaction` syscall.
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
    /// `sched_yield`, `mprotect`, and `rt_sigaction` only — and no longer
    /// just by construction: the D9 `signal-unsafe-reachable` pass walks
    /// everything reachable from here and fails `cargo xtask analyze` on
    /// any allocation, lock, panic, or stdio drifting in.
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
        for slot in 0..MAX_REGIONS {
            let base = REGION_BASE[slot].load(Ordering::SeqCst);
            if base == 0 || base == SLOT_CLAIMED {
                continue;
            }
            let len = REGION_LEN[slot].load(Ordering::SeqCst);
            if fault_addr < base || fault_addr >= base + len {
                continue;
            }
            // Ours: a plain access touched a closed page of this heap.
            REGION_LAST_FAULT[slot].store(fault_addr, Ordering::SeqCst);
            let state = &REGION_STATE[slot];
            if state.load(Ordering::SeqCst) & WINDOW_OPEN == 0 {
                // No window: an earlier one left the page closed (or just
                // dropped). Reopen it below and re-execute.
                REGION_FAULTS_AFTER[slot].fetch_add(1, Ordering::SeqCst);
            } else {
                REGION_FAULTS_IN[slot].fetch_add(1, Ordering::SeqCst);
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
                    spins += 1;
                    if spins > 1 << 32 {
                        // A window has been open for minutes: a committer
                        // is wedged. Fall back to the previous disposition
                        // so the re-fault (the page is still PROT_NONE)
                        // crashes loudly instead of hanging this thread
                        // forever.
                        restore_previous_disposition();
                        return;
                    }
                } else if state
                    .compare_exchange(cur, cur + REOPENING, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    break;
                }
            }
            let page = (fault_addr - base) / PAGE_BYTES;
            let flags = REGION_CLOSED[slot].load(Ordering::SeqCst) as *const AtomicU8;
            // SAFETY: `flags` is the live `DualMapping`'s array of one flag
            // per page of the region (published before `REGION_BASE`, and
            // heaps are dropped only with plain accessors quiesced), and
            // `page` < len / PAGE_BYTES by the range check above.
            let closed = unsafe { &*flags.add(page) };
            // Another handler may have reopened the page since the fault.
            if closed.load(Ordering::SeqCst) != 0 {
                // SAFETY: one whole page inside our public mapping.
                let rc = unsafe {
                    syscall3(
                        SYS_MPROTECT,
                        base + page * PAGE_BYTES,
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
    /// place.
    fn install_handler() -> bool {
        INSTALL.call_once(|| {
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
            if rc == 0 {
                OLD_HANDLER.store(old.handler, Ordering::SeqCst);
                OLD_FLAGS.store(old.flags, Ordering::SeqCst);
                OLD_RESTORER.store(old.restorer, Ordering::SeqCst);
                OLD_MASK.store(old.mask, Ordering::SeqCst);
                INSTALL_OK.store(1, Ordering::SeqCst);
            }
        });
        INSTALL_OK.load(Ordering::SeqCst) == 1
    }

    // ---- the dual mapping -------------------------------------------------

    /// One `memfd` mapped twice: the public view (guardable; plain
    /// accesses) and the shadow view (always writable; every transactional
    /// path).
    #[derive(Debug)]
    pub(crate) struct DualMapping {
        public_base: usize,
        shadow_base: usize,
        /// Base of the view transactions use: `public_base` until the
        /// heap's first commit window, `shadow_base` from then on. No page
        /// can be closed before a window has opened, so until then the
        /// public view is as fault-free as the shadow one, and a heap whose
        /// slow path never runs keeps one set of PTEs (one RSS charge) for
        /// its pages instead of two. Written once, so reading it costs
        /// what reading `shadow_base` would.
        txn_base: AtomicUsize,
        bytes: usize,
        fd: i32,
        slot: usize,
        /// Per page: nonzero while the page is `PROT_NONE` on the public
        /// view. The handler reaches it through `REGION_CLOSED[slot]`.
        closed: Box<[AtomicU8]>,
    }

    // SAFETY: the mappings are process-wide shared memory accessed only
    // through `&AtomicU64` views; the raw base addresses are plain data and
    // `closed` is a boxed slice of atomics.
    unsafe impl Send for DualMapping {}
    // SAFETY: shared references only hand out `&AtomicU64` word views; the
    // closed flags are atomics, and the region's state word serializes the
    // only non-atomic state transitions (the mprotect flips) among
    // committers and reopening handlers.
    unsafe impl Sync for DualMapping {}

    fn mmap_shared(fd: i32, bytes: usize) -> Option<usize> {
        // SAFETY: anonymous-address shared file mapping; the kernel
        // validates fd/length.
        let p = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                fd as usize,
                0,
            )
        };
        (p > 0).then_some(p as usize)
    }

    impl DualMapping {
        /// Builds the dual mapping for `bytes` (rounded up to whole
        /// pages) and registers it with the fault handler. `None` if any
        /// step fails (old kernel, slot table full, handler install
        /// refused) — the caller falls back to unguarded boxed storage.
        pub(crate) fn new(bytes: usize) -> Option<Self> {
            if !install_handler() {
                return None;
            }
            let bytes = bytes.div_ceil(PAGE_BYTES) * PAGE_BYTES;
            // SAFETY: NUL-terminated static name, no flags.
            let fd = unsafe { syscall2(SYS_MEMFD_CREATE, c"ufotm-guard".as_ptr() as usize, 0) };
            if fd < 0 {
                return None;
            }
            let fd = fd as i32;
            // SAFETY: freshly created memfd.
            if unsafe { syscall2(SYS_FTRUNCATE, fd as usize, bytes) } != 0 {
                // SAFETY: fd is ours, not yet mapped or shared.
                unsafe { syscall2(SYS_CLOSE, fd as usize, 0) };
                return None;
            }
            let Some(public_base) = mmap_shared(fd, bytes) else {
                // SAFETY: fd is ours and unused elsewhere.
                unsafe { syscall2(SYS_CLOSE, fd as usize, 0) };
                return None;
            };
            let Some(shadow_base) = mmap_shared(fd, bytes) else {
                // SAFETY: unmap/close what we just created.
                unsafe {
                    syscall2(SYS_MUNMAP, public_base, bytes);
                    syscall2(SYS_CLOSE, fd as usize, 0);
                }
                return None;
            };
            // Claim a registry slot with a CAS to the claimed sentinel —
            // never touching slots owned by other live heaps — then fill
            // in this slot's length, counters and closed-flag pointer (its
            // state word is 0: never used, or cleared by the last owner's
            // drop), and publish the real base *last* (the handler skips
            // both 0 and the sentinel, so it never sees a half-registered
            // slot).
            let claimed = REGION_BASE.iter().position(|b| {
                b.compare_exchange(0, SLOT_CLAIMED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            });
            let Some(slot) = claimed else {
                // SAFETY: tear down both fresh mappings and the fd.
                unsafe {
                    syscall2(SYS_MUNMAP, public_base, bytes);
                    syscall2(SYS_MUNMAP, shadow_base, bytes);
                    syscall2(SYS_CLOSE, fd as usize, 0);
                }
                return None;
            };
            REGION_LEN[slot].store(bytes, Ordering::SeqCst);
            REGION_FAULTS_IN[slot].store(0, Ordering::SeqCst);
            REGION_FAULTS_AFTER[slot].store(0, Ordering::SeqCst);
            REGION_LAST_FAULT[slot].store(0, Ordering::SeqCst);
            REGION_WINDOWS[slot].store(0, Ordering::SeqCst);
            let closed: Box<[AtomicU8]> =
                (0..bytes / PAGE_BYTES).map(|_| AtomicU8::new(0)).collect();
            REGION_CLOSED[slot].store(closed.as_ptr() as usize, Ordering::SeqCst);
            REGION_BASE[slot].store(public_base, Ordering::SeqCst);
            Some(DualMapping {
                public_base,
                shadow_base,
                txn_base: AtomicUsize::new(public_base),
                bytes,
                fd,
                slot,
                closed,
            })
        }

        pub(crate) fn words(&self) -> usize {
            self.bytes / 8
        }

        /// The public (guardable) view of word `w`.
        #[inline]
        pub(crate) fn word(&self, w: usize) -> &AtomicU64 {
            debug_assert!(w < self.words());
            // SAFETY: in-bounds, 8-aligned (mmap is page-aligned), lives
            // as long as `self`, and all access is through atomics.
            unsafe { &*((self.public_base + w * 8) as *const AtomicU64) }
        }

        /// The transactional view of word `w`: never on a closed page.
        /// The shadow mapping once the heap has had a commit window, the
        /// public one (no page of which can be closed yet) before.
        #[inline]
        pub(crate) fn shadow_word(&self, w: usize) -> &AtomicU64 {
            debug_assert!(w < self.words());
            // Relaxed: a transaction that still reads the public base while
            // the first window closes its page just faults like a plain
            // access and is deferred past the window.
            let base = self.txn_base.load(Ordering::Relaxed);
            // SAFETY: as `word`; `base` is one of the two mappings of the
            // same pages.
            unsafe { &*((base + w * 8) as *const AtomicU64) }
        }

        /// Opens a commit window over the pages containing `word_idxs`:
        /// takes the region's window bit, then closes (`PROT_NONE` on the
        /// public view) every such page that is still open. Dropping the
        /// returned guard lowers the bit and nothing else: the pages stay
        /// closed until a plain access reopens them through the handler.
        ///
        /// `word_idxs` ascend (duplicates fine), as every committer's redo
        /// log does; each maximal run of contiguous pages is closed as one.
        /// Out-of-order indexes only split runs, they never leave a page
        /// open. `chaos` (the committing worker's failpoint handle, if
        /// any) is struck at [`FailSite::GuardWindow`] once per run,
        /// whether or not the run needed a syscall — right after the pages
        /// are known closed, the most hostile instant.
        ///
        /// The [`Window`] exists from the moment the bit is taken, so a
        /// panic anywhere past that point (an injected failpoint, a failed
        /// `mprotect`, or a committer dying mid write-back) lowers the bit
        /// on the way out. Pages such a committer closed stay closed, flags
        /// set, exactly as after a clean commit: the next plain access
        /// reopens them.
        pub(crate) fn open_window(
            &self,
            word_idxs: impl Iterator<Item = usize>,
            chaos: Option<(&NativeChaos, usize)>,
        ) -> Window<'_> {
            // Waits out reopening handlers and other committers' windows
            // on this heap; both are a handful of instructions or one
            // syscall long.
            while REGION_STATE[self.slot]
                .compare_exchange(0, WINDOW_OPEN, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                std::thread::yield_now();
            }
            let win = Window { map: self };
            REGION_WINDOWS[self.slot].fetch_add(1, Ordering::SeqCst);
            // The heap's first window: move transactions (this committer's
            // write-back first of all) to the shadow view before any page
            // closes. Checked first so later windows leave the line clean.
            if self.txn_base.load(Ordering::Relaxed) != self.shadow_base {
                self.txn_base.store(self.shadow_base, Ordering::SeqCst);
            }
            // The current run of contiguous pages, as `first..end`.
            let mut run: Option<(usize, usize)> = None;
            for page in word_idxs.map(|w| w * 8 / PAGE_BYTES) {
                match &mut run {
                    Some((first, end)) if (*first..*end).contains(&page) => {}
                    Some((_, end)) if *end == page => *end += 1,
                    _ => {
                        if let Some((first, end)) = run.replace((page, page + 1)) {
                            self.close_run(first, end, chaos);
                        }
                    }
                }
            }
            if let Some((first, end)) = run {
                self.close_run(first, end, chaos);
            }
            win
        }

        /// Closes the still-open pages of `first..end`, one `mprotect` per
        /// maximal open stretch, then strikes the failpoint. Caller holds
        /// the region's window bit, so the flags hold still.
        fn close_run(&self, first: usize, end: usize, chaos: Option<(&NativeChaos, usize)>) {
            let is_closed = |flag: &AtomicU8| flag.load(Ordering::SeqCst) != 0;
            let mut page = first;
            for stretch in self.closed[first..end].chunk_by(|a, b| is_closed(a) == is_closed(b)) {
                if !is_closed(&stretch[0]) {
                    // SAFETY: page range is within our public mapping.
                    let rc = unsafe {
                        syscall3(
                            SYS_MPROTECT,
                            self.public_base + page * PAGE_BYTES,
                            stretch.len() * PAGE_BYTES,
                            PROT_NONE,
                        )
                    };
                    assert_eq!(rc, 0, "mprotect(PROT_NONE) failed");
                    for flag in stretch {
                        flag.store(1, Ordering::SeqCst);
                    }
                }
                page += stretch.len();
            }
            if let Some((c, tid)) = chaos {
                let _ = c.strike(tid, FailSite::GuardWindow);
            }
        }

        pub(crate) fn stats(&self) -> GuardStats {
            GuardStats {
                guarded: true,
                windows_opened: REGION_WINDOWS[self.slot].load(Ordering::SeqCst),
                faults_in_window: REGION_FAULTS_IN[self.slot].load(Ordering::SeqCst),
                faults_after_window: REGION_FAULTS_AFTER[self.slot].load(Ordering::SeqCst),
            }
        }

        /// Byte offset (into this heap) of the most recent classified
        /// fault, if any.
        pub(crate) fn last_fault_offset(&self) -> Option<usize> {
            let a = REGION_LAST_FAULT[self.slot].load(Ordering::SeqCst);
            (a != 0).then(|| a - self.public_base)
        }

        /// Pages currently closed on the public view.
        pub(crate) fn closed_pages(&self) -> usize {
            self.closed
                .iter()
                .filter(|f| f.load(Ordering::SeqCst) != 0)
                .count()
        }
    }

    impl Drop for DualMapping {
        fn drop(&mut self) {
            // No windows can be open (Window borrows self), but a fault
            // handler on another thread may still be inspecting the slot;
            // callers must quiesce plain accessors before dropping heaps
            // (all test/bench paths join their threads first). The slot's
            // state word and flag pointer are cleared before the base, so
            // whoever claims the slot next finds them at rest.
            REGION_STATE[self.slot].store(0, Ordering::SeqCst);
            REGION_CLOSED[self.slot].store(0, Ordering::SeqCst);
            REGION_BASE[self.slot].store(0, Ordering::SeqCst);
            // SAFETY: our mappings and fd, no further access after drop.
            unsafe {
                syscall2(SYS_MUNMAP, self.public_base, self.bytes);
                syscall2(SYS_MUNMAP, self.shadow_base, self.bytes);
                syscall2(SYS_CLOSE, self.fd as usize, 0);
            }
        }
    }

    /// An open commit window: the holder of its region's window bit.
    /// Dropping it lowers the bit; the pages it closed stay closed.
    #[derive(Debug)]
    pub(crate) struct Window<'a> {
        map: &'a DualMapping,
    }

    impl Drop for Window<'_> {
        fn drop(&mut self) {
            REGION_STATE[self.map.slot].fetch_and(!WINDOW_OPEN, Ordering::SeqCst);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    //! Platforms without the guard: the same two types, uninhabited, so
    //! the heap always uses boxed storage and its code needs no `cfg`.

    use std::marker::PhantomData;
    use std::sync::atomic::AtomicU64;

    use super::GuardStats;
    use crate::chaos::NativeChaos;

    #[derive(Debug)]
    pub(crate) enum DualMapping {}

    #[derive(Debug)]
    pub(crate) struct Window<'a>(std::convert::Infallible, PhantomData<&'a DualMapping>);

    impl DualMapping {
        /// Never builds a mapping here; the caller falls back to boxed
        /// storage.
        pub(crate) fn new(_bytes: usize) -> Option<Self> {
            None
        }

        pub(crate) fn word(&self, _w: usize) -> &AtomicU64 {
            match *self {}
        }

        pub(crate) fn shadow_word(&self, _w: usize) -> &AtomicU64 {
            match *self {}
        }

        pub(crate) fn open_window(
            &self,
            _word_idxs: impl Iterator<Item = usize>,
            _chaos: Option<(&NativeChaos, usize)>,
        ) -> Window<'_> {
            match *self {}
        }

        pub(crate) fn stats(&self) -> GuardStats {
            match *self {}
        }

        pub(crate) fn last_fault_offset(&self) -> Option<usize> {
            match *self {}
        }

        pub(crate) fn closed_pages(&self) -> usize {
            match *self {}
        }
    }
}
