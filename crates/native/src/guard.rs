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
//!   (all plain accesses and the TL2 fast path go through it) and a
//!   *shadow* view of the same physical pages (the USTM commit write-back
//!   goes through it, so the writer itself never faults).
//! * During a native-USTM commit window the pages holding the write set
//!   are flipped to `PROT_NONE` on the public view only. A racing plain
//!   access to those pages takes a real SIGSEGV.
//! * The installed SIGSEGV handler classifies the fault: if the address
//!   falls in a registered guarded region it is a plain access racing a
//!   commit window — the handler counts it, records the address, spins
//!   (with `sched_yield`) until every window closes, and returns, which
//!   *re-executes* the faulting instruction. The plain access therefore
//!   completes after the commit, serialized — detected and deferred, never
//!   lost and never torn. Faults outside every registered region restore
//!   the previously-installed disposition and return, so the re-executed
//!   instruction reaches the old handler (or the default crash) untouched.
//!
//! ## Limits vs. the paper's UFO bits (docs/ARCHITECTURE.md §5)
//!
//! Page granularity means false sharing: a plain access to an *unrelated*
//! word on a guarded page stalls for the window too (correct, just
//! slower), where UFO bits would have let it through. And the guard is
//! only raised during the commit window (redo-log USTM publishes lazily),
//! not for the whole transaction as eager UFO acquisition would — the
//! window is exactly the span in which intermediate state exists.
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
    /// Faults attributed to this heap that arrived just after the last
    /// window closed (the access simply re-executes; still never lost).
    pub faults_after_window: u64,
}

pub(crate) use imp::{DualMapping, Window};

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod imp {
    //! The real (x86_64 Linux) implementation. All `unsafe` in the crate
    //! lives in this module: raw syscalls, the signal handler, and the
    //! word views over the two mappings.

    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, Once};

    use super::GuardStats;
    use crate::chaos::{lock_recover, FailSite, NativeChaos};

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
    /// SAFETY: the caller must pass arguments valid for syscall `n`.
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

    // SAFETY: same contract as `syscall6` — caller passes arguments valid
    // for syscall `n`; the tail positions are zero-filled, which every
    // syscall used here ignores.
    unsafe fn syscall4(n: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        // SAFETY: forwarded caller contract.
        unsafe { syscall6(n, a1, a2, a3, a4, 0, 0) }
    }

    // SAFETY: same contract as `syscall6`; unused argument registers are 0.
    unsafe fn syscall3(n: usize, a1: usize, a2: usize, a3: usize) -> isize {
        // SAFETY: forwarded caller contract.
        unsafe { syscall6(n, a1, a2, a3, 0, 0, 0) }
    }

    // SAFETY: same contract as `syscall6`; unused argument registers are 0.
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
    #[unsafe(naked)]
    // SAFETY: never called from Rust — the kernel jumps here on handler
    // return with the signal frame already on the stack, which is exactly
    // what `rt_sigreturn` (syscall 15) consumes; naked, so no prologue
    // disturbs that frame.
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

    /// Count of open commit windows across all regions. The handler spins
    /// while this is nonzero; one global counter over-blocks slightly
    /// (a fault in heap A waits for heap B's window too) but keeps the
    /// handler's condition a single load.
    static ACTIVE_WINDOWS: AtomicU64 = AtomicU64::new(0);

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
    /// `sched_yield`, and `rt_sigaction` only — and no longer just by
    /// construction: the D9 `signal-unsafe-reachable` pass walks
    /// everything reachable from here and fails `cargo xtask analyze` on
    /// any allocation, lock, panic, or stdio drifting in.
    // SAFETY: installed via rt_sigaction with SA_SIGINFO, so the kernel
    // calls it with the documented (sig, siginfo, ucontext) arguments;
    // never called from Rust.
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
            // Ours: a plain access raced a commit window on this heap.
            REGION_LAST_FAULT[slot].store(fault_addr, Ordering::SeqCst);
            if ACTIVE_WINDOWS.load(Ordering::SeqCst) == 0 {
                // The window closed between the fault and this load; the
                // page is readable/writable again and re-execution
                // succeeds immediately.
                REGION_FAULTS_AFTER[slot].fetch_add(1, Ordering::SeqCst);
                return;
            }
            REGION_FAULTS_IN[slot].fetch_add(1, Ordering::SeqCst);
            // Stall until every window closes, then return: the kernel
            // re-executes the faulting instruction, so the access lands
            // strictly after the commit — strong atomicity by deferral.
            let mut spins: u64 = 0;
            while ACTIVE_WINDOWS.load(Ordering::SeqCst) != 0 {
                sched_yield();
                spins += 1;
                if spins > 1 << 32 {
                    // A window has been open for minutes: a committer is
                    // wedged. Fall back to the previous disposition so
                    // the re-fault (the page is still PROT_NONE) crashes
                    // loudly instead of hanging this thread forever.
                    restore_previous_disposition();
                    return;
                }
            }
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

    /// One `memfd` mapped twice: the public view (guardable) and the
    /// shadow view (always writable; the USTM write-back path).
    #[derive(Debug)]
    pub(crate) struct DualMapping {
        public_base: usize,
        shadow_base: usize,
        bytes: usize,
        fd: i32,
        slot: usize,
        windows_opened: AtomicU64,
        /// Serializes commit windows on this heap: concurrent committers
        /// would otherwise race each other's `mprotect` transitions.
        window_gate: Mutex<()>,
    }

    // SAFETY: the mappings are process-wide shared memory accessed only
    // through `&AtomicU64` views; the raw base addresses are plain data.
    unsafe impl Send for DualMapping {}
    // SAFETY: shared references only hand out `&AtomicU64` word views, and
    // the window gate (a `Mutex`) serializes the only non-atomic state
    // transitions (the mprotect flips).
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
            // in this slot's length and counters, and publish the real
            // base *last* (the handler skips both 0 and the sentinel, so
            // it never sees a half-registered slot).
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
            REGION_BASE[slot].store(public_base, Ordering::SeqCst);
            Some(DualMapping {
                public_base,
                shadow_base,
                bytes,
                fd,
                slot,
                windows_opened: AtomicU64::new(0),
                window_gate: Mutex::new(()),
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

        /// The shadow (never-protected) view of word `w`.
        #[inline]
        pub(crate) fn shadow_word(&self, w: usize) -> &AtomicU64 {
            debug_assert!(w < self.words());
            // SAFETY: as `word`, on the second mapping of the same pages.
            unsafe { &*((self.shadow_base + w * 8) as *const AtomicU64) }
        }

        /// Opens a commit window over the pages containing `word_idxs`
        /// (any order, duplicates fine): flips them to `PROT_NONE` on the
        /// public view. The window closes when the returned guard drops.
        ///
        /// `chaos` (the committing worker's failpoint handle, if any) is
        /// struck at [`FailSite::GuardWindow`] once per protected run —
        /// right after the pages flip, the most hostile instant.
        ///
        /// The window is built **incrementally**: each run is recorded in
        /// the returned [`Window`] only after its pages are protected, so
        /// a panic anywhere past the gate (an injected failpoint, a
        /// failed `mprotect`, or a committer dying mid write-back) drops
        /// a `Window` that restores exactly the pages already flipped.
        /// The public view can never be left `PROT_NONE` by an unwinding
        /// thread. A poisoned gate (a previous holder panicked) is
        /// recovered rather than cascaded: the gate protects no data —
        /// only window exclusivity — and the dead holder's `Window` drop
        /// already restored its pages.
        pub(crate) fn open_window(
            &self,
            word_idxs: impl Iterator<Item = usize>,
            chaos: Option<(&NativeChaos, usize)>,
        ) -> Window<'_> {
            let mut pages: Vec<usize> = word_idxs.map(|w| w * 8 / PAGE_BYTES).collect();
            pages.sort_unstable();
            pages.dedup();
            // Merge contiguous pages into mprotect runs.
            let mut runs: Vec<(usize, usize)> = Vec::new();
            for p in pages {
                match runs.last_mut() {
                    Some((start, n)) if *start + *n == p => *n += 1,
                    _ => runs.push((p, 1)),
                }
            }
            let (gate, _recovered) = lock_recover(&self.window_gate);
            self.windows_opened.fetch_add(1, Ordering::SeqCst);
            ACTIVE_WINDOWS.fetch_add(1, Ordering::SeqCst);
            let mut win = Window {
                map: self,
                runs: Vec::with_capacity(runs.len()),
                _gate: gate,
            };
            for (page, n) in runs {
                // SAFETY: page range is within our public mapping.
                let rc = unsafe {
                    syscall3(
                        SYS_MPROTECT,
                        self.public_base + page * PAGE_BYTES,
                        n * PAGE_BYTES,
                        PROT_NONE,
                    )
                };
                assert_eq!(rc, 0, "mprotect(PROT_NONE) failed");
                win.runs.push((page, n));
                if let Some((c, tid)) = chaos {
                    let _ = c.strike(tid, FailSite::GuardWindow);
                }
            }
            win
        }

        pub(crate) fn stats(&self) -> GuardStats {
            GuardStats {
                guarded: true,
                windows_opened: self.windows_opened.load(Ordering::SeqCst),
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
    }

    impl Drop for DualMapping {
        fn drop(&mut self) {
            // No windows can be open (Window borrows self), but a fault
            // handler on another thread may still be inspecting the slot;
            // callers must quiesce plain accessors before dropping heaps
            // (all test/bench paths join their threads first).
            REGION_BASE[self.slot].store(0, Ordering::SeqCst);
            // SAFETY: our mappings and fd, no further access after drop.
            unsafe {
                syscall2(SYS_MUNMAP, self.public_base, self.bytes);
                syscall2(SYS_MUNMAP, self.shadow_base, self.bytes);
                syscall2(SYS_CLOSE, self.fd as usize, 0);
            }
        }
    }

    /// An open commit window; dropping it restores `PROT_READ|PROT_WRITE`
    /// and releases the gate.
    #[derive(Debug)]
    pub(crate) struct Window<'a> {
        map: &'a DualMapping,
        runs: Vec<(usize, usize)>,
        _gate: MutexGuard<'a, ()>,
    }

    impl Drop for Window<'_> {
        fn drop(&mut self) {
            for &(page, n) in &self.runs {
                // SAFETY: same range we protected at open.
                let rc = unsafe {
                    syscall3(
                        SYS_MPROTECT,
                        self.map.public_base + page * PAGE_BYTES,
                        n * PAGE_BYTES,
                        PROT_READ | PROT_WRITE,
                    )
                };
                assert_eq!(rc, 0, "mprotect(PROT_READ|PROT_WRITE) failed");
            }
            ACTIVE_WINDOWS.fetch_sub(1, Ordering::SeqCst);
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
    }
}
