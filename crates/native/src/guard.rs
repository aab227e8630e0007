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
//! no libc dependency. The handler, the region table it reads, and the
//! syscall wrappers live in the `no_std` `sigguard` crate, so the
//! handler's async-signal-safety is the crate boundary's: it cannot
//! reach an allocator, a lock or stdio, nor any code of this crate. This
//! module keeps the dual mapping and the window. The implementation
//! exists under `cfg(all(target_os = "linux", target_arch = "x86_64"))`;
//! elsewhere `DualMapping`/`Window` are uninhabited (the heap's matches
//! on them compile everywhere but can never be reached), and there — or when
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
    reason = "the dual-mapping module: the crate's only unsafe, each site documented"
)]
mod imp {
    //! The real (x86_64 Linux) implementation. All `unsafe` in the crate
    //! lives in this module: the mapping syscalls and the word views over
    //! the two mappings. The handler and its region table are `sigguard`'s.

    use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

    use sigguard::{
        syscall2, syscall3, syscall6, Region, MAP_SHARED, PAGE_BYTES, PROT_NONE, PROT_READ,
        PROT_WRITE, SYS_CLOSE, SYS_FTRUNCATE, SYS_MEMFD_CREATE, SYS_MMAP, SYS_MPROTECT, SYS_MUNMAP,
    };

    use super::GuardStats;
    use crate::chaos::{FailSite, NativeChaos};

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
        /// This heap's slot in the fault handler's region table.
        region: Region,
        /// Per page: nonzero while the page is `PROT_NONE` on the public
        /// view. The handler reaches it through `region`.
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
            if !sigguard::install() {
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
            let closed: Box<[AtomicU8]> =
                (0..bytes / PAGE_BYTES).map(|_| AtomicU8::new(0)).collect();
            // SAFETY: `public_base..+bytes` is our fresh mapping, and it and
            // `closed` live until `drop` unregisters the region.
            let region = unsafe { Region::register(public_base, bytes, &closed) };
            let Some(region) = region else {
                // SAFETY: tear down both fresh mappings and the fd.
                unsafe {
                    syscall2(SYS_MUNMAP, public_base, bytes);
                    syscall2(SYS_MUNMAP, shadow_base, bytes);
                    syscall2(SYS_CLOSE, fd as usize, 0);
                }
                return None;
            };
            Some(DualMapping {
                public_base,
                shadow_base,
                txn_base: AtomicUsize::new(public_base),
                bytes,
                fd,
                region,
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
            self.region.open_window();
            let win = Window { map: self };
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
                windows_opened: self.region.windows_opened(),
                faults_in_window: self.region.faults_in_window(),
                faults_after_window: self.region.faults_after_window(),
            }
        }

        /// Byte offset (into this heap) of the most recent classified
        /// fault, if any.
        pub(crate) fn last_fault_offset(&self) -> Option<usize> {
            let a = self.region.last_fault();
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
            // No windows can be open (Window borrows self); callers
            // quiesce plain accessors before dropping heaps (all test and
            // bench paths join their threads first). Unregistered before
            // the unmap, so the handler never classifies a stale range.
            self.region.unregister();
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
            self.map.region.close_window();
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
