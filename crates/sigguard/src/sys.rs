//! Raw x86_64 Linux syscalls via inline assembly: the workspace has no
//! libc dependency.

/// `close(2)`.
pub const SYS_CLOSE: usize = 3;
/// `mmap(2)`.
pub const SYS_MMAP: usize = 9;
/// `mprotect(2)`.
pub const SYS_MPROTECT: usize = 10;
/// `munmap(2)`.
pub const SYS_MUNMAP: usize = 11;
pub(crate) const SYS_RT_SIGACTION: usize = 13;
const SYS_SCHED_YIELD: usize = 24;
/// `ftruncate(2)`.
pub const SYS_FTRUNCATE: usize = 77;
/// `memfd_create(2)`.
pub const SYS_MEMFD_CREATE: usize = 319;

/// `PROT_NONE`: any access faults.
pub const PROT_NONE: usize = 0;
/// `PROT_READ`.
pub const PROT_READ: usize = 1;
/// `PROT_WRITE`.
pub const PROT_WRITE: usize = 2;
/// `MAP_SHARED`.
pub const MAP_SHARED: usize = 1;
pub(crate) const SIGSEGV: usize = 11;
pub(crate) const SA_SIGINFO: usize = 0x4;
pub(crate) const SA_RESTORER: usize = 0x0400_0000;
pub(crate) const SA_ONSTACK: usize = 0x0800_0000;

/// The protection granule: one x86_64 page.
pub const PAGE_BYTES: usize = 4096;

/// Raw 6-argument syscall. Returns the kernel's raw result
/// (`-errno` on failure).
///
/// # Safety
///
/// The caller must pass arguments valid for syscall `n`.
#[inline]
pub unsafe fn syscall6(
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
#[inline]
pub(crate) unsafe fn syscall4(n: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
    // SAFETY: forwarded caller contract.
    unsafe { syscall6(n, a1, a2, a3, a4, 0, 0) }
}

/// Raw 3-argument syscall.
///
/// # Safety
///
/// Same contract as `syscall6`; unused argument registers are 0.
#[inline]
pub unsafe fn syscall3(n: usize, a1: usize, a2: usize, a3: usize) -> isize {
    // SAFETY: forwarded caller contract.
    unsafe { syscall6(n, a1, a2, a3, 0, 0, 0) }
}

/// Raw 2-argument syscall.
///
/// # Safety
///
/// Same contract as `syscall6`; unused argument registers are 0.
#[inline]
pub unsafe fn syscall2(n: usize, a1: usize, a2: usize) -> isize {
    // SAFETY: forwarded caller contract.
    unsafe { syscall6(n, a1, a2, 0, 0, 0, 0) }
}

/// Async-signal-safe yield, usable from inside the SIGSEGV handler.
pub(crate) fn sched_yield() {
    // SAFETY: sched_yield takes no arguments and has no memory effects.
    unsafe {
        syscall6(SYS_SCHED_YIELD, 0, 0, 0, 0, 0, 0);
    }
}

/// The kernel's `struct sigaction` on x86_64 (`k_sa_handler`,
/// `sa_flags`, `sa_restorer`, `sa_mask`).
#[repr(C)]
pub(crate) struct KernelSigaction {
    pub(crate) handler: usize,
    pub(crate) flags: usize,
    pub(crate) restorer: usize,
    pub(crate) mask: u64,
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
pub(crate) unsafe extern "C" fn restorer() {
    core::arch::naked_asm!("mov rax, 15", "syscall");
}
