//! # `sigguard` — the native guard's signal-handler side
//!
//! The native backend (`ufotm-native`) rebuilds the paper's UFO faults
//! with `mprotect(2)`: a commit window closes pages of the public heap
//! view, and a plain access that races it takes a SIGSEGV. This crate is
//! everything that SIGSEGV handler can reach:
//!
//! * the handler itself and the naked `SA_RESTORER` trampoline;
//! * the fixed table of guarded regions the handler classifies faults
//!   against, behind [`Region`]: register and unregister a region,
//!   open and close its commit window, read its counters and last fault;
//! * the raw `syscall` wrappers ([`syscall2`], [`syscall3`],
//!   [`syscall6`]), which the native heap's dual mapping also calls;
//! * the install-once logic ([`install`]).
//!
//! A signal handler interrupts an arbitrary instruction. If that thread
//! holds the allocator lock, a stdio lock or a mutex, a handler that
//! takes it deadlocks; a panic unwinds through a frame that never
//! expected one. The crate boundary rules those out: it is `#![no_std]`
//! without `alloc` and has no dependencies, so nothing here can allocate,
//! lock a `std` mutex or print, and `ufotm-native` depends on it, never
//! the other way round. The crate attributes deny clippy's panicking
//! shapes (`panic!`, `unwrap`, `expect`, indexing, unchecked arithmetic,
//! `unreachable!`), and `tests/shape.rs` rejects what neither the
//! boundary nor clippy catches: the `assert` family and `extern crate`.
//!
//! Everything is `cfg(all(target_os = "linux", target_arch = "x86_64"))`;
//! elsewhere the crate is empty.

#![no_std]
#![deny(
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::undocumented_unsafe_blocks
)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod region;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub use region::{install, Region};
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub use sys::{
    syscall2, syscall3, syscall6, MAP_SHARED, PAGE_BYTES, PROT_NONE, PROT_READ, PROT_WRITE,
    SYS_CLOSE, SYS_FTRUNCATE, SYS_MEMFD_CREATE, SYS_MMAP, SYS_MPROTECT, SYS_MUNMAP,
};
