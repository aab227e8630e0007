//! The crate's one cache-line wrapper: every shared word that some worker
//! writes on the transaction path sits in one, so the read-mostly fields
//! beside it (`mask`, `heap_words`, box pointers, the policy) stay shared
//! in every core's cache while the hot word bounces.

use std::ops::Deref;
use std::sync::atomic::AtomicU64;

/// `T` alone on a 128-byte line (128, not 64: adjacent-line prefetchers
/// pair 64-byte lines, so a neighbour one line over still pays).
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(T);

impl<T> Deref for Padded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

// A padded word fills its line exactly: as a field it shares the line
// with no other field, and as a slice element with no other element.
const _: () = assert!(
    std::mem::align_of::<Padded<AtomicU64>>() == 128
        && std::mem::size_of::<Padded<AtomicU64>>() == 128
);
