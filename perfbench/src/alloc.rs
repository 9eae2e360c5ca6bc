//! A counting global allocator. Every allocation and reallocation, on any
//! thread, bumps one process-wide counter, so a span records the
//! allocations made while it was open by reading the counter at both ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus a counter.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to the system allocator; the only
// addition is a relaxed counter increment, which touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (including reallocations) made so far by the process.
///
/// The counter publishes no other data, so relaxed loads suffice. Worker
/// threads of a stage are joined before the stage returns, and the join
/// orders their increments before the caller's closing read.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
