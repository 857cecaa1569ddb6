//! A counting global allocator for the bench binaries.
//!
//! Wraps the system allocator and bumps a thread-local counter on every
//! `alloc` / `alloc_zeroed` / `realloc`, so a measured section can report
//! `allocs_per_query` exactly: take the counter before and after a
//! steady-state span on one thread and divide. Frees are not counted —
//! the budget is about allocation pressure, and a path that allocates
//! nothing frees nothing.
//!
//! The counter is a `const`-initialized thread-local `Cell<u64>`: no lazy
//! initialization, no destructor, so it is safe to touch from inside the
//! allocator itself on any thread at any point of its lifetime.
//!
//! This file is deliberately *not* part of the `delayguard-bench` library
//! (which is `#![forbid(unsafe_code)]`); the binaries pull it in with a
//! `#[path]` module declaration so the one `unsafe impl` lives only in
//! the instrumented executables.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The counting wrapper. Install with:
///
/// ```ignore
/// #[global_allocator]
/// static GLOBAL: alloc_count::CountingAllocator = alloc_count::CountingAllocator;
/// ```
pub(crate) struct CountingAllocator;

// SAFETY: a transparent wrapper over `System` — every allocator
// contract (layout validity, pointer provenance, size bounds) is
// forwarded unchanged, and the counter bump touches only a
// const-initialized thread-local `Cell`, which cannot allocate or
// re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get().wrapping_add(1)));
        // SAFETY: same layout, same contract, delegated to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (every alloc above delegates
        // to it) and `layout` is the one it was allocated with.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get().wrapping_add(1)));
        // SAFETY: same layout, same contract, delegated to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get().wrapping_add(1)));
        // SAFETY: `ptr`/`layout` describe a live `System` allocation and
        // `new_size` is the caller's requested size, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations performed by this thread since it started.
pub fn count() -> u64 {
    ALLOCS.with(|c| c.get())
}
