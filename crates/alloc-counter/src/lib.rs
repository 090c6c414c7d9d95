//! A counting [`GlobalAlloc`] wrapper over the system allocator.
//!
//! Two consumers install it as (or under) their `#[global_allocator]`:
//!
//! * the simulator benchmark in `benchmark/`, which reports heap
//!   allocations per request (`core.allocs_per_req`), a
//!   machine-independent companion to its host times;
//! * `crates/sim/tests/zero_alloc.rs`, which pins down that the
//!   disabled-recorder trace emit path performs **zero** allocations.
//!
//! The counters are process-global relaxed atomics: cheap enough to
//! leave on for a whole benchmark run, precise as long as readers
//! bracket a single-threaded region (which both consumers do). When the allocator
//! is *not* installed the counters simply stay at zero.
//!
//! This crate is the one deliberate exception to the workspace-wide
//! `#![forbid(unsafe_code)]`: implementing [`GlobalAlloc`] requires an
//! `unsafe impl`, so the unsafety is quarantined here behind a safe
//! counting API.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that forwards to [`System`] while counting every
/// allocation. Install with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: triplea_alloc_counter::CountingAllocator =
///     triplea_alloc_counter::CountingAllocator;
/// ```
pub struct CountingAllocator;

// SAFETY: all methods delegate directly to `System`; the only extra
// work is relaxed counter increments, which allocate nothing and cannot
// violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow/shrink is one allocator round-trip; count the newly
        // requested size so byte totals track traffic, not live bytes.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// A snapshot of the process-wide allocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocator calls (`alloc` + `alloc_zeroed` + `realloc`) so far.
    pub allocations: u64,
    /// Bytes requested across those calls.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counter deltas since `earlier` (saturating, in case `earlier`
    /// was taken on a different counter epoch).
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocations: self.allocations.saturating_sub(earlier.allocations),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Reads the current counters. Zero forever unless a
/// [`CountingAllocator`] is installed as the global allocator.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Runs `f` and returns its result plus the allocation delta it caused.
///
/// Only meaningful when the caller is the sole thread allocating and the
/// counting allocator is installed.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocSnapshot) {
    let before = snapshot();
    let out = f();
    (out, snapshot().since(before))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so counters stay
    // flat; the arithmetic is still checkable.
    #[test]
    fn since_subtracts_saturating() {
        let a = AllocSnapshot {
            allocations: 10,
            bytes: 100,
        };
        let b = AllocSnapshot {
            allocations: 4,
            bytes: 60,
        };
        assert_eq!(
            b.since(a),
            AllocSnapshot {
                allocations: 0,
                bytes: 0
            }
        );
        assert_eq!(
            a.since(b),
            AllocSnapshot {
                allocations: 6,
                bytes: 40
            }
        );
    }

    #[test]
    fn measure_returns_value() {
        let (v, delta) = measure(|| 41 + 1);
        assert_eq!(v, 42);
        let _ = delta;
    }
}
