//! The global allocator: `triplea_alloc_counter`'s counting allocator,
//! plus live and peak heap bytes. Unlike the resident set, the live-heap
//! high-water mark does not depend on how the system allocator happens
//! to hold on to freed memory, so it repeats exactly for equal inputs.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use triplea_alloc_counter::CountingAllocator;

// Statistics only: they publish no other data, so relaxed ordering is
// enough, and the benchmark allocates from one thread.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct PeakAllocator;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every method passes its arguments unchanged to
// `CountingAllocator`, which forwards them to the system allocator and so
// upholds the `GlobalAlloc` contract; the only added work is atomic
// arithmetic that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = CountingAllocator.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAllocator.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = CountingAllocator.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = CountingAllocator.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Restarts the high-water mark from the bytes live now, and returns
/// them.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Most heap bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}
