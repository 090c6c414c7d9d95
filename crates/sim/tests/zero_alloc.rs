//! Pins down the calendar queue's near-future fast path: push/pop
//! traffic through an [`EventQueue`]'s active bucket must recycle its
//! buffers instead of allocating. (Untraced whole runs are gated by the
//! root package's `tests/zero_alloc.rs`.)
//!
//! The test binary installs [`CountingAllocator`] as its global
//! allocator, so any allocation anywhere in the measured region is
//! counted — including ones hidden behind inlined library calls.

use triplea_alloc_counter::{measure, CountingAllocator};
use triplea_sim::{EventQueue, SimTime};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Asserts that `f` can run without a single heap allocation.
///
/// The counters are process-global, and the libtest harness keeps its
/// own threads (stdout capture) that allocate at unpredictable instants
/// — a single measurement would occasionally blame `f` for a
/// neighbour's allocation. So measure up to 16 times:
/// if the region is genuinely allocation-free, some quiet attempt
/// observes a zero delta; if `f` itself allocates, every attempt counts
/// it and the assertion fails with the last delta.
fn assert_zero_alloc(what: &str, mut f: impl FnMut()) {
    let mut last = measure(&mut f).1;
    for _ in 0..15 {
        if last.allocations == 0 {
            return;
        }
        last = measure(&mut f).1;
    }
    assert_eq!(
        last.allocations, 0,
        "{what} must not allocate (saw {} allocations, {} bytes)",
        last.allocations, last.bytes
    );
}

#[test]
fn active_bucket_push_pop_allocates_nothing() {
    // The claim under test is the queue's documented fast path: a push
    // whose timestamp lands in the *active* bucket is a sorted insert
    // into the already-grown `current` buffer. (Ring slots for future
    // buckets do grow on first touch — that cost amortizes over the
    // ring's ~1 ms wrap in a real run and is not asserted here.)
    let mut q = EventQueue::new();
    // Grow the active-bucket buffer once, outside the measured region.
    for i in 0..2_048u64 {
        q.push(SimTime::ZERO, i);
    }
    while q.pop().is_some() {}

    assert_zero_alloc("active-bucket push/pop", || {
        let mut now = 0u64;
        for round in 0..64u64 {
            // Deltas of at most 7 ns over 64 rounds keep every event
            // inside the 1024 ns active bucket.
            for i in 0..1_024u64 {
                q.push(SimTime::from_nanos(now + (i * 7) % 8), round * 1_024 + i);
            }
            for _ in 0..1_024 {
                let (t, _) = q.pop().expect("queue holds what was pushed");
                now = t.as_nanos();
            }
        }
        assert!(q.is_empty());
    });
}
