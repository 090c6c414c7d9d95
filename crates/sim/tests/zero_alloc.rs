//! Pins down the zero-cost contract of the disabled trace path and the
//! calendar queue's near-future fast path.
//!
//! Every component in the simulator carries a [`TracePort`] and calls
//! `emit` on hot paths; runs without a recorder must pay exactly one
//! branch per emit — no payload construction, no formatting, and (this
//! test's concern) **zero heap allocations**. Likewise, push/pop
//! traffic through an [`EventQueue`]'s active bucket must recycle its
//! buffers instead of allocating.
//!
//! The test binary installs [`CountingAllocator`] as its global
//! allocator, so any allocation anywhere in the measured region is
//! counted — including ones hidden behind inlined library calls.

use triplea_alloc_counter::{measure, CountingAllocator};
use triplea_sim::trace::{TraceEventKind, TracePort};
use triplea_sim::{EventQueue, SimTime};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Asserts that `f` can run without a single heap allocation.
///
/// The counters are process-global, and the libtest harness keeps its
/// own threads (the sibling test, stdout capture) that allocate at
/// unpredictable instants — a single measurement would occasionally
/// blame `f` for a neighbour's allocation. So measure up to 16 times:
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
fn disabled_recorder_emit_allocates_nothing() {
    let port = TracePort::off();
    // Warm up once so lazy runtime initialization (if any) is paid
    // outside the measured region.
    port.emit(|| TraceEventKind::MapMiss { lpn: 0 });

    assert_zero_alloc("disabled-recorder emit", || {
        for i in 0..100_000u64 {
            port.emit(|| TraceEventKind::Submit {
                req: i as u32,
                read: i % 2 == 0,
                lpn: i,
                pages: 4,
            });
            port.emit_at(SimTime::from_nanos(i), || TraceEventKind::Complete {
                req: i as u32,
                latency_ns: 100,
            });
        }
    });
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
