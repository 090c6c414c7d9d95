//! A stable, timestamped event queue.
//!
//! Two implementations live here:
//!
//! * [`EventQueue`] — the production **calendar queue**: a ring of
//!   fixed-width time buckets for the near future plus a binary-heap
//!   overflow for far-future events. Near-future traffic (the vast
//!   majority of a simulation's events: resource grants, bus transfers,
//!   completions a few microseconds out) never touches the heap, and
//!   the common push-at-`now` case is an allocation-free insertion into
//!   the already-sorted active bucket.
//! * `BaselineHeapQueue` (test-only) — the original global
//!   `BinaryHeap`, kept as the executable specification: a differential
//!   property test proves the calendar queue pops in exactly the same
//!   `(time, seq)` order.
//!
//! Both order events by timestamp with FIFO tie-breaking on a
//! monotonically increasing sequence number, which is what makes every
//! simulation run bit-for-bit deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the bucket width: 1024 ns buckets. Flash-array event
/// horizons cluster in the 1 µs – 1 ms range (ONFi transfers ~2.6 µs,
/// reads ~25 µs, programs ~200–600 µs), so with [`NUM_BUCKETS`] the
/// ring covers ~1 ms and nearly every dynamically scheduled event lands
/// in it.
const BUCKET_SHIFT: u32 = 10;

/// Ring size (power of two). 1024 buckets × 1024 ns ≈ 1.05 ms horizon;
/// the ring itself is ~24 KB of empty `Vec` headers per queue.
const NUM_BUCKETS: usize = 1024;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops first.
        // Sequence numbers break ties, giving FIFO order among simultaneous
        // events and therefore fully deterministic simulations.
        other.key().cmp(&self.key())
    }
}

#[inline]
fn bucket_of(time: SimTime) -> u64 {
    time.as_nanos() >> BUCKET_SHIFT
}

/// A priority queue of events ordered by [`SimTime`], with FIFO tie-breaking.
///
/// Events pushed at equal timestamps pop in insertion order, which makes the
/// simulation deterministic regardless of queue internals. Internally a
/// calendar queue (see the module docs); the observable contract is
/// identical to a plain `BinaryHeap` ordered by `(time, seq)`, and
/// `tests::properties` proves it differentially.
///
/// # Example
///
/// ```
/// use triplea_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_us(5), 'b');
/// q.push(SimTime::from_us(5), 'c');
/// q.push(SimTime::from_us(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    /// Active bucket's pending events, sorted **descending** by
    /// `(time, seq)` so the next event pops from the tail by value.
    current: Vec<Entry<E>>,
    /// Ring of near-future buckets covering absolute bucket numbers
    /// `(cur_bucket, cur_bucket + NUM_BUCKETS)`; slot `b % NUM_BUCKETS`,
    /// unsorted until a slot becomes the active bucket.
    ring: Vec<Vec<Entry<E>>>,
    /// Events in the ring (excluding `current`).
    ring_len: usize,
    /// Absolute bucket number of the active bucket.
    cur_bucket: u64,
    /// Far-future events (beyond the ring horizon), min-first.
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
    pushed: u64,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            current: Vec::new(),
            ring: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            ring_len: 0,
            cur_bucket: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            pushed: 0,
            popped: 0,
        }
    }

    /// Schedules `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let entry = Entry { time, seq, payload };
        let b = bucket_of(time);
        if b <= self.cur_bucket {
            // Active bucket (or a late event for an already-passed
            // instant, which must still pop before everything later):
            // keep `current` sorted descending so the tail stays the
            // minimum. The dominant push-at-`now` lands at or near the
            // tail — a binary search plus a short (usually empty) move.
            let key = entry.key();
            let idx = self
                .current
                .partition_point(|e| e.key() > key);
            self.current.insert(idx, entry);
        } else if b < self.cur_bucket + NUM_BUCKETS as u64 {
            self.ring[(b % NUM_BUCKETS as u64) as usize].push(entry);
            self.ring_len += 1;
        } else {
            self.overflow.push(entry);
        }
    }

    /// Moves every overflow event that now fits the ring window into its
    /// ring slot (or `current`, for events landing in the active bucket).
    fn drain_overflow(&mut self) {
        let horizon = self.cur_bucket + NUM_BUCKETS as u64;
        while let Some(top) = self.overflow.peek() {
            let b = bucket_of(top.time);
            if b >= horizon {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry exists");
            if b <= self.cur_bucket {
                let key = entry.key();
                let idx = self.current.partition_point(|e| e.key() > key);
                self.current.insert(idx, entry);
            } else {
                self.ring[(b % NUM_BUCKETS as u64) as usize].push(entry);
                self.ring_len += 1;
            }
        }
    }

    /// Advances the active bucket to the next non-empty one, refilling
    /// from the overflow heap as the horizon moves. Returns `false` when
    /// the queue is empty.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        loop {
            if self.ring_len == 0 {
                let Some(top) = self.overflow.peek() else {
                    return false;
                };
                // Long idle gap: jump straight to the next scheduled
                // bucket instead of stepping the ring through it.
                self.cur_bucket = bucket_of(top.time);
            } else {
                // Nearest non-empty ring slot. Overflow events are at or
                // beyond the horizon, so none can precede it.
                let step = (1..=NUM_BUCKETS as u64)
                    .find(|s| {
                        !self.ring[((self.cur_bucket + s) % NUM_BUCKETS as u64) as usize]
                            .is_empty()
                    })
                    .expect("ring_len > 0 implies a non-empty slot");
                self.cur_bucket += step;
            }
            let slot = (self.cur_bucket % NUM_BUCKETS as u64) as usize;
            self.ring_len -= self.ring[slot].len();
            self.current.append(&mut self.ring[slot]);
            self.drain_overflow();
            if !self.current.is_empty() {
                // Descending, so the earliest (time, seq) sits at the tail.
                self.current
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                return true;
            }
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        let e = self.current.pop().expect("advance left an event");
        self.popped += 1;
        Some((e.time, e.payload))
    }

    /// Removes and returns the earliest event if it fires strictly
    /// before `t`; otherwise pops nothing. Events pushed afterwards still
    /// pop in `(time, seq)` order.
    pub fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        if self.current.last().expect("advance left an event").time >= t {
            return None;
        }
        self.pop()
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.current.last() {
            return Some(e.time);
        }
        // Cold path (diagnostics/tests): scan the pending structures.
        let ring_min = self
            .ring
            .iter()
            .flatten()
            .map(Entry::key)
            .min();
        let over_min = self.overflow.peek().map(Entry::key);
        match (ring_min, over_min) {
            (Some(a), Some(b)) => Some(a.min(b).0),
            (Some(a), None) => Some(a.0),
            (None, Some(b)) => Some(b.0),
            (None, None) => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.current.len() + self.ring_len + self.overflow.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever pushed (diagnostics).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events ever popped (diagnostics).
    pub fn total_popped(&self) -> u64 {
        self.popped
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("pushed", &self.pushed)
            .field("popped", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original `BinaryHeap`-backed event queue, kept as the
    /// executable specification for [`EventQueue`]: same API, same
    /// observable ordering contract, no calendar machinery.
    struct BaselineHeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> BaselineHeapQueue<E> {
        fn new() -> Self {
            BaselineHeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, time: SimTime, payload: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, payload });
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.time, e.payload))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_nanos(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(7), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_sees_ring_and_overflow_events() {
        let mut q = EventQueue::new();
        // Far beyond the ring horizon: lives in the overflow heap.
        q.push(SimTime::from_secs(10), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        // A ring-resident event becomes the new minimum.
        q.push(SimTime::from_us(500), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_us(500)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 'a');
        q.push(SimTime::from_nanos(1), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        q.push(SimTime::from_nanos(2), 'c');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
    }

    #[test]
    fn late_push_for_a_passed_instant_pops_next() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(2), "z");
        assert_eq!(q.pop().unwrap().1, "z"); // active bucket is now ~2 ms
        q.push(SimTime::from_nanos(3), "late");
        q.push(SimTime::from_ms(3), "w");
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.pop().unwrap().1, "w");
    }

    #[test]
    fn pop_before_stops_at_the_bound_and_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_ms(5), "far");
        assert_eq!(q.pop_before(SimTime::from_nanos(10)), None, "bound is exclusive");
        assert_eq!(q.pop_before(SimTime::from_nanos(11)).unwrap().1, "a");
        // A refused pop may advance the calendar to the far bucket; a
        // later push for an earlier instant must still pop first.
        assert_eq!(q.pop_before(SimTime::from_ms(1)), None);
        q.push(SimTime::from_us(20), "near");
        assert_eq!(q.pop_before(SimTime::from_ms(1)).unwrap().1, "near");
        assert_eq!(q.pop_before(SimTime::from_ms(1)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop_before(SimTime::MAX), None);
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        let mut q = EventQueue::new();
        // Spread events over many ring horizons, pushed out of order.
        let times = [7u64, 5_000_000, 900, 2_000_000_000, 40_000_000, 0];
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_nanos())).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn baseline_matches_basic_contract() {
        let mut q = BaselineHeapQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_nanos(9), 'b');
        q.push(SimTime::from_nanos(9), 'c');
        q.push(SimTime::from_nanos(1), 'a');
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(q.len(), 3);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'b', 'c']);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Popping always yields non-decreasing timestamps, and
            /// every pushed event comes back exactly once.
            #[test]
            fn pops_sorted_and_complete(times in prop::collection::vec(0u64..10_000, 1..500)) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.push(SimTime::from_nanos(t), i);
                }
                let mut last = SimTime::ZERO;
                let mut seen = vec![false; times.len()];
                while let Some((t, i)) = q.pop() {
                    prop_assert!(t >= last);
                    prop_assert!(!seen[i]);
                    seen[i] = true;
                    last = t;
                }
                prop_assert!(seen.iter().all(|&s| s));
            }

            /// Differential test: over randomized push/pop interleavings
            /// — same-timestamp bursts, near-future offsets, and
            /// far-future scheduling beyond the ring horizon — the
            /// calendar queue pops exactly the same `(time, payload)`
            /// sequence as the baseline heap, event for event.
            #[test]
            fn matches_baseline_heap_differentially(
                ops in prop::collection::vec(
                    prop_oneof![
                        // Near-future push: delta within/around one bucket.
                        (0u64..4_096).prop_map(|d| (false, d)),
                        // Mid-range push: within the ring horizon.
                        (0u64..1_000_000).prop_map(|d| (false, d)),
                        // Far-future push: beyond the ~1 ms horizon.
                        (1_000_000u64..3_000_000_000).prop_map(|d| (false, d)),
                        // Same-timestamp burst marker (delta 0).
                        Just((false, 0u64)),
                        // Pop.
                        Just((true, 0u64)),
                    ],
                    1..400,
                )
            ) {
                let mut cal: EventQueue<usize> = EventQueue::new();
                let mut heap: BaselineHeapQueue<usize> = BaselineHeapQueue::new();
                // `now` tracks the pop frontier like a simulation loop,
                // so pushes are anchored where an engine would anchor
                // them; payload ids make ordering differences visible
                // even among equal timestamps.
                let mut now = 0u64;
                for (id, &(is_pop, delta)) in ops.iter().enumerate() {
                    if is_pop {
                        let a = cal.pop();
                        let b = heap.pop();
                        prop_assert_eq!(a, b, "pop #{} diverged", id);
                        if let Some((t, _)) = a {
                            now = t.as_nanos();
                        }
                    } else {
                        let t = SimTime::from_nanos(now + delta);
                        cal.push(t, id);
                        heap.push(t, id);
                    }
                    prop_assert_eq!(cal.len(), heap.len());
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                }
                // Drain both to the end: the full residual order must agree.
                loop {
                    let a = cal.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b, "drain diverged");
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
