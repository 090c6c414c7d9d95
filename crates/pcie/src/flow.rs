//! Credit-based flow control: virtual-channel buffers.
//!
//! Paper §2.1, "Flow Control": every PCI-E device implements a virtual
//! channel buffer; receivers advertise credits and transmitters send only
//! when space exists, otherwise the packet stalls in the upstream queue.
//! [`CreditQueue`] models one such buffer. The simulator's event loop
//! holds the waiting request IDs and is woken through the value returned
//! by [`CreditQueue::release`].

use std::collections::VecDeque;

/// Result of attempting to enter a [`CreditQueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// A credit was available; the holder occupies one slot.
    Admitted,
    /// The buffer is full; the ID was parked in FIFO order and will be
    /// handed a slot by a future [`CreditQueue::release`].
    Queued,
}

/// A bounded virtual-channel buffer with FIFO hand-off of freed credits.
///
/// # Example
///
/// ```
/// use triplea_pcie::{Admission, CreditQueue};
///
/// let mut q = CreditQueue::new("ep", 1);
/// assert_eq!(q.admit(10), Admission::Admitted);
/// assert_eq!(q.admit(11), Admission::Queued);
/// // releasing the slot hands it straight to the waiter
/// assert_eq!(q.release(), Some(11));
/// assert_eq!(q.release(), None);
/// assert!(q.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct CreditQueue {
    name: &'static str,
    capacity: usize,
    occupied: usize,
    waiters: VecDeque<u64>,
    high_watermark: usize,
}

impl CreditQueue {
    /// Creates a buffer with `capacity` credits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(name: &'static str, capacity: usize) -> Self {
        assert!(capacity > 0, "credit queue needs capacity");
        CreditQueue {
            name,
            capacity,
            occupied: 0,
            waiters: VecDeque::new(),
            high_watermark: 0,
        }
    }

    /// Requests a credit for `id`. On `Queued`, the caller must suspend
    /// `id` until [`CreditQueue::release`] returns it.
    pub fn admit(&mut self, id: u64) -> Admission {
        if self.occupied < self.capacity {
            self.occupied += 1;
            self.high_watermark = self.high_watermark.max(self.occupied);
            Admission::Admitted
        } else {
            self.waiters.push_back(id);
            Admission::Queued
        }
    }

    /// Returns one credit. If a waiter is parked, the credit passes
    /// directly to it (occupancy unchanged) and its ID is returned so the
    /// event loop can resume it; otherwise occupancy drops.
    pub fn release(&mut self) -> Option<u64> {
        debug_assert!(self.occupied > 0, "release without admit");
        if let Some(id) = self.waiters.pop_front() {
            Some(id)
        } else {
            self.occupied -= 1;
            None
        }
    }

    /// Discards every held credit and parked waiter — a power cycle of
    /// the owning device. The buffer's *contents* are volatile; its high
    /// watermark describes history and survives so post-mortem reports
    /// stay complete.
    pub fn power_cycle(&mut self) {
        self.occupied = 0;
        self.waiters.clear();
    }

    /// Credits currently held.
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Total credits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// IDs parked waiting for a credit.
    pub fn waiting(&self) -> usize {
        self.waiters.len()
    }

    /// `true` when every credit is held.
    pub fn is_full(&self) -> bool {
        self.occupied >= self.capacity
    }

    /// `true` when no credit is held and nobody waits.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0 && self.waiters.is_empty()
    }

    /// Peak occupancy observed.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }

    /// Diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The parked waiter IDs in FIFO order — the paper's
    /// *queue-examination* laggard detector walks exactly these stalled
    /// entries (§4.2, Figure 8).
    pub fn waiter_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.waiters.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_capacity() {
        let mut q = CreditQueue::new("q", 3);
        for id in 0..3 {
            assert_eq!(q.admit(id), Admission::Admitted);
        }
        assert!(q.is_full());
        assert_eq!(q.admit(3), Admission::Queued);
        assert_eq!(q.occupancy(), 3);
        assert_eq!(q.waiting(), 1);
    }

    #[test]
    fn release_hands_credit_to_waiters_fifo() {
        let mut q = CreditQueue::new("q", 1);
        q.admit(1);
        q.admit(2);
        q.admit(3);
        assert_eq!(q.release(), Some(2));
        assert_eq!(q.release(), Some(3));
        assert_eq!(q.release(), None);
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    fn occupancy_constant_while_waiters_drain() {
        let mut q = CreditQueue::new("q", 2);
        q.admit(1);
        q.admit(2);
        q.admit(3);
        assert_eq!(q.occupancy(), 2);
        q.release(); // slot passes to 3
        assert_eq!(q.occupancy(), 2, "credit transferred, not freed");
    }

    #[test]
    fn statistics_track_traffic() {
        let mut q = CreditQueue::new("q", 1);
        q.admit(1);
        q.admit(2);
        q.release();
        assert_eq!(q.high_watermark(), 1);
        assert_eq!(q.name(), "q");
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_panics() {
        CreditQueue::new("q", 0);
    }
}
