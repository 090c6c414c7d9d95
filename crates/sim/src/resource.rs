//! *Busy-until* resources: the contention primitive of the simulator.
//!
//! A serially shared piece of hardware (a PCI-E link, the cluster-local
//! ONFi bus, a NAND die) is modelled by the instant it next becomes free.
//! A reservation made at time `t` for duration `d` starts at
//! `max(t, free_at)`; the difference is exactly the *contention time*
//! attributed to the requester. Reservations are granted in call order,
//! which matches FIFO arbitration.

use crate::stats::UtilizationTracker;
use crate::time::{Nanos, SimTime};

/// Outcome of reserving a resource: when service starts/ends and how long
/// the requester had to wait for the resource (its contention time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// Instant at which the resource begins serving this reservation.
    pub start: SimTime,
    /// Instant at which the resource is released again.
    pub end: SimTime,
    /// `start - now`: time spent waiting behind earlier reservations.
    pub wait: Nanos,
}

/// A single-server FIFO resource with utilization accounting.
///
/// # Example
///
/// ```
/// use triplea_sim::{FifoResource, SimTime};
///
/// let mut bus = FifoResource::new("onfi-bus");
/// let a = bus.reserve(SimTime::ZERO, 100);
/// let b = bus.reserve(SimTime::from_nanos(30), 50);
/// assert_eq!(a.wait, 0);
/// assert_eq!(b.wait, 70); // waited for `a` to finish
/// assert_eq!(b.end, SimTime::from_nanos(150));
/// ```
#[derive(Clone, Debug)]
pub struct FifoResource {
    name: &'static str,
    free_at: SimTime,
    util: UtilizationTracker,
}

impl FifoResource {
    /// Creates an idle resource. `name` appears in diagnostics only.
    pub fn new(name: &'static str) -> Self {
        FifoResource {
            name,
            free_at: SimTime::ZERO,
            util: UtilizationTracker::new(),
        }
    }

    /// Reserves the resource at `now` for `dur` nanoseconds, queueing
    /// behind all earlier reservations.
    pub fn reserve(&mut self, now: SimTime, dur: Nanos) -> Reservation {
        let start = now.max(self.free_at);
        let end = start + dur;
        self.free_at = end;
        self.util.add_busy(start, dur);
        Reservation {
            start,
            end,
            wait: start - now,
        }
    }

    /// Would a reservation at `now` start immediately?
    pub fn is_free_at(&self, now: SimTime) -> bool {
        self.free_at <= now
    }

    /// The instant the last reservation ends.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Fraction of time busy since the start of the simulation, evaluated
    /// at `now`. Returns 0 for `now == 0`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.util.utilization(now)
    }

    /// Fraction of time busy within the recent sliding window (used by the
    /// paper's Eq. 2 cold-cluster test).
    ///
    /// Busy-until reservations on a backlogged resource land in *future*
    /// windows, which would make a saturated resource look idle; the
    /// pending backlog therefore counts toward the estimate — a resource
    /// reserved past `now` is busy by definition.
    pub fn windowed_utilization(&self, now: SimTime) -> f64 {
        let history = self.util.windowed_utilization(now);
        let backlog = self.free_at.saturating_since(now) as f64 / self.util.window() as f64;
        history.max(backlog.min(1.0))
    }

    /// Diagnostic name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_reservations_queue() {
        let mut r = FifoResource::new("r");
        let a = r.reserve(SimTime::ZERO, 10);
        let b = r.reserve(SimTime::ZERO, 10);
        let c = r.reserve(SimTime::ZERO, 10);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, SimTime::from_nanos(10));
        assert_eq!(c.start, SimTime::from_nanos(20));
        assert_eq!(c.wait, 20);
    }

    #[test]
    fn idle_gap_resets_wait() {
        let mut r = FifoResource::new("r");
        r.reserve(SimTime::ZERO, 10);
        let b = r.reserve(SimTime::from_nanos(100), 10);
        assert_eq!(b.wait, 0);
        assert_eq!(b.start, SimTime::from_nanos(100));
    }

    #[test]
    fn utilization_counts_busy_fraction() {
        let mut r = FifoResource::new("r");
        r.reserve(SimTime::ZERO, 50);
        // busy 50ns of the first 100ns
        let u = r.utilization(SimTime::from_nanos(100));
        assert!((u - 0.5).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn backlogged_resource_reports_saturated_window() {
        let mut r = FifoResource::new("r");
        // Queue 1ms of work at t=0: reservations land far in the future,
        // but at t=50us the resource is clearly saturated.
        for _ in 0..100 {
            r.reserve(SimTime::ZERO, 10_000);
        }
        let u = r.windowed_utilization(SimTime::from_us(50));
        assert!(u > 0.99, "saturated resource reported u = {u}");
    }

    #[test]
    fn is_free_at_tracks_reservations() {
        let mut r = FifoResource::new("r");
        assert!(r.is_free_at(SimTime::ZERO));
        r.reserve(SimTime::ZERO, 10);
        assert!(!r.is_free_at(SimTime::from_nanos(5)));
        assert!(r.is_free_at(SimTime::from_nanos(10)));
    }
}
