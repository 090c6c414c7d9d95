//! The cluster-local shared ONFi bus.

use triplea_flash::OnfiTiming;
use triplea_sim::{FifoResource, Nanos, Reservation, SimTime};

/// The shared NV-DDR2 channel connecting a cluster's FIMMs to its PCI-E
/// endpoint.
///
/// All data movement between FIMMs and the endpoint serialises here; time
/// spent waiting for it is the paper's **link contention**. Its windowed
/// utilization (`u_bus`) feeds the Eq. 2 cold-cluster test.
#[derive(Clone, Debug)]
pub struct OnfiBus {
    timing: OnfiTiming,
    res: FifoResource,
    bytes: u64,
}

impl OnfiBus {
    /// Creates an idle bus with the given interface timing.
    pub fn new(timing: OnfiTiming) -> Self {
        OnfiBus {
            timing,
            res: FifoResource::new("onfi-bus"),
            bytes: 0,
        }
    }

    /// Reserves the bus at `now` to move `bytes`, including the fixed
    /// command/address overhead; zero bytes is a command-only cycle, e.g.
    /// the command/address phase of a read before the die starts. The
    /// reservation's `wait` is the link contention charged to the caller.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Reservation {
        let dur = self.timing.dma_nanos(bytes) + self.timing.cmd_overhead;
        self.bytes += bytes;
        self.res.reserve(now, dur)
    }

    /// `t_DMA` for `bytes` on this bus (excluding command overhead).
    pub fn dma_nanos(&self, bytes: u64) -> Nanos {
        self.timing.dma_nanos(bytes)
    }

    /// Instant the bus next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.res.free_at()
    }

    /// Busy fraction since the simulation start.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.res.utilization(now)
    }

    /// Busy fraction over the recent sliding window (`u_bus` in Eq. 2).
    pub fn windowed_utilization(&self, now: SimTime) -> f64 {
        self.res.windowed_utilization(now)
    }

    /// Total payload bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> OnfiBus {
        OnfiBus::new(OnfiTiming::default())
    }

    #[test]
    fn transfer_duration_includes_overhead() {
        let mut b = bus();
        let r = b.transfer(SimTime::ZERO, 4096);
        // 2560ns DMA + 100ns command overhead
        assert_eq!(r.end - r.start, 2_660);
        assert_eq!(r.wait, 0);
    }

    #[test]
    fn concurrent_transfers_serialise() {
        let mut b = bus();
        b.transfer(SimTime::ZERO, 4096);
        let second = b.transfer(SimTime::ZERO, 4096);
        assert_eq!(second.wait, 2_660, "bus is serially shared");
    }

    #[test]
    fn zero_byte_transfer_is_a_command_cycle() {
        let mut b = bus();
        let r = b.transfer(SimTime::ZERO, 0);
        assert_eq!(r.end - r.start, 100);
    }

    #[test]
    fn accounting_accumulates() {
        let mut b = bus();
        b.transfer(SimTime::ZERO, 4096);
        b.transfer(SimTime::ZERO, 1024);
        b.transfer(SimTime::ZERO, 0);
        assert_eq!(b.bytes_moved(), 5120);
        assert!(b.free_at() > SimTime::ZERO);
    }

    #[test]
    fn utilization_rises_under_load() {
        let mut b = bus();
        for i in 0..10 {
            b.transfer(SimTime::from_us(i * 3), 4096);
        }
        let u = b.utilization(SimTime::from_us(30));
        assert!(u > 0.8, "u = {u}");
    }
}
