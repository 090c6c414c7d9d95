//! Serialising PCI-E links.

use triplea_sim::{FifoResource, Nanos, Reservation, SimTime, SplitMix64};

/// Deterministic TLP-corruption injection for one link direction.
///
/// PCI-E detects a corrupted TLP via its LCRC and recovers in the data
/// link layer: the receiver withholds the ACK, the transmitter's replay
/// timer fires, and the packet is retransmitted. The model charges the
/// wire a second serialisation of the packet plus a fixed replay-timer
/// delay — later packets queue behind the retransmission.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PcieFaultProfile {
    /// Probability a transmitted TLP is corrupted and must be replayed.
    pub corrupt_prob: f64,
    /// Replay-timer delay charged on top of the retransmission.
    pub replay_ns: Nanos,
}

impl PcieFaultProfile {
    /// `true` when the profile can never fire: no RNG is consumed and
    /// transmission timing is untouched.
    pub fn is_quiet(&self) -> bool {
        self.corrupt_prob <= 0.0
    }
}

/// PCI-Express generation, determining per-lane bandwidth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkGen {
    /// 2.5 GT/s, 8b/10b: 250 MB/s per lane.
    Gen1,
    /// 5.0 GT/s, 8b/10b: 500 MB/s per lane.
    Gen2,
    /// 8.0 GT/s, 128b/130b: ~985 MB/s per lane.
    Gen3,
}

impl LinkGen {
    /// Effective data bandwidth per lane in bytes/second.
    pub fn bytes_per_sec_per_lane(self) -> u64 {
        match self {
            LinkGen::Gen1 => 250_000_000,
            LinkGen::Gen2 => 500_000_000,
            LinkGen::Gen3 => 984_615_384, // 8 GT/s * 128/130 / 8 bits
        }
    }
}

/// One simplex direction of a PCI-E link: a serially shared wire with
/// bandwidth-derived serialisation delay plus a fixed propagation delay.
#[derive(Clone, Debug)]
pub struct PcieLink {
    gen: LinkGen,
    lanes: u32,
    propagation: Nanos,
    res: FifoResource,
    bytes: u64,
    faults: PcieFaultProfile,
    fault_rng: SplitMix64,
    replays: u64,
}

impl PcieLink {
    /// Creates an idle link.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(gen: LinkGen, lanes: u32, propagation: Nanos) -> Self {
        assert!(lanes > 0, "a link needs at least one lane");
        PcieLink {
            gen,
            lanes,
            propagation,
            res: FifoResource::new("pcie-link"),
            bytes: 0,
            faults: PcieFaultProfile::default(),
            fault_rng: SplitMix64::new(0),
            replays: 0,
        }
    }

    /// Arms deterministic TLP-corruption injection on this direction.
    pub fn set_faults(&mut self, profile: PcieFaultProfile, seed: u64) {
        self.faults = profile;
        self.fault_rng = SplitMix64::new(seed);
    }

    /// TLPs that were corrupted and replayed so far.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Link bandwidth in bytes/second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.gen.bytes_per_sec_per_lane() * self.lanes as u64
    }

    /// Pure serialisation time for `bytes` (no queueing, no propagation).
    pub fn serialize_nanos(&self, bytes: u64) -> Nanos {
        let bps = self.bytes_per_sec();
        (bytes as u128 * 1_000_000_000).div_ceil(bps as u128) as Nanos
    }

    /// Transmits `bytes` starting no earlier than `now`.
    ///
    /// The returned reservation's `end` is when the *last bit leaves the
    /// transmitter*; the packet is fully received at
    /// [`arrival`](Self::arrival)`(end)`. `wait` is time spent queued behind earlier
    /// packets on this direction of the link.
    pub fn transmit(&mut self, now: SimTime, bytes: u64) -> Reservation {
        let mut dur = self.serialize_nanos(bytes);
        if self.faults.corrupt_prob > 0.0 && self.fault_rng.chance(self.faults.corrupt_prob) {
            // Corrupted TLP: the wire carries it twice, plus the replay
            // timer; everything behind this packet queues up.
            dur += self.serialize_nanos(bytes) + self.faults.replay_ns;
            self.replays += 1;
        }
        self.bytes += bytes;
        self.res.reserve(now, dur)
    }

    /// Instant at which a transmission finishing at `tx_end` is fully
    /// received at the far end.
    pub fn arrival(&self, tx_end: SimTime) -> SimTime {
        tx_end + self.propagation
    }

    /// Busy fraction since simulation start.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.res.utilization(now)
    }

    /// Busy fraction over the recent window.
    pub fn windowed_utilization(&self, now: SimTime) -> f64 {
        self.res.windowed_utilization(now)
    }

    /// Instant the link next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.res.free_at()
    }

    /// Payload-plus-overhead bytes transmitted so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes
    }
}

/// A full-duplex PCI-E link: two independent simplex directions, matching
/// the "dual-simplex" wording of the paper's §2.1.
#[derive(Clone, Debug)]
pub struct DuplexLink {
    /// Direction away from the root complex (requests).
    pub down: PcieLink,
    /// Direction toward the root complex (completions).
    pub up: PcieLink,
}

impl DuplexLink {
    /// Creates a duplex link with identical parameters per direction.
    pub fn new(gen: LinkGen, lanes: u32, propagation: Nanos) -> Self {
        DuplexLink {
            down: PcieLink::new(gen, lanes, propagation),
            up: PcieLink::new(gen, lanes, propagation),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen3_x4_bandwidth() {
        let l = PcieLink::new(LinkGen::Gen3, 4, 0);
        assert_eq!(l.bytes_per_sec(), 4 * 984_615_384);
        // 4 KiB at ~3.94 GB/s is ~1.04 us
        let t = l.serialize_nanos(4096);
        assert!((1_000..1_100).contains(&t), "t = {t}");
    }

    #[test]
    fn generations_ordered() {
        assert!(LinkGen::Gen1.bytes_per_sec_per_lane() < LinkGen::Gen2.bytes_per_sec_per_lane());
        assert!(LinkGen::Gen2.bytes_per_sec_per_lane() < LinkGen::Gen3.bytes_per_sec_per_lane());
    }

    #[test]
    fn transmissions_serialise() {
        let mut l = PcieLink::new(LinkGen::Gen1, 1, 0);
        let a = l.transmit(SimTime::ZERO, 250); // 1us at 250MB/s
        let b = l.transmit(SimTime::ZERO, 250);
        assert_eq!(a.wait, 0);
        assert_eq!(b.wait, 1_000);
        assert_eq!(l.bytes_sent(), 500);
    }

    #[test]
    fn arrival_adds_propagation() {
        let l = PcieLink::new(LinkGen::Gen3, 4, 150);
        assert_eq!(
            l.arrival(SimTime::from_nanos(1_000)),
            SimTime::from_nanos(1_150)
        );
        assert_eq!(l.propagation, 150);
    }

    #[test]
    fn corrupted_tlp_replays_and_delays_followers() {
        let mut l = PcieLink::new(LinkGen::Gen1, 1, 0);
        l.set_faults(
            PcieFaultProfile {
                corrupt_prob: 1.0,
                replay_ns: 500,
            },
            3,
        );
        let a = l.transmit(SimTime::ZERO, 250); // 1us serialise, doubled + 500ns
        assert_eq!(a.end - a.start, 2_500);
        assert_eq!(l.replays(), 1);
        let b = l.transmit(SimTime::ZERO, 250);
        assert_eq!(b.wait, 2_500, "follower queues behind the replay");
    }

    #[test]
    fn corruption_pattern_is_seed_deterministic() {
        let profile = PcieFaultProfile {
            corrupt_prob: 0.25,
            replay_ns: 100,
        };
        let run = |seed: u64| {
            let mut l = PcieLink::new(LinkGen::Gen3, 4, 0);
            l.set_faults(profile, seed);
            for _ in 0..200 {
                l.transmit(SimTime::ZERO, 4096);
            }
            (l.replays(), l.free_at())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0);
        let (replays, _) = run(5);
        assert!(replays > 0 && replays < 200);
    }

    #[test]
    fn quiet_fault_profile_changes_nothing() {
        let mut armed = PcieLink::new(LinkGen::Gen2, 2, 10);
        armed.set_faults(PcieFaultProfile::default(), 77);
        let mut plain = PcieLink::new(LinkGen::Gen2, 2, 10);
        for i in 0..50 {
            let x = armed.transmit(SimTime::from_nanos(i * 13), 700);
            let y = plain.transmit(SimTime::from_nanos(i * 13), 700);
            assert_eq!(x, y);
        }
        assert_eq!(armed.replays(), 0);
    }

    #[test]
    fn duplex_directions_independent() {
        let mut d = DuplexLink::new(LinkGen::Gen1, 1, 0);
        d.down.transmit(SimTime::ZERO, 250);
        let up = d.up.transmit(SimTime::ZERO, 250);
        assert_eq!(up.wait, 0, "up direction unaffected by down traffic");
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        PcieLink::new(LinkGen::Gen3, 0, 0);
    }
}
