//! The PCI-E switch of the array fabric.

use crate::flow::CreditQueue;
use crate::link::DuplexLink;
use crate::topology::PcieParams;

/// A PCI-E switch: virtual bridges between one upstream port (toward the
/// RC) and many downstream ports (toward cluster endpoints), forwarding
/// packets by address routing (paper §2.1, Figure 2).
///
/// Every virtual bridge (downstream port) has its *own* virtual-channel
/// buffer, as in real PCI-E switches — a congested endpoint exhausts only
/// its own port's credits and cannot head-of-line-block traffic bound for
/// sibling ports.
#[derive(Clone, Debug)]
pub struct Switch {
    /// Per-downstream-port virtual-channel buffers.
    pub port_queues: Vec<CreditQueue>,
    /// Link to the root complex.
    pub uplink: DuplexLink,
    /// Links to the cluster endpoints, one per downstream port.
    pub downlinks: Vec<DuplexLink>,
}

impl Switch {
    /// Creates a switch with `ports` downstream ports, each with
    /// `params.switch_queue` buffer entries.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`.
    pub fn new(params: &PcieParams, ports: u32) -> Self {
        assert!(ports > 0, "a switch needs downstream ports");
        Switch {
            port_queues: (0..ports)
                .map(|_| CreditQueue::new("switch-port", params.switch_queue))
                .collect(),
            uplink: DuplexLink::new(params.gen, params.uplink_lanes, params.propagation_ns),
            downlinks: (0..ports)
                .map(|_| DuplexLink::new(params.gen, params.lanes, params.propagation_ns))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triplea_sim::SimTime;

    #[test]
    fn switch_has_requested_ports() {
        let sw = Switch::new(&PcieParams::default(), 16);
        assert_eq!(sw.downlinks.len(), 16);
        assert_eq!(sw.port_queues.len(), 16);
        assert_eq!(sw.port_queues[0].capacity(), 64);
    }

    #[test]
    #[should_panic(expected = "downstream ports")]
    fn switch_zero_ports_panics() {
        Switch::new(&PcieParams::default(), 0);
    }

    #[test]
    fn uplink_is_wider_than_endpoint_links() {
        let sw = Switch::new(&PcieParams::default(), 4);
        assert!(
            sw.uplink.up.bytes_per_sec() > sw.downlinks[0].up.bytes_per_sec() * 3,
            "uplink should aggregate a whole switch's traffic"
        );
    }

    #[test]
    fn switch_links_are_independent_resources() {
        let mut sw = Switch::new(&PcieParams::default(), 2);
        sw.downlinks[0].down.transmit(SimTime::ZERO, 4096);
        let other = sw.downlinks[1].down.transmit(SimTime::ZERO, 4096);
        assert_eq!(other.wait, 0);
        let up = sw.uplink.up.transmit(SimTime::ZERO, 4096);
        assert_eq!(up.wait, 0);
    }
}
