//! PCI-Express fabric model — the interconnect of the Triple-A all-flash
//! array (paper §2.1, Figures 2 and 5).
//!
//! PCI-E is a dual-simplex, point-to-point serial interconnect. The model
//! captures what the paper's simulator captured (§5.1): "PCI-E data
//! movement delay, switching and routing latencies, and I/O request
//! contention cycles":
//!
//! * [`PcieLink`] / [`DuplexLink`] — serialising links with generation/
//!   lane-derived bandwidth and propagation delay.
//! * [`CreditQueue`] — virtual-channel buffers with credit-based flow
//!   control: a transmitter may only send when the receiver has space,
//!   so full buffers back-pressure upstream (the "queue stall" times of
//!   the paper's Figure 15).
//! * [`Switch`] — one upstream port and per-downstream-port buffers and
//!   links, with address routing over a configurable [`Topology`]. The
//!   root complex and the cluster endpoints are each one [`CreditQueue`]
//!   held by the array engine; their latencies live in [`PcieParams`].
//!
//! # Example
//!
//! ```
//! use triplea_pcie::{PcieLink, LinkGen};
//! use triplea_sim::SimTime;
//!
//! let mut link = PcieLink::new(LinkGen::Gen3, 4, 100);
//! // One 4 KB page plus its 24 B of framing, header and CRC.
//! let r = link.transmit(SimTime::ZERO, 4096 + 24);
//! assert!(r.end > r.start);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod flow;
mod link;
mod topology;

pub use device::Switch;
pub use flow::{Admission, CreditQueue};
pub use link::{DuplexLink, LinkGen, PcieFaultProfile, PcieLink};
pub use topology::{ClusterId, PcieParams, Topology};
