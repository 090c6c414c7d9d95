//! Flash Inline Memory Module (FIMM) — the paper's §3.3, Figure 6.
//!
//! A FIMM is a "passive memory device like a DIMM": eight bare NAND
//! packages on a printed circuit board behind the ONFi 78-pin NV-DDR2
//! connector. Each package has its own chip-enable pin (so the endpoint
//! can address packages individually) but all packages share the module's
//! 16-data-pin channel and a single ready/busy wire.
//!
//! Within a Triple-A *cluster*, several FIMMs hang off one PCI-E endpoint
//! and share a single local ONFi bus — [`OnfiBus`] here. Waiting for that
//! bus is exactly the paper's **link contention**; waiting for a busy
//! package/die is its **storage contention**.
//!
//! # Example
//!
//! ```
//! use triplea_fimm::{Fimm, FimmAddr, OnfiBus};
//! use triplea_flash::{FlashCommand, FlashGeometry, FlashTiming, PageAddr};
//! use triplea_sim::SimTime;
//!
//! let mut fimm = Fimm::new(8, FlashGeometry::default(), FlashTiming::default());
//! let mut bus = OnfiBus::new(FlashTiming::default().onfi);
//! let addr = FimmAddr { package: 3, page: PageAddr { die: 0, plane: 0, block: 0, page: 0 } };
//! let op = fimm.begin_op(SimTime::ZERO, addr.package, &FlashCommand::read(&addr.page))?;
//! let xfer = bus.transfer(op.end, 4096); // move the page to the endpoint
//! assert!(xfer.end > op.end);
//! # Ok::<(), triplea_flash::FlashError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod module;

pub use bus::OnfiBus;
pub use module::{Fimm, FimmAddr, FimmFaultKind, FimmStats};
