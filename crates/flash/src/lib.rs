//! Bare NAND flash package model — the storage medium of the Triple-A
//! all-flash array (paper §2.2, Figure 3).
//!
//! A *package* contains several *dies* operating in parallel; each die
//! stacks *planes* (identified by even/odd block addresses) which can
//! service multi-plane commands concurrently; internal *cache and data
//! registers* decouple the memory array from the I/O interface; an
//! *embedded controller* parses ONFi commands and runs ECC.
//!
//! The model is metadata-only: it tracks state, timing, and wear, never
//! data bytes, which is what lets the simulator cover 16 TB arrays.
//!
//! # Example
//!
//! ```
//! use triplea_flash::{FlashCommand, FlashGeometry, FlashTiming, Package, PageAddr};
//! use triplea_sim::SimTime;
//!
//! let geom = FlashGeometry::default();
//! let mut pkg = Package::new(geom, FlashTiming::default());
//! let addr = PageAddr { die: 0, plane: 0, block: 0, page: 0 };
//! let op = pkg.begin_op(SimTime::ZERO, &FlashCommand::read(&addr))?;
//! assert_eq!(op.die_wait, 0);
//! # Ok::<(), triplea_flash::FlashError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod command;
mod error;
mod fault;
mod geometry;
mod package;
mod timing;
mod wear;

pub use command::{CmdMode, FlashCommand, OpKind};
pub use error::FlashError;
pub use fault::{FlashFaultProfile, PackageFaultStats};
pub use geometry::{FlashGeometry, PageAddr};
pub use package::{OpTiming, Package, PackageStats};
pub use timing::{FlashTiming, OnfiTiming};
pub use wear::{WearReport, WearTracker};
