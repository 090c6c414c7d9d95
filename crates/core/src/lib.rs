//! The Triple-A autonomic all-flash array (paper §3–§4) and its
//! non-autonomic baseline.
//!
//! This crate assembles the substrates — [`triplea_flash`] NAND packages,
//! [`triplea_fimm`] FIMMs and the shared ONFi bus, [`triplea_pcie`]
//! fabric, [`triplea_ftl`] host-side flash software — into a simulated
//! all-flash array with:
//!
//! * a full request pipeline with per-stage latency attribution
//!   (RC/switch queue stalls, PCI-E link waits, ONFi bus waits ⇒ *link
//!   contention*, die waits and write-buffer waits ⇒ *storage
//!   contention*);
//! * the **autonomic management module**: hot-cluster detection (Eq. 1),
//!   cold-cluster selection (Eq. 2), inter-cluster data migration with
//!   shadow cloning, laggard detection (Eq. 3 and queue examination),
//!   intra-cluster data-layout reshaping, and write redirection;
//! * deterministic replay: equal configs + traces ⇒ identical reports.
//!
//! # Example
//!
//! ```
//! use triplea_core::{Array, ArrayConfig, IoOp, ManagementMode, Trace, TraceRequest};
//! use triplea_ftl::LogicalPage;
//! use triplea_sim::SimTime;
//!
//! // Hammer one cluster with reads and let Triple-A spread the load.
//! let cfg = ArrayConfig::small_test();
//! let trace: Trace = (0..500)
//!     .map(|i| {
//!         TraceRequest::new(
//!             SimTime::from_us(i / 4),
//!             IoOp::Read,
//!             LogicalPage((i % 64) * 8),
//!             1,
//!         )
//!     })
//!     .collect();
//! let base = Array::new(cfg.clone(), ManagementMode::NonAutonomic).run(&trace);
//! let aaa = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
//! assert_eq!(base.completed(), aaa.completed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod autonomic;
mod cluster;
mod config;
mod federation;
mod metrics;
mod request;
mod tenant;

pub use array::{Array, ArrayBuilder, ArrayRunner, Finished, VerifiedRun};
pub use autonomic::{AutonomicState, AutonomicStats};
pub use config::{
    ArrayConfig, ArrayConfigBuilder, AutonomicParams, ConfigError, FaultConfig, FaultScheduleFull,
    FimmFaultEvent, LaggardStrategy, ManagementMode, PowerLossEvent, COLD_BUS_THRESHOLD,
    ESCALATION_COOLDOWN_NS, LAGGARD_COOLDOWN_NS, LAGGARD_IMBALANCE, MAX_ARRIVAL_NS,
    MAX_FIMM_FAULT_EVENTS, MAX_INFLIGHT_RELOC_PAGES, MAX_TENANTS, REMOUNT_BASE_NS,
    REPLAY_NS_PER_RECORD, SLA_NS,
};
pub use federation::{
    ChunkPlacement, Federation, FederationBuilder, FederationError, FederationReport,
    FederationRun, FederationStats, VolumeMapper, VolumeSpec, MAX_ARRAYS,
};
pub use metrics::{FaultStats, RecoveryStats, RunReport};
pub use request::{Breakdown, IoOp, Trace, TraceRequest};
pub use tenant::{TenantConfig, TenantId, TenantSpec, TenantStats, WeightedArbiter};

/// [`Array`] under its former name. It exists only because the benchmark
/// (`benchmark/src/workloads.rs`) builds through it; new code names
/// `Array`.
pub type Simulation = Array;

/// [`ArrayBuilder`] under its former name, kept for the same reason as
/// [`Simulation`].
pub type SimulationBuilder = ArrayBuilder;

// Re-export the shape/address vocabulary users need alongside `Array`,
// plus the substrate-level fault types `FaultConfig` is built from and
// the tracing vocabulary `ArrayBuilder::with_recorder` consumes.
pub use triplea_fimm::FimmFaultKind;
pub use triplea_flash::FlashFaultProfile;
pub use triplea_ftl::{ArrayShape, IntegrityError, LogicalPage, PhysLoc};
pub use triplea_pcie::{ClusterId, PcieFaultProfile, Topology};
pub use triplea_sim::trace::{
    Metric, MetricRegistry, RunTrace, TraceConfig, TraceEvent, TraceEventKind,
};
