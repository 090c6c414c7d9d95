//! Array federation: N Triple-A boxes behind one volume namespace.
//!
//! The paper stops at a single autonomic array behind one root complex.
//! This module goes one level up: a [`Federation`] owns N independent
//! member [`Array`](crate::Array) engines inside one deterministic epoch
//! loop, exposes a single volume address space that stripes (and
//! optionally replicates) across them, and extends the Eq. 3 autonomic
//! machinery to whole arrays — when a member array's p99 lags the
//! federation budget, hot chunks are shadow-cloned to a peer array with
//! the same clone-then-commit discipline the intra-array migration
//! machinery uses, so a power cut mid-migration never commits a
//! half-copied placement.
//!
//! The laggard policy has no settings. Each epoch is 200 µs. An array
//! is the laggard when its p99 exceeds 500 µs and is more than 1.2× its
//! best peer's. One detection clones at most 4 chunks, and the policy
//! then rests for 2 epochs. Every array reserves 64 migration-slot
//! chunks for inbound clones, above its home rows.
//!
//! # Address mapping
//!
//! The volume is divided into fixed-size chunks of
//! [`VolumeSpec::chunk_pages`] pages. With stripe width `W` and
//! replication factor `R`, the federation requires exactly `W × R`
//! member arrays: copy `j` of chunk `k` homes on array `(k mod W) + jW`
//! at array-local chunk `k / W`. The map is a bijection from chunks onto
//! each copy group's `(array, local chunk)` space by construction (the
//! property suite pins this down), and inter-array migration overlays it
//! with explicit placement overrides into a reserved migration-slot
//! region above the home rows.
//!
//! # Example
//!
//! ```
//! use triplea_core::{Array, IoOp, ManagementMode, Trace, TraceRequest, VolumeSpec};
//! use triplea_ftl::LogicalPage;
//! use triplea_sim::SimTime;
//!
//! let fed = Array::builder()
//!     .small_test()
//!     .mode(ManagementMode::Autonomic)
//!     .with_federation(2)
//!     .volume(VolumeSpec::striped(2).chunk_pages(16))
//!     .build()
//!     .expect("valid federation");
//! let trace = Trace::new(vec![TraceRequest::new(SimTime::ZERO, IoOp::Read, LogicalPage(0), 1)]);
//! let run = fed.run_verified(&trace);
//! assert_eq!(run.report.stats.completed, 1);
//! assert!(run.integrity.is_ok());
//! ```

mod config;
mod manager;
mod map;

pub use config::{FederationBuilder, FederationError, VolumeSpec, MAX_ARRAYS};
pub use manager::{Federation, FederationReport, FederationRun, FederationStats};
pub use map::{ChunkPlacement, VolumeMapper};
