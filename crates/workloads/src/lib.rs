//! Workload generation for the Triple-A reproduction (paper §5.2).
//!
//! The paper evaluates on enterprise traces from SNIA/UMass and an HPC
//! Eigensolver trace from NERSC's Carver cluster — none of which ship
//! with this repository. Instead, [`WorkloadProfile`] captures exactly
//! the characteristics the paper's **Table 1** reports for each trace
//! (read ratio, read/write randomness, number of hot clusters, fraction
//! of I/O heading to them), and [`ProfileTrace`] synthesises traces that
//! reproduce those marginals on any array shape. Triple-A's mechanisms
//! react only to those marginals — spatial skew, mix, and randomness —
//! so the synthetic traces exercise the same contention behaviour.
//!
//! [`Microbench`] builds the paper's random-read/random-write
//! micro-benchmarks used for the sensitivity studies (§6.4–6.5).
//!
//! Real captures replay through [`msr`]: [`msr::parse_msr`] reads the
//! MSR-Cambridge/SNIA block-trace schema the paper's traces ship in,
//! malformed records come back as a [`CsvError`] naming their line,
//! and [`TraceMapper`] maps the records onto an array
//! (`bench replay <FILE>` does both and runs the result).
//!
//! # Example
//!
//! ```
//! use triplea_core::{Array, ArrayConfig, ManagementMode};
//! use triplea_workloads::{Microbench, WorkloadProfile};
//!
//! let cfg = ArrayConfig::small_test();
//! let trace = Microbench::read().hot_clusters(2).requests(500).build(&cfg, 7);
//! let report = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
//! assert_eq!(report.completed(), 500);
//!
//! // All thirteen Table-1 profiles are available by name:
//! let websql = WorkloadProfile::by_name("websql").unwrap();
//! assert!(websql.hot_clusters > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod dist;
mod generator;
mod micro;
pub mod msr;
mod profile;
mod scenario;

pub use analysis::{analyze, TraceStats};
pub use dist::{BurstShape, Zipfian};
pub use generator::{HotPlacement, Phase, ProfileTrace};
pub use micro::Microbench;
pub use msr::{CsvError, MsrRecord, TraceMapper};
pub use profile::WorkloadProfile;
pub use scenario::ScenarioTrace;
