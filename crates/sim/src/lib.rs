//! Discrete-event simulation kernel used by every other crate in the
//! Triple-A reproduction.
//!
//! The kernel is deliberately small and dependency-free so that every
//! simulation run is bit-for-bit deterministic:
//!
//! * [`SimTime`] — a nanosecond-resolution simulated clock value.
//! * [`EventQueue`] — a stable priority queue of timestamped events.
//! * [`SplitMix64`] — a tiny, seedable PRNG for tie-breaking decisions
//!   inside the simulator (workload generation uses `rand` instead).
//! * [`stats`] — latency histograms, CDF extraction, utilization
//!   trackers, and time-series samplers used to produce the paper's
//!   tables/figures.
//! * [`resource::FifoResource`] — the *busy-until* primitive that models
//!   serially shared hardware (PCI-E links, the cluster-local ONFi bus,
//!   NAND dies) and attributes waiting time to contention.
//! * [`trace`] — the array-wide event-tracing subsystem: a
//!   zero-cost-when-disabled ring-buffer [`trace::Recorder`] of typed
//!   [`trace::TraceEvent`]s plus a [`trace::MetricRegistry`] of
//!   per-component instruments, exported as byte-stable JSON and Chrome
//!   `trace_event` format.
//!
//! # Example
//!
//! ```
//! use triplea_sim::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::from_us(3), "late");
//! q.push(SimTime::from_us(1), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_us(1), "early"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod rng;
mod time;

pub mod hash;
pub mod resource;
pub mod stats;
pub mod trace;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use queue::EventQueue;
pub use resource::{FifoResource, MultiResource, Reservation};
pub use rng::SplitMix64;
pub use time::{Nanos, SimTime};
pub use trace::{
    Metric, MetricId, MetricRegistry, Recorder, RunTrace, SharedRecorder, TraceConfig, TraceEvent,
    TraceEventKind, TracePort, TraceScope,
};
