//! Array-wide event tracing and the metric/probe registry.
//!
//! A traced run owns one [`Recorder`]: a bounded ring buffer that keeps
//! the most recent typed [`TraceEvent`]s of the run. The engine driving
//! the run is the only code that records. The components below it (the
//! credit queues, links, buses, FIMMs and their packages, the FTL and
//! the autonomic detectors) hold no recorder; each reports what it did
//! through the value it returns to the engine, and the engine records
//! that value under the component's [`TraceScope`]. Tracing is strictly
//! opt-in: without a recorder every record site is one branch on
//! `Option::None`, no payload is built and nothing allocates, so untraced
//! runs are byte-identical to traced ones in every simulated result (the
//! golden-snapshot suite pins this down).
//!
//! At the end of a traced run the engine moves the recorder's ring, plus
//! a [`MetricRegistry`] of per-component instruments (histograms,
//! utilization trackers, queue-depth time series), into a [`RunTrace`].
//! Each instrument is named where its value is read, under a stable
//! hierarchical name (`cluster.2.fimm.1.queue_depth`); the harvest runs
//! once per traced run, so nothing is named ahead of time. The
//! [`RunTrace`] exports as byte-stable JSON and as Chrome `trace_event`
//! JSON loadable in `about:tracing` / Perfetto.
//!
//! # Determinism contract
//!
//! The simulation is single-threaded and deterministic, so the recorded
//! event stream — order, timestamps, sequence numbers — is a pure
//! function of the configuration and trace. Both exports are built with
//! integer-only formatting, so the artifact bytes are identical across
//! platforms and across any harness thread count.

use std::collections::BTreeMap;

use crate::stats::{Histogram, TimeSeries};
use crate::time::{Nanos, SimTime};

/// Coarse event categories: the `"cat"` field of the Chrome
/// `trace_event` export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceCategory {
    /// Request lifecycle: submit, dispatch, complete.
    Lifecycle,
    /// ONFi bus arbitration and transfers.
    Bus,
    /// PCI-E link transmissions and flow control.
    Link,
    /// NAND package operations (die reservations).
    Flash,
    /// Autonomic detector samples, laggard/escalation decisions.
    Autonomic,
    /// Migration / reshaping / shadow-clone begin, commit, rollback.
    Migration,
    /// Injected faults firing anywhere in the stack.
    Fault,
    /// Garbage-collection activity.
    Gc,
    /// Crash-recovery activity: power loss, journal checkpoints and
    /// replay, hot-spare rebuild phases.
    Recovery,
}

/// How many events to keep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events; older events are dropped (and
    /// counted) once the buffer is full.
    pub capacity: usize,
}

impl TraceConfig {
    /// Every event kind, with the default 64 Ki-event ring.
    pub fn all() -> Self {
        TraceConfig { capacity: 65_536 }
    }

    /// Same recorder, different ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        self.capacity = capacity;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::all()
    }
}

/// Which component emitted an event: the hierarchical position the
/// metric names and the Chrome-trace lanes are derived from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceScope {
    /// Global cluster index, or `u32::MAX` when array-wide.
    pub cluster: u32,
    /// FIMM index within the cluster, or `u32::MAX` when cluster-wide.
    pub fimm: u32,
    /// Free-form sub-unit (package index, switch index, …).
    pub unit: u32,
}

impl TraceScope {
    /// The array-wide (engine) scope.
    pub fn array() -> Self {
        TraceScope {
            cluster: u32::MAX,
            fimm: u32::MAX,
            unit: 0,
        }
    }

    /// Scope of one cluster.
    pub fn cluster(cluster: u32) -> Self {
        TraceScope {
            cluster,
            fimm: u32::MAX,
            unit: 0,
        }
    }

    /// Scope of one FIMM within a cluster.
    pub fn fimm(cluster: u32, fimm: u32) -> Self {
        TraceScope {
            cluster,
            fimm,
            unit: 0,
        }
    }

    /// This scope with the sub-unit set.
    pub fn unit(mut self, unit: u32) -> Self {
        self.unit = unit;
        self
    }
}

/// One typed trace event: the payload plus where and when it happened.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event, in nanoseconds.
    pub at: Nanos,
    /// Emission sequence number (total order over the whole run).
    pub seq: u64,
    /// Emitting component.
    pub scope: TraceScope,
    /// The typed payload.
    pub kind: TraceEventKind,
}

/// The taxonomy of recorded events. Payloads are primitive-typed so the
/// `sim` crate stays free of higher-layer vocabulary.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEventKind {
    /// A host request entered the array.
    Submit {
        /// Request id (trace index).
        req: u32,
        /// `true` for reads, `false` for writes.
        read: bool,
        /// First logical page.
        lpn: u64,
        /// Request size in pages.
        pages: u32,
    },
    /// The root complex routed a request to its home cluster.
    Dispatch {
        /// Request id.
        req: u32,
        /// Mapping-cache miss: the dispatch paid a translation-page read.
        map_miss: bool,
    },
    /// The shared ONFi bus granted a reservation.
    BusAcquire {
        /// Arbitration wait before the grant, ns.
        wait_ns: Nanos,
        /// Reserved transfer duration, ns.
        dur_ns: Nanos,
        /// Payload bytes moved (0 for a command cycle).
        bytes: u64,
    },
    /// A NAND package started an operation on a die.
    FlashStart {
        /// Operation class: `"read"`, `"program"`, or `"erase"`.
        op: &'static str,
        /// Die index within the package.
        die: u32,
        /// Time spent queued behind the die, ns.
        die_wait_ns: Nanos,
        /// Cell-operation duration, ns.
        dur_ns: Nanos,
    },
    /// A host request completed.
    Complete {
        /// Request id.
        req: u32,
        /// End-to-end latency, ns.
        latency_ns: Nanos,
    },
    /// A PCI-E link transmitted a TLP batch.
    LinkTx {
        /// Payload bytes.
        bytes: u64,
        /// Wait behind earlier transmissions, ns.
        wait_ns: Nanos,
        /// Serialization time on the wire, ns.
        dur_ns: Nanos,
        /// The transfer was corrupted and replayed.
        replayed: bool,
    },
    /// A credit queue had to park an arrival (no credit left).
    QueueFull {
        /// Occupants at the time of the refusal.
        occupied: usize,
        /// Arrivals already waiting.
        waiting: usize,
    },
    /// An autonomic hot-cluster detector sample (Eq. 1).
    DetectorSample {
        /// Windowed bus utilization, in milli-units (0–1000).
        bus_util_milli: u32,
        /// Observed request flash latency, ns.
        latency_ns: Nanos,
        /// The sample crossed the hot threshold.
        hot: bool,
    },
    /// A FIMM was flagged as a laggard (Eq. 3 / queue examination).
    LaggardDetected,
    /// "All FIMMs are laggards" escalation to inter-cluster migration.
    Escalation,
    /// An inter-cluster migration began (shadow cloning starts).
    MigrationBegin {
        /// Destination cluster (global index).
        dst_cluster: u32,
        /// Pages claimed for the move.
        pages: u32,
    },
    /// An intra-cluster reshape began on a laggard FIMM.
    ReshapeBegin {
        /// FIMM the pages are moving to.
        target_fimm: u32,
        /// Pages claimed for the move.
        pages: u32,
    },
    /// One relocated page committed (clone-then-unlink switched readers).
    RelocCommit {
        /// The logical page that moved.
        lpn: u64,
    },
    /// One relocated page rolled back after a mid-copy fault.
    RelocRollback {
        /// The logical page whose clone was discarded.
        lpn: u64,
    },
    /// A stalled write was redirected to an adjacent FIMM.
    WriteRedirect {
        /// FIMM the write was redirected to.
        target_fimm: u32,
    },
    /// An injected fault fired.
    FaultInjected {
        /// Fault domain: `"flash"`, `"fimm"`, or `"pcie"`.
        domain: &'static str,
        /// Domain-specific detail (`"read-transient"`, `"dead"`, …).
        detail: &'static str,
    },
    /// Garbage collection ran one unit on a FIMM.
    GcRun {
        /// Live pages rewritten before the erase.
        valid_pages: u32,
    },
    /// A mapping-cache miss paid a translation-page flash read.
    MapMiss {
        /// The logical page whose translation missed.
        lpn: u64,
    },
    /// The array lost power: volatile state discarded, remount begins.
    PowerLoss {
        /// In-flight requests lost with the volatile queues.
        lost_requests: u64,
        /// Not-yet-arrived requests re-queued behind the remount.
        requeued: u64,
    },
    /// The FTL journal took a checkpoint and truncated itself.
    JournalCheckpoint {
        /// Lifetime records appended when the checkpoint was taken.
        records: u64,
    },
    /// A mount-time recovery scan replayed the journal.
    JournalReplay {
        /// Flushed records replayed onto the checkpoint.
        replayed: u64,
        /// Un-flushed records lost with the cut.
        dropped: u64,
    },
    /// A hot-spare rebuild of a dead FIMM began.
    RebuildStart {
        /// Live pages to reconstruct onto the spare.
        pages: u64,
    },
    /// A hot-spare rebuild finished; the spare is in service.
    RebuildDone {
        /// Pages reconstructed.
        pages: u64,
        /// Wall-clock rebuild duration, ns.
        dur_ns: Nanos,
    },
    /// A federated volume fragment was routed to a member array
    /// (cross-array hop through the volume manager).
    FederationHop {
        /// Volume-level request id (trace index).
        req: u32,
        /// Member array the fragment was routed to.
        array: u32,
        /// Replica copy the fragment addressed.
        copy: u32,
    },
    /// A member array's cumulative p99 lagged the federation budget
    /// (the inter-array Eq. 3 analogue fired).
    FederationLaggard {
        /// The lagging member array.
        array: u32,
        /// Its observed p99, ns.
        p99_ns: Nanos,
        /// The federation SLA budget it violated, ns.
        budget_ns: Nanos,
    },
    /// An inter-array chunk migration began (shadow clone to a peer).
    FederationMigrationBegin {
        /// Volume chunk being cloned.
        chunk: u64,
        /// Source member array.
        from_array: u32,
        /// Destination member array.
        to_array: u32,
        /// Pages in the chunk.
        pages: u64,
    },
    /// An inter-array migration committed: the clone is fully durable on
    /// the peer and the mapper now reads the new placement.
    FederationMigrationCommit {
        /// The migrated volume chunk.
        chunk: u64,
        /// Source member array.
        from_array: u32,
        /// Destination member array.
        to_array: u32,
    },
    /// An inter-array migration aborted (clone I/O lost, e.g. to a power
    /// cut); the source placement stays live.
    FederationMigrationAbort {
        /// The chunk whose clone was discarded.
        chunk: u64,
        /// Source member array.
        from_array: u32,
        /// Destination member array.
        to_array: u32,
    },
    /// A read fragment lost to an array failure was re-issued against a
    /// surviving replica.
    FederationRetry {
        /// Volume-level request id.
        req: u32,
        /// The surviving array the retry was routed to.
        array: u32,
    },
}

impl TraceEventKind {
    /// The category this event belongs to (its Chrome-trace `"cat"`).
    pub fn category(&self) -> TraceCategory {
        use TraceEventKind::*;
        match self {
            Submit { .. } | Dispatch { .. } | Complete { .. } => TraceCategory::Lifecycle,
            BusAcquire { .. } => TraceCategory::Bus,
            LinkTx { .. } | QueueFull { .. } => TraceCategory::Link,
            FlashStart { .. } => TraceCategory::Flash,
            DetectorSample { .. } | LaggardDetected | Escalation | MapMiss { .. } => {
                TraceCategory::Autonomic
            }
            MigrationBegin { .. }
            | ReshapeBegin { .. }
            | RelocCommit { .. }
            | RelocRollback { .. }
            | WriteRedirect { .. } => TraceCategory::Migration,
            FaultInjected { .. } => TraceCategory::Fault,
            GcRun { .. } => TraceCategory::Gc,
            PowerLoss { .. }
            | JournalCheckpoint { .. }
            | JournalReplay { .. }
            | RebuildStart { .. }
            | RebuildDone { .. }
            | FederationRetry { .. } => TraceCategory::Recovery,
            FederationHop { .. } => TraceCategory::Lifecycle,
            FederationLaggard { .. } => TraceCategory::Autonomic,
            FederationMigrationBegin { .. }
            | FederationMigrationCommit { .. }
            | FederationMigrationAbort { .. } => TraceCategory::Migration,
        }
    }

    /// Stable event name used in both exports.
    pub fn name(&self) -> &'static str {
        use TraceEventKind::*;
        match self {
            Submit { .. } => "submit",
            Dispatch { .. } => "dispatch",
            BusAcquire { .. } => "bus_acquire",
            FlashStart { .. } => "flash_start",
            Complete { .. } => "complete",
            LinkTx { .. } => "link_tx",
            QueueFull { .. } => "queue_full",
            DetectorSample { .. } => "detector_sample",
            LaggardDetected => "laggard_detected",
            Escalation => "escalation",
            MigrationBegin { .. } => "migration_begin",
            ReshapeBegin { .. } => "reshape_begin",
            RelocCommit { .. } => "reloc_commit",
            RelocRollback { .. } => "reloc_rollback",
            WriteRedirect { .. } => "write_redirect",
            FaultInjected { .. } => "fault_injected",
            GcRun { .. } => "gc_run",
            MapMiss { .. } => "map_miss",
            PowerLoss { .. } => "power_loss",
            JournalCheckpoint { .. } => "journal_checkpoint",
            JournalReplay { .. } => "journal_replay",
            RebuildStart { .. } => "rebuild_start",
            RebuildDone { .. } => "rebuild_done",
            FederationHop { .. } => "federation_hop",
            FederationLaggard { .. } => "federation_laggard",
            FederationMigrationBegin { .. } => "federation_migration_begin",
            FederationMigrationCommit { .. } => "federation_migration_commit",
            FederationMigrationAbort { .. } => "federation_migration_abort",
            FederationRetry { .. } => "federation_retry",
        }
    }

    /// Duration payload for events that represent an interval, ns.
    fn duration_ns(&self) -> Option<Nanos> {
        use TraceEventKind::*;
        match self {
            BusAcquire { dur_ns, .. } | FlashStart { dur_ns, .. } | LinkTx { dur_ns, .. } => {
                Some(*dur_ns)
            }
            Complete { latency_ns, .. } => Some(*latency_ns),
            RebuildDone { dur_ns, .. } => Some(*dur_ns),
            _ => None,
        }
    }

    /// `(key, value)` argument pairs, integer-valued, in stable order.
    fn args(&self) -> Vec<(&'static str, u64)> {
        use TraceEventKind::*;
        match self {
            Submit {
                req,
                read,
                lpn,
                pages,
            } => vec![
                ("req", *req as u64),
                ("read", *read as u64),
                ("lpn", *lpn),
                ("pages", *pages as u64),
            ],
            Dispatch { req, map_miss } => {
                vec![("req", *req as u64), ("map_miss", *map_miss as u64)]
            }
            BusAcquire {
                wait_ns,
                dur_ns,
                bytes,
            } => vec![
                ("wait_ns", *wait_ns),
                ("dur_ns", *dur_ns),
                ("bytes", *bytes),
            ],
            FlashStart {
                die,
                die_wait_ns,
                dur_ns,
                ..
            } => vec![
                ("die", *die as u64),
                ("die_wait_ns", *die_wait_ns),
                ("dur_ns", *dur_ns),
            ],
            Complete { req, latency_ns } => {
                vec![("req", *req as u64), ("latency_ns", *latency_ns)]
            }
            LinkTx {
                bytes,
                wait_ns,
                dur_ns,
                replayed,
            } => vec![
                ("bytes", *bytes),
                ("wait_ns", *wait_ns),
                ("dur_ns", *dur_ns),
                ("replayed", *replayed as u64),
            ],
            QueueFull { occupied, waiting } => {
                vec![("occupied", *occupied as u64), ("waiting", *waiting as u64)]
            }
            DetectorSample {
                bus_util_milli,
                latency_ns,
                hot,
            } => vec![
                ("bus_util_milli", *bus_util_milli as u64),
                ("latency_ns", *latency_ns),
                ("hot", *hot as u64),
            ],
            LaggardDetected | Escalation => Vec::new(),
            MigrationBegin { dst_cluster, pages } => vec![
                ("dst_cluster", *dst_cluster as u64),
                ("pages", *pages as u64),
            ],
            ReshapeBegin { target_fimm, pages } => vec![
                ("target_fimm", *target_fimm as u64),
                ("pages", *pages as u64),
            ],
            RelocCommit { lpn } | RelocRollback { lpn } | MapMiss { lpn } => {
                vec![("lpn", *lpn)]
            }
            WriteRedirect { target_fimm } => vec![("target_fimm", *target_fimm as u64)],
            FaultInjected { .. } => Vec::new(),
            GcRun { valid_pages } => vec![("valid_pages", *valid_pages as u64)],
            PowerLoss {
                lost_requests,
                requeued,
            } => vec![("lost_requests", *lost_requests), ("requeued", *requeued)],
            JournalCheckpoint { records } => vec![("records", *records)],
            JournalReplay { replayed, dropped } => {
                vec![("replayed", *replayed), ("dropped", *dropped)]
            }
            RebuildStart { pages } => vec![("pages", *pages)],
            RebuildDone { pages, dur_ns } => {
                vec![("pages", *pages), ("dur_ns", *dur_ns)]
            }
            FederationHop { req, array, copy } => vec![
                ("req", *req as u64),
                ("array", *array as u64),
                ("copy", *copy as u64),
            ],
            FederationLaggard {
                array,
                p99_ns,
                budget_ns,
            } => vec![
                ("array", *array as u64),
                ("p99_ns", *p99_ns),
                ("budget_ns", *budget_ns),
            ],
            FederationMigrationBegin {
                chunk,
                from_array,
                to_array,
                pages,
            } => vec![
                ("chunk", *chunk),
                ("from_array", *from_array as u64),
                ("to_array", *to_array as u64),
                ("pages", *pages),
            ],
            FederationMigrationCommit {
                chunk,
                from_array,
                to_array,
            }
            | FederationMigrationAbort {
                chunk,
                from_array,
                to_array,
            } => vec![
                ("chunk", *chunk),
                ("from_array", *from_array as u64),
                ("to_array", *to_array as u64),
            ],
            FederationRetry { req, array } => {
                vec![("req", *req as u64), ("array", *array as u64)]
            }
        }
    }
}

/// The ring-buffer recorder behind a traced run.
#[derive(Debug)]
pub struct Recorder {
    cfg: TraceConfig,
    ring: Vec<TraceEvent>,
    /// Next overwrite position once the ring is full.
    head: usize,
    seq: u64,
    dropped: u64,
    now: Nanos,
}

impl Recorder {
    /// Creates an empty recorder.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.capacity == 0`.
    pub fn new(cfg: TraceConfig) -> Self {
        assert!(cfg.capacity > 0, "trace ring capacity must be positive");
        Recorder {
            cfg,
            ring: Vec::new(),
            head: 0,
            seq: 0,
            dropped: 0,
            now: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Advances the recorder's clock; events emitted without an explicit
    /// timestamp are stamped with this instant. The engine calls this at
    /// the top of every event-loop iteration, so an event it records
    /// without passing a time carries the instant its handler runs at.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now.as_nanos();
    }

    /// The recorder clock, ns.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Records an event at the recorder clock.
    pub fn emit(&mut self, scope: TraceScope, kind: TraceEventKind) {
        self.emit_at_nanos(self.now, scope, kind);
    }

    /// Records an event at an explicit instant.
    pub fn emit_at(&mut self, at: SimTime, scope: TraceScope, kind: TraceEventKind) {
        self.emit_at_nanos(at.as_nanos(), scope, kind);
    }

    fn emit_at_nanos(&mut self, at: Nanos, scope: TraceScope, kind: TraceEventKind) {
        let ev = TraceEvent {
            at,
            seq: self.seq,
            scope,
            kind,
        };
        self.seq += 1;
        if self.ring.len() < self.cfg.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.cfg.capacity;
            self.dropped += 1;
        }
    }

    /// Events accepted over the whole run (including dropped ones).
    pub fn total(&self) -> u64 {
        self.seq
    }

    /// Events overwritten by ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first; consumes the recorder, so the
    /// ring is moved out rather than copied.
    pub fn into_events(mut self) -> Vec<TraceEvent> {
        self.ring.rotate_left(self.head);
        self.ring
    }
}

/// One registered instrument snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// A monotonic count.
    Counter(u64),
    /// A point-in-time value (utilizations, ratios).
    Gauge(f64),
    /// A latency/duration distribution summary.
    Summary {
        /// Recorded values.
        count: u64,
        /// Arithmetic mean, ns.
        mean_ns: f64,
        /// Median (upper bound within bucket resolution), ns.
        p50_ns: u64,
        /// 99th percentile (upper bound), ns.
        p99_ns: u64,
        /// Largest recorded value, ns.
        max_ns: u64,
    },
    /// A sampled time series `(t_ns, value)`.
    Series(Vec<(Nanos, f64)>),
}

/// Per-component instruments registered under stable hierarchical names
/// (`cluster.2.fimm.1.queue_depth`), kept in name order so the export
/// never depends on harvest order. Setting an instrument twice
/// overwrites the previous value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricRegistry(BTreeMap<String, Metric>);

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    fn set(&mut self, name: impl AsRef<str>, m: Metric) {
        self.0.insert(name.as_ref().to_string(), m);
    }

    /// Registers a counter by name.
    pub fn counter(&mut self, name: impl AsRef<str>, v: u64) {
        self.set(name, Metric::Counter(v));
    }

    /// Registers a gauge by name.
    pub fn gauge(&mut self, name: impl AsRef<str>, v: f64) {
        self.set(name, Metric::Gauge(v));
    }

    /// Registers a histogram's summary by name.
    pub fn histogram(&mut self, name: impl AsRef<str>, h: &Histogram) {
        self.set(
            name,
            Metric::Summary {
                count: h.count(),
                mean_ns: h.mean(),
                p50_ns: h.percentile(0.5),
                p99_ns: h.percentile(0.99),
                max_ns: h.max(),
            },
        );
    }

    /// Registers a time series by name, thinned to at most `max_points`
    /// samples.
    pub fn series(&mut self, name: impl AsRef<str>, s: &TimeSeries, max_points: usize) {
        let pts = s
            .thin(max_points)
            .into_iter()
            .map(|(t, v)| (t.as_nanos(), v))
            .collect();
        self.set(name, Metric::Series(pts));
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when no instrument is registered.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The instruments in name order.
    pub fn sorted(&self) -> Vec<(&str, &Metric)> {
        self.0.iter().map(|(n, m)| (n.as_str(), m)).collect()
    }

    /// Looks up one instrument by exact name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.get(name)
    }
}

/// The harvested observability output of one traced run.
#[derive(Clone, Debug)]
pub struct RunTrace {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Events accepted over the whole run.
    pub total: u64,
    /// Instrument snapshots under hierarchical names.
    pub metrics: MetricRegistry,
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Chrome `trace_event` µs timestamp from integer nanoseconds — integer
/// formatting only, so the bytes are platform-invariant.
fn chrome_us(ns: Nanos) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl RunTrace {
    /// Builds the harvest from a run's recorder and a filled registry.
    pub fn from_recorder(rec: Recorder, metrics: MetricRegistry) -> Self {
        RunTrace {
            dropped: rec.dropped(),
            total: rec.total(),
            events: rec.into_events(),
            metrics,
        }
    }

    /// Event counts per kind name, sorted by name.
    pub fn counts_by_kind(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for ev in &self.events {
            let name = ev.kind.name();
            match counts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => counts.push((name, 1)),
            }
        }
        counts.sort_by(|a, b| a.0.cmp(b.0));
        counts
    }

    /// Byte-stable structured JSON: totals, per-kind counts, the sorted
    /// metric registry, and the full retained event list.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"total\": {},\n", self.total));
        out.push_str(&format!("  \"dropped\": {},\n", self.dropped));
        out.push_str("  \"counts\": {");
        let counts = self.counts_by_kind();
        for (i, (name, c)) in counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {c}"));
        }
        if !counts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"metrics\": {");
        let metrics = self.metrics.sorted();
        for (i, (name, m)) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": ", json_escape(name)));
            match m {
                Metric::Counter(v) => out.push_str(&v.to_string()),
                Metric::Gauge(v) => out.push_str(&format!("{v:.6}")),
                Metric::Summary {
                    count,
                    mean_ns,
                    p50_ns,
                    p99_ns,
                    max_ns,
                } => out.push_str(&format!(
                    "{{\"count\": {count}, \"mean_ns\": {mean_ns:.3}, \"p50_ns\": {p50_ns}, \
                     \"p99_ns\": {p99_ns}, \"max_ns\": {max_ns}}}"
                )),
                Metric::Series(pts) => {
                    out.push('[');
                    for (j, (t, v)) in pts.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!("[{t}, {v:.3}]"));
                    }
                    out.push(']');
                }
            }
        }
        if !metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"events\": [");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"seq\": {}, \"at_ns\": {}, \"cluster\": {}, \"fimm\": {}, \
                 \"kind\": \"{}\"",
                ev.seq,
                ev.at,
                ev.scope.cluster as i32,
                ev.scope.fimm as i32,
                ev.kind.name()
            ));
            for (k, v) in ev.kind.args() {
                out.push_str(&format!(", \"{k}\": {v}"));
            }
            out.push('}');
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Chrome `trace_event` JSON, loadable in `about:tracing` / Perfetto.
    ///
    /// Interval events (`bus_acquire`, `flash_start`, `link_tx`,
    /// `complete`) render as `ph:"X"` duration slices; everything else as
    /// `ph:"i"` instants. Lanes (`pid`/`tid`) encode the emitting scope:
    /// one process per cluster (the array itself is pid 0), one thread
    /// per FIMM.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let pid = if ev.scope.cluster == u32::MAX {
                0
            } else {
                ev.scope.cluster as u64 + 1
            };
            let tid = if ev.scope.fimm == u32::MAX {
                0
            } else {
                ev.scope.fimm as u64 + 1
            };
            let cat = format!("{:?}", ev.kind.category()).to_lowercase();
            let mut args = format!("\"seq\": {}", ev.seq);
            for (k, v) in ev.kind.args() {
                args.push_str(&format!(", \"{k}\": {v}"));
            }
            match ev.kind.duration_ns() {
                Some(dur) => out.push_str(&format!(
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \
                     \"dur\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{{}}}}}",
                    ev.kind.name(),
                    cat,
                    chrome_us(ev.at),
                    chrome_us(dur),
                    pid,
                    tid,
                    args
                )),
                None => out.push_str(&format!(
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{{}}}}}",
                    ev.kind.name(),
                    cat,
                    chrome_us(ev.at),
                    pid,
                    tid,
                    args
                )),
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// A terminal-friendly timeline: one line per event, `| `-indented by
    /// cluster, capped at `max_rows` rows (the Perfetto-equivalent
    /// rendering EXPERIMENTS.md shows).
    pub fn render_text(&self, max_rows: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} events retained ({} total, {} dropped)\n",
            self.events.len(),
            self.total,
            self.dropped
        ));
        for ev in self.events.iter().take(max_rows) {
            let lane = if ev.scope.cluster == u32::MAX {
                "array ".to_string()
            } else if ev.scope.fimm == u32::MAX {
                format!("c{:02}   ", ev.scope.cluster)
            } else {
                format!("c{:02}.f{}", ev.scope.cluster, ev.scope.fimm)
            };
            let args = ev
                .kind
                .args()
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "{:>12} ns  {}  {:<16} {}\n",
                ev.at,
                lane,
                ev.kind.name(),
                args
            ));
        }
        if self.events.len() > max_rows {
            out.push_str(&format!("… {} more events\n", self.events.len() - max_rows));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(lpn: u64) -> TraceEventKind {
        TraceEventKind::MapMiss { lpn }
    }

    #[test]
    fn ring_buffer_wraps_and_keeps_newest() {
        let mut r = Recorder::new(TraceConfig::all().with_capacity(4));
        for i in 0..10u64 {
            r.set_now(SimTime::from_nanos(i));
            r.emit(TraceScope::array(), ev(i));
        }
        assert_eq!(r.total(), 10);
        assert_eq!(r.dropped(), 6);
        let events = r.into_events();
        assert_eq!(events.len(), 4);
        let lpns: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                TraceEventKind::MapMiss { lpn } => lpn,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(lpns, vec![6, 7, 8, 9], "oldest events evicted first");
    }

    #[test]
    fn events_keep_emission_order_and_seq() {
        let mut r = Recorder::new(TraceConfig::all());
        r.set_now(SimTime::from_nanos(50));
        r.emit(TraceScope::array(), ev(1));
        // An explicitly *earlier* stamp still sequences after: seq is
        // emission order, `at` is payload.
        r.emit_at(SimTime::from_nanos(10), TraceScope::fimm(3, 1), ev(2));
        let events = r.into_events();
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].at, 50);
        assert_eq!(events[1].at, 10);
        assert_eq!(events[1].scope, TraceScope::fimm(3, 1));
    }

    #[test]
    fn chrome_trace_is_wellformed_and_stable() {
        let mut rec = Recorder::new(TraceConfig::all());
        let scope = TraceScope::cluster(2);
        rec.emit_at(
            SimTime::from_nanos(1_234),
            scope,
            TraceEventKind::BusAcquire {
                wait_ns: 7,
                dur_ns: 2_660,
                bytes: 4_096,
            },
        );
        rec.emit_at(
            SimTime::from_nanos(2_000),
            scope,
            TraceEventKind::LaggardDetected,
        );
        let trace = RunTrace::from_recorder(rec, MetricRegistry::new());
        let a = trace.chrome_trace();
        let b = trace.chrome_trace();
        assert_eq!(a, b);
        assert!(a.contains("\"ts\": 1.234"), "{a}");
        assert!(a.contains("\"ph\": \"X\""));
        assert!(a.contains("\"ph\": \"i\""));
        assert!(a.contains("\"traceEvents\""));
    }

    #[test]
    fn registry_sorts_by_name_and_looks_up() {
        let mut m = MetricRegistry::new();
        m.counter("z.count", 3);
        m.gauge("a.util", 0.5);
        let names: Vec<&str> = m.sorted().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["a.util", "z.count"]);
        assert_eq!(m.get("z.count"), Some(&Metric::Counter(3)));
        assert_eq!(m.get("missing"), None);
        m.counter("z.count", 4);
        assert_eq!(m.len(), 2, "a second set overwrites the first");
        assert_eq!(m.get("z.count"), Some(&Metric::Counter(4)));
    }

    #[test]
    fn run_trace_json_counts_kinds() {
        let mut rec = Recorder::new(TraceConfig::all());
        rec.emit(TraceScope::array(), ev(1));
        rec.emit(TraceScope::array(), ev(2));
        rec.emit(TraceScope::array(), TraceEventKind::Escalation);
        let trace = RunTrace::from_recorder(rec, MetricRegistry::new());
        assert_eq!(
            trace.counts_by_kind(),
            vec![("escalation", 1), ("map_miss", 2)]
        );
        let json = trace.to_json();
        assert!(json.contains("\"map_miss\": 2"), "{json}");
        assert!(json.ends_with("}\n"));
    }
}
