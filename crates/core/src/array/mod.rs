//! The all-flash array simulator: request pipeline + autonomic manager.
//!
//! A request travels `host → RC queue → switch → endpoint → ONFi bus →
//! FIMM → bus → endpoint → switch → RC → host`, contending at every
//! shared resource. The autonomic manager observes completions and
//! queue pressure, detects hot clusters (Eq. 1) and laggards (Eq. 3 /
//! queue examination), and reshapes the physical data layout in the
//! background (data migration with shadow cloning, intra-cluster
//! reshaping, write redirection).
//!
//! Each layer of the device stack has its own file, which owns that
//! layer's state and the handlers for its `Ev` variants;
//! `Engine::handle` only dispatches.

use std::collections::VecDeque;

use triplea_fimm::{Fimm, FimmAddr};
use triplea_ftl::{hal, Ftl, IntegrityError, JournalConfig, PhysLoc};
use triplea_pcie::{CreditQueue, Switch};
use triplea_sim::stats::{Histogram, TimeSeries};
use triplea_sim::trace::{
    RunTrace, SharedRecorder, TraceConfig, TraceEventKind, TracePort, TraceScope,
};
use triplea_sim::{EventQueue, SimTime};

use crate::autonomic::AutonomicState;
use crate::cluster::ClusterState;
use crate::config::{ArrayConfig, ManagementMode};
use crate::metrics::{FaultStats, RecoveryStats, RunReport};
use crate::request::{Breakdown, RequestState, RequestTable, Trace, TraceRequest};

mod builder;
mod fabric;
mod front;
mod management;
mod recovery;
mod report;
mod storage;
#[cfg(test)]
mod tests;

pub use builder::ArrayBuilder;
use front::FrontDoor;
use management::Reloc;
use recovery::Rebuild;

/// Weyl constant used to derive per-component fault RNG streams from
/// the one master seed.
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Clone, Debug)]
enum Ev {
    RcGranted(u32),
    SwAdmit(u32),
    SwGranted(u32),
    ArriveSw(u32),
    EpAdmit(u32),
    EpGranted(u32),
    ArriveEp(u32),
    EpService(u32),
    PartFlashDone {
        req: u32,
        fimm: u32,
        pages: u32,
    },
    PartDataDone(u32),
    EpFree(u32),
    /// One buffered write page is durable.
    WriteProgrammed {
        cluster: u32,
        fimm: u32,
        /// Cluster whose write buffer admitted the request. Pages may be
        /// allocated on a different cluster than the one that buffered
        /// them (e.g. a multi-page run straddling a migrated boundary),
        /// but the buffer credit must be returned where it was taken.
        buf_cluster: u32,
    },
    RespAtSw(u32),
    RespAtRc(u32),
    Complete(u32),
    MigArrive(u32),
    /// Page `idx` of `relocs[reloc]` is programmed at its new home.
    MigPageDone {
        reloc: u32,
        idx: u32,
    },
    /// The configured power cut fires: volatile state is lost, the FTL
    /// journal is replayed, and the array remounts.
    PowerLoss,
    /// One unit of hot-spare rebuild work for `rebuilds[i]`.
    RebuildStep(u32),
}

// A calendar entry is `(time, seq, Ev)`: a 16-byte `Ev` keeps it at 32
// bytes, and every request pushes and pops ≈15 of them.
const _: () = assert!(size_of::<Ev>() <= 16);

/// Buffers the request path reuses instead of allocating per request
/// (DESIGN.md, "Per-request allocation").
#[derive(Default)]
struct Scratch {
    /// Emptied `RequestState::locs` buffers, returned at completion and
    /// refilled when the next request is routed.
    locs: Vec<Vec<PhysLoc>>,
    /// One FIMM's pages of the read being issued.
    pages: Vec<FimmAddr>,
    /// The HAL's commands for `pages`.
    cmds: hal::Composed,
    /// Stalled endpoint waiters per FIMM, for queue examination; one
    /// slot per FIMM of a cluster.
    per_fimm: Vec<u32>,
}

/// How a [`ArrayRunner::submit`]ted request finished, as reported by
/// [`ArrayRunner::finished`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Finished {
    /// Completed at this instant.
    Done(SimTime),
    /// In flight at a power cut; it will never complete.
    Lost,
}

/// The event loop's position in the arrivals it was handed: the trace
/// on a one-shot run, the pending submissions on a stepped one.
/// [`Engine::drain`] merges the arrival at `next` with the calendar.
#[derive(Default)]
struct Cursor {
    /// Index of the next arrival.
    next: usize,
    /// How many arrivals the loop was handed.
    len: usize,
    /// No arrival is delivered before this instant: the end of the
    /// power cut's remount window.
    not_before: SimTime,
    /// The latest submission instant accepted; arrivals come in time
    /// order.
    latest: SimTime,
}

impl Cursor {
    /// When the next arrival is due, if any is left.
    #[inline]
    fn due(&self, trace: &[TraceRequest]) -> Option<SimTime> {
        trace.get(self.next).map(|r| r.at.max(self.not_before))
    }

    /// Arrivals not yet delivered.
    fn remaining(&self) -> usize {
        self.len - self.next
    }
}

struct Engine {
    cfg: ArrayConfig,
    mode: ManagementMode,
    ftl: Ftl,
    /// The root complex's front-end credit queue (paper §2.1: 650–1000
    /// entries).
    rc_queue: CreditQueue,
    switches: Vec<Switch>,
    clusters: Vec<ClusterState>,
    auto: AutonomicState,
    /// The multi-tenant front door; `Some` exactly when the config
    /// names tenants. `None` bypasses arbitration entirely.
    front: Option<FrontDoor>,
    /// Requests between arrival and completion or loss; a slot is reused
    /// once its request is finished.
    reqs: RequestTable,
    /// `(submission id, how it finished)` for the current step, in the
    /// order the requests finished; see [`ArrayRunner::finished`].
    finished: Vec<(u32, Finished)>,
    /// Whether `finished` is filled: set by the first
    /// [`ArrayRunner::submit`]. A one-shot run has no caller to read it.
    stream: bool,
    cursor: Cursor,
    relocs: Vec<Reloc>,
    queue: EventQueue<Ev>,
    // metrics; each latency histogram's count is its completion count
    first_submit: SimTime,
    last_complete: SimTime,
    lat: Histogram,
    rlat: Histogram,
    wlat: Histogram,
    bd_sum: Breakdown,
    /// Queue-stall time attributed to link congestion (see
    /// `RunReport::avg_link_contention_us`).
    attr_link: u64,
    /// Queue-stall time attributed to storage congestion.
    attr_storage: u64,
    series: TimeSeries,
    events: u64,
    dropped_writes: u64,
    /// Engine-side degraded-mode counters; package/link-level fault
    /// counts are folded in by [`Engine::into_report`].
    faults: FaultStats,
    /// Power-loss and rebuild accounting for the report.
    recovery: RecoveryStats,
    /// Hot-spare rebuilds, one per consumed spare.
    rebuilds: Vec<Rebuild>,
    /// Completion latencies recorded inside any rebuild's degraded
    /// window (module death → spare in service).
    degraded_lat: Histogram,
    /// Modules replaced by a spare; kept so their wear and fault history
    /// still roll up into the final report.
    retired_fimms: Vec<Fimm>,
    /// The recorder every traced component feeds and the end-of-run
    /// harvest reads; `None` keeps the run byte-identical to untraced
    /// builds.
    recorder: Option<SharedRecorder>,
    scratch: Scratch,
}

/// The outcome of [`Array::run_verified`]: the performance report, the
/// harvested trace (when a recorder was attached via
/// [`ArrayBuilder::with_recorder`]), and the post-run FTL metadata audit.
#[derive(Clone, Debug)]
pub struct VerifiedRun {
    /// The run's performance report, identical to [`Array::run`]'s.
    pub report: RunReport,
    /// The harvested event trace and metric registry; `None` when the
    /// array ran without a recorder.
    pub trace: Option<RunTrace>,
    /// The end-to-end FTL metadata integrity audit: every live logical
    /// page maps to exactly one live physical page and vice versa, even
    /// when faults aborted migrations mid-copy.
    pub integrity: Result<(), IntegrityError>,
}

/// The Triple-A all-flash array (or its non-autonomic baseline).
///
/// Assemble one with [`Array::builder`], which validates the
/// configuration (rejecting it with a typed [`ConfigError`](crate::ConfigError)
/// rather than a mid-run panic) and optionally attaches an event
/// recorder. Then [`Array::run`] a [`Trace`] through it for a
/// [`RunReport`], or [`Array::run_verified`] for the report, the
/// harvested trace and the FTL integrity audit. Runs are deterministic:
/// the same config, mode, and trace always produce identical reports.
///
/// # Example
///
/// ```
/// use triplea_core::{Array, IoOp, ManagementMode, Trace, TraceRequest};
/// use triplea_ftl::LogicalPage;
/// use triplea_sim::trace::TraceConfig;
/// use triplea_sim::SimTime;
///
/// let array = Array::builder()
///     .small_test()
///     .mode(ManagementMode::Autonomic)
///     .with_recorder(TraceConfig::all())
///     .build()
///     .expect("valid configuration");
/// let trace = Trace::new(vec![TraceRequest::new(SimTime::ZERO, IoOp::Read, LogicalPage(0), 1)]);
/// let run = array.run_verified(&trace);
/// assert_eq!(run.report.completed(), 1);
/// assert!(run.integrity.is_ok());
/// let events = &run.trace.expect("recorder attached").events;
/// assert!(!events.is_empty());
/// ```
pub struct Array {
    e: Engine,
}

impl std::fmt::Debug for Array {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Array")
            .field("mode", &self.e.mode)
            .field("clusters", &self.e.clusters.len())
            .finish()
    }
}

impl Array {
    /// Starts a builder seeded with the paper-baseline configuration in
    /// [`ManagementMode::Autonomic`] and no recorder.
    pub fn builder() -> ArrayBuilder {
        ArrayBuilder::new()
    }

    /// Builds an idle array from a configuration, without validating
    /// it; [`Array::builder`] validates.
    ///
    /// A configured [`FimmFaultEvent`](crate::FimmFaultEvent) that
    /// addresses a cluster or FIMM outside the array is ignored — the
    /// [`ArrayConfigBuilder`](crate::ArrayConfigBuilder) is the
    /// validation gate; a hand-assembled [`FaultConfig`](crate::FaultConfig)
    /// must not crash the simulator.
    pub fn new(cfg: ArrayConfig, mode: ManagementMode) -> Self {
        let topo = cfg.shape.topology;
        let mut clusters: Vec<ClusterState> = topo
            .iter_clusters()
            .map(|id| ClusterState::new(&cfg, id))
            .collect();
        let mut switches: Vec<Switch> = (0..topo.switches)
            .map(|_| Switch::new(&cfg.pcie, topo.clusters_per_switch))
            .collect();
        Self::arm_faults(&cfg, &mut clusters, &mut switches);
        let mut ftl = if cfg.mapping_cache_pages > 0 {
            Ftl::with_mapping_cache(cfg.shape, cfg.mapping_cache_pages)
        } else {
            Ftl::new(cfg.shape)
        };
        ftl.set_gc_policy(cfg.gc_policy);
        if let Some(pl) = cfg.faults.power_loss {
            // Metadata mutations must be journaled from the first write,
            // or the recovery scan would have nothing to replay.
            ftl.enable_journal(JournalConfig {
                flush_every: pl.flush_every,
                checkpoint_every: pl.checkpoint_every,
            });
        }
        let e = Engine {
            ftl,
            rc_queue: CreditQueue::new("rc", cfg.pcie.rc_queue),
            switches,
            clusters,
            auto: AutonomicState::new(cfg.autonomic, cfg.seed),
            front: FrontDoor::new(&cfg),
            reqs: RequestTable::default(),
            finished: Vec::new(),
            stream: false,
            cursor: Cursor::default(),
            relocs: Vec::new(),
            queue: EventQueue::new(),
            first_submit: SimTime::MAX,
            last_complete: SimTime::ZERO,
            lat: Histogram::new(),
            rlat: Histogram::new(),
            wlat: Histogram::new(),
            bd_sum: Breakdown::default(),
            attr_link: 0,
            attr_storage: 0,
            series: TimeSeries::new(),
            events: 0,
            dropped_writes: 0,
            faults: FaultStats::default(),
            recovery: RecoveryStats::default(),
            rebuilds: Vec::new(),
            degraded_lat: Histogram::new(),
            retired_fimms: Vec::new(),
            recorder: None,
            scratch: Scratch {
                per_fimm: vec![0; cfg.shape.fimms_per_cluster as usize],
                ..Scratch::default()
            },
            mode,
            cfg,
        };
        Array { e }
    }

    /// Attaches an event recorder to every component of the array. Each
    /// component's [`TracePort`] is stamped with its hierarchical
    /// position (cluster, FIMM, package), so the harvested
    /// [`RunTrace`] — returned by [`Array::run_verified`] — carries
    /// per-lane Chrome-trace output and `cluster.N.fimm.M.*` metrics.
    pub(crate) fn with_recorder(mut self, cfg: TraceConfig) -> Self {
        let rec = SharedRecorder::new(cfg);
        let e = &mut self.e;
        let port = |scope| TracePort::attached(rec.clone(), scope);
        e.ftl.attach_trace(port(TraceScope::array()));
        e.auto.attach_trace(port(TraceScope::array()));
        e.rc_queue.attach_trace(port(TraceScope::array()));
        let cps = e.cfg.shape.topology.clusters_per_switch;
        for (s, sw) in e.switches.iter_mut().enumerate() {
            let sw_scope = TraceScope::array().unit(s as u32);
            sw.uplink.down.attach_trace(port(sw_scope));
            sw.uplink.up.attach_trace(port(sw_scope));
            for (p, link) in sw.downlinks.iter_mut().enumerate() {
                let scope = TraceScope::cluster(s as u32 * cps + p as u32);
                link.down.attach_trace(port(scope));
                link.up.attach_trace(port(scope));
            }
            for (p, q) in sw.port_queues.iter_mut().enumerate() {
                q.attach_trace(port(TraceScope::cluster(s as u32 * cps + p as u32)));
            }
        }
        for (g, cl) in e.clusters.iter_mut().enumerate() {
            let g = g as u32;
            cl.bus.attach_trace(port(TraceScope::cluster(g)));
            cl.ep_queue.attach_trace(port(TraceScope::cluster(g)));
            for (f, fimm) in cl.fimms.iter_mut().enumerate() {
                fimm.attach_trace(port(TraceScope::fimm(g, f as u32)));
            }
        }
        e.recorder = Some(rec);
        self
    }

    /// Applies the configured fault plan to freshly built hardware. A
    /// quiet plan arms nothing, so fault-free runs stay bit-identical to
    /// builds that predate fault injection.
    fn arm_faults(cfg: &ArrayConfig, clusters: &mut [ClusterState], switches: &mut [Switch]) {
        let fc = &cfg.faults;
        if !fc.flash.is_quiet() {
            for (ci, cl) in clusters.iter_mut().enumerate() {
                for (fi, fimm) in cl.fimms.iter_mut().enumerate() {
                    // Distinct RNG stream per FIMM (and, inside, per
                    // package), all derived from the one master seed.
                    let k = ((ci as u64) << 8) | fi as u64;
                    fimm.set_fault_profile(fc.flash, fc.seed ^ (k + 1).wrapping_mul(GOLDEN));
                }
            }
        }
        if !fc.pcie.is_quiet() {
            let mut k = 0u64;
            for sw in switches.iter_mut() {
                for link in std::iter::once(&mut sw.uplink).chain(sw.downlinks.iter_mut()) {
                    link.down
                        .set_faults(fc.pcie, fc.seed ^ (2 * k + 1).wrapping_mul(GOLDEN));
                    link.up
                        .set_faults(fc.pcie, fc.seed ^ (2 * k + 2).wrapping_mul(GOLDEN));
                    k += 1;
                }
            }
        }
        for ev in fc.fimm_events.iter().flatten() {
            // Events addressing hardware outside the array are skipped,
            // not panicked on: the builder validates user input, and a
            // fault plan is itself a fallible input, not an invariant.
            let Some(cl) = clusters.get_mut(ev.cluster as usize) else {
                continue;
            };
            let Some(fimm) = cl.fimms.get_mut(ev.fimm as usize) else {
                continue;
            };
            fimm.schedule_fault(SimTime::from_nanos(ev.at_ns), ev.kind);
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ArrayConfig {
        &self.e.cfg
    }

    /// The management mode in force.
    pub fn mode(&self) -> ManagementMode {
        self.e.mode
    }

    /// Replays `trace` through the array to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if a trace record has `pages == 0`, addresses a page
    /// outside the array, or (on a tenant-enabled array) names a tenant
    /// outside the configured table.
    pub fn run(self, trace: &Trace) -> RunReport {
        self.run_verified(trace).report
    }

    /// Like [`Array::run`], but additionally performs an end-to-end FTL
    /// metadata integrity check after the run — every relocated page must
    /// map to exactly one live physical page and vice versa, proving that
    /// no page was lost or duplicated even when faults aborted migrations
    /// mid-copy — and harvests the event trace when a recorder was
    /// attached with [`ArrayBuilder::with_recorder`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Array::run`].
    pub fn run_verified(self, trace: &Trace) -> VerifiedRun {
        let mut runner = self.into_runner();
        runner.replay(trace.requests());
        runner.finish()
    }

    /// Converts the idle array into an [`ArrayRunner`]: the same engine,
    /// driven incrementally instead of to completion. The federation
    /// layer uses this to interleave N member arrays inside one
    /// deterministic epoch loop; [`Array::run_verified`] is this runner's
    /// event loop reading its arrivals straight from the trace. The
    /// recovery plan (the power cut and the hot-spare rebuilds) goes on
    /// the calendar here, after any recorder was attached.
    pub fn into_runner(mut self) -> ArrayRunner {
        self.e.arm_recovery();
        ArrayRunner {
            e: Box::new(self.e),
            pending: VecDeque::new(),
            submitted: 0,
        }
    }
}

/// An [`Array`] engine driven incrementally: requests are injected one
/// at a time with [`ArrayRunner::submit`] and simulated time advances in
/// bounded steps with [`ArrayRunner::step_until`], so several arrays can
/// be co-simulated deterministically by one scheduler (see the
/// `federation` module). Submitted requests wait in arrival order until
/// a step reaches them; the event loop then delivers them exactly as
/// [`Array::run_verified`] delivers its trace: an arrival goes before
/// every calendar event at its instant, and none is delivered inside a
/// power cut's remount window.
pub struct ArrayRunner {
    e: Box<Engine>,
    /// Submitted requests not yet delivered, in submission order.
    pending: VecDeque<TraceRequest>,
    /// Requests injected so far; the next submission's id.
    submitted: u32,
}

impl std::fmt::Debug for ArrayRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayRunner")
            .field("mode", &self.e.mode)
            .field("submitted", &self.submitted)
            .field("completed", &self.completed())
            .finish()
    }
}

impl ArrayRunner {
    /// The configuration in force.
    pub fn config(&self) -> &ArrayConfig {
        &self.e.cfg
    }

    /// Injects one request, returning the id under which
    /// [`ArrayRunner::finished`] reports it.
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0`, the address range leaves the array,
    /// (on a tenant-enabled array) the tenant is outside the configured
    /// table, or the submission time is earlier than the previous
    /// submission's. The submission time must not be earlier than any
    /// instant already stepped past.
    pub fn submit(&mut self, r: &TraceRequest) -> u32 {
        let id = self.submitted;
        self.e.accept(id as usize, r);
        self.e.stream = true;
        self.pending.push_back(*r);
        self.submitted += 1;
        id
    }

    /// Checks every request of `trace`, then runs the event loop to the
    /// end with the trace as its arrivals.
    fn replay(&mut self, trace: &[TraceRequest]) {
        for (id, r) in trace.iter().enumerate() {
            self.e.accept(id, r);
        }
        self.e.drain(SimTime::MAX, 0, trace);
    }

    /// Drains every event strictly before `t`, delivering the pending
    /// submissions due before it. Replaces [`ArrayRunner::finished`]
    /// with the requests this step finished.
    pub fn step_until(&mut self, t: SimTime) {
        self.e.finished.clear();
        let first = self.submitted as usize - self.pending.len();
        let delivered = self.e.drain(t, first, self.pending.make_contiguous());
        self.pending.drain(..delivered);
    }

    /// The submissions the last [`ArrayRunner::step_until`] finished, as
    /// `(id, how)` in the order they finished: each completion once, at
    /// its instant, and each request in flight at a power cut as
    /// [`Finished::Lost`] in the step that contains the cut. Every
    /// submission appears exactly once over a run.
    pub fn finished(&self) -> &[(u32, Finished)] {
        &self.e.finished
    }

    /// `true` when every submitted request has arrived and the event
    /// calendar is empty: each has either completed or been lost to a
    /// power cut.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.e.queue.is_empty()
    }

    /// Requests injected so far.
    pub fn submitted(&self) -> u64 {
        self.submitted as u64
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.e.lat.count()
    }

    /// In-flight requests lost to a power cut so far.
    pub fn lost(&self) -> u64 {
        self.e.recovery.lost_inflight_requests
    }

    /// Cumulative 99th-percentile completion latency, ns (0 until the
    /// first completion).
    pub fn p99_ns(&self) -> u64 {
        self.e.lat.percentile(0.99)
    }

    /// Drains every remaining event, audits FTL metadata integrity, and
    /// produces the run outcome.
    pub fn finish(mut self) -> VerifiedRun {
        self.step_until(SimTime::MAX);
        let mut e = self.e;
        if e.first_submit == SimTime::MAX {
            e.first_submit = SimTime::ZERO;
        }
        let integrity = e.ftl.verify_integrity();
        let run_trace = e.harvest_trace();
        VerifiedRun {
            report: e.into_report(),
            trace: run_trace,
            integrity,
        }
    }
}

impl Engine {
    /// The event loop: pops and handles events strictly before `until`,
    /// merging in `arrivals`, whose first is submission `first`. Calendar
    /// events strictly before an arrival's instant go first, then the
    /// arrival, so it wins every tie. Returns how many arrivals it
    /// delivered.
    fn drain(&mut self, until: SimTime, first: usize, arrivals: &[TraceRequest]) -> usize {
        self.cursor.next = 0;
        self.cursor.len = arrivals.len();
        loop {
            let due = self.cursor.due(arrivals);
            let next = self.queue.pop_before(due.map_or(until, |t| t.min(until)));
            let now = match (&next, due) {
                (Some((now, _)), _) => *now,
                (None, Some(t)) if t < until => t,
                (None, _) => break,
            };
            if let Some(rec) = &self.recorder {
                // Timeless components (the FTL, credit queues) emit at
                // the recorder clock; keep it on the event loop's time.
                rec.set_now(now);
            }
            self.events += 1;
            if let Some((_, ev)) = next {
                self.handle(now, ev);
            } else {
                let i = self.cursor.next;
                self.cursor.next += 1;
                let rs = RequestState::new((first + i) as u32, &arrivals[i]);
                let slot = self.reqs.insert(rs);
                self.on_submit(now, slot);
            }
        }
        self.cursor.next
    }

    /// Checks request `id` before it may enter the array.
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0`, the address range leaves the array, (on a
    /// tenant-enabled array) the tenant is outside the configured table,
    /// or `r` arrives before the previous request.
    fn accept(&mut self, id: usize, r: &TraceRequest) {
        let total_pages = self.cfg.shape.total_pages();
        let n_tenants = self.cfg.tenants.len();
        assert!(r.pages >= 1, "request {id} has zero pages");
        assert!(
            r.lpn
                .0
                .checked_add(r.pages as u64)
                .is_some_and(|end| end <= total_pages),
            "request {id} exceeds the address space"
        );
        assert!(
            n_tenants == 0 || r.tenant.index() < n_tenants,
            "request {id} names {} but the config has {n_tenants} tenants",
            r.tenant
        );
        assert!(
            r.at >= self.cursor.latest,
            "request {id} arrives at {} ns, before the previous request",
            r.at.as_nanos()
        );
        self.cursor.latest = r.at;
        self.first_submit = self.first_submit.min(r.at);
    }

    /// Frees request slot `r` once its request has completed or been
    /// lost, recycling its pinned-location buffer.
    fn free_slot(&mut self, r: u32) {
        let mut locs = self.reqs.release(r);
        locs.clear();
        self.scratch.locs.push(locs);
    }

    fn page_bytes(&self) -> u64 {
        self.cfg.shape.flash.page_size as u64
    }

    fn cluster_global(&self, id: triplea_pcie::ClusterId) -> u32 {
        self.cfg.shape.topology.global_index(id)
    }

    /// Samples one FIMM's read backlog into its queue-depth series.
    /// Only records while a recorder is attached, so untraced runs
    /// allocate nothing.
    fn sample_qdepth(&mut self, now: SimTime, c: usize, fimm: usize) {
        if self.recorder.is_some() {
            let v = self.clusters[c].pending_read_pages[fimm] as f64;
            self.clusters[c].qdepth[fimm].push(now, v);
        }
    }

    /// Records an engine-level event under `scope`. `f` builds the
    /// payload and only runs when a recorder is attached.
    #[inline]
    fn emit(&self, scope: TraceScope, f: impl FnOnce() -> TraceEventKind) {
        if let Some(rec) = &self.recorder {
            rec.emit(scope, f());
        }
    }

    /// Routes one event to the layer that owns it.
    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            // front.rs: the host side
            Ev::Complete(r) => self.on_complete(now, r),
            // fabric.rs: root complex, switch and endpoint hops
            Ev::RcGranted(r) => self.on_rc_granted(now, r),
            Ev::SwAdmit(r) => self.on_sw_admit(now, r),
            Ev::SwGranted(r) => self.on_sw_granted(now, r),
            Ev::ArriveSw(r) => self.on_arrive_sw(now, r),
            Ev::EpAdmit(r) => self.on_ep_admit(now, r),
            Ev::EpGranted(r) => self.on_ep_granted(now, r),
            Ev::ArriveEp(r) => self.on_arrive_ep(now, r),
            Ev::EpFree(c) => self.on_ep_free(now, c),
            Ev::RespAtSw(r) => self.on_resp_at_sw(now, r),
            Ev::RespAtRc(r) => self.on_resp_at_rc(now, r),
            // storage.rs: ONFi bus, FIMMs, write buffer
            Ev::EpService(r) => self.on_ep_service(now, r),
            Ev::PartFlashDone { req, fimm, pages } => {
                self.on_part_flash_done(now, req, fimm, pages)
            }
            Ev::PartDataDone(r) => self.on_part_data_done(now, r),
            Ev::WriteProgrammed {
                cluster,
                fimm,
                buf_cluster,
            } => self.on_write_programmed(now, cluster, fimm, buf_cluster),
            // management.rs: migration
            Ev::MigArrive(m) => self.on_mig_arrive(now, m),
            Ev::MigPageDone { reloc, idx } => self.on_mig_page_done(now, reloc, idx),
            // recovery.rs: power loss and rebuild
            Ev::PowerLoss => self.on_power_loss(now),
            Ev::RebuildStep(i) => self.on_rebuild_step(now, i),
        }
    }
}
