//! The all-flash array simulator: request pipeline + autonomic manager.
//!
//! A request travels `host → RC queue → switch → endpoint → ONFi bus →
//! FIMM → bus → endpoint → switch → RC → host`, contending at every
//! shared resource. The autonomic manager observes completions and
//! queue pressure, detects hot clusters (Eq. 1) and laggards (Eq. 3 /
//! queue examination), and reshapes the physical data layout in the
//! background (data migration with shadow cloning, intra-cluster
//! reshaping, write redirection).

use triplea_fimm::{Fimm, FimmFaultKind};
use triplea_flash::{FlashCommand, FlashError, OpKind, OpTiming, PageAddr, WearReport};
use triplea_ftl::{hal, Ftl, FtlError, IntegrityError, JournalConfig, LogicalPage, RebuildUnit};
use triplea_pcie::{Admission, ClusterId, RootComplex, Switch};
use triplea_sim::stats::{Histogram, TimeSeries};
use triplea_sim::trace::{
    MetricRegistry, RunTrace, SharedRecorder, TraceConfig, TraceEventKind, TracePort, TraceScope,
};
use triplea_sim::{EventQueue, Nanos, SimTime};

use crate::autonomic::AutonomicState;
use crate::cluster::ClusterState;
use crate::config::{
    ArrayConfig, ManagementMode, PowerLossEvent, ESCALATION_COOLDOWN_NS, LAGGARD_COOLDOWN_NS,
    LAGGARD_IMBALANCE, MAX_INFLIGHT_RELOC_PAGES, REMOUNT_BASE_NS, REPLAY_NS_PER_RECORD, SLA_NS,
};
use crate::metrics::{FaultStats, RecoveryStats, RunReport};
use crate::request::{Breakdown, IoOp, RequestState, Stage, Trace};
use crate::tenant::{TenantId, TenantStats, WeightedArbiter};

/// Wire overhead of one transaction-layer packet, charged once per page
/// moved and once per header-only read request or write acknowledgement.
/// PCI-E 3.0 framing: 2 B start + 2 B sequence + 12 B TLP header + 4 B
/// LCRC + 4 B end = 24 B (paper §3.4: the endpoint's device layers strip
/// exactly these header/sequence/CRC fields).
const TLP_OVERHEAD: u64 = 24;

/// Weyl constant used to derive per-component fault RNG streams from
/// the one master seed.
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Transient-read retries before falling back to a fault-immune recovery
/// read. Every failed attempt burns the die slot it reserved, so each
/// retry queues behind the last — the accumulated ECC re-read penalty.
const READ_RETRY_LIMIT: u32 = 8;

/// Redirection attempts for a write whose program hard-fails before the
/// page is dropped as unwritable.
const WRITE_REDIRECT_LIMIT: u32 = 4;

/// Delay between a module death and the first hot-spare rebuild copy:
/// fault detection plus spare spin-up.
const REBUILD_DETECT_NS: Nanos = 100_000;

/// Pacing gap between rebuild units when the cluster is otherwise idle.
const REBUILD_GAP_NS: Nanos = 20_000;

/// Cap on the rebuild throttle's foreground-pressure multiplier.
const REBUILD_THROTTLE_MAX: u64 = 16;

#[derive(Clone, Debug)]
enum Ev {
    Submit(u32),
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
    WriteProgrammed {
        cluster: u32,
        fimm: u32,
        pages: u32,
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
    MigPageDone {
        reloc: u32,
        idx: u32,
        cluster: u32,
        fimm: u32,
    },
    /// The configured power cut fires: volatile state is lost, the FTL
    /// journal is replayed, and the array remounts.
    PowerLoss,
    /// One unit of hot-spare rebuild work for `rebuilds[i]`.
    RebuildStep(u32),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RelocKind {
    Migration,
    Reshape,
}

#[derive(Clone, Copy, Debug)]
struct RelocPage {
    lpn: u64,
    /// Where the data lived when the relocation was decided.
    old: triplea_ftl::PhysLoc,
    /// Destination of the clone, once allocated.
    new: Option<triplea_ftl::PhysLoc>,
}

#[derive(Clone, Debug)]
struct Reloc {
    pages: Vec<RelocPage>,
    kind: RelocKind,
    remaining: u32,
}

/// A hot-spare rebuild in flight: one dead FIMM being reconstructed,
/// block by block, onto a standby module that replaces it on completion.
#[derive(Clone, Debug)]
struct Rebuild {
    cluster: u32,
    fimm: u32,
    /// The instant the module died — start of the degraded window.
    died: SimTime,
    /// Restoration manifest; computed lazily at the first step so it
    /// reflects the FTL metadata at detection time.
    plan: Vec<RebuildUnit>,
    planned: bool,
    /// Next manifest unit to restore.
    cursor: usize,
    /// Live pages reconstruction-read from siblings so far.
    copied: u64,
    /// The standby module being programmed; consumed by the final swap.
    spare: Option<Fimm>,
    done: bool,
}

/// One tenant's completion-side accumulators.
#[derive(Clone, Debug)]
struct TenantAccum {
    lat: Histogram,
    rlat: Histogram,
    wlat: Histogram,
    completed: u64,
    reads: u64,
    writes: u64,
    /// Completions whose end-to-end latency exceeded the tenant's
    /// `sla_p99_ns` target.
    violations: u64,
}

impl TenantAccum {
    fn new() -> Self {
        TenantAccum {
            lat: Histogram::new(),
            rlat: Histogram::new(),
            wlat: Histogram::new(),
            completed: 0,
            reads: 0,
            writes: 0,
            violations: 0,
        }
    }
}

/// The multi-tenant front door: NVMe-style per-tenant submission lanes
/// feeding the root-complex credit queue through weighted-fair
/// arbitration with per-tenant admission control. Built exactly when
/// the config names at least one tenant; `None` leaves the legacy
/// anonymous path byte-identical to builds without the tenant model.
#[derive(Clone, Debug)]
struct FrontDoor {
    arbiter: WeightedArbiter,
    lanes: Vec<TenantAccum>,
}

impl FrontDoor {
    fn new(cfg: &ArrayConfig) -> Option<Self> {
        if !cfg.tenants.is_active() {
            return None;
        }
        Some(FrontDoor {
            arbiter: WeightedArbiter::new(cfg.tenants.specs()),
            lanes: cfg.tenants.specs().iter().map(|_| TenantAccum::new()).collect(),
        })
    }
}

struct Engine {
    cfg: ArrayConfig,
    mode: ManagementMode,
    ftl: Ftl,
    rc: RootComplex,
    switches: Vec<Switch>,
    clusters: Vec<ClusterState>,
    auto: AutonomicState,
    /// The multi-tenant front door; `Some` exactly when the config
    /// names tenants. `None` bypasses arbitration entirely.
    front: Option<FrontDoor>,
    reqs: Vec<RequestState>,
    relocs: Vec<Reloc>,
    /// Destination cluster (global index) of each in-flight migration.
    mig_dst: Vec<(u32, u32)>,
    queue: EventQueue<Ev>,
    // metrics
    completed: u64,
    reads_done: u64,
    writes_done: u64,
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
    foreign_pages: u64,
    dropped_writes: u64,
    /// Engine-side degraded-mode counters; package/link-level fault
    /// counts are folded in by [`Engine::into_report`].
    faults: FaultStats,
    /// Power-loss and rebuild accounting for the report.
    recovery: RecoveryStats,
    /// The pending power cut; taken when it fires (at most one per run).
    power_loss: Option<PowerLossEvent>,
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
}

/// The outcome of [`Array::run_verified`]: the performance report, the
/// harvested trace (when a recorder was attached via
/// [`Array::with_recorder`]), and the post-run FTL metadata audit.
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
/// Construct with [`Array::new`], then [`Array::run`] a [`Trace`] through
/// it to obtain a [`RunReport`]. Runs are deterministic: the same config,
/// mode, and trace always produce identical reports.
///
/// # Example
///
/// ```
/// use triplea_core::{Array, ArrayConfig, IoOp, ManagementMode, Trace, TraceRequest};
/// use triplea_ftl::LogicalPage;
/// use triplea_sim::SimTime;
///
/// let trace = Trace::new(vec![TraceRequest::new(SimTime::ZERO, IoOp::Read, LogicalPage(0), 1)]);
/// let report = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run(&trace);
/// assert_eq!(report.completed(), 1);
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
    /// Builds an idle array from a configuration.
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
            rc: RootComplex::new(&cfg.pcie),
            switches,
            clusters,
            auto: AutonomicState::new(cfg.autonomic, cfg.seed),
            front: FrontDoor::new(&cfg),
            reqs: Vec::new(),
            relocs: Vec::new(),
            mig_dst: Vec::new(),
            queue: EventQueue::new(),
            completed: 0,
            reads_done: 0,
            writes_done: 0,
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
            foreign_pages: 0,
            dropped_writes: 0,
            faults: FaultStats::default(),
            recovery: RecoveryStats::default(),
            power_loss: cfg.faults.power_loss,
            rebuilds: Vec::new(),
            degraded_lat: Histogram::new(),
            retired_fimms: Vec::new(),
            recorder: None,
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
    pub fn with_recorder(mut self, cfg: TraceConfig) -> Self {
        let rec = SharedRecorder::new(cfg);
        let e = &mut self.e;
        let port = |scope| TracePort::attached(rec.clone(), scope);
        e.ftl.attach_trace(port(TraceScope::array()));
        e.auto.attach_trace(port(TraceScope::array()));
        e.rc.queue.attach_trace(port(TraceScope::array()));
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
            cl.ep.queue.attach_trace(port(TraceScope::cluster(g)));
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
    /// attached with [`Array::with_recorder`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Array::run`].
    pub fn run_verified(self, trace: &Trace) -> VerifiedRun {
        let mut runner = self.into_runner();
        for r in trace.requests() {
            runner.submit(r);
        }
        runner.finish()
    }

    /// Converts the idle array into an [`ArrayRunner`]: the same engine,
    /// driven incrementally instead of to completion. The federation
    /// layer uses this to interleave N member arrays inside one
    /// deterministic epoch loop; [`Array::run_verified`] is this runner
    /// with every request submitted before the first step.
    pub fn into_runner(self) -> ArrayRunner {
        ArrayRunner {
            e: Box::new(self.e),
            armed: false,
        }
    }
}

/// An [`Array`] engine driven incrementally: requests are injected one
/// at a time with [`ArrayRunner::submit`] and simulated time advances in
/// bounded steps with [`ArrayRunner::step_until`], so several arrays can
/// be co-simulated deterministically by one scheduler (see the
/// `federation` module). [`Array::run_verified`] is the special case
/// that submits the whole trace and then calls [`ArrayRunner::finish`],
/// so both drivers share one event loop.
pub struct ArrayRunner {
    e: Box<Engine>,
    /// Whether the recovery plan (the power cut and the hot-spare
    /// rebuilds) is on the calendar. It is armed by the first
    /// [`ArrayRunner::step_until`] or [`ArrayRunner::finish`], after the
    /// requests submitted up front, so "submit everything, then drain"
    /// orders same-instant events exactly as [`Array::run_verified`].
    armed: bool,
}

impl std::fmt::Debug for ArrayRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayRunner")
            .field("mode", &self.e.mode)
            .field("submitted", &self.submitted())
            .field("completed", &self.completed())
            .finish()
    }
}

impl ArrayRunner {
    /// The configuration in force.
    pub fn config(&self) -> &ArrayConfig {
        &self.e.cfg
    }

    /// Injects one request, returning its id for later
    /// [`ArrayRunner::is_done`] / [`ArrayRunner::is_lost`] polling.
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0`, the address range leaves the array, or
    /// (on a tenant-enabled array) the tenant is outside the configured
    /// table. The submission time must not be earlier than any instant
    /// already stepped past.
    pub fn submit(&mut self, r: &crate::request::TraceRequest) -> u32 {
        let e = &mut *self.e;
        let id = e.reqs.len() as u32;
        let total_pages = e.cfg.shape.total_pages();
        let n_tenants = e.cfg.tenants.len();
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
        e.reqs.push(RequestState::new(r));
        e.queue.push(r.at, Ev::Submit(id));
        e.first_submit = e.first_submit.min(r.at);
        id
    }

    /// Drains every event strictly before `t`.
    pub fn step_until(&mut self, t: SimTime) {
        self.drain(Some(t));
    }

    /// `true` when the event calendar is empty (every injected request
    /// has either completed or been lost to a power cut). A runner that
    /// has never stepped is not idle: its recovery plan is still to be
    /// armed.
    pub fn is_idle(&self) -> bool {
        self.armed && self.e.queue.is_empty()
    }

    /// Requests injected so far.
    pub fn submitted(&self) -> u64 {
        self.e.reqs.len() as u64
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.e.completed
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

    /// `true` once request `id` has completed.
    pub fn is_done(&self, id: u32) -> bool {
        self.e.reqs[id as usize].done
    }

    /// `true` when request `id` was in flight at a power cut and will
    /// never complete (its completion callback died with the calendar).
    pub fn is_lost(&self, id: u32) -> bool {
        let rs = &self.e.reqs[id as usize];
        !rs.done && rs.stage == Stage::Done
    }

    /// Completion instant of request `id` ([`SimTime::ZERO`] until it
    /// completes).
    pub fn finish_time(&self, id: u32) -> SimTime {
        self.e.reqs[id as usize].finish
    }

    /// Drains every remaining event, audits FTL metadata integrity, and
    /// produces the run outcome.
    pub fn finish(mut self) -> VerifiedRun {
        self.drain(None);
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

    /// The event loop: arms the recovery plan on first use, then pops
    /// and handles events strictly before `until` (every event when
    /// `None`).
    fn drain(&mut self, until: Option<SimTime>) {
        if !self.armed {
            self.armed = true;
            self.e.arm_recovery();
        }
        let e = &mut *self.e;
        loop {
            let next = match until {
                Some(t) => e.queue.pop_before(t),
                None => e.queue.pop(),
            };
            let Some((now, ev)) = next else {
                break;
            };
            if let Some(rec) = &e.recorder {
                // Timeless components (the FTL, credit queues) emit at
                // the recorder clock; keep it on the event loop's time.
                rec.set_now(now);
            }
            e.events += 1;
            e.handle(now, ev);
        }
    }
}

impl Engine {
    fn page_bytes(&self) -> u64 {
        self.cfg.shape.flash.page_size as u64
    }

    /// Wire bytes for `pages` pages, one TLP per page plus framing.
    fn wire_bytes(&self, pages: u32) -> u64 {
        pages as u64 * (self.page_bytes() + TLP_OVERHEAD)
    }

    fn down_bytes(&self, op: IoOp, pages: u32) -> u64 {
        match op {
            IoOp::Read => TLP_OVERHEAD,
            IoOp::Write => self.wire_bytes(pages),
        }
    }

    fn resp_bytes(&self, op: IoOp, pages: u32) -> u64 {
        match op {
            IoOp::Read => self.wire_bytes(pages),
            IoOp::Write => TLP_OVERHEAD,
        }
    }

    fn cluster_global(&self, id: ClusterId) -> u32 {
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

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Submit(r) => self.on_submit(now, r),
            Ev::RcGranted(r) => self.on_rc_granted(now, r),
            Ev::SwAdmit(r) => self.on_sw_admit(now, r),
            Ev::SwGranted(r) => self.on_sw_granted(now, r),
            Ev::ArriveSw(r) => self.on_arrive_sw(now, r),
            Ev::EpAdmit(r) => self.on_ep_admit(now, r),
            Ev::EpGranted(r) => self.on_ep_granted(now, r),
            Ev::ArriveEp(r) => self.on_arrive_ep(now, r),
            Ev::EpService(r) => self.on_ep_service(now, r),
            Ev::PartFlashDone { req, fimm, pages } => {
                self.on_part_flash_done(now, req, fimm, pages)
            }
            Ev::PartDataDone(r) => self.on_part_data_done(now, r),
            Ev::EpFree(c) => self.on_ep_free(now, c),
            Ev::WriteProgrammed {
                cluster,
                fimm,
                pages,
                buf_cluster,
            } => self.on_write_programmed(now, cluster, fimm, pages, buf_cluster),
            Ev::RespAtSw(r) => self.on_resp_at_sw(now, r),
            Ev::RespAtRc(r) => self.on_resp_at_rc(now, r),
            Ev::Complete(r) => self.on_complete(now, r),
            Ev::MigArrive(m) => self.on_mig_arrive(now, m),
            Ev::MigPageDone {
                reloc,
                idx,
                cluster,
                fimm,
            } => self.on_mig_page_done(now, reloc, idx, cluster, fimm),
            Ev::PowerLoss => self.on_power_loss(now),
            Ev::RebuildStep(i) => self.on_rebuild_step(now, i),
        }
    }

    // ------------------------------------------------------------------
    // Crash recovery & self-healing
    // ------------------------------------------------------------------

    /// Schedules the configured power cut and claims one hot spare for
    /// each scheduled module death, in config order, until the spare
    /// pool runs dry. Runs once, when the event loop first starts.
    fn arm_recovery(&mut self) {
        if let Some(pl) = self.power_loss {
            self.queue.push(SimTime::from_nanos(pl.at_ns), Ev::PowerLoss);
        }
        let mut spares = self.cfg.hot_spares;
        let events = self.cfg.faults.fimm_events;
        for ev in events.iter().flatten() {
            if spares == 0 {
                break;
            }
            if !matches!(ev.kind, FimmFaultKind::Dead) {
                continue;
            }
            let Some(cl) = self.clusters.get(ev.cluster as usize) else {
                continue;
            };
            if ev.fimm as usize >= cl.fimms.len() {
                continue;
            }
            // Two deaths of the same module consume one spare.
            if self
                .rebuilds
                .iter()
                .any(|rb| rb.cluster == ev.cluster && rb.fimm == ev.fimm)
            {
                continue;
            }
            spares -= 1;
            let mut spare = Fimm::new(
                self.cfg.shape.packages_per_fimm,
                self.cfg.shape.flash,
                self.cfg.flash_timing,
            );
            let fc = &self.cfg.faults;
            if !fc.flash.is_quiet() {
                // The spare gets its own RNG stream, disjoint (bit 16)
                // from every original module's `(cluster << 8) | fimm`.
                let k = ((ev.cluster as u64) << 8) | ev.fimm as u64 | 1 << 16;
                spare.set_fault_profile(fc.flash, fc.seed ^ (k + 1).wrapping_mul(GOLDEN));
            }
            if let Some(rec) = &self.recorder {
                spare.attach_trace(TracePort::attached(
                    rec.clone(),
                    TraceScope::fimm(ev.cluster, ev.fimm),
                ));
            }
            let died = SimTime::from_nanos(ev.at_ns);
            let idx = self.rebuilds.len() as u32;
            self.rebuilds.push(Rebuild {
                cluster: ev.cluster,
                fimm: ev.fimm,
                died,
                plan: Vec::new(),
                planned: false,
                cursor: 0,
                copied: 0,
                spare: Some(spare),
                done: false,
            });
            self.queue.push(died + REBUILD_DETECT_NS, Ev::RebuildStep(idx));
        }
    }

    /// The configured power cut. Everything volatile dies with it: the
    /// event calendar's in-flight work, every credit-queue occupancy and
    /// waiter, the endpoint write buffers, pending-page accounting, the
    /// management module's in-flight relocation claims, and the FTL's
    /// translation cache. Flash contents and journaled metadata survive;
    /// the mount-time recovery scan replays the journal's flushed tail
    /// onto its checkpoint. Host requests not yet submitted re-arrive
    /// once the array is back up (latency is still measured from the
    /// original submit time, so the outage shows in the tail).
    ///
    /// Link and bus busy-until timelines are deliberately left alone:
    /// they are pure timing reservations with no queued state, and any
    /// residual reservation drains during the multi-millisecond remount
    /// window.
    fn on_power_loss(&mut self, now: SimTime) {
        if self.power_loss.take().is_none() {
            return;
        }
        let mut future_submits: Vec<(SimTime, u32)> = Vec::new();
        while let Some((t, ev)) = self.queue.pop() {
            if let Ev::Submit(r) = ev {
                future_submits.push((t, r));
            }
        }
        let mut lost = 0u64;
        for rs in self.reqs.iter_mut() {
            if !rs.done && rs.stage != Stage::Created && rs.stage != Stage::Done {
                rs.stage = Stage::Done;
                lost += 1;
            }
        }
        self.rc.queue.power_cycle();
        if let Some(front) = self.front.as_mut() {
            // Submission-lane contents are volatile exactly like the RC
            // FIFO; the requeued submits below re-enter through fresh
            // arbitration. (The lane waiters were already counted lost
            // above — they sit at `Stage::AtRc`.)
            front.arbiter.power_cycle();
        }
        for sw in &mut self.switches {
            for q in &mut sw.port_queues {
                q.power_cycle();
            }
        }
        for cl in &mut self.clusters {
            cl.ep.queue.power_cycle();
            cl.wbuf_used = 0;
            cl.wbuf_waiters.clear();
            for p in &mut cl.pending_read_pages {
                *p = 0;
            }
            for p in &mut cl.pending_prog_pages {
                *p = 0;
            }
        }
        self.auto.forget_inflight();
        for rl in &mut self.relocs {
            rl.remaining = 0;
        }
        let outcome = match self.ftl.power_loss() {
            Ok(o) => o,
            // Replay re-executes our own recorded history; divergence is
            // a simulator defect, never an injectable fault.
            Err(e) => unreachable!("journal recovery diverged: {e}"),
        };
        let remount = REMOUNT_BASE_NS + REPLAY_NS_PER_RECORD * outcome.replayed;
        let back_up = now + remount;
        self.recovery.power_losses += 1;
        self.recovery.journal_replayed += outcome.replayed;
        self.recovery.journal_dropped += outcome.dropped;
        self.recovery.aborted_clones += outcome.aborted_clones;
        self.recovery.lost_inflight_requests += lost;
        self.recovery.requeued_requests += future_submits.len() as u64;
        self.recovery.remount_ns += remount;
        let requeued = future_submits.len() as u64;
        self.emit(TraceScope::array(), || TraceEventKind::PowerLoss {
            lost_requests: lost,
            requeued,
        });
        self.emit(TraceScope::array(), || TraceEventKind::JournalReplay {
            replayed: outcome.replayed,
            dropped: outcome.dropped,
        });
        for (t, r) in future_submits {
            self.queue.push(t.max(back_up), Ev::Submit(r));
        }
        // Rebuild copies in flight were lost with the calendar; every
        // unfinished rebuild resumes at its cursor once the array is up.
        for i in 0..self.rebuilds.len() {
            if !self.rebuilds[i].done {
                let at = (self.rebuilds[i].died + REBUILD_DETECT_NS).max(back_up);
                self.queue.push(at, Ev::RebuildStep(i as u32));
            }
        }
    }

    /// One unit of hot-spare rebuild work: restore the programmed prefix
    /// of the next manifest block onto the spare, reconstruction-reading
    /// the live pages from the dead module's surviving siblings. All
    /// timing contends with foreground I/O (sibling dies, the shared
    /// bus); the pacing between units backs off linearly with the
    /// cluster's outstanding host reads so a busy array rebuilds slowly.
    fn on_rebuild_step(&mut self, now: SimTime, i: u32) {
        let idx = i as usize;
        if self.rebuilds[idx].done {
            return;
        }
        let (cluster, fimm) = (self.rebuilds[idx].cluster, self.rebuilds[idx].fimm);
        let c = cluster as usize;
        if !self.rebuilds[idx].planned {
            self.rebuilds[idx].planned = true;
            let id = self.clusters[c].id;
            self.rebuilds[idx].plan = self.ftl.rebuild_manifest(id, fimm);
            let pages: u64 = self.rebuilds[idx]
                .plan
                .iter()
                .map(|u| u.live.len() as u64)
                .sum();
            self.emit(TraceScope::fimm(cluster, fimm), || {
                TraceEventKind::RebuildStart { pages }
            });
        }
        let cursor = self.rebuilds[idx].cursor;
        let Some(unit) = self.rebuilds[idx].plan.get(cursor).cloned() else {
            self.finish_rebuild(now, idx);
            return;
        };
        self.rebuilds[idx].cursor += 1;
        let plane = self.cfg.shape.flash.plane_of_block(unit.block);
        let pb = self.page_bytes();
        let n = self.clusters[c].fimms.len() as u32;
        let mut t = now;
        for page in 0..unit.programmed {
            let addr = PageAddr {
                die: unit.die,
                plane,
                block: unit.block,
                page,
            };
            if unit.live.binary_search(&page).is_ok() {
                // Reconstruction-read the live page from the first
                // surviving sibling and haul it (in and back out) over
                // the shared bus. Recovery reads are fault-immune — a
                // rebuild must not trip over its own transient ECC.
                let xfer = self.clusters[c].bus.transfer(t, 2 * pb);
                let sib = (1..n)
                    .map(|off| (fimm + off) % n)
                    .find(|&f| !self.clusters[c].fimms[f as usize].is_dead_at(t));
                if let Some(sf) = sib {
                    if let Ok(rd) = self.clusters[c].fimms[sf as usize].begin_op_recovery(
                        t,
                        unit.package,
                        &FlashCommand::read(addr),
                    ) {
                        t = t.max(rd.end);
                    }
                }
                t = t.max(xfer.end);
                self.rebuilds[idx].copied += 1;
            }
            // Stale pages restore the programmed prefix without a source
            // read: NAND programs are strictly in-order within a block,
            // and the allocator will resume at page `programmed`.
            if let Some(spare) = self.rebuilds[idx].spare.as_mut() {
                if let Ok(op) = spare.begin_op(t, unit.package, &FlashCommand::program(addr)) {
                    t = op.end;
                }
                // The spare can grow its own bad blocks under its fault
                // profile; the copy is best-effort and the FTL will
                // quarantine the block on first use, like any other.
            }
        }
        let backlog: u64 = self.clusters[c].pending_read_pages.iter().sum();
        let gap = REBUILD_GAP_NS * (1 + backlog.min(REBUILD_THROTTLE_MAX - 1));
        self.queue.push(t + gap, Ev::RebuildStep(i));
    }

    /// Swaps the rebuilt spare into the cluster. The dead module is
    /// retired — its wear and fault history still roll up into the final
    /// report — and the FIMM slot serves from the spare from now on.
    fn finish_rebuild(&mut self, now: SimTime, idx: usize) {
        let (cluster, fimm) = (self.rebuilds[idx].cluster, self.rebuilds[idx].fimm);
        let Some(spare) = self.rebuilds[idx].spare.take() else {
            return;
        };
        self.rebuilds[idx].done = true;
        let old =
            std::mem::replace(&mut self.clusters[cluster as usize].fimms[fimm as usize], spare);
        self.retired_fimms.push(old);
        let dur = now - self.rebuilds[idx].died;
        let copied = self.rebuilds[idx].copied;
        self.recovery.rebuilds_completed += 1;
        self.recovery.rebuild_pages += copied;
        self.recovery.rebuild_ns += dur;
        self.emit(TraceScope::fimm(cluster, fimm), || {
            TraceEventKind::RebuildDone {
                pages: copied,
                dur_ns: dur,
            }
        });
    }

    // ------------------------------------------------------------------
    // Downstream pipeline
    // ------------------------------------------------------------------

    fn on_submit(&mut self, now: SimTime, r: u32) {
        self.reqs[r as usize].wait_since = now;
        self.reqs[r as usize].stage = Stage::AtRc;
        self.emit(TraceScope::array(), || {
            let rs = &self.reqs[r as usize];
            TraceEventKind::Submit {
                req: r,
                read: rs.op == IoOp::Read,
                lpn: rs.lpn.0,
                pages: rs.pages,
            }
        });
        if self.front.is_some() {
            // Tenant mode: park the request on its owner's submission
            // lane; the weighted-fair arbiter decides who occupies the
            // next free root-complex credit.
            let t = self.reqs[r as usize].tenant;
            self.front.as_mut().expect("checked above").arbiter.enqueue(t, r);
            self.pump_tenants(now);
        } else {
            match self.rc.queue.admit(r as u64) {
                Admission::Admitted => self.queue.push(now, Ev::RcGranted(r)),
                Admission::Queued => {} // woken by on_complete's release
            }
        }
    }

    /// Drains the weighted-fair arbiter into the root-complex credit
    /// queue: while a credit is free and some lane is eligible (waiting
    /// work, in-flight count below its `qd_limit`), admit that lane's
    /// head request. In tenant mode this is the *only* path into the RC
    /// queue and it never overfills it, so the queue's own FIFO stays
    /// empty — scheduling policy lives entirely in the
    /// [`WeightedArbiter`].
    fn pump_tenants(&mut self, now: SimTime) {
        let Some(front) = self.front.as_mut() else {
            return;
        };
        while !self.rc.queue.is_full() {
            let Some((_t, r)) = front.arbiter.grant() else {
                break;
            };
            let admitted = self.rc.queue.admit(r as u64);
            debug_assert!(
                matches!(admitted, Admission::Admitted),
                "pump only admits below capacity"
            );
            self.queue.push(now, Ev::RcGranted(r));
        }
    }

    fn on_rc_granted(&mut self, now: SimTime, r: u32) {
        let (lpn, pages, wait_since) = {
            let rs = &self.reqs[r as usize];
            (rs.lpn, rs.pages, rs.wait_since)
        };
        // Pin physical locations at routing time: migrations that land
        // while this request is in flight keep the old copy readable.
        let locs: Vec<_> = (0..pages)
            .map(|i| self.ftl.locate(LogicalPage(lpn.0 + i as u64)))
            .collect();
        let cluster = self.cluster_global(locs[0].cluster);
        {
            let rs = &mut self.reqs[r as usize];
            rs.bd.rc_stall += now - wait_since;
            rs.locs = locs;
            rs.cluster = cluster;
        }
        self.clusters[cluster as usize].served += 1;
        // Address translation happens here, at the management module. A
        // DFTL-style mapping-cache miss costs a flash read of the
        // translation page from the request's home FIMM.
        let mut t = now + self.cfg.pcie.rc_route_ns;
        let map_hit = self.ftl.map_access(lpn);
        self.emit(TraceScope::cluster(cluster), || TraceEventKind::Dispatch {
            req: r,
            map_miss: !map_hit,
        });
        if !map_hit {
            let loc = self.reqs[r as usize].locs[0];
            let c = cluster as usize;
            let pb = self.page_bytes();
            let xfer = self.clusters[c].bus.transfer(now, pb);
            if let Some((_, rd)) = self.issue_read_op(
                c,
                loc.fimm,
                now,
                loc.addr.package,
                &FlashCommand::read(loc.addr.page),
            ) {
                t = t.max(rd.end);
                let rs = &mut self.reqs[r as usize];
                rs.bd.fimm_service += rd.end - rd.start;
            }
            t = t.max(xfer.end);
        }
        self.queue.push(t, Ev::SwAdmit(r));
    }

    /// Issues one read command, preferring `fimm` but failing over to a
    /// live sibling when that module is dead, and retrying transient ECC
    /// faults (the last attempt is a fault-immune recovery read, so the
    /// loop terminates). Returns the serving FIMM and timing, or `None`
    /// when every module in the cluster is dead.
    fn issue_read_op(
        &mut self,
        c: usize,
        fimm: u32,
        at: SimTime,
        package: u32,
        cmd: &FlashCommand,
    ) -> Option<(u32, OpTiming)> {
        let n = self.clusters[c].fimms.len() as u32;
        for off in 0..n {
            let f = ((fimm + off) % n) as usize;
            if self.clusters[c].fimms[f].is_dead_at(at) {
                continue;
            }
            if off > 0 {
                self.faults.degraded_reads += 1;
            }
            let mut tries = 0;
            loop {
                let r = if tries < READ_RETRY_LIMIT {
                    self.clusters[c].fimms[f].begin_op(at, package, cmd)
                } else {
                    self.clusters[c].fimms[f].begin_op_recovery(at, package, cmd)
                };
                match r {
                    Ok(op) => return Some((f as u32, op)),
                    Err(e) if e.is_transient() => tries += 1,
                    Err(_) => break, // module failed under us: next sibling
                }
            }
        }
        self.faults.unserviceable_reads += 1;
        None
    }

    fn on_sw_admit(&mut self, now: SimTime, r: u32) {
        self.reqs[r as usize].wait_since = now;
        self.reqs[r as usize].stage = Stage::AtSwitch;
        let s = self.switch_of(r);
        let p = self.port_of(r);
        match self.switches[s].port_queues[p].admit(r as u64) {
            Admission::Admitted => self.queue.push(now, Ev::SwGranted(r)),
            Admission::Queued => {}
        }
    }

    fn switch_of(&self, r: u32) -> usize {
        (self.reqs[r as usize].cluster / self.cfg.shape.topology.clusters_per_switch) as usize
    }

    fn port_of(&self, r: u32) -> usize {
        (self.reqs[r as usize].cluster % self.cfg.shape.topology.clusters_per_switch) as usize
    }

    fn on_sw_granted(&mut self, now: SimTime, r: u32) {
        let wait_since = self.reqs[r as usize].wait_since;
        self.reqs[r as usize].bd.switch_stall += now - wait_since;
        let (op, pages) = {
            let rs = &self.reqs[r as usize];
            (rs.op, rs.pages)
        };
        let bytes = self.down_bytes(op, pages);
        let s = self.switch_of(r);
        let res = self.switches[s].uplink.down.transmit(now, bytes);
        self.reqs[r as usize].bd.pcie_wait += res.wait;
        let arrive = self.switches[s].uplink.down.arrival(res.end);
        self.queue.push(arrive, Ev::ArriveSw(r));
    }

    fn on_arrive_sw(&mut self, now: SimTime, r: u32) {
        let t = now + self.cfg.pcie.switch_route_ns;
        self.queue.push(t, Ev::EpAdmit(r));
    }

    fn on_ep_admit(&mut self, now: SimTime, r: u32) {
        self.reqs[r as usize].wait_since = now;
        let c = self.reqs[r as usize].cluster as usize;
        match self.clusters[c].ep.queue.admit(r as u64) {
            Admission::Admitted => self.queue.push(now, Ev::EpGranted(r)),
            Admission::Queued => {
                self.reqs[r as usize].stalled_at_ep = true;
                if self.mode == ManagementMode::Autonomic
                    && self.auto.params().laggard.examines_queue()
                {
                    self.examine_queue(now, c as u32);
                }
            }
        }
    }

    /// The autonomic detection budget and debounce cooldowns in force
    /// for a stall attributed to `tenant`:
    /// `(sla, laggard_cooldown, escalation_cooldown)`.
    ///
    /// Untenanted arrays use the global [`SLA_NS`],
    /// [`LAGGARD_COOLDOWN_NS`] and [`ESCALATION_COOLDOWN_NS`] unchanged.
    /// With tenants, the budget is the tighter of the global SLA and the
    /// tenant's own p99 target, and the cooldowns scale with
    /// `sla_p99_ns / SLA_NS` (clamped to 1/4x..4x): a laggard
    /// stalling an interactive tenant is re-examined — and therefore
    /// reshaped — sooner than one that only delays batch work. A tenant
    /// currently outside its SLA halves the cooldowns again.
    fn tenant_autonomics(&self, tenant: TenantId) -> (Nanos, Nanos, Nanos) {
        let base = (SLA_NS, LAGGARD_COOLDOWN_NS, ESCALATION_COOLDOWN_NS);
        let Some(front) = self.front.as_ref() else {
            return base;
        };
        let Some(spec) = self.cfg.tenants.get(tenant) else {
            return base;
        };
        let scale = |v: Nanos| -> Nanos {
            let scaled = (v as u128 * spec.sla_p99_ns as u128 / SLA_NS as u128) as Nanos;
            scaled.clamp(v / 4, v.saturating_mul(4))
        };
        let acc = &front.lanes[tenant.index()];
        let violating = acc.violations * 100 > acc.completed;
        let div = if violating { 2 } else { 1 };
        (
            SLA_NS.min(spec.sla_p99_ns),
            scale(LAGGARD_COOLDOWN_NS) / div,
            scale(ESCALATION_COOLDOWN_NS) / div,
        )
    }

    /// [`Engine::tenant_autonomics`] for a queue-examination event: the
    /// most demanding tenant among the stalled waiters (tightest
    /// `sla_p99_ns`, ties to the lower id) sets the pace.
    fn waiters_autonomics(&self, waiters: &[u32]) -> (Nanos, Nanos, Nanos) {
        let base = (SLA_NS, LAGGARD_COOLDOWN_NS, ESCALATION_COOLDOWN_NS);
        if self.front.is_none() {
            return base;
        }
        let tightest = waiters
            .iter()
            .map(|&w| self.reqs[w as usize].tenant)
            .min_by_key(|t| {
                (
                    self.cfg.tenants.get(*t).map_or(u64::MAX, |s| s.sla_p99_ns),
                    t.index(),
                )
            });
        match tightest {
            Some(t) => self.tenant_autonomics(t),
            None => base,
        }
    }

    /// Queue-examination laggard detection (paper §4.2, Figure 8): when
    /// the EP queue has no room, count stalled entries per target FIMM;
    /// the plurality holder is a laggard, and near-uniform stalling means
    /// *all* FIMMs are laggards (escalate to inter-cluster migration).
    fn examine_queue(&mut self, now: SimTime, cluster: u32) {
        let n_fimms = self.cfg.shape.fimms_per_cluster as usize;
        let waiters: Vec<u32> = self.clusters[cluster as usize]
            .ep
            .queue
            .waiter_ids()
            .map(|w| w as u32)
            .collect();
        if waiters.len() < 2 {
            return;
        }
        let mut counts = vec![0u32; n_fimms];
        for &w in &waiters {
            if let Some(loc) = self.reqs[w as usize].locs.first() {
                counts[loc.fimm as usize] += 1;
            }
        }
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        if max == 0 {
            return;
        }
        // A full queue only signals *storage* contention when the FIMMs
        // actually hold stalled work beyond the SLA budget (otherwise
        // the pile-up is a link problem, handled by Eq. 1 migration).
        let (sla, laggard_cd, escalation_cd) = self.waiters_autonomics(&waiters);
        let backlog_of = |f: u32| {
            self.cfg
                .eq3_backlog_ns(self.clusters[cluster as usize].fimm_read_backlog_pages(f))
        };
        if max - min <= 1 && waiters.len() >= n_fimms * 2 {
            // All FIMMs look equally stalled: escalate (§4.2) — but only
            // if every FIMM really holds stalled work, and at most once
            // per cooldown window per cluster.
            if (0..n_fimms as u32).all(|f| backlog_of(f) > sla)
                && self
                    .auto
                    .register_escalation_with_cooldown(cluster, now, escalation_cd)
            {
                for &w in &waiters {
                    self.reqs[w as usize].escalate = true;
                }
            }
            return;
        }
        let laggard = counts.iter().position(|&c| c == max).unwrap_or(0) as u32;
        if backlog_of(laggard) <= sla {
            return;
        }
        let min_other = (0..n_fimms as u32)
            .filter(|&f| f != laggard)
            .map(|f| self.clusters[cluster as usize].fimm_read_backlog_pages(f))
            .min()
            .unwrap_or(0);
        let laggard_backlog = self.clusters[cluster as usize].fimm_read_backlog_pages(laggard);
        if (laggard_backlog as f64) < LAGGARD_IMBALANCE * (min_other.max(1) as f64) {
            return;
        }
        // Repair traffic in progress on this FIMM: the stall is our own
        // doing, not a layout problem.
        if self.clusters[cluster as usize].pending_prog_pages[laggard as usize] > 0 {
            return;
        }
        if !self
            .auto
            .register_laggard_with_cooldown(cluster, laggard, now, laggard_cd)
        {
            return;
        }
        for &w in &waiters {
            let rs = &mut self.reqs[w as usize];
            if rs.locs.first().map(|l| l.fimm) == Some(laggard) {
                rs.laggard_fimm = Some(laggard);
            }
        }
    }

    fn on_ep_granted(&mut self, now: SimTime, r: u32) {
        let wait_since = self.reqs[r as usize].wait_since;
        self.reqs[r as usize].bd.switch_stall += now - wait_since;
        let (op, pages) = {
            let rs = &self.reqs[r as usize];
            (rs.op, rs.pages)
        };
        let bytes = self.down_bytes(op, pages);
        let s = self.switch_of(r);
        let p = self.port_of(r);
        let res = self.switches[s].downlinks[p].down.transmit(now, bytes);
        self.reqs[r as usize].bd.pcie_wait += res.wait;
        let arrive = self.switches[s].downlinks[p].down.arrival(res.end);
        self.queue.push(arrive, Ev::ArriveEp(r));
    }

    fn on_arrive_ep(&mut self, now: SimTime, r: u32) {
        self.reqs[r as usize].stage = Stage::AtEp;
        let s = self.switch_of(r);
        let p = self.port_of(r);
        if let Some(next) = self.switches[s].port_queues[p].release() {
            self.queue.push(now, Ev::SwGranted(next as u32));
        }
        let t = now + self.cfg.pcie.ep_device_ns;
        self.queue.push(t, Ev::EpService(r));
    }

    // ------------------------------------------------------------------
    // Flash service
    // ------------------------------------------------------------------

    fn on_ep_service(&mut self, now: SimTime, r: u32) {
        self.reqs[r as usize].stage = Stage::Flash;
        self.reqs[r as usize].flash_start = now;
        match self.reqs[r as usize].op {
            IoOp::Read => self.issue_flash_reads(now, r),
            IoOp::Write => {
                let pages = self.reqs[r as usize].pages as usize;
                let c = self.reqs[r as usize].cluster as usize;
                if self.clusters[c].wbuf_free() >= pages {
                    self.clusters[c].wbuf_used += pages;
                    self.do_write(now, r);
                } else {
                    self.reqs[r as usize].wait_since = now;
                    self.reqs[r as usize].stalled_wbuf = true;
                    self.clusters[c].wbuf_waiters.push_back(r);
                }
            }
        }
    }

    fn issue_flash_reads(&mut self, now: SimTime, r: u32) {
        let (locs, cluster) = {
            let rs = &self.reqs[r as usize];
            (rs.locs.clone(), rs.cluster)
        };
        let c = cluster as usize;
        let n_fimms = self.cfg.shape.fimms_per_cluster;

        // Group the request's pages by FIMM (pages that migrated away
        // mid-flight are served locally as a fallback).
        let mut by_fimm: Vec<Vec<triplea_fimm::FimmAddr>> = vec![Vec::new(); n_fimms as usize];
        for loc in &locs {
            let fimm = if self.cluster_global(loc.cluster) == cluster {
                loc.fimm
            } else {
                self.foreign_pages += 1;
                loc.fimm % n_fimms
            };
            by_fimm[fimm as usize].push(loc.addr);
        }

        // Eq. 3's budget and the detector debounce follow the owning
        // tenant's contract: a read for an interactive tenant trips (and
        // re-trips) laggard reshaping sooner than one for a batch tenant.
        let (sla, laggard_cd, escalation_cd) =
            self.tenant_autonomics(self.reqs[r as usize].tenant);
        let monitors =
            self.mode == ManagementMode::Autonomic && self.auto.params().laggard.monitors_latency();

        for (fimm, addrs) in by_fimm.into_iter().enumerate() {
            if addrs.is_empty() {
                continue;
            }
            for cc in hal::compose(OpKind::Read, &addrs) {
                let n = cc.cmd.page_count() as u32;
                let cmd_res = self.clusters[c].bus.command_cycle(now);
                let Some((sf, op)) =
                    self.issue_read_op(c, fimm as u32, cmd_res.end, cc.package, &cc.cmd)
                else {
                    // Every module in the cluster is dead: the data is
                    // unreachable. Complete the part with no flash time
                    // so the request still terminates (and is counted as
                    // unserviceable by issue_read_op).
                    self.clusters[c].pending_read_pages[fimm] += n as u64;
                    self.sample_qdepth(now, c, fimm);
                    {
                        let rs = &mut self.reqs[r as usize];
                        rs.bd.bus_wait += cmd_res.wait;
                        rs.pending_parts += 1;
                    }
                    self.queue.push(
                        cmd_res.end,
                        Ev::PartFlashDone {
                            req: r,
                            fimm: fimm as u32,
                            pages: n,
                        },
                    );
                    continue;
                };
                // A dead home module fails over to a live sibling; from
                // here on, account everything against the serving FIMM.
                let fimm = sf as usize;
                self.clusters[c].pending_read_pages[fimm] += n as u64;
                self.sample_qdepth(now, c, fimm);
                {
                    let rs = &mut self.reqs[r as usize];
                    rs.bd.bus_wait += cmd_res.wait;
                    rs.bd.die_wait += op.die_wait;
                    rs.max_die_wait = rs.max_die_wait.max(op.die_wait);
                    rs.bd.fimm_service += (cmd_res.end - cmd_res.start) + (op.end - op.start);
                    rs.pending_parts += 1;
                }
                if monitors {
                    // Eq. 3: the stalled work queued on this FIMM exceeds
                    // the SLA budget -> laggard.
                    let backlog = self.clusters[c].fimm_read_backlog_pages(fimm as u32);
                    // Waits behind background relocation programs are
                    // repair traffic, not host storage contention: skip
                    // detection while this FIMM has programs in flight.
                    let programs_pending = self.clusters[c].pending_prog_pages[fimm] > 0;
                    if !programs_pending
                        && self.cfg.eq3_backlog_ns(backlog.saturating_sub(1)) > sla
                        && op.die_wait > sla
                    {
                        let min_other = (0..self.cfg.shape.fimms_per_cluster)
                            .filter(|&f| f != fimm as u32)
                            .map(|f| self.clusters[c].fimm_read_backlog_pages(f))
                            .min()
                            .unwrap_or(0);
                        let imbalanced =
                            backlog as f64 >= LAGGARD_IMBALANCE * (min_other.max(1) as f64);
                        if imbalanced {
                            // One FIMM holds the stalled work: reshape
                            // its data onto the quiet siblings (§4.2).
                            if self.auto.register_laggard_with_cooldown(
                                cluster,
                                fimm as u32,
                                now,
                                laggard_cd,
                            ) {
                                self.reqs[r as usize].laggard_fimm = Some(fimm as u32);
                            }
                        } else if self.cfg.eq3_backlog_ns(min_other) > sla
                            && self.auto.register_escalation_with_cooldown(
                                cluster,
                                now,
                                escalation_cd,
                            )
                        {
                            // Every FIMM is equally backlogged: reshaping
                            // cannot help, escalate to inter-cluster
                            // migration (§4.2, "all the FIMMs are
                            // laggards").
                            self.reqs[r as usize].escalate = true;
                        }
                    }
                }
                self.queue.push(
                    op.end,
                    Ev::PartFlashDone {
                        req: r,
                        fimm: fimm as u32,
                        pages: n,
                    },
                );
            }
        }
    }

    fn on_part_flash_done(&mut self, now: SimTime, r: u32, fimm: u32, pages: u32) {
        let c = self.reqs[r as usize].cluster as usize;
        self.clusters[c].pending_read_pages[fimm as usize] -= pages as u64;
        self.sample_qdepth(now, c, fimm as usize);
        let bytes = pages as u64 * self.page_bytes();
        let res = self.clusters[c].bus.transfer(now, bytes);
        {
            let rs = &mut self.reqs[r as usize];
            rs.bd.bus_wait += res.wait;
            rs.bd.fimm_service += res.end - res.start;
        }
        self.queue.push(res.end, Ev::PartDataDone(r));
    }

    fn on_part_data_done(&mut self, now: SimTime, r: u32) {
        self.reqs[r as usize].pending_parts -= 1;
        if self.reqs[r as usize].pending_parts > 0 {
            return;
        }
        if self.mode == ManagementMode::Autonomic {
            self.autonomic_read_complete(now, r);
        }
        self.respond(now, r);
    }

    // ------------------------------------------------------------------
    // Autonomic management
    // ------------------------------------------------------------------

    fn autonomic_read_complete(&mut self, now: SimTime, r: u32) {
        let (laggard, escalate, max_die_wait, flash_start, pages) = {
            let rs = &self.reqs[r as usize];
            (
                rs.laggard_fimm,
                rs.escalate,
                rs.max_die_wait,
                rs.flash_start,
                rs.pages,
            )
        };
        // Throttle: relocation programs are expensive (t_PROG each); cap
        // how much background reshaping can be in flight at once.
        if self.auto.inflight_pages() >= MAX_INFLIGHT_RELOC_PAGES {
            return;
        }
        if let Some(f) = laggard {
            // Act only on requests that really stalled on that FIMM, and
            // only while the stall is not explained by repair programs.
            // The reshape gate uses the owner's budget: an interactive
            // tenant's stall clears a lower bar than a batch tenant's.
            let (sla, _, _) = self.tenant_autonomics(self.reqs[r as usize].tenant);
            let cl = self.reqs[r as usize].cluster as usize;
            if max_die_wait > sla && self.clusters[cl].pending_prog_pages[f as usize] == 0 {
                self.reshape_request_pages(now, r, f);
            }
            return;
        }
        let t_latency = now - flash_start;
        let cluster = self.reqs[r as usize].cluster as usize;
        let bus_util = self.clusters[cluster].bus.windowed_utilization(now);
        let bus_busy = bus_util >= self.cfg.autonomic.hot_bus_threshold;
        // A cluster currently absorbing relocation programs looks busy
        // because of repair traffic; defer judgement until it drains.
        let repairing = self.clusters[cluster]
            .pending_prog_pages
            .iter()
            .any(|&p| p > 0);
        let hot = max_die_wait == 0
            && bus_busy
            && !repairing
            && t_latency >= self.cfg.eq1_threshold_ns(pages);
        self.emit(TraceScope::cluster(cluster as u32), || {
            TraceEventKind::DetectorSample {
                bus_util_milli: (bus_util * 1000.0) as u32,
                latency_ns: t_latency,
                hot,
            }
        });
        if hot {
            self.auto.stats.hot_detections += 1;
        }
        if hot || escalate {
            self.start_migration(now, r);
        }
    }

    /// Intra-cluster data-layout reshaping (paper §4.2, Figure 8): move
    /// this request's pages off the laggard FIMM onto the least-loaded
    /// sibling, using shadow cloning (the data just arrived at the EP).
    fn reshape_request_pages(&mut self, now: SimTime, r: u32, laggard: u32) {
        let (lpn, pages, cluster) = {
            let rs = &self.reqs[r as usize];
            (rs.lpn, rs.pages, rs.cluster)
        };
        let c = cluster as usize;
        let cluster_id = self.clusters[c].id;
        let on_laggard: Vec<u64> = (0..pages as u64)
            .map(|i| lpn.0 + i)
            .filter(|&l| {
                let loc = self.ftl.locate(LogicalPage(l));
                self.cluster_global(loc.cluster) == cluster && loc.fimm == laggard
            })
            .collect();
        let claimed = self.auto.claim_pages(on_laggard);
        if claimed.is_empty() {
            return;
        }
        let pages: Vec<RelocPage> = claimed
            .iter()
            .map(|&l| RelocPage {
                lpn: l,
                old: self.ftl.locate(LogicalPage(l)),
                new: None,
            })
            .collect();
        let n = pages.len() as u32;
        let reloc_id = self.relocs.len() as u32;
        self.relocs.push(Reloc {
            pages,
            kind: RelocKind::Reshape,
            remaining: n,
        });
        self.auto.stats.pages_reshaped += n as u64;
        let target = self.clusters[c].least_loaded_fimm(now, Some(laggard));
        self.emit(TraceScope::cluster(cluster), || {
            TraceEventKind::ReshapeBegin {
                target_fimm: target,
                pages: n,
            }
        });
        for idx in 0..n {
            self.program_relocated_page(now, reloc_id, idx, cluster, cluster_id, target);
        }
    }

    /// Issues the bus transfer + program that lands one relocated page on
    /// `fimm` of cluster `cluster`. The FTL is *not* remapped yet — the
    /// clone-then-unlink commit happens when the program completes
    /// ([`Engine::on_mig_page_done`]), so readers keep using the original
    /// copy in the meantime.
    fn program_relocated_page(
        &mut self,
        now: SimTime,
        reloc: u32,
        idx: u32,
        cluster: u32,
        cluster_id: ClusterId,
        fimm: u32,
    ) {
        let lpn = self.relocs[reloc as usize].pages[idx as usize].lpn;
        let loc = match self.ftl.migrate_prepare(LogicalPage(lpn), cluster_id, fimm) {
            Ok(loc) => loc,
            Err(FtlError::OutOfSpace { .. }) => {
                self.run_gc(now, cluster, fimm);
                match self.ftl.migrate_prepare(LogicalPage(lpn), cluster_id, fimm) {
                    Ok(loc) => loc,
                    Err(_) => {
                        // Give up on this page; account the reloc slot.
                        self.finish_reloc_page(reloc, idx as usize);
                        return;
                    }
                }
            }
            Err(_) => {
                // Any other allocation failure (e.g. the destination
                // module died between pick and prepare): abandon this
                // page's relocation. The original mapping is untouched,
                // so readers lose nothing.
                self.finish_reloc_page(reloc, idx as usize);
                return;
            }
        };
        self.relocs[reloc as usize].pages[idx as usize].new = Some(loc);
        let c = cluster as usize;
        let pb = self.page_bytes();
        let res = self.clusters[c].bus.transfer(now, pb);
        match self.clusters[c].fimms[fimm as usize].begin_op(
            res.end,
            loc.addr.package,
            &FlashCommand::program(loc.addr.page),
        ) {
            Ok(op) => {
                self.clusters[c].relocs_in += 1;
                self.clusters[c].pending_prog_pages[fimm as usize] += 1;
                self.queue.push(
                    op.end,
                    Ev::MigPageDone {
                        reloc,
                        idx,
                        cluster,
                        fimm,
                    },
                );
            }
            Err(e) => {
                // The clone's program failed mid-copy (bad block or dead
                // module): roll the migration of this page back. The
                // original mapping was never touched — clone-then-unlink
                // commits only on program completion — so readers lose
                // nothing; just discard the clone and close accounting.
                if matches!(e, FlashError::ProgramFailed(_)) {
                    self.ftl.quarantine_block(loc);
                }
                self.ftl.migrate_abort(LogicalPage(lpn), loc);
                self.relocs[reloc as usize].pages[idx as usize].new = None;
                self.faults.migration_rollbacks += 1;
                self.emit(TraceScope::fimm(cluster, fimm), || {
                    TraceEventKind::RelocRollback { lpn }
                });
                self.finish_reloc_page(reloc, idx as usize);
            }
        }
    }

    fn finish_reloc_page(&mut self, reloc: u32, idx: usize) {
        let rl = &mut self.relocs[reloc as usize];
        let lpn = rl.pages[idx].lpn;
        if rl.remaining == 0 {
            // The relocation was already torn down (power cut); nothing
            // left to account.
            return;
        }
        rl.remaining -= 1;
        let done = rl.remaining == 0;
        let kind = rl.kind;
        self.auto.release_pages(&[lpn]);
        if done && kind == RelocKind::Migration {
            self.auto.stats.migrations_completed += 1;
        }
    }

    /// Inter-cluster autonomic data migration (paper §4.1, Figure 7):
    /// clone the hot extent to a cold sibling cluster under the same
    /// switch, overlapping with the data's journey to the host (shadow
    /// cloning), then unlink the original.
    fn start_migration(&mut self, now: SimTime, r: u32) {
        let (lpn, pages, cluster) = {
            let rs = &self.reqs[r as usize];
            (rs.lpn, rs.pages, rs.cluster)
        };
        let src_id = self.clusters[cluster as usize].id;
        let extent = self.auto.params().migration_extent_pages.max(pages) as u64;
        let base = lpn.0 - lpn.0 % extent;
        let limit = self.cfg.shape.total_pages();

        let candidates: Vec<u64> = (base..(base + extent).min(limit))
            .filter(|&l| {
                let loc = self.ftl.locate(LogicalPage(l));
                self.cluster_global(loc.cluster) == cluster
            })
            .collect();
        let claimed = self.auto.claim_pages(candidates);
        if claimed.is_empty() {
            return;
        }
        let topo = self.cfg.shape.topology;
        let dst = {
            let clusters = &self.clusters;
            self.auto.pick_cold_sibling(
                &topo,
                src_id,
                |g| clusters[g as usize].bus.windowed_utilization(now),
                |g| clusters[g as usize].total_erases(),
            )
        };
        let Some(dst_id) = dst else {
            self.auto.release_pages(&claimed);
            return;
        };
        self.auto.stats.migrations_started += 1;
        self.auto.stats.pages_migrated += claimed.len() as u64;
        let dst_global = topo.global_index(dst_id);
        self.emit(TraceScope::cluster(cluster), || {
            TraceEventKind::MigrationBegin {
                dst_cluster: dst_global,
                pages: claimed.len() as u32,
            }
        });

        // Shadow cloning: the request's own pages already sit in the EP;
        // every other extent page (and, in naive mode, all of them) must
        // be re-read from the hot cluster first, stealing bus and die
        // time from foreground I/O (the Figure 16b vs 16c ablation).
        let naive = self.auto.params().naive_migration;
        let req_range = lpn.0..lpn.0 + pages as u64;
        let c = cluster as usize;
        let mut t_ready = now;
        let pb = self.page_bytes();
        for &l in &claimed {
            let in_ep = !naive && req_range.contains(&l);
            if in_ep {
                continue;
            }
            let loc = self.ftl.locate(LogicalPage(l));
            // Reserve the bus and the die at issue time: busy totals are
            // exact and foreground traffic interleaves FIFO, instead of
            // stalling behind idle-but-reserved busy-until gaps.
            let xfer = self.clusters[c].bus.transfer(now, pb);
            if let Some((_, op)) = self.issue_read_op(
                c,
                loc.fimm,
                now,
                loc.addr.package,
                &FlashCommand::read(loc.addr.page),
            ) {
                t_ready = t_ready.max(op.end);
            }
            t_ready = t_ready.max(xfer.end);
        }

        let reloc_pages: Vec<RelocPage> = claimed
            .iter()
            .map(|&l| RelocPage {
                lpn: l,
                old: self.ftl.locate(LogicalPage(l)),
                new: None,
            })
            .collect();
        let reloc_id = self.relocs.len() as u32;
        self.relocs.push(Reloc {
            pages: reloc_pages,
            kind: RelocKind::Migration,
            remaining: claimed.len() as u32,
        });

        // Peer-to-peer hop: source EP -> switch -> destination EP.
        let s = (cluster / topo.clusters_per_switch) as usize;
        let src_port = (cluster % topo.clusters_per_switch) as usize;
        let dst_port = (dst_global % topo.clusters_per_switch) as usize;
        let bytes = self.wire_bytes(claimed.len() as u32);
        let up = self.switches[s].downlinks[src_port]
            .up
            .transmit(t_ready, bytes);
        let up_arrive = self.switches[s].downlinks[src_port].up.arrival(up.end);
        let down = self.switches[s].downlinks[dst_port]
            .down
            .transmit(up_arrive + self.cfg.pcie.switch_route_ns, bytes);
        let arrive = self.switches[s].downlinks[dst_port].down.arrival(down.end);

        self.queue.push(arrive, Ev::MigArrive(reloc_id));
        self.mig_dst.push((reloc_id, dst_global));
    }

    fn on_mig_arrive(&mut self, now: SimTime, m: u32) {
        // A migration whose destination record is missing was torn down
        // by a power cut between transfer and arrival: treat every page
        // as aborted (the originals were never unlinked).
        let Some(dst_global) = self
            .mig_dst
            .iter()
            .find(|(id, _)| *id == m)
            .map(|(_, d)| *d)
        else {
            let n = self.relocs[m as usize].pages.len();
            for idx in 0..n {
                self.finish_reloc_page(m, idx);
            }
            return;
        };
        let dst_id = self.clusters[dst_global as usize].id;
        let n = self.relocs[m as usize].pages.len() as u32;
        for idx in 0..n {
            let fimm = self.clusters[dst_global as usize].least_loaded_fimm(now, None);
            self.program_relocated_page(now, m, idx, dst_global, dst_id, fimm);
        }
    }

    fn on_mig_page_done(&mut self, now: SimTime, reloc: u32, idx: u32, cluster: u32, fimm: u32) {
        self.clusters[cluster as usize].pending_prog_pages[fimm as usize] -= 1;
        // Clone-then-unlink: the copy is durable, switch readers over
        // (unless a host write superseded the data mid-clone).
        let page = self.relocs[reloc as usize].pages[idx as usize];
        if let Some(new_loc) = page.new {
            self.ftl
                .migrate_commit(LogicalPage(page.lpn), new_loc, page.old);
            self.emit(TraceScope::fimm(cluster, fimm), || {
                TraceEventKind::RelocCommit { lpn: page.lpn }
            });
        }
        self.maybe_gc(now, cluster, fimm);
        self.finish_reloc_page(reloc, idx as usize);
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    fn do_write(&mut self, now: SimTime, r: u32) {
        let (lpn, pages, cluster, stalled) = {
            let rs = &self.reqs[r as usize];
            (rs.lpn, rs.pages, rs.cluster, rs.stalled_wbuf)
        };
        let c = cluster as usize;
        let cluster_id = self.clusters[c].id;
        let redirect = self.mode == ManagementMode::Autonomic && stalled;
        for i in 0..pages as u64 {
            let l = LogicalPage(lpn.0 + i);
            let mut target = if redirect {
                // §4.2: stalled writes are redirected to adjacent FIMMs
                // within the same cluster.
                let f = self.clusters[c].least_loaded_fimm(now, None);
                self.auto.stats.write_redirects += 1;
                self.emit(TraceScope::cluster(cluster), || {
                    TraceEventKind::WriteRedirect { target_fimm: f }
                });
                Some((cluster_id, f))
            } else {
                None
            };
            let mut attempts = 0;
            let programmed = loop {
                let loc = match self.ftl.write_alloc(l, target) {
                    Ok(loc) => loc,
                    Err(FtlError::OutOfSpace { cluster: cid, fimm }) => {
                        let g = self.cluster_global(cid);
                        self.run_gc(now, g, fimm);
                        match self.ftl.write_alloc(l, target) {
                            Ok(loc) => loc,
                            // End of life: GC reclaimed nothing (every
                            // block retired or still live).
                            Err(_) => break None,
                        }
                    }
                    // Any other allocation failure means the page cannot
                    // be placed; the write is dropped and counted, not
                    // panicked on — injected faults must surface as
                    // degraded service, never as a crash.
                    Err(_) => break None,
                };
                let tc = self.cluster_global(loc.cluster) as usize;
                let pb = self.page_bytes();
                let res = self.clusters[tc].bus.transfer(now, pb);
                match self.clusters[tc].fimms[loc.fimm as usize].begin_op(
                    res.end,
                    loc.addr.package,
                    &FlashCommand::program(loc.addr.page),
                ) {
                    Ok(op) => break Some((loc, tc, op)),
                    Err(e) => {
                        // Hard program failure or dead module: quarantine
                        // the grown bad block and redirect the page to a
                        // live sibling FIMM (retrying write_alloc remaps
                        // and invalidates the failed page, so metadata
                        // stays consistent).
                        if matches!(e, FlashError::ProgramFailed(_)) {
                            self.ftl.quarantine_block(loc);
                        }
                        self.faults.fault_write_redirects += 1;
                        attempts += 1;
                        if attempts > WRITE_REDIRECT_LIMIT {
                            break None;
                        }
                        let f = self.clusters[tc].least_loaded_fimm(now, Some(loc.fimm));
                        target = Some((loc.cluster, f));
                    }
                }
            };
            let Some((loc, tc, op)) = programmed else {
                // A real array fails the write; we count it and release
                // the buffered page.
                self.dropped_writes += 1;
                self.clusters[c].wbuf_used -= 1;
                continue;
            };
            self.clusters[tc].pending_prog_pages[loc.fimm as usize] += 1;
            self.queue.push(
                op.end,
                Ev::WriteProgrammed {
                    cluster: tc as u32,
                    fimm: loc.fimm,
                    pages: 1,
                    buf_cluster: cluster,
                },
            );
        }
        // Writes acknowledge as soon as they are buffered (paper §4.2).
        self.respond(now, r);
    }

    fn on_write_programmed(
        &mut self,
        now: SimTime,
        cluster: u32,
        fimm: u32,
        pages: u32,
        buf_cluster: u32,
    ) {
        // Buffer credit returns to the admitting cluster; the program
        // bookkeeping belongs to the cluster the page landed on.
        let b = buf_cluster as usize;
        let c = cluster as usize;
        self.clusters[b].wbuf_used -= pages as usize;
        self.clusters[c].pending_prog_pages[fimm as usize] -= pages as u64;
        self.maybe_gc(now, cluster, fimm);
        // Admit parked writes that now fit.
        while let Some(&head) = self.clusters[b].wbuf_waiters.front() {
            let need = self.reqs[head as usize].pages as usize;
            if self.clusters[b].wbuf_free() < need {
                break;
            }
            self.clusters[b].wbuf_waiters.pop_front();
            self.clusters[b].wbuf_used += need;
            let wait_since = self.reqs[head as usize].wait_since;
            self.reqs[head as usize].bd.wbuf_wait += now - wait_since;
            self.do_write(now, head);
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    fn maybe_gc(&mut self, now: SimTime, cluster: u32, fimm: u32) {
        let id = self.clusters[cluster as usize].id;
        if self.ftl.needs_gc(id, fimm, self.cfg.gc_threshold_blocks) {
            self.run_gc(now, cluster, fimm);
            return;
        }
        // Opportunistic GC (§8 / refs [23, 24]): reclaim ahead of the
        // hard threshold while the cluster's bus is quiet, so cleaning
        // never lands on the critical path of foreground I/O.
        if self.cfg.opportunistic_gc
            && self.clusters[cluster as usize]
                .bus
                .windowed_utilization(now)
                < 0.10
            && self
                .ftl
                .needs_gc(id, fimm, self.cfg.gc_threshold_blocks * 8)
        {
            self.run_gc(now, cluster, fimm);
        }
    }

    /// Runs one GC unit on a FIMM: metadata immediately, timing as
    /// background bus/die reservations (the paper defers sophisticated
    /// array-level GC scheduling to future work, §6.7).
    fn run_gc(&mut self, now: SimTime, cluster: u32, fimm: u32) {
        let id = self.clusters[cluster as usize].id;
        if self.clusters[cluster as usize].fimms[fimm as usize].is_dead_at(now) {
            return; // a dead module can neither be read nor erased
        }
        let Some(work) = self.ftl.gc_pick(id, fimm) else {
            return;
        };
        let c = cluster as usize;
        let f = fimm as usize;
        let pb = self.page_bytes();
        for &lpn in &work.valid {
            let old = self.ftl.locate(lpn);
            match self.ftl.gc_rewrite(lpn, &work) {
                Ok(Some(new_loc)) => {
                    // Read the live page out, move it over the bus, and
                    // program its new home. All reservations are made at
                    // issue time (FIFO per resource) — the die queues
                    // naturally serialise the read before the erase below.
                    let rd_end = match self.issue_read_op(
                        c,
                        f as u32,
                        now,
                        old.addr.package,
                        &FlashCommand::read(old.addr.page),
                    ) {
                        Some((_, rd)) => rd.end,
                        None => now,
                    };
                    let _xfer = self.clusters[c].bus.transfer(now, 2 * pb);
                    if let Err(e) = self.clusters[c].fimms[new_loc.fimm as usize].begin_op(
                        rd_end,
                        new_loc.addr.package,
                        &FlashCommand::program(new_loc.addr.page),
                    ) {
                        // The rewrite's target block went bad mid-GC:
                        // retire it so the allocator stops handing out
                        // its remaining pages.
                        if matches!(e, FlashError::ProgramFailed(_)) {
                            self.ftl.quarantine_block(new_loc);
                        }
                    }
                }
                Ok(None) => {}
                Err(_) => break,
            }
        }
        let erase_addr = triplea_flash::PageAddr {
            die: work.die,
            plane: self.cfg.shape.flash.plane_of_block(work.block),
            block: work.block,
            page: 0,
        };
        match self.clusters[c].fimms[f].begin_op(now, work.package, &FlashCommand::erase(erase_addr))
        {
            Err(FlashError::EraseFailed(_)) => {
                // Injected erase hard-failure: the victim is a grown bad
                // block. Quarantine it instead of recycling so it never
                // returns to the free pool.
                self.faults.gc_failed_erases += 1;
                self.ftl.gc_finish_failed(&work);
            }
            // A natural worn-out refusal keeps the seed semantics: the
            // allocator retires the block itself on recycle.
            _ => self.ftl.gc_finish(&work),
        }
    }

    // ------------------------------------------------------------------
    // Response path
    // ------------------------------------------------------------------

    fn respond(&mut self, now: SimTime, r: u32) {
        self.reqs[r as usize].stage = Stage::Responding;
        let (op, pages, cluster) = {
            let rs = &self.reqs[r as usize];
            (rs.op, rs.pages, rs.cluster)
        };
        let bytes = self.resp_bytes(op, pages);
        let s = self.switch_of(r);
        let p = self.port_of(r);
        let t0 = now + self.cfg.pcie.ep_device_ns;
        let res = self.switches[s].downlinks[p].up.transmit(t0, bytes);
        self.reqs[r as usize].bd.pcie_wait += res.wait;
        // The EP buffer entry frees once the response is on the wire.
        self.queue.push(res.end, Ev::EpFree(cluster));
        let arrive = self.switches[s].downlinks[p].up.arrival(res.end);
        self.queue.push(arrive, Ev::RespAtSw(r));
    }

    fn on_ep_free(&mut self, now: SimTime, cluster: u32) {
        if let Some(next) = self.clusters[cluster as usize].ep.queue.release() {
            self.queue.push(now, Ev::EpGranted(next as u32));
        }
    }

    fn on_resp_at_sw(&mut self, now: SimTime, r: u32) {
        let (op, pages) = {
            let rs = &self.reqs[r as usize];
            (rs.op, rs.pages)
        };
        let bytes = self.resp_bytes(op, pages);
        let s = self.switch_of(r);
        let t0 = now + self.cfg.pcie.switch_route_ns;
        let res = self.switches[s].uplink.up.transmit(t0, bytes);
        self.reqs[r as usize].bd.pcie_wait += res.wait;
        let arrive = self.switches[s].uplink.up.arrival(res.end);
        self.queue.push(arrive, Ev::RespAtRc(r));
    }

    fn on_resp_at_rc(&mut self, now: SimTime, r: u32) {
        let t = now + self.cfg.pcie.rc_route_ns;
        self.queue.push(t, Ev::Complete(r));
    }

    fn on_complete(&mut self, now: SimTime, r: u32) {
        let rs = &mut self.reqs[r as usize];
        debug_assert!(!rs.done, "request completed twice");
        rs.done = true;
        rs.stage = Stage::Done;
        rs.finish = now;
        let total = now - rs.submit;
        let op = rs.op;
        let submit = rs.submit;
        let bd = rs.bd;
        let cluster = rs.cluster;
        self.emit(TraceScope::cluster(cluster), || TraceEventKind::Complete {
            req: r,
            latency_ns: total,
        });
        self.lat.record(total);
        // Completions inside a rebuild's degraded window (module death →
        // spare in service) feed the RecoveryStats degraded-mode p99.
        if self.rebuilds.iter().any(|rb| !rb.done && rb.died <= now) {
            self.degraded_lat.record(total);
        }
        match op {
            IoOp::Read => {
                self.rlat.record(total);
                self.reads_done += 1;
            }
            IoOp::Write => {
                self.wlat.record(total);
                self.writes_done += 1;
            }
        }
        self.bd_sum.accumulate(&bd);
        // Attribute queueing upstream of the cluster to its root cause,
        // proportionally to this request's own downstream waits — the
        // paper's Table 2 reports exactly this decomposition (its queue
        // stall column equals link-contention + storage-contention).
        let own_link = bd.link_contention();
        let own_storage = bd.storage_contention();
        let own = own_link + own_storage;
        if own > 0 {
            let q = bd.queue_stall() as u128;
            self.attr_link += (q * own_link as u128 / own as u128) as u64;
            self.attr_storage += (q * own_storage as u128 / own as u128) as u64;
        }
        if self.cfg.collect_series {
            self.series.push(submit, total as f64 / 1_000.0);
        }
        self.completed += 1;
        self.last_complete = self.last_complete.max(now);
        if self.front.is_some() {
            self.record_tenant_complete(r, total);
            self.pump_tenants(now);
        } else if let Some(next) = self.rc.queue.release() {
            self.queue.push(now, Ev::RcGranted(next as u32));
        }
    }

    /// Completion-side tenant accounting: record the latency against
    /// the owner's instruments, count an SLA violation when it exceeds
    /// the owner's p99 target, and free the admission slot. The freed
    /// root-complex credit is then re-granted through the arbiter
    /// ([`Engine::pump_tenants`]), never by the queue's own FIFO —
    /// which tenant mode keeps empty.
    fn record_tenant_complete(&mut self, r: u32, total: Nanos) {
        let (tenant, op) = {
            let rs = &self.reqs[r as usize];
            (rs.tenant, rs.op)
        };
        let sla = self
            .cfg
            .tenants
            .get(tenant)
            .expect("run_verified validated tenant ids")
            .sla_p99_ns;
        let front = self.front.as_mut().expect("tenant mode");
        let acc = &mut front.lanes[tenant.index()];
        acc.lat.record(total);
        acc.completed += 1;
        match op {
            IoOp::Read => {
                acc.rlat.record(total);
                acc.reads += 1;
            }
            IoOp::Write => {
                acc.wlat.record(total);
                acc.writes += 1;
            }
        }
        if total > sla {
            acc.violations += 1;
        }
        front.arbiter.complete(tenant);
        let handoff = self.rc.queue.release();
        debug_assert!(handoff.is_none(), "tenant mode keeps the RC FIFO empty");
    }

    /// Harvests the recorder and the per-component instruments into a
    /// [`RunTrace`], naming each instrument where its value is read
    /// (`cluster.N.fimm.M.queue_depth`). Runs once per traced run.
    fn harvest_trace(&self) -> Option<RunTrace> {
        let rec = self.recorder.as_ref()?;
        let now = self.last_complete;
        let mut m = MetricRegistry::new();
        m.counter("array.events", self.events);
        m.counter("array.completed", self.completed);
        m.counter("array.dropped_writes", self.dropped_writes);
        m.histogram("array.latency", &self.lat);
        m.histogram("array.read_latency", &self.rlat);
        m.histogram("array.write_latency", &self.wlat);
        for (g, cl) in self.clusters.iter().enumerate() {
            m.gauge(
                format!("cluster.{g}.bus.utilization"),
                cl.bus.utilization(now),
            );
            m.counter(format!("cluster.{g}.bus.bytes"), cl.bus.bytes_moved());
            m.counter(format!("cluster.{g}.served"), cl.served);
            m.counter(format!("cluster.{g}.relocs_in"), cl.relocs_in);
            m.counter(
                format!("cluster.{g}.ep_queue.high_watermark"),
                cl.ep.queue.high_watermark() as u64,
            );
            for (f, s) in cl.qdepth.iter().enumerate() {
                m.series(format!("cluster.{g}.fimm.{f}.queue_depth"), s, 512);
            }
        }
        for (s, sw) in self.switches.iter().enumerate() {
            let (down, up) = (&sw.uplink.down, &sw.uplink.up);
            m.counter(
                format!("switch.{s}.uplink.bytes"),
                down.bytes_sent() + up.bytes_sent(),
            );
            m.counter(
                format!("switch.{s}.uplink.replays"),
                down.replays() + up.replays(),
            );
        }
        if let Some(front) = &self.front {
            for (t, acc) in front.lanes.iter().enumerate() {
                m.histogram(format!("tenant.{t}.read.latency"), &acc.rlat);
                m.histogram(format!("tenant.{t}.write.latency"), &acc.wlat);
                m.counter(format!("tenant.{t}.completed"), acc.completed);
                m.counter(format!("tenant.{t}.violations"), acc.violations);
            }
        }
        Some(RunTrace::from_recorder(&rec.snapshot(), m))
    }

    fn into_report(mut self) -> RunReport {
        let mut wear = WearReport::default();
        // Retired modules (replaced by a hot spare mid-run) still carry
        // their wear, fault history, and scheduled-fault census.
        for f in self
            .clusters
            .iter()
            .flat_map(|c| c.fimms.iter())
            .chain(self.retired_fimms.iter())
        {
            wear.merge(&f.wear_report());
            let pf = f.fault_stats();
            self.faults.transient_read_faults += pf.read_transients;
            self.faults.prog_failures += pf.prog_failures;
            self.faults.erase_failures += pf.erase_failures;
            self.faults.blocks_retired_by_fault += pf.blocks_force_retired;
            for &(at, kind) in f.scheduled_faults() {
                if at <= self.last_complete {
                    match kind {
                        FimmFaultKind::Dead => self.faults.fimm_deaths += 1,
                        FimmFaultKind::Slowdown(_) => self.faults.fimm_slowdowns += 1,
                    }
                }
            }
        }
        self.recovery.degraded_p99_ns = self.degraded_lat.percentile(0.99);
        for sw in &self.switches {
            for link in std::iter::once(&sw.uplink).chain(sw.downlinks.iter()) {
                self.faults.tlp_replays += link.down.replays() + link.up.replays();
            }
        }
        let tenants = match &self.front {
            Some(front) => front
                .lanes
                .iter()
                .zip(self.cfg.tenants.specs())
                .enumerate()
                .map(|(i, (acc, spec))| TenantStats {
                    tenant: i as u32,
                    weight: spec.weight,
                    sla_p99_ns: spec.sla_p99_ns,
                    completed: acc.completed,
                    reads: acc.reads,
                    writes: acc.writes,
                    violations: acc.violations,
                    p50_ns: acc.lat.percentile(0.50),
                    p99_ns: acc.lat.percentile(0.99),
                    read_p99_ns: acc.rlat.percentile(0.99),
                    write_p99_ns: acc.wlat.percentile(0.99),
                    mean_ns: acc.lat.mean().round() as u64,
                    max_ns: acc.lat.max(),
                })
                .collect(),
            None => Vec::new(),
        };
        RunReport {
            mode: self.mode,
            completed: self.completed,
            reads: self.reads_done,
            writes: self.writes_done,
            first_submit: if self.first_submit == SimTime::MAX {
                SimTime::ZERO
            } else {
                self.first_submit
            },
            last_complete: self.last_complete,
            latency: self.lat,
            read_latency: self.rlat,
            write_latency: self.wlat,
            bd_sum: self.bd_sum,
            attr_link: self.attr_link,
            attr_storage: self.attr_storage,
            series: self.series,
            per_cluster_requests: self.clusters.iter().map(|c| c.served).collect(),
            per_cluster_relocs_in: self.clusters.iter().map(|c| c.relocs_in).collect(),
            dropped_writes: self.dropped_writes,
            autonomic: self.auto.stats,
            ftl: self.ftl.stats(),
            wear,
            faults: self.faults,
            recovery: self.recovery,
            tenants,
            events: self.events,
        }
    }
}

/// Convenience: nanoseconds between two instants as `Nanos`.
#[allow(dead_code)]
fn dur(a: SimTime, b: SimTime) -> Nanos {
    b - a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::TraceRequest;

    fn read_at(us: u64, lpn: u64) -> TraceRequest {
        TraceRequest::new(SimTime::from_us(us), IoOp::Read, LogicalPage(lpn), 1)
    }

    fn write_at(us: u64, lpn: u64) -> TraceRequest {
        TraceRequest::new(SimTime::from_us(us), IoOp::Write, LogicalPage(lpn), 1)
    }

    /// Reads that recycle a dense hot region of cluster 0 at a rate the
    /// shared ONFi bus cannot sustain: the canonical hot-cluster
    /// scenario. Consecutive pages stripe across every FIMM, package and
    /// die, so the bus (not the dies) is the bottleneck.
    fn hot_read_trace(n: u64, gap_ns: u64) -> Trace {
        (0..n)
            .map(|i| {
                TraceRequest::new(
                    SimTime::from_nanos(i * gap_ns),
                    IoOp::Read,
                    LogicalPage(i % 2_048),
                    1,
                )
            })
            .collect()
    }

    #[test]
    fn single_read_latency_is_physical() {
        let report = Array::new(ArrayConfig::small_test(), ManagementMode::NonAutonomic)
            .run(&Trace::new(vec![read_at(0, 0)]));
        assert_eq!(report.completed(), 1);
        let us = report.mean_latency_us();
        // ~26us array read + 2.66us DMA + ~3.5us of network/routing
        assert!(us > 28.0 && us < 45.0, "unexpected read latency {us}us");
    }

    #[test]
    fn single_write_acks_before_program_completes() {
        let report = Array::new(ArrayConfig::small_test(), ManagementMode::NonAutonomic)
            .run(&Trace::new(vec![write_at(0, 0)]));
        assert_eq!(report.completed(), 1);
        let us = report.mean_latency_us();
        // Buffered ack: far less than the 601us program time.
        assert!(us < 100.0, "write ack took {us}us");
        assert_eq!(report.ftl_stats().host_writes, 1);
    }

    #[test]
    fn deterministic_replay() {
        let trace = hot_read_trace(2_000, 700);
        let a = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run(&trace);
        let b = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run(&trace);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.mean_latency_us(), b.mean_latency_us());
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(
            a.autonomic_stats().migrations_started,
            b.autonomic_stats().migrations_started
        );
    }

    #[test]
    fn hot_cluster_creates_link_contention_in_baseline() {
        let report = Array::new(ArrayConfig::small_test(), ManagementMode::NonAutonomic)
            .run(&hot_read_trace(20_000, 1_400));
        assert_eq!(report.completed(), 20_000);
        assert!(
            report.avg_link_contention_us() > 1.0,
            "expected link contention, got {}us",
            report.avg_link_contention_us()
        );
        // All requests landed on cluster 0.
        assert_eq!(report.per_cluster_requests()[0], 20_000);
        assert_eq!(report.hot_cluster_count(0.1), 1);
    }

    #[test]
    fn autonomic_migrates_and_beats_baseline() {
        let trace = hot_read_trace(20_000, 1_400);
        let base = Array::new(ArrayConfig::small_test(), ManagementMode::NonAutonomic).run(&trace);
        let aaa = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run(&trace);
        assert_eq!(base.completed(), aaa.completed());
        let stats = aaa.autonomic_stats();
        assert!(stats.hot_detections > 0, "no hot clusters detected");
        assert!(stats.migrations_started > 0, "no migrations started");
        assert!(stats.pages_migrated > 0);
        assert!(
            aaa.mean_latency_us() < base.mean_latency_us(),
            "triple-a {}us !< baseline {}us",
            aaa.mean_latency_us(),
            base.mean_latency_us()
        );
        assert!(
            aaa.avg_link_contention_us() < base.avg_link_contention_us(),
            "link contention not reduced"
        );
    }

    #[test]
    fn migration_spreads_load_across_siblings() {
        let trace = hot_read_trace(20_000, 1_400);
        let aaa = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run(&trace);
        // After migration, later requests route to sibling clusters of
        // switch 0 (indices 0..4 in the 2x4 small topology).
        let per = aaa.per_cluster_requests();
        let siblings: u64 = per[1..4].iter().sum();
        assert!(siblings > 0, "no requests served by sibling clusters");
        // Never across the switch boundary:
        let other_switch: u64 = per[4..].iter().sum();
        assert_eq!(other_switch, 0, "migration crossed a switch");
    }

    #[test]
    fn non_autonomic_never_migrates() {
        let report = Array::new(ArrayConfig::small_test(), ManagementMode::NonAutonomic)
            .run(&hot_read_trace(4_000, 1_400));
        let stats = report.autonomic_stats();
        assert_eq!(stats.hot_detections, 0);
        assert_eq!(stats.migrations_started, 0);
        assert_eq!(stats.pages_reshaped, 0);
        assert_eq!(report.ftl_stats().migration_writes, 0);
    }

    #[test]
    fn write_burst_exercises_buffer_and_storage_contention() {
        // 200 writes into one cluster back-to-back against a small
        // 32-page buffer: it fills, and programs (601us each) back
        // things up.
        let trace: Trace = (0..200)
            .map(|i| write_at(i / 10, (i * 8) % 1_000))
            .collect();
        let mut cfg = ArrayConfig::small_test();
        cfg.write_buffer_pages = 32;
        let report = Array::new(cfg, ManagementMode::NonAutonomic).run(&trace);
        assert_eq!(report.completed(), 200);
        assert!(
            report.avg_storage_contention_us() > 10.0,
            "expected write-buffer pressure, got {}us",
            report.avg_storage_contention_us()
        );
        assert_eq!(report.ftl_stats().host_writes, 200);
    }

    #[test]
    fn autonomic_redirects_stalled_writes() {
        let trace: Trace = (0..300).map(|i| write_at(i / 20, (i * 8) % 256)).collect();
        let mut cfg = ArrayConfig::small_test();
        cfg.write_buffer_pages = 32;
        let aaa = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
        assert!(
            aaa.autonomic_stats().write_redirects > 0,
            "no stalled writes redirected"
        );
    }

    #[test]
    fn breakdown_is_bounded_by_total_latency() {
        let trace = hot_read_trace(1_000, 800);
        let report =
            Array::new(ArrayConfig::small_test(), ManagementMode::NonAutonomic).run(&trace);
        let accounted = report.avg_queue_stall_us()
            + report.avg_direct_link_wait_us()
            + report.avg_direct_storage_wait_us()
            + report.avg_fimm_service_us();
        assert!(
            accounted <= report.mean_latency_us() * 1.01,
            "breakdown {accounted}us exceeds mean {}us",
            report.mean_latency_us()
        );
        assert!(report.avg_network_us() >= 0.0);
    }

    #[test]
    fn empty_trace_reports_zeroes() {
        let report =
            Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run(&Trace::default());
        assert_eq!(report.completed(), 0);
        assert_eq!(report.iops(), 0.0);
    }

    #[test]
    fn rc_queue_backpressure_creates_rc_stall() {
        let mut cfg = ArrayConfig::small_test();
        cfg.pcie.rc_queue = 4;
        // 100 simultaneous reads through a 4-entry RC queue.
        let trace: Trace = (0..100).map(|i| read_at(0, i * 8)).collect();
        let report = Array::new(cfg, ManagementMode::NonAutonomic).run(&trace);
        assert_eq!(report.completed(), 100);
        assert!(
            report.avg_rc_stall_us() > 1.0,
            "expected RC stalls, got {}us",
            report.avg_rc_stall_us()
        );
    }

    #[test]
    fn reads_and_writes_mix() {
        let trace: Trace = (0..400)
            .map(|i| {
                if i % 3 == 0 {
                    write_at(i, (i * 8) % 4_096)
                } else {
                    read_at(i, (i * 8) % 4_096)
                }
            })
            .collect();
        let report = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run(&trace);
        assert_eq!(report.completed(), 400);
        assert_eq!(report.reads() + report.writes(), 400);
        assert!(report.reads() > report.writes());
        assert!(report.read_latency_histogram().count() == report.reads());
        assert!(report.write_latency_histogram().count() == report.writes());
    }

    #[test]
    fn series_collection_respects_flag() {
        let trace = hot_read_trace(50, 1_000);
        let run = |on| {
            let cfg = ArrayConfig::small_builder()
                .collect_series(on)
                .build()
                .unwrap();
            Array::new(cfg, ManagementMode::NonAutonomic).run(&trace)
        };
        let with = run(true);
        assert_eq!(with.series().len(), 50);
        let without = run(false);
        assert!(without.series().is_empty());
    }

    #[test]
    fn naive_migration_interferes_more_than_shadow() {
        let trace = hot_read_trace(20_000, 1_400);
        let mut naive_cfg = ArrayConfig::small_test();
        naive_cfg.autonomic.naive_migration = true;
        let naive = Array::new(naive_cfg, ManagementMode::Autonomic).run(&trace);
        let shadow = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run(&trace);
        // Naive migration re-reads everything from the hot cluster,
        // stealing bus time from foreground I/O (Fig. 16b vs 16c).
        assert!(
            naive.avg_link_contention_us() >= shadow.avg_link_contention_us(),
            "naive {} < shadow {}",
            naive.avg_link_contention_us(),
            shadow.avg_link_contention_us()
        );
    }

    #[test]
    fn mapping_cache_misses_slow_cold_lookups() {
        let mut cached = ArrayConfig::small_test();
        cached.mapping_cache_pages = 2;
        // Scatter reads over many translation pages: most lookups miss.
        let trace: Trace = (0..200)
            .map(|i| read_at(i * 50, (i * 4_096) % 200_000))
            .collect();
        let full_map =
            Array::new(ArrayConfig::small_test(), ManagementMode::NonAutonomic).run(&trace);
        let dftl = Array::new(cached, ManagementMode::NonAutonomic).run(&trace);
        assert!(
            dftl.mean_latency_us() > full_map.mean_latency_us() * 1.5,
            "map misses should add a flash read: {} vs {}",
            dftl.mean_latency_us(),
            full_map.mean_latency_us()
        );
    }

    #[test]
    fn mlc_timing_slows_the_array_end_to_end() {
        // Light load so latency reflects device service, not queueing.
        let trace: Trace = (0..200).map(|i| read_at(i * 100, i % 512)).collect();
        let slc = Array::new(ArrayConfig::small_test(), ManagementMode::NonAutonomic).run(&trace);
        let mut mlc_cfg = ArrayConfig::small_test();
        mlc_cfg.flash_timing = triplea_flash::FlashTiming::mlc();
        let mlc = Array::new(mlc_cfg, ManagementMode::NonAutonomic).run(&trace);
        assert!(
            mlc.mean_latency_us() > slc.mean_latency_us() * 1.3,
            "MLC reads (40us) should be visibly slower than SLC (25us): {} vs {}",
            mlc.mean_latency_us(),
            slc.mean_latency_us()
        );
    }

    #[test]
    fn end_of_life_drops_writes_instead_of_panicking() {
        // Tiny flash with endurance 2: sustained overwrites retire every
        // block; the array must degrade gracefully.
        let mut cfg = ArrayConfig::small_test();
        cfg.shape.flash.blocks_per_plane = 4;
        cfg.shape.flash.endurance = 2;
        cfg.gc_threshold_blocks = 2;
        let trace: Trace = (0..40_000)
            .map(|i| write_at(i * 10, (i % 16) * 2))
            .collect();
        let report = Array::new(cfg, ManagementMode::NonAutonomic).run(&trace);
        assert_eq!(report.completed(), 40_000, "all requests still ack");
        assert!(
            report.dropped_writes() > 0,
            "expected end-of-life write drops"
        );
        assert!(report.wear().retired_blocks > 0, "blocks should retire");
    }

    #[test]
    fn opportunistic_gc_reclaims_ahead_of_the_hard_limit() {
        // Small flash so the free pool shrinks fast; low write rate so
        // the bus stays quiet and opportunistic GC can fire.
        let mut cfg = ArrayConfig::small_test();
        cfg.shape.flash.blocks_per_plane = 8;
        cfg.gc_threshold_blocks = 2;
        let trace: Trace = (0..20_000)
            .map(|i| write_at(i * 20, (i % 64) * 2))
            .collect();
        cfg.opportunistic_gc = true;
        let eager = Array::new(cfg.clone(), ManagementMode::NonAutonomic).run(&trace);
        cfg.opportunistic_gc = false;
        let lazy = Array::new(cfg, ManagementMode::NonAutonomic).run(&trace);
        assert!(
            eager.ftl_stats().gc_erases >= lazy.ftl_stats().gc_erases,
            "opportunistic mode should clean at least as much ({} vs {})",
            eager.ftl_stats().gc_erases,
            lazy.ftl_stats().gc_erases
        );
        assert!(eager.ftl_stats().gc_erases > 0);
    }

    #[test]
    fn sustained_hot_scenario_matches_paper_shape() {
        // A 2x-overloaded hot cluster, sustained long enough for
        // migration's one-time program cost to amortise. Triple-A must
        // deliver materially higher IOPS and lower latency, with link
        // contention nearly eliminated (paper Figs. 9-10).
        let trace = hot_read_trace(20_000, 1_400);
        let base = Array::new(ArrayConfig::small_test(), ManagementMode::NonAutonomic).run(&trace);
        let aaa = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run(&trace);
        assert!(
            aaa.iops() > base.iops() * 1.2,
            "triple-a {:.0} iops !> 1.2x baseline {:.0}",
            aaa.iops(),
            base.iops()
        );
        assert!(
            aaa.mean_latency_us() < base.mean_latency_us() * 0.7,
            "triple-a {:.0}us !< 0.7x baseline {:.0}us",
            aaa.mean_latency_us(),
            base.mean_latency_us()
        );
        assert!(
            aaa.avg_link_contention_us() < base.avg_link_contention_us() * 0.6,
            "link contention not substantially reduced"
        );
        assert!(
            aaa.avg_queue_stall_us() < base.avg_queue_stall_us(),
            "queue stalls not reduced"
        );
        // The naive-migration ablation must not beat shadow cloning.
        let mut naive_cfg = ArrayConfig::small_test();
        naive_cfg.autonomic.naive_migration = true;
        let naive = Array::new(naive_cfg, ManagementMode::Autonomic).run(&trace);
        assert!(naive.iops() <= aaa.iops() * 1.05);
    }

    /// A read/write mix long enough for the power cut to land mid-burst.
    fn mixed_trace(n: u64, gap_ns: u64) -> Trace {
        (0..n)
            .map(|i| {
                TraceRequest::new(
                    SimTime::from_nanos(i * gap_ns),
                    if i % 3 == 0 { IoOp::Write } else { IoOp::Read },
                    LogicalPage(i % 1_024),
                    1,
                )
            })
            .collect()
    }

    #[test]
    fn power_loss_mid_run_remounts_replays_and_verifies() {
        use crate::config::PowerLossEvent;
        let mut cfg = ArrayConfig::small_test();
        cfg.faults = cfg.faults.with_power_loss(PowerLossEvent::at(1_500_000));
        let trace = mixed_trace(2_000, 1_000);
        let run = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
        assert!(run.integrity.is_ok(), "{:?}", run.integrity);
        let rec = run.report.recovery_stats();
        assert_eq!(rec.power_losses, 1);
        assert!(rec.remount_ns >= 2_000_000, "remount window missing");
        assert!(
            rec.lost_inflight_requests > 0,
            "a 1.5ms cut into a 2ms burst must catch work in flight"
        );
        assert!(rec.requeued_requests > 0, "future submits must re-arrive");
        // Every request either completed or was lost at the cut.
        assert_eq!(
            run.report.completed() + rec.lost_inflight_requests,
            2_000,
            "requests neither completed nor accounted as lost"
        );
        assert!(rec.journal_replayed > 0, "the journal tail should replay");
    }

    #[test]
    fn traced_power_cut_records_one_journal_replay() {
        use crate::config::PowerLossEvent;
        let mut cfg = ArrayConfig::small_test();
        cfg.faults = cfg.faults.with_power_loss(PowerLossEvent::at(1_500_000));
        let run = Array::new(cfg, ManagementMode::Autonomic)
            .with_recorder(TraceConfig::all().with_capacity(1 << 20))
            .run_verified(&mixed_trace(2_000, 1_000));
        let trace = run.trace.expect("recorder attached");
        assert_eq!(trace.dropped, 0);
        let recovery: Vec<&TraceEventKind> = trace
            .events
            .iter()
            .map(|e| &e.kind)
            .filter(|k| {
                matches!(
                    k,
                    TraceEventKind::PowerLoss { .. } | TraceEventKind::JournalReplay { .. }
                )
            })
            .collect();
        let replayed = run.report.recovery_stats().journal_replayed;
        assert!(replayed > 0, "the journal tail should replay");
        assert!(
            matches!(
                recovery.as_slice(),
                [TraceEventKind::PowerLoss { .. }, TraceEventKind::JournalReplay { replayed: r, .. }]
                    if *r == replayed
            ),
            "{recovery:?}"
        );
    }

    #[test]
    fn power_loss_replay_is_deterministic() {
        use crate::config::PowerLossEvent;
        let mut cfg = ArrayConfig::small_test();
        cfg.faults = cfg.faults.with_power_loss(PowerLossEvent::at(1_200_000));
        let trace = mixed_trace(1_500, 900);
        let a = Array::new(cfg.clone(), ManagementMode::Autonomic).run_verified(&trace);
        let b = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
        assert_eq!(a.report.completed(), b.report.completed());
        assert_eq!(a.report.events_processed(), b.report.events_processed());
        assert_eq!(a.report.recovery_stats(), b.report.recovery_stats());
        assert_eq!(a.report.mean_latency_us(), b.report.mean_latency_us());
    }

    #[test]
    fn hot_spare_rebuild_completes_and_reports() {
        use crate::config::FimmFaultEvent;
        let mut cfg = ArrayConfig::small_test();
        cfg.hot_spares = 1;
        cfg.faults = cfg.faults.with_fimm_event(FimmFaultEvent {
            cluster: 0,
            fimm: 0,
            at_ns: 800_000,
            kind: FimmFaultKind::Dead,
        });
        // Writes seed data across the array (including the doomed
        // module), then reads ride through the death and the rebuild.
        let trace: Trace = (0..1_500)
            .map(|i| {
                TraceRequest::new(
                    SimTime::from_nanos(i * 1_000),
                    if i < 500 { IoOp::Write } else { IoOp::Read },
                    LogicalPage(i % 512),
                    1,
                )
            })
            .collect();
        let run = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
        assert!(run.integrity.is_ok(), "{:?}", run.integrity);
        assert_eq!(run.report.completed(), 1_500);
        let rec = run.report.recovery_stats();
        assert_eq!(rec.rebuilds_completed, 1, "rebuild must finish");
        assert!(rec.rebuild_ns > 0, "rebuild takes simulated time");
        assert!(
            rec.degraded_p99_ns > 0,
            "completions inside the degraded window feed the p99"
        );
        // The death still shows in the fault census even though the
        // module was swapped out for the spare.
        assert_eq!(run.report.fault_stats().fimm_deaths, 1);
    }

    #[test]
    fn unused_hot_spares_change_nothing() {
        let trace = mixed_trace(800, 1_000);
        let base = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run(&trace);
        let mut cfg = ArrayConfig::small_test();
        cfg.hot_spares = 2;
        let spared = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
        assert_eq!(base.completed(), spared.completed());
        assert_eq!(base.events_processed(), spared.events_processed());
        assert_eq!(base.mean_latency_us(), spared.mean_latency_us());
        assert!(!spared.recovery_stats().any());
    }

    fn tenant_cfg(specs: Vec<crate::tenant::TenantSpec>) -> ArrayConfig {
        let mut cfg = ArrayConfig::small_test();
        cfg.tenants = crate::tenant::TenantConfig::new(specs);
        cfg
    }

    /// `n` requests interleaved round-robin across `t` tenants.
    fn tenant_trace(n: u64, tenants: u32, gap_ns: u64) -> Trace {
        (0..n)
            .map(|i| {
                TraceRequest::for_tenant(
                    TenantId((i % tenants as u64) as u32),
                    SimTime::from_nanos(i * gap_ns),
                    IoOp::Read,
                    LogicalPage((i * 8) % 4_096),
                    1,
                )
            })
            .collect()
    }

    #[test]
    fn untenanted_run_reports_no_tenants() {
        let report = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic)
            .run(&hot_read_trace(200, 1_000));
        assert!(report.tenant_stats().is_empty());
        assert_eq!(report.sla_violations(), 0);
    }

    #[test]
    fn tenant_front_door_completes_everything_and_attributes_it() {
        use crate::tenant::TenantSpec;
        let cfg = tenant_cfg(vec![TenantSpec::interactive(), TenantSpec::batch()]);
        let report = Array::new(cfg, ManagementMode::Autonomic).run(&tenant_trace(2_000, 2, 1_000));
        assert_eq!(report.completed(), 2_000);
        let ts = report.tenant_stats();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].completed, 1_000);
        assert_eq!(ts[1].completed, 1_000);
        assert_eq!(ts[0].reads, 1_000);
        assert!(ts[0].p99_ns > 0 && ts[0].p99_ns >= ts[0].p50_ns);
        assert_eq!((ts[0].tenant, ts[1].tenant), (0, 1));
        assert_eq!(ts[0].weight, 8);
    }

    #[test]
    fn tenant_mode_is_deterministic() {
        use crate::tenant::TenantSpec;
        let cfg = tenant_cfg(vec![TenantSpec::interactive(), TenantSpec::batch()]);
        let trace = tenant_trace(3_000, 2, 700);
        let a = Array::new(cfg.clone(), ManagementMode::Autonomic).run(&trace);
        let b = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.tenant_stats(), b.tenant_stats());
    }

    #[test]
    fn weighted_tenant_beats_batch_under_admission_pressure() {
        use crate::tenant::TenantSpec;
        // Everything submitted at t=0 through an 8-credit root complex:
        // the weighted-fair arbiter alone decides service order, so the
        // weight-8 tenant's requests must see materially lower latency.
        let mut cfg = tenant_cfg(vec![
            TenantSpec {
                weight: 8,
                sla_p99_ns: 200_000,
                qd_limit: 64,
            },
            TenantSpec {
                weight: 1,
                sla_p99_ns: 5_000_000,
                qd_limit: 64,
            },
        ]);
        cfg.pcie.rc_queue = 8;
        let trace = tenant_trace(400, 2, 0);
        let report = Array::new(cfg, ManagementMode::NonAutonomic).run(&trace);
        assert_eq!(report.completed(), 400);
        let ts = report.tenant_stats();
        assert!(
            ts[0].mean_ns * 3 < ts[1].mean_ns * 2,
            "weight-8 tenant {}ns !<< weight-1 tenant {}ns",
            ts[0].mean_ns,
            ts[1].mean_ns
        );
    }

    #[test]
    fn tenant_partitioning_preserves_total_completions() {
        use crate::tenant::TenantSpec;
        // The same request stream, split across 1 / 2 / 4 equal-weight
        // lanes with generous queue depths, must complete identically —
        // partitioning renames requests, it does not lose them.
        let base = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic)
            .run(&tenant_trace(1_500, 1, 900));
        for t in [1u32, 2, 4] {
            let spec = TenantSpec {
                weight: 1,
                sla_p99_ns: 1_000_000,
                qd_limit: 512,
            };
            let cfg = tenant_cfg(vec![spec; t as usize]);
            let report =
                Array::new(cfg, ManagementMode::Autonomic).run(&tenant_trace(1_500, t, 900));
            assert_eq!(report.completed(), 1_500, "{t} tenants");
            let sum: u64 = report.tenant_stats().iter().map(|s| s.completed).sum();
            assert_eq!(sum, base.completed(), "{t} tenants");
        }
    }

    #[test]
    fn tenant_power_loss_clears_lanes_and_recovers() {
        use crate::config::PowerLossEvent;
        use crate::tenant::TenantSpec;
        let mut cfg = tenant_cfg(vec![TenantSpec::interactive(), TenantSpec::batch()]);
        cfg.faults = cfg.faults.with_power_loss(PowerLossEvent::at(1_000_000));
        let trace = tenant_trace(2_000, 2, 1_000);
        let run = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
        assert!(run.integrity.is_ok(), "{:?}", run.integrity);
        let rec = run.report.recovery_stats();
        assert_eq!(rec.power_losses, 1);
        let sum: u64 = run.report.tenant_stats().iter().map(|s| s.completed).sum();
        assert_eq!(
            sum + rec.lost_inflight_requests,
            2_000,
            "every request completed on some lane or was lost at the cut"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the address space")]
    fn submit_rejects_a_range_that_wraps_the_address_space() {
        let mut runner =
            Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).into_runner();
        runner.submit(&TraceRequest::new(
            SimTime::ZERO,
            IoOp::Read,
            LogicalPage(u64::MAX),
            1,
        ));
    }

    #[test]
    #[should_panic(expected = "names tenant.5")]
    fn out_of_range_tenant_panics_on_tenanted_array() {
        use crate::tenant::TenantSpec;
        let cfg = tenant_cfg(vec![TenantSpec::interactive()]);
        let trace = Trace::new(vec![TraceRequest::for_tenant(
            TenantId(5),
            SimTime::ZERO,
            IoOp::Read,
            LogicalPage(0),
            1,
        )]);
        let _ = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
    }

    #[test]
    fn dead_module_without_spare_stays_degraded() {
        use crate::config::FimmFaultEvent;
        let mut cfg = ArrayConfig::small_test();
        cfg.faults = cfg.faults.with_fimm_event(FimmFaultEvent {
            cluster: 0,
            fimm: 0,
            at_ns: 500_000,
            kind: FimmFaultKind::Dead,
        });
        let trace = mixed_trace(1_000, 1_000);
        let run = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
        assert!(run.integrity.is_ok());
        let rec = run.report.recovery_stats();
        assert_eq!(rec.rebuilds_completed, 0, "no spare, no rebuild");
        assert_eq!(run.report.fault_stats().fimm_deaths, 1);
    }
}
