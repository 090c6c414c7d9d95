//! The federation: N member arrays co-simulated in one deterministic
//! epoch loop, with replica routing, power-loss read retry, and the
//! inter-array laggard policy.

use std::collections::BTreeMap;

use triplea_ftl::IntegrityError;
use triplea_sim::stats::Histogram;
use triplea_sim::trace::{
    MetricRegistry, Recorder, RunTrace, TraceConfig, TraceEventKind, TraceScope,
};
use triplea_sim::{FxHashMap, FxHashSet, Nanos, SimTime};

use crate::array::{Array, ArrayRunner, Finished, GOLDEN};
use crate::config::{ArrayConfig, FaultConfig, ManagementMode};
use crate::federation::map::{ChunkPlacement, VolumeMapper};
use crate::metrics::RunReport;
use crate::request::{IoOp, Trace, TraceRequest};

// The inter-array laggard policy: the Eq. 3 machinery lifted one level
// up, where whole member arrays take the role FIMMs play inside one box.

/// Federation p99 budget, ns. An array whose cumulative p99 exceeds it
/// *and* lags its healthiest peer by [`IMBALANCE_MILLI`] is the
/// federation's laggard.
const SLA_P99_NS: Nanos = 500_000;

/// Laggard threshold relative to the healthiest peer, in milli-units:
/// `1200` flags an array once its p99 is 1.2× the best peer's (integer
/// arithmetic keeps the comparison deterministic).
const IMBALANCE_MILLI: u64 = 1_200;

/// Epoch length, ns: member arrays are co-simulated in lockstep windows
/// of this size, and the laggard detector samples once per epoch.
const EPOCH_NS: Nanos = 200_000;

/// Hot chunks shadow-cloned off the laggard per detection.
const CHUNKS_PER_EPOCH: u32 = 4;

/// Migration-slot chunks reserved on every array for inbound clones;
/// also the capacity check's reserve.
pub(super) const MIGRATION_SLOTS: u64 = 64;

/// Epochs to hold off after a migration round before re-examining (the
/// inter-array analogue of the Eq. 3 cooldown).
const COOLDOWN_EPOCHS: u32 = 2;

/// A fully assembled, validated federation, ready to replay a
/// volume-level [`Trace`]. Built by
/// [`FederationBuilder::build`](crate::FederationBuilder::build).
#[derive(Debug)]
pub struct Federation {
    /// The volume address map; migration overrides accrue during the run.
    pub(super) mapper: VolumeMapper,
    runners: Vec<ArrayRunner>,
    rec: Option<Recorder>,
    /// Unresolved volume requests; a slot is reused once its request
    /// resolves, so the table follows what is open, not the trace.
    vol: Vec<Option<VolReq>>,
    /// Free `vol` slots, reused last-freed first.
    free_vol: Vec<u32>,
    /// Per member array: the ids it was handed that have not finished.
    awaiting: Vec<FxHashMap<u32, Awaited>>,
    /// Host fragments currently in flight per array (replica routing).
    inflight: Vec<u64>,
    // Laggard policy state.
    heat: FxHashMap<u64, u64>,
    /// In-flight migrations by creation sequence number.
    migrations: BTreeMap<u64, Migration>,
    next_migration: u64,
    /// Chunk copies with an active migration (no double-claim).
    migrating: FxHashSet<(u32, u64)>,
    /// Monotonic slot allocation per array (aborted slots are retired,
    /// not reused, so concurrent clones never collide).
    slots_alloc: Vec<u64>,
    cooldown: u32,
    stats: FederationStats,
    lat: Histogram,
    rlat: Histogram,
    wlat: Histogram,
}

impl Federation {
    /// Assembles the member arrays over a validated volume geometry:
    /// each gets `array` with its own RNG stream, and its fault plan
    /// from `fault_overrides` where one names it.
    pub(super) fn new(
        array: ArrayConfig,
        mode: ManagementMode,
        mapper: VolumeMapper,
        fault_overrides: &[(u32, FaultConfig)],
        trace: Option<TraceConfig>,
    ) -> Self {
        let arrays = mapper.width() * mapper.replicas();
        let n = arrays as usize;
        let runners = (0..arrays)
            .map(|i| {
                let mut ac: ArrayConfig = array.clone();
                // Disjoint RNG stream per member array, same scheme the
                // engine uses per FIMM.
                ac.seed ^= (i as u64 + 1).wrapping_mul(GOLDEN);
                if let Some((_, faults)) = fault_overrides.iter().find(|(a, _)| *a == i) {
                    ac.faults = *faults;
                }
                Array::new(ac, mode).into_runner()
            })
            .collect();
        let stats = FederationStats {
            arrays,
            stripe_width: mapper.width(),
            replicas: mapper.replicas(),
            chunk_pages: mapper.chunk_pages(),
            per_array_reads: vec![0; n],
            per_array_fragments: vec![0; n],
            per_array_p99_ns: vec![0; n],
            per_array_migrations_out: vec![0; n],
            ..FederationStats::default()
        };
        Federation {
            mapper,
            runners,
            rec: trace.map(Recorder::new),
            vol: Vec::new(),
            free_vol: Vec::new(),
            awaiting: vec![FxHashMap::default(); n],
            inflight: vec![0; n],
            heat: FxHashMap::default(),
            migrations: BTreeMap::new(),
            next_migration: 0,
            migrating: FxHashSet::default(),
            slots_alloc: vec![0; n],
            cooldown: 0,
            stats,
            lat: Histogram::new(),
            rlat: Histogram::new(),
            wlat: Histogram::new(),
        }
    }

    /// Replays a volume-level `trace` to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if a record has `pages == 0`, addresses a page outside the
    /// volume, or names a tenant outside the member arrays' tenant table.
    pub fn run(self, trace: &Trace) -> FederationReport {
        self.run_verified(trace).report
    }

    /// Like [`Federation::run`], but additionally audits every member
    /// array's FTL metadata integrity and harvests the federation-level
    /// event trace when a recorder was attached.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Federation::run`].
    pub fn run_verified(mut self, trace: &Trace) -> FederationRun {
        let volume_pages = self.mapper.volume_pages();
        let n_tenants = self.runners[0].config().tenants.len();
        for (i, r) in trace.requests().iter().enumerate() {
            assert!(r.pages >= 1, "volume request {i} has zero pages");
            assert!(
                r.lpn
                    .0
                    .checked_add(r.pages as u64)
                    .is_some_and(|end| end <= volume_pages),
                "volume request {i} exceeds the volume address space"
            );
            assert!(
                n_tenants == 0 || r.tenant.index() < n_tenants,
                "volume request {i} names {} but the member arrays have {n_tenants} tenants",
                r.tenant
            );
        }
        self.drive(trace.requests(), |_| {});
        for (i, r) in self.runners.iter().enumerate() {
            self.stats.per_array_p99_ns[i] = r.p99_ns();
        }
        self.stats.mean_ns = self.lat.mean().round() as u64;
        self.stats.p50_ns = self.lat.percentile(0.50);
        self.stats.p99_ns = self.lat.percentile(0.99);
        self.stats.max_ns = self.lat.max();
        self.stats.read_p99_ns = self.rlat.percentile(0.99);
        self.stats.write_p99_ns = self.wlat.percentile(0.99);
        let runs: Vec<_> = self.runners.into_iter().map(ArrayRunner::finish).collect();
        let mut integrity: Result<(), IntegrityError> = Ok(());
        for run in &runs {
            if let Err(e) = run.integrity {
                integrity = Err(e);
                break;
            }
        }
        let reports: Vec<RunReport> = runs.into_iter().map(|r| r.report).collect();
        let trace_out = self.rec.map(|rec| {
            let mut m = MetricRegistry::new();
            m.counter("federation.volume.requests", self.stats.volume_requests);
            m.counter("federation.volume.completed", self.stats.completed);
            m.counter("federation.volume.lost", self.stats.lost_requests);
            m.counter("federation.volume.retried_reads", self.stats.retried_reads);
            m.counter(
                "federation.migrations.started",
                self.stats.migrations_started,
            );
            m.counter(
                "federation.migrations.committed",
                self.stats.migrations_committed,
            );
            m.counter(
                "federation.migrations.aborted",
                self.stats.migrations_aborted,
            );
            m.histogram("federation.latency", &self.lat);
            for (i, report) in reports.iter().enumerate() {
                m.counter(
                    format!("federation.array.{i}.completed"),
                    report.completed(),
                );
                m.counter(
                    format!("federation.array.{i}.fragments"),
                    self.stats.per_array_fragments[i],
                );
                m.counter(
                    format!("federation.array.{i}.reads_routed"),
                    self.stats.per_array_reads[i],
                );
                m.counter(
                    format!("federation.array.{i}.p99_ns"),
                    self.stats.per_array_p99_ns[i],
                );
                m.counter(
                    format!("federation.array.{i}.migrations_out"),
                    self.stats.per_array_migrations_out[i],
                );
            }
            RunTrace::from_recorder(rec, m)
        });
        FederationRun {
            report: FederationReport {
                arrays: reports,
                stats: self.stats,
                latency: self.lat,
                read_latency: self.rlat,
                write_latency: self.wlat,
            },
            trace: trace_out,
            integrity,
        }
    }
}

/// The outcome of [`Federation::run_verified`].
#[derive(Clone, Debug)]
pub struct FederationRun {
    /// The federation report: per-array [`RunReport`]s plus
    /// federation-level stats and latency distributions.
    pub report: FederationReport,
    /// The harvested federation-level trace (cross-array hops, laggard
    /// detections, migrations) and `federation.array.N.*` metrics;
    /// `None` without a recorder.
    pub trace: Option<RunTrace>,
    /// First failing member-array FTL integrity audit, if any.
    pub integrity: Result<(), IntegrityError>,
}

/// Federation-level counters and distributions, serialized into bench
/// artifacts alongside the per-array reports.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct FederationStats {
    /// Member arrays.
    pub arrays: u32,
    /// Stripe width `W`.
    pub stripe_width: u32,
    /// Replication factor `R`.
    pub replicas: u32,
    /// Pages per chunk.
    pub chunk_pages: u64,
    /// Volume requests submitted.
    pub volume_requests: u64,
    /// Volume requests fully completed (including degraded writes).
    pub completed: u64,
    /// Writes that completed with at least one replica copy lost to an
    /// array failure (data durable on the surviving copies).
    pub degraded_writes: u64,
    /// Volume requests lost outright (every relevant copy died).
    pub lost_requests: u64,
    /// Read fragments re-routed to a surviving replica after a loss.
    pub retried_reads: u64,
    /// Array-level fragments submitted on behalf of volume requests.
    pub fragments: u64,
    /// Epochs the federation scheduler ran.
    pub epochs: u64,
    /// Epochs in which the inter-array laggard detector fired.
    pub laggard_epochs: u64,
    /// Inter-array chunk migrations started.
    pub migrations_started: u64,
    /// Migrations whose clone became durable and whose placement
    /// committed.
    pub migrations_committed: u64,
    /// Migrations aborted (clone I/O lost mid-flight); the source
    /// placement stayed live.
    pub migrations_aborted: u64,
    /// Pages moved by committed migrations.
    pub migrated_pages: u64,
    /// Volume-request latency mean, ns.
    pub mean_ns: u64,
    /// Volume-request latency p50, ns.
    pub p50_ns: u64,
    /// Volume-request latency p99, ns.
    pub p99_ns: u64,
    /// Volume-request latency max, ns.
    pub max_ns: u64,
    /// Read p99, ns.
    pub read_p99_ns: u64,
    /// Write p99, ns.
    pub write_p99_ns: u64,
    /// Read fragments routed to each array (replica selection census).
    pub per_array_reads: Vec<u64>,
    /// Host fragments (reads + write copies) submitted to each array.
    pub per_array_fragments: Vec<u64>,
    /// Each array's cumulative p99 at the end of the run, ns.
    pub per_array_p99_ns: Vec<u64>,
    /// Committed migrations out of each array.
    pub per_array_migrations_out: Vec<u64>,
}

/// The federation report: what [`RunReport`] is to one array.
#[derive(Clone, Debug)]
pub struct FederationReport {
    /// One [`RunReport`] per member array, in array order.
    pub arrays: Vec<RunReport>,
    /// Federation-level counters and latency headlines.
    pub stats: FederationStats,
    /// Volume-request end-to-end latency distribution.
    pub latency: Histogram,
    /// Volume read latency distribution.
    pub read_latency: Histogram,
    /// Volume write latency distribution.
    pub write_latency: Histogram,
}

impl FederationReport {
    /// Volume requests fully completed.
    pub fn completed(&self) -> u64 {
        self.stats.completed
    }

    /// Volume-request IOPS over the span from first submission to last
    /// completion across all member arrays.
    pub fn iops(&self) -> f64 {
        let span_ns = self
            .arrays
            .iter()
            .map(|r| r.makespan().as_nanos())
            .max()
            .unwrap_or(0);
        if span_ns == 0 {
            return 0.0;
        }
        self.stats.completed as f64 * 1e9 / span_ns as f64
    }
}

impl std::fmt::Display for FederationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.stats;
        writeln!(
            f,
            "federation: {} arrays ({}x{}, {}-page chunks)",
            s.arrays, s.stripe_width, s.replicas, s.chunk_pages
        )?;
        writeln!(
            f,
            "  volume: {} requests, {} completed, {} lost, {} retried reads, \
             {} degraded writes",
            s.volume_requests, s.completed, s.lost_requests, s.retried_reads, s.degraded_writes
        )?;
        writeln!(
            f,
            "  latency: mean {} us  p50 {} us  p99 {} us  max {} us",
            s.mean_ns / 1_000,
            s.p50_ns / 1_000,
            s.p99_ns / 1_000,
            s.max_ns / 1_000
        )?;
        writeln!(
            f,
            "  laggard policy: {} laggard epochs / {}, {} migrations \
             ({} committed, {} aborted), {} pages moved",
            s.laggard_epochs,
            s.epochs,
            s.migrations_started,
            s.migrations_committed,
            s.migrations_aborted,
            s.migrated_pages
        )?;
        for (i, (p99, (frags, out))) in s
            .per_array_p99_ns
            .iter()
            .zip(
                s.per_array_fragments
                    .iter()
                    .zip(&s.per_array_migrations_out),
            )
            .enumerate()
        {
            writeln!(
                f,
                "  array.{i}: {frags} fragments, p99 {} us, {out} chunks migrated out",
                p99 / 1_000
            )?;
        }
        Ok(())
    }
}

/// One array-level request issued on behalf of a volume request: a
/// chunk-local page run on one replica copy.
#[derive(Clone, Debug)]
struct Frag {
    chunk: u64,
    offset: u64,
    pages: u32,
    array: u32,
    done: bool,
    /// Bitmask of replica copies already tried (read retry bookkeeping).
    tried: u32,
}

#[derive(Clone, Debug)]
struct VolReq {
    /// Index of the request in the volume trace.
    vi: u32,
    submit: SimTime,
    read: bool,
    tenant: crate::tenant::TenantId,
    /// A write holds one fragment per replica copy of each page run,
    /// copies of a run adjacent.
    frags: Vec<Frag>,
    /// Fragments still in flight.
    in_flight: u32,
    /// Fragments lost for good: a read's with no replica left to try,
    /// any write copy.
    lost: u32,
    /// Latest completion among the durable fragments.
    finish: SimTime,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MigPhase {
    Reading,
    Writing,
}

#[derive(Clone, Debug)]
struct Migration {
    copy: u32,
    chunk: u64,
    from: u32,
    to: u32,
    /// Destination slot index within `to`'s migration region.
    slot: u64,
    /// The in-flight clone op: a read on `from`, then a write on `to`.
    phase: MigPhase,
}

/// What a member array's in-flight request was issued for. The order
/// is the order finished requests are handled in each epoch: volume
/// requests by trace index (fragments in order), then migrations in
/// creation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Awaited {
    /// Fragment `fi` of volume request `vi`, held in `vol[slot]`.
    Frag { vi: u32, fi: u32, slot: u32 },
    /// The clone op of `migrations[&seq]`.
    Migration(u64),
}

impl Federation {
    fn emit(&mut self, at: SimTime, array: u32, kind: impl FnOnce() -> TraceEventKind) {
        if let Some(rec) = &mut self.rec {
            rec.emit_at(at, TraceScope::array().unit(array), kind());
        }
    }

    /// Hands `r` to member `array` and remembers what it is for.
    fn submit_to(&mut self, array: u32, r: &TraceRequest, what: Awaited) {
        let id = self.runners[array as usize].submit(r);
        self.awaiting[array as usize].insert(id, what);
    }

    /// Submits fragment `fi` of the volume request in `vol[slot]` and
    /// updates the routing ledger.
    fn submit_frag(&mut self, array: u32, r: &TraceRequest, vi: u32, fi: usize, slot: u32) {
        let fi = fi as u32;
        self.submit_to(array, r, Awaited::Frag { vi, fi, slot });
        self.inflight[array as usize] += 1;
        self.stats.fragments += 1;
        self.stats.per_array_fragments[array as usize] += 1;
    }

    /// The replica copy a read fragment of `chunk` should go to:
    /// the least-loaded holder (ties to the lowest array index),
    /// excluding copies in the `tried` mask.
    fn pick_replica(&self, chunk: u64, tried: u32) -> Option<(u32, u32)> {
        (0..self.mapper.replicas())
            .filter(|j| tried & (1 << j) == 0)
            .map(|j| (j, self.mapper.placement(j, chunk).array))
            .min_by_key(|&(_, a)| (self.inflight[a as usize], a))
    }

    /// Volume requests not yet resolved.
    fn open(&self) -> usize {
        self.vol.len() - self.free_vol.len()
    }

    fn submit_volume(&mut self, vi: u32, r: &TraceRequest) {
        let slot = self.free_vol.pop().unwrap_or_else(|| {
            self.vol.push(None);
            (self.vol.len() - 1) as u32
        });
        let mut frags = Vec::new();
        for fr in self.mapper.fragments(r.lpn, r.pages) {
            *self.heat.entry(fr.chunk).or_insert(0) += 1;
            // A read goes to one replica, a write to every one.
            let copies = match r.op {
                IoOp::Read => {
                    let (copy, _) = self
                        .pick_replica(fr.chunk, 0)
                        .expect("replicas >= 1, nothing tried");
                    copy..copy + 1
                }
                IoOp::Write => 0..self.mapper.replicas(),
            };
            for copy in copies {
                let place = self.mapper.placement(copy, fr.chunk);
                let local = self.mapper.local_lpn(place, fr.offset);
                let array = place.array;
                self.submit_frag(
                    array,
                    &TraceRequest::for_tenant(r.tenant, r.at, r.op, local, fr.pages),
                    vi,
                    frags.len(),
                    slot,
                );
                if r.op == IoOp::Read {
                    self.stats.per_array_reads[array as usize] += 1;
                }
                self.emit(r.at, array, || TraceEventKind::FederationHop {
                    req: vi,
                    array,
                    copy,
                });
                frags.push(Frag {
                    chunk: fr.chunk,
                    offset: fr.offset,
                    pages: fr.pages,
                    array,
                    done: false,
                    tried: 1 << copy,
                });
            }
        }
        self.vol[slot as usize] = Some(VolReq {
            vi,
            submit: r.at,
            read: r.op == IoOp::Read,
            tenant: r.tenant,
            in_flight: frags.len() as u32,
            frags,
            lost: 0,
            finish: r.at,
        });
        self.stats.volume_requests += 1;
    }

    /// The epoch loop: each epoch submits the volume requests due before
    /// its bound, steps the member arrays to it, handles what finished
    /// and runs the laggard policy, until nothing is left. `probe` sees
    /// the federation after each epoch's submissions, when the most volume
    /// requests are open.
    fn drive(&mut self, reqs: &[TraceRequest], mut probe: impl FnMut(&Self)) {
        let mut next = 0usize;
        let mut t = SimTime::ZERO;
        loop {
            t += EPOCH_NS;
            while next < reqs.len() && reqs[next].at < t {
                self.submit_volume(next as u32, &reqs[next]);
                next += 1;
            }
            probe(self);
            self.settle(t);
            self.autonomics(t);
            self.stats.epochs += 1;
            if next >= reqs.len() && self.idle() {
                break;
            }
        }
    }

    /// Steps every member array to `t` and handles what finished:
    /// fragments settle their volume requests (ascending trace index),
    /// then clone ops advance their migrations (creation order).
    fn settle(&mut self, t: SimTime) {
        let mut woken: Vec<(Awaited, Finished)> = Vec::new();
        for (runner, awaiting) in self.runners.iter_mut().zip(&mut self.awaiting) {
            runner.step_until(t);
            for &(id, how) in runner.finished() {
                let what = awaiting
                    .remove(&id)
                    .expect("every member submission is awaited");
                woken.push((what, how));
            }
        }
        woken.sort_unstable_by_key(|&(what, _)| what);
        let same_volume = |a: &(Awaited, Finished), b: &(Awaited, Finished)| match (a.0, b.0) {
            (Awaited::Frag { vi: x, .. }, Awaited::Frag { vi: y, .. }) => x == y,
            _ => false,
        };
        for group in woken.chunk_by(same_volume) {
            match group[0].0 {
                Awaited::Frag { slot, .. } => self.update_volume(t, slot, group),
                Awaited::Migration(seq) => self.advance_migration(t, seq, group[0].1),
            }
        }
    }

    /// Applies what finished of the volume request in `vol[slot]`
    /// (`finished`, in fragment order): re-routes lost reads to a
    /// surviving replica, and resolves the request once nothing of it
    /// is in flight.
    fn update_volume(&mut self, t: SimTime, slot: u32, finished: &[(Awaited, Finished)]) {
        let mut vr = self.vol[slot as usize].take().expect("open volume request");
        let frag = |what: Awaited| match what {
            Awaited::Frag { fi, .. } => fi as usize,
            Awaited::Migration(_) => unreachable!("grouped by volume request"),
        };
        for &(what, how) in finished {
            let fr = &mut vr.frags[frag(what)];
            self.inflight[fr.array as usize] -= 1;
            vr.in_flight -= 1;
            match how {
                Finished::Done(at) => {
                    fr.done = true;
                    vr.finish = vr.finish.max(at);
                }
                Finished::Lost if !vr.read => vr.lost += 1,
                Finished::Lost => {}
            }
        }
        // Lost reads retry on a surviving replica at this epoch, once
        // every fragment that finished has left the routing ledger.
        for &(what, how) in finished {
            if vr.read && how == Finished::Lost {
                self.retry_read(t, &mut vr, frag(what), slot);
            }
        }
        if vr.in_flight > 0 {
            self.vol[slot as usize] = Some(vr);
            return;
        }
        self.free_vol.push(slot);
        // A read needs every fragment; a write survives as long as each
        // page run kept at least one durable copy.
        let survived = if vr.read {
            vr.lost == 0
        } else {
            let copies = self.mapper.replicas() as usize;
            vr.frags
                .chunks(copies)
                .all(|run| run.iter().any(|f| f.done))
        };
        if !survived {
            self.stats.lost_requests += 1;
            return;
        }
        if !vr.read && vr.lost > 0 {
            self.stats.degraded_writes += 1;
        }
        // End-to-end latency: last durable fragment completion minus
        // host submission.
        let ns: u64 = vr.finish - vr.submit;
        self.lat.record(ns);
        if vr.read {
            self.rlat.record(ns);
        } else {
            self.wlat.record(ns);
        }
        self.stats.completed += 1;
    }

    /// Re-submits lost read fragment `fi` of `vr` to a replica not yet
    /// tried, or counts it lost for good when none is left.
    fn retry_read(&mut self, t: SimTime, vr: &mut VolReq, fi: usize, slot: u32) {
        let fr = &vr.frags[fi];
        let Some((copy, array)) = self.pick_replica(fr.chunk, fr.tried) else {
            vr.lost += 1;
            return;
        };
        let place = self.mapper.placement(copy, fr.chunk);
        let local = self.mapper.local_lpn(place, fr.offset);
        let r = TraceRequest::for_tenant(vr.tenant, t, IoOp::Read, local, fr.pages);
        self.submit_frag(array, &r, vr.vi, fi, slot);
        self.stats.per_array_reads[array as usize] += 1;
        self.stats.retried_reads += 1;
        let vi = vr.vi;
        self.emit(t, array, || TraceEventKind::FederationRetry {
            req: vi,
            array,
        });
        vr.in_flight += 1;
        let fr = &mut vr.frags[fi];
        fr.array = array;
        fr.tried |= 1 << copy;
    }

    /// Advances migration `seq` once its clone op finished: a finished
    /// source read starts the destination write; a durable write
    /// commits the new placement. Lost clone I/O aborts the migration —
    /// the source copy stays live, which is exactly what makes a
    /// mid-migration power cut safe.
    fn advance_migration(&mut self, t: SimTime, seq: u64, how: Finished) {
        let mut m = self.migrations.remove(&seq).expect("in-flight migration");
        if how == Finished::Lost {
            self.stats.migrations_aborted += 1;
            self.migrating.remove(&(m.copy, m.chunk));
            self.emit(t, m.from, || TraceEventKind::FederationMigrationAbort {
                chunk: m.chunk,
                from_array: m.from,
                to_array: m.to,
            });
            return;
        }
        match m.phase {
            MigPhase::Reading => {
                // Source chunk is read; program the clone on the
                // destination's reserved slot.
                let pages = self.mapper.chunk_pages();
                let local = triplea_ftl::LogicalPage((self.mapper.rows() + m.slot) * pages);
                let tenant = crate::tenant::TenantId::DEFAULT;
                self.submit_to(
                    m.to,
                    &TraceRequest::for_tenant(tenant, t, IoOp::Write, local, pages as u32),
                    Awaited::Migration(seq),
                );
                m.phase = MigPhase::Writing;
                self.migrations.insert(seq, m);
            }
            MigPhase::Writing => {
                // Clone durable: flip the placement (clone-then-
                // commit, the inter-array analogue of the FTL's
                // clone-then-unlink).
                self.mapper.commit_migration(
                    m.copy,
                    m.chunk,
                    ChunkPlacement {
                        array: m.to,
                        local_chunk: self.mapper.rows() + m.slot,
                    },
                );
                self.migrating.remove(&(m.copy, m.chunk));
                self.stats.migrations_committed += 1;
                self.stats.migrated_pages += self.mapper.chunk_pages();
                self.stats.per_array_migrations_out[m.from as usize] += 1;
                self.emit(t, m.to, || TraceEventKind::FederationMigrationCommit {
                    chunk: m.chunk,
                    from_array: m.from,
                    to_array: m.to,
                });
            }
        }
    }

    /// Ages the chunk heat map: counts halve each epoch (and zeroes are
    /// dropped), so heat is recency-biased but survives epochs where the
    /// host went quiet — the laggard detector often trips only after a
    /// backlog has built, well past the submission burst.
    fn decay_heat(&mut self) {
        self.heat.retain(|_, c| {
            *c >>= 1;
            *c > 0
        });
    }

    /// The inter-array laggard detector (Eq. 3 one level up): once per
    /// epoch, flag the array whose cumulative p99 exceeds the federation
    /// budget *and* lags its healthiest peer by the imbalance factor,
    /// then shadow-clone its hottest chunks to the least-loaded peers.
    fn autonomics(&mut self, t: SimTime) {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            self.decay_heat();
            return;
        }
        let p99s: Vec<u64> = self.runners.iter().map(|r| r.p99_ns()).collect();
        let best = p99s.iter().copied().min().unwrap_or(0);
        let (laggard, lag_p99) = match p99s
            .iter()
            .enumerate()
            .max_by_key(|&(i, &p)| (p, std::cmp::Reverse(i)))
        {
            Some((i, &p)) => (i as u32, p),
            None => return,
        };
        if lag_p99 <= SLA_P99_NS
            || lag_p99.saturating_mul(1_000) <= best.saturating_mul(IMBALANCE_MILLI)
        {
            self.decay_heat();
            return;
        }
        self.stats.laggard_epochs += 1;
        self.emit(t, laggard, || TraceEventKind::FederationLaggard {
            array: laggard,
            p99_ns: lag_p99,
            budget_ns: SLA_P99_NS,
        });
        // Hottest chunks currently placed on the laggard, by epoch heat
        // (count desc, chunk asc — deterministic).
        let mut hot: Vec<(u64, u64)> = self
            .heat
            .iter()
            .map(|(&chunk, &count)| (chunk, count))
            .collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut started = 0u32;
        for (chunk, _) in hot {
            if started >= CHUNKS_PER_EPOCH {
                break;
            }
            // The copy of this chunk living on the laggard, if any.
            let Some(copy) = (0..self.mapper.replicas())
                .find(|&j| self.mapper.placement(j, chunk).array == laggard)
            else {
                continue;
            };
            if self.migrating.contains(&(copy, chunk)) || self.mapper.is_migrated(copy, chunk) {
                continue;
            }
            let holders = self.mapper.holders(chunk);
            // Destination: healthiest peer not already holding a copy,
            // with a free migration slot.
            let Some(to) = (0..self.runners.len() as u32)
                .filter(|a| *a != laggard && !holders.contains(a))
                .filter(|a| self.slots_alloc[*a as usize] < MIGRATION_SLOTS)
                .min_by_key(|&a| (p99s[a as usize], a))
            else {
                continue;
            };
            let slot = self.slots_alloc[to as usize];
            self.slots_alloc[to as usize] += 1;
            let place = self.mapper.placement(copy, chunk);
            let pages = self.mapper.chunk_pages();
            let local = self.mapper.local_lpn(place, 0);
            let seq = self.next_migration;
            self.next_migration += 1;
            self.submit_to(
                laggard,
                &TraceRequest::for_tenant(
                    crate::tenant::TenantId::DEFAULT,
                    t,
                    IoOp::Read,
                    local,
                    pages as u32,
                ),
                Awaited::Migration(seq),
            );
            self.migrating.insert((copy, chunk));
            self.migrations.insert(
                seq,
                Migration {
                    copy,
                    chunk,
                    from: laggard,
                    to,
                    slot,
                    phase: MigPhase::Reading,
                },
            );
            self.stats.migrations_started += 1;
            self.emit(t, laggard, || TraceEventKind::FederationMigrationBegin {
                chunk,
                from_array: laggard,
                to_array: to,
                pages,
            });
            started += 1;
        }
        if started > 0 {
            self.cooldown = COOLDOWN_EPOCHS;
        }
        self.decay_heat();
    }

    /// `true` once no volume request, migration or member-array work is
    /// left.
    fn idle(&self) -> bool {
        self.open() == 0 && self.migrations.is_empty() && self.runners.iter().all(|r| r.is_idle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultConfig, ManagementMode, PowerLossEvent};
    use crate::federation::config::VolumeSpec;
    use crate::request::IoOp;
    use crate::{FimmFaultEvent, FimmFaultKind};
    use triplea_ftl::LogicalPage;
    use triplea_sim::SimTime;

    /// `n` single-page requests, every 8th a write, walking the first
    /// `span` volume pages with a stride that crosses chunk boundaries.
    fn walk(n: u64, span: u64, gap_ns: u64) -> Trace {
        (0..n)
            .map(|i| {
                let op = if i % 8 == 7 { IoOp::Write } else { IoOp::Read };
                TraceRequest::new(
                    SimTime::from_nanos(i * gap_ns),
                    op,
                    LogicalPage((i * 13) % span),
                    1,
                )
            })
            .collect()
    }

    #[test]
    fn striped_federation_conserves_requests_and_fragments() {
        let fed = Array::builder()
            .small_test()
            .with_federation(2)
            .volume(VolumeSpec::striped(2).chunk_pages(16))
            .build()
            .unwrap();
        let trace = (0..200)
            .map(|i| {
                // 24-page runs crossing at least one 16-page chunk seam.
                TraceRequest::new(
                    SimTime::from_nanos(i * 500),
                    if i % 4 == 0 { IoOp::Write } else { IoOp::Read },
                    LogicalPage((i * 37) % 4_000),
                    24,
                )
            })
            .collect();
        let run = fed.run_verified(&trace);
        assert!(run.integrity.is_ok());
        let s = &run.report.stats;
        assert_eq!(s.volume_requests, 200);
        assert_eq!(s.completed, 200);
        assert_eq!(s.lost_requests, 0);
        assert!(s.fragments > 200, "24-page runs must split across chunks");
        assert_eq!(
            s.fragments,
            s.per_array_fragments.iter().sum::<u64>(),
            "routing census must account for every fragment"
        );
        // No faults and no member past the federation budget, so no
        // clone ops: member arrays completed exactly the host fragments.
        let member_total: u64 = run.report.arrays.iter().map(|r| r.completed()).sum();
        assert_eq!(member_total, s.fragments);
        assert!(run.report.iops() > 0.0);
    }

    #[test]
    fn replicated_writes_fan_out_and_reads_pick_one_replica() {
        let fed = Array::builder()
            .small_test()
            .with_federation(2)
            .volume(VolumeSpec::replicated(1, 2).chunk_pages(32))
            .build()
            .unwrap();
        let reads = 90u64;
        let writes = 30u64;
        let trace = (0..reads + writes)
            .map(|i| {
                TraceRequest::new(
                    SimTime::from_nanos(i * 400),
                    if i < reads { IoOp::Read } else { IoOp::Write },
                    LogicalPage((i * 3) % 32),
                    1,
                )
            })
            .collect();
        let run = fed.run_verified(&trace);
        let s = &run.report.stats;
        assert_eq!(s.completed, reads + writes);
        assert_eq!(
            s.fragments,
            reads + 2 * writes,
            "each write clones to both replicas; each read takes one"
        );
        assert_eq!(s.per_array_reads.iter().sum::<u64>(), reads);
    }

    #[test]
    fn replicated_volume_survives_a_member_power_loss() {
        let fed = Array::builder()
            .small_test()
            .with_federation(4)
            .volume(VolumeSpec::replicated(2, 2).chunk_pages(16))
            .array_faults(
                0,
                FaultConfig::default().with_power_loss(PowerLossEvent::at(100_000)),
            )
            .build()
            .unwrap();
        let n = 600u64;
        let run = fed.run_verified(&walk(n, 2_000, 300));
        assert!(run.integrity.is_ok());
        let s = &run.report.stats;
        assert_eq!(
            run.report.arrays[0].recovery_stats().power_losses,
            1,
            "the fault override must land on array 0 only"
        );
        assert_eq!(run.report.arrays[1].recovery_stats().power_losses, 0);
        assert_eq!(s.completed + s.lost_requests, n);
        assert_eq!(s.lost_requests, 0, "replica must absorb the cut");
        assert!(
            s.retried_reads > 0,
            "reads in flight on array 0 at the cut must re-route: {s:?}"
        );
    }

    #[test]
    fn federation_tables_stay_bounded_by_open_work() {
        let mut fed = Array::builder()
            .small_test()
            .with_federation(4)
            .volume(VolumeSpec::replicated(2, 2).chunk_pages(16))
            .array_faults(
                0,
                FaultConfig::default().with_power_loss(PowerLossEvent::at(100_000)),
            )
            .build()
            .unwrap();
        let trace = walk(600, 2_000, 300);
        let mut peak = 0;
        fed.drive(trace.requests(), |f| peak = peak.max(f.open()));
        assert!(fed.stats.retried_reads > 0, "reads must re-route");
        assert!(peak > 1, "requests must overlap: {peak}");
        assert_eq!(fed.vol.len(), peak, "the table's high-water mark");
        assert_eq!(fed.open(), 0);
        for (a, awaiting) in fed.awaiting.iter().enumerate() {
            assert!(awaiting.is_empty(), "array {a} still awaits {awaiting:?}");
        }
    }

    #[test]
    fn degraded_member_sheds_hot_chunks_to_peers() {
        let mut faults = FaultConfig::default();
        for cluster in 0..4 {
            for fimm in 0..2 {
                faults = faults.with_fimm_event(FimmFaultEvent {
                    cluster,
                    fimm,
                    at_ns: 0,
                    kind: FimmFaultKind::Slowdown(16),
                });
            }
        }
        let fed = Array::builder()
            .small_test()
            .mode(ManagementMode::Autonomic)
            .with_federation(4)
            .volume(VolumeSpec::striped(4).chunk_pages(16))
            .array_faults(0, faults)
            .build()
            .unwrap();
        // Hot read set aimed at chunks homed on array 0 (chunk % 4 == 0,
        // i.e. volume pages [64k, 64k+16) for even k), plus background.
        let trace = (0..3_000u64)
            .map(|i| {
                let lpn = if i % 4 < 3 {
                    (i % 8) * 64 + (i % 16)
                } else {
                    1_024 + (i * 7) % 512
                };
                TraceRequest::new(
                    SimTime::from_nanos(i * 400),
                    IoOp::Read,
                    LogicalPage(lpn),
                    1,
                )
            })
            .collect();
        let run = fed.run_verified(&trace);
        assert!(run.integrity.is_ok());
        let s = &run.report.stats;
        assert_eq!(s.completed, 3_000);
        assert!(
            s.laggard_epochs > 0,
            "slowdown must trip the detector: {s:?}"
        );
        assert!(s.migrations_started > 0, "{s:?}");
        assert!(s.migrations_committed > 0, "{s:?}");
        assert_eq!(
            s.per_array_migrations_out.iter().sum::<u64>(),
            s.migrations_committed
        );
        // The p99 census is cumulative, so a healthy peer can be flagged
        // once the true laggard has drained — but the degraded array must
        // dominate the shed count.
        assert!(
            s.per_array_migrations_out[0] >= s.per_array_migrations_out[1..].iter().sum::<u64>(),
            "the degraded array should shed the most load: {s:?}"
        );
        assert_eq!(
            s.migrated_pages,
            s.migrations_committed * 16,
            "one 16-page chunk per committed migration"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the volume address space")]
    fn run_rejects_a_range_that_wraps_the_volume_address_space() {
        let fed = Array::builder()
            .small_test()
            .with_federation(2)
            .build()
            .unwrap();
        let trace = Trace::new(vec![TraceRequest::new(
            SimTime::ZERO,
            IoOp::Read,
            LogicalPage(u64::MAX),
            1,
        )]);
        fed.run_verified(&trace);
    }

    #[test]
    fn federation_runs_are_deterministic() {
        let build = || {
            Array::builder()
                .small_test()
                .with_federation(4)
                .volume(VolumeSpec::replicated(2, 2).chunk_pages(16))
                .build()
                .unwrap()
        };
        let trace = walk(400, 3_000, 350);
        let a = build().run_verified(&trace);
        let b = build().run_verified(&trace);
        assert_eq!(a.report.stats, b.report.stats);
        assert_eq!(a.report.arrays, b.report.arrays);
    }

    #[test]
    fn federation_stats_round_trip_through_serde() {
        let fed = Array::builder()
            .small_test()
            .with_federation(2)
            .volume(VolumeSpec::striped(2))
            .build()
            .unwrap();
        let stats = fed.run_verified(&walk(50, 1_000, 500)).report.stats;
        let json = serde_json::to_string(&stats).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&v).unwrap(), json);
        let pretty = serde_json::to_string_pretty(&stats).unwrap();
        let vp: serde_json::Value = serde_json::from_str(&pretty).unwrap();
        assert_eq!(serde_json::to_string_pretty(&vp).unwrap(), pretty);
        assert_eq!(vp, v);
        assert_eq!(v["arrays"].as_u64(), Some(u64::from(stats.arrays)));
        assert_eq!(
            v["stripe_width"].as_u64(),
            Some(u64::from(stats.stripe_width))
        );
        assert_eq!(v["volume_requests"].as_u64(), Some(stats.volume_requests));
        assert_eq!(v["completed"].as_u64(), Some(stats.completed));
        assert_eq!(v["fragments"].as_u64(), Some(stats.fragments));
        assert_eq!(v["p99_ns"].as_u64(), Some(stats.p99_ns));
        let per_array: Vec<u64> = v["per_array_fragments"]
            .as_array()
            .unwrap()
            .iter()
            .map(|n| n.as_u64().unwrap())
            .collect();
        assert_eq!(per_array, stats.per_array_fragments);
    }

    #[test]
    fn traced_federation_reports_cross_array_events_and_metrics() {
        let fed = Array::builder()
            .small_test()
            .with_recorder(triplea_sim::trace::TraceConfig::all())
            .with_federation(2)
            .volume(VolumeSpec::replicated(1, 2).chunk_pages(16))
            .build()
            .unwrap();
        let run = fed.run_verified(&walk(60, 500, 400));
        let trace = run.trace.expect("recorder attached");
        assert!(
            trace
                .events
                .iter()
                .any(|e| e.kind.name() == "federation_hop"),
            "hops must be recorded"
        );
        assert!(trace.metrics.get("federation.volume.requests").is_some());
        assert!(trace.metrics.get("federation.array.0.completed").is_some());
        assert!(trace.metrics.get("federation.array.1.p99_ns").is_some());
    }
}
