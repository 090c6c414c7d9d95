//! The traced run: per-layer numbers, recorded from the benchmark's own
//! code around calls into each layer's public API.
//!
//! * A recorder run (`with_recorder`, ring large enough for every event)
//!   gives the simulated per-layer counts and waits.
//! * An attribution run submits the same trace through
//!   `Array::into_runner()` and times `step_until` over 10 µs simulated
//!   epochs, then `finish`.
//! * Standalone replays push the workload's own stream through
//!   `triplea_ftl::Ftl`, `triplea_core::WeightedArbiter` and
//!   `triplea_sim::EventQueue`.
//!
//! Simulated times carry the units `sim_us` / `sim_ms`; plain `ns`,
//! `us`, `ms` are host time.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use triplea_core::{
    Array, ArrayConfig, ArrayShape, LogicalPage, PowerLossEvent, RunReport, TenantId, TenantSpec,
    Trace, TraceEventKind, WeightedArbiter,
};
use triplea_ftl::{Ftl, FtlError, JournalConfig};
use triplea_sim::trace::Metric as RegistryMetric;
use triplea_sim::{EventQueue, SimTime};

use crate::e2e::{Calibration, CALIBRATION_REF_S};
use crate::stats::{median, nearest_rank};
use crate::workloads::prepare;
use crate::{audit, Outcome};

/// Simulated length of one attribution epoch.
const EPOCH_NS: u64 = 10_000;

/// Untraced runs timed for the trace-overhead denominator.
const UNTRACED_REPS: usize = 3;

/// Host seconds of GC after which the GC replay stops early, at full
/// scale.
const GC_REPLAY_SECONDS: f64 = 3.0;

/// Requests the arbiter replay keeps admitted past the front door.
const ARBITER_WINDOW: usize = 256;

pub fn run(name: &str, seed: u64, requests: usize) -> Outcome {
    let mut out = Outcome::new(name);
    let kernel = Calibration::new();
    let calibration_before = kernel.time();

    // Set-up, split into its two parts.
    let mut gen = Vec::new();
    let mut build = Vec::new();
    for _ in 0..3 {
        let p = prepare(name, seed, requests, false);
        gen.push(ms(p.gen));
        build.push(ms(p.build));
    }
    out.metric(
        "workloads.gen_ms",
        median(&gen),
        "ms",
        "median of 3 set-ups",
    );
    out.metric("core.build_ms", median(&build), "ms", "median of 3 set-ups");

    // Untraced reference: warm-up, then timed reps with allocation counts.
    let warm = prepare(name, seed, requests, false);
    let cfg = warm.sim.config().clone();
    let trace = warm.trace;
    let reference = warm.sim.run_verified(&trace);
    out.check(audit(&reference, trace.len() as u64, None));
    let reference = reference.report;
    let mut untraced = Vec::new();
    let mut allocs = Vec::new();
    for _ in 0..UNTRACED_REPS {
        let p = prepare(name, seed, requests, false);
        let before = triplea_alloc_counter::snapshot();
        let t0 = Instant::now();
        let run = p.sim.run_verified(&p.trace);
        untraced.push(t0.elapsed().as_secs_f64());
        allocs.push(triplea_alloc_counter::snapshot().since(before));
        out.check(audit(&run, trace.len() as u64, Some(&reference)));
    }
    let n = trace.len() as f64;
    let alloc_med = allocs[allocs.len() / 2];
    out.metric(
        "core.allocs_per_req",
        alloc_med.allocations as f64 / n,
        "allocs/req",
        "heap allocations in run_verified",
    );
    out.metric(
        "core.alloc_bytes_per_req",
        alloc_med.bytes as f64 / n,
        "B/req",
        "bytes requested in run_verified",
    );
    out.metric(
        "sim.events",
        reference.events_processed() as f64,
        "events",
        "",
    );
    out.metric(
        "sim.events_per_req",
        reference.events_processed() as f64 / n,
        "events/req",
        "",
    );

    recorder_run(
        &mut out,
        name,
        seed,
        requests,
        &reference,
        median(&untraced),
    );
    attribution_run(&mut out, &cfg, &trace, &reference);
    report_layers(&mut out, &reference, &cfg);
    ftl_replays(&mut out, &cfg, &trace, requests);
    arbiter_replay(&mut out, &cfg, &trace);
    queue_replay(&mut out, &trace, &reference);
    out.attempted = trace.len() as u64;
    out.note(format!(
        "calibration kernel at {:.3}x its reference time (host times here are unscaled)",
        (calibration_before + kernel.time()) / 2.0 / CALIBRATION_REF_S
    ));
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The recorder run: every event kept, tallied per layer. Checks that the
/// ring dropped nothing and that recording left the report unchanged.
fn recorder_run(
    out: &mut Outcome,
    name: &str,
    seed: u64,
    requests: usize,
    reference: &RunReport,
    untraced_s: f64,
) {
    let p = prepare(name, seed, requests, true);
    let submitted = p.trace.len() as u64;
    let t0 = Instant::now();
    let run = p.sim.run_verified(&p.trace);
    let traced_s = t0.elapsed().as_secs_f64();
    out.check(audit(&run, submitted, Some(reference)));
    let Some(trace) = run.trace else {
        out.problem("recorder run returned no trace".into());
        return;
    };
    if trace.dropped != 0 {
        out.problem(format!("recorder dropped {} events", trace.dropped));
    }
    out.metric(
        "sim.trace_events",
        trace.total as f64,
        "events",
        &format!("dropped {}", trace.dropped),
    );
    out.metric(
        "sim.trace_overhead",
        traced_s / untraced_s,
        "x",
        &format!("traced {traced_s:.3} s / untraced median {untraced_s:.3} s"),
    );

    let mut t = Tally::default();
    for e in &trace.events {
        match e.kind {
            TraceEventKind::LinkTx { wait_ns, .. } => {
                t.link_tx += 1;
                t.link_wait_ns += wait_ns;
            }
            TraceEventKind::QueueFull { .. } => t.queue_full += 1,
            TraceEventKind::BusAcquire { wait_ns, .. } => {
                t.bus_acquires += 1;
                t.bus_wait_ns += wait_ns;
            }
            TraceEventKind::FlashStart {
                op, die_wait_ns, ..
            } => {
                t.die_wait_ns += die_wait_ns;
                match op {
                    "read" => t.flash_reads += 1,
                    "program" => t.flash_programs += 1,
                    _ => t.flash_erases += 1,
                }
            }
            TraceEventKind::DetectorSample { .. } => t.detector_samples += 1,
            TraceEventKind::RelocCommit { .. } => t.commits += 1,
            TraceEventKind::RelocRollback { .. } => t.rollbacks += 1,
            _ => {}
        }
    }
    let per_req_us = |ns: u64| ns as f64 / reference.completed().max(1) as f64 / 1e3;
    let bus_util_max = trace
        .metrics
        .sorted()
        .into_iter()
        .filter(|(k, _)| k.ends_with(".bus.utilization"))
        .filter_map(|(_, m)| match m {
            RegistryMetric::Gauge(v) => Some(*v),
            _ => None,
        })
        .fold(0.0, f64::max);
    for (name, value, unit) in [
        ("pcie.link_wait_us", per_req_us(t.link_wait_ns), "sim_us"),
        ("pcie.link_tx", t.link_tx as f64, "count"),
        ("pcie.queue_full", t.queue_full as f64, "count"),
        ("fimm.bus_acquires", t.bus_acquires as f64, "count"),
        ("fimm.bus_wait_us", per_req_us(t.bus_wait_ns), "sim_us"),
        ("fimm.bus_util_max", bus_util_max, "fraction"),
        ("flash.reads", t.flash_reads as f64, "count"),
        ("flash.programs", t.flash_programs as f64, "count"),
        ("flash.erases", t.flash_erases as f64, "count"),
        ("flash.die_wait_us", per_req_us(t.die_wait_ns), "sim_us"),
        (
            "autonomic.detector_samples",
            t.detector_samples as f64,
            "count",
        ),
    ] {
        out.metric(name, value, unit, "");
    }
    let relocs = t.commits + t.rollbacks;
    out.metric(
        "autonomic.commit_ratio",
        if relocs == 0 {
            1.0
        } else {
            t.commits as f64 / relocs as f64
        },
        "fraction",
        &format!("{} commits of {relocs} relocated pages", t.commits),
    );
}

#[derive(Default)]
struct Tally {
    link_tx: u64,
    link_wait_ns: u64,
    queue_full: u64,
    bus_acquires: u64,
    bus_wait_ns: u64,
    flash_reads: u64,
    flash_programs: u64,
    flash_erases: u64,
    die_wait_ns: u64,
    detector_samples: u64,
    commits: u64,
    rollbacks: u64,
}

/// The attribution run: the trace submitted up front through the
/// incremental runner, then stepped in 10 µs simulated epochs, each
/// timed on the host.
fn attribution_run(out: &mut Outcome, cfg: &ArrayConfig, trace: &Trace, reference: &RunReport) {
    let mut runner = Array::new(cfg.clone(), reference.mode()).into_runner();
    for r in trace.requests() {
        runner.submit(r);
    }
    let mut epochs_us = Vec::new();
    let mut t = 0u64;
    while !runner.is_idle() {
        t += EPOCH_NS;
        let t0 = Instant::now();
        runner.step_until(SimTime::from_nanos(t));
        epochs_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let t0 = Instant::now();
    let run = runner.finish();
    let finish_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stepped_ns: f64 = epochs_us.iter().sum::<f64>() * 1e3;
    let events = run.report.events_processed().max(1) as f64;
    let matches = run.report == *reference;
    let count = epochs_us.len();
    epochs_us.sort_by(f64::total_cmp);
    let epochs = format!("{count} epochs of 10 sim_us");
    out.metric(
        "core.step_ns_per_event",
        stepped_ns / events,
        "ns",
        "host time in step_until per event",
    );
    for (name, value) in [
        ("core.epoch_us_p50", nearest_rank(&epochs_us, 0.5)),
        ("core.epoch_us_p99", nearest_rank(&epochs_us, 0.99)),
        ("core.epoch_us_max", nearest_rank(&epochs_us, 1.0)),
    ] {
        out.metric(name, value, "us", &epochs);
    }
    out.metric(
        "core.finish_ms",
        finish_ms,
        "ms",
        "drain, integrity audit, report",
    );
    out.metric(
        "core.runner_matches",
        f64::from(u8::from(matches)),
        "flag",
        "1 when the runner's report equals run_verified's",
    );
    if let Err(e) = run.integrity {
        out.problem(format!("attribution run integrity: {e}"));
    }
}

/// Per-layer figures the run's own report already carries. Stalls and
/// waits are simulated time per completed request.
fn report_layers(out: &mut Outcome, r: &RunReport, cfg: &ArrayConfig) {
    let ftl = r.ftl_stats();
    let faults = r.fault_stats();
    let rec = r.recovery_stats();
    let auto = r.autonomic_stats();
    let interactive = TenantSpec::interactive();
    let worst_interactive_p99_ns = r
        .tenant_stats()
        .iter()
        .zip(cfg.tenants.specs())
        .filter(|(_, spec)| **spec == interactive)
        .map(|(t, _)| t.p99_ns)
        .max()
        .unwrap_or(0);
    let count = |n: u64| n as f64;
    for (name, value, unit) in [
        ("pcie.rc_stall_us", r.avg_rc_stall_us(), "sim_us"),
        ("pcie.switch_stall_us", r.avg_switch_stall_us(), "sim_us"),
        ("flash.service_us", r.avg_fimm_service_us(), "sim_us"),
        (
            "flash.read_retries",
            count(faults.transient_read_faults),
            "count",
        ),
        (
            "flash.bad_blocks",
            count(faults.blocks_retired_by_fault),
            "count",
        ),
        ("ftl.host_writes", count(ftl.host_writes), "pages"),
        ("ftl.gc_writes", count(ftl.gc_writes), "pages"),
        ("ftl.gc_erases", count(ftl.gc_erases), "blocks"),
        ("ftl.migration_writes", count(ftl.migration_writes), "pages"),
        (
            "autonomic.laggards",
            count(auto.laggard_detections),
            "count",
        ),
        ("autonomic.escalations", count(auto.escalations), "count"),
        (
            "autonomic.migrations",
            count(auto.migrations_started),
            "count",
        ),
        (
            "autonomic.pages_migrated",
            count(auto.pages_migrated),
            "pages",
        ),
        (
            "autonomic.pages_reshaped",
            count(auto.pages_reshaped),
            "pages",
        ),
        (
            "autonomic.write_redirects",
            count(auto.write_redirects),
            "count",
        ),
        ("tenant.sla_violations", count(r.sla_violations()), "count"),
        (
            "tenant.worst_interactive_p99_us",
            worst_interactive_p99_ns as f64 / 1e3,
            "sim_us",
        ),
        (
            "recovery.lost_requests",
            count(rec.lost_inflight_requests),
            "count",
        ),
        (
            "recovery.journal_replayed",
            count(rec.journal_replayed),
            "records",
        ),
        ("recovery.remount_us", rec.remount_ns as f64 / 1e3, "sim_us"),
        ("recovery.rebuild_ms", rec.rebuild_ns as f64 / 1e6, "sim_ms"),
        (
            "recovery.degraded_p99_us",
            rec.degraded_p99_ns as f64 / 1e3,
            "sim_us",
        ),
        (
            "recovery.degraded_reads",
            count(faults.degraded_reads),
            "count",
        ),
    ] {
        out.metric(name, value, unit, "");
    }

    let written = ftl.host_writes + ftl.gc_writes + ftl.migration_writes;
    out.metric(
        "ftl.write_amp",
        if ftl.host_writes == 0 {
            0.0
        } else {
            written as f64 / ftl.host_writes as f64
        },
        "x",
        &format!(
            "{written} pages programmed for {} host pages",
            ftl.host_writes
        ),
    );
    let violations = r.sla_violations();
    let completed = r.completed().max(1);
    out.metric(
        "tenant.violation_pct",
        violations as f64 * 100.0 / completed as f64,
        "%",
        &format!("{violations} of {completed} completions"),
    );
}

/// Every logical page the stream touches, in stream order.
fn pages(trace: &Trace) -> impl Iterator<Item = u64> + '_ {
    trace
        .requests()
        .iter()
        .flat_map(|r| r.lpn.0..r.lpn.0 + r.pages as u64)
}

/// Host-side GC bookkeeping of a replay.
#[derive(Default)]
struct Gc {
    cycles: u64,
    /// Cycles that found a victim and reclaimed its block.
    reclaimed: u64,
    time: Duration,
    skipped_writes: u64,
}

impl Gc {
    /// One GC cycle on a FIMM, in the order the array runs it:
    /// `gc_pick`, then for a victim `gc_rewrite` of each live page and
    /// `gc_finish`. Returns whether a block was reclaimed.
    fn cycle(&mut self, ftl: &mut Ftl, cluster: triplea_core::ClusterId, fimm: u32) -> bool {
        let t0 = Instant::now();
        let work = ftl.gc_pick(cluster, fimm);
        if let Some(work) = &work {
            for &lpn in &work.valid {
                if ftl.gc_rewrite(lpn, work).is_err() {
                    break;
                }
            }
            ftl.gc_finish(work);
            self.reclaimed += 1;
        }
        self.cycles += 1;
        self.time += t0.elapsed();
        work.is_some()
    }

    /// A host write of `lpn`, collecting first when the FIMM is out of
    /// space and afterwards when its free pool fell below `threshold`.
    fn write(&mut self, ftl: &mut Ftl, lpn: u64, threshold: u64) {
        let lpn = LogicalPage(lpn);
        let mut written = ftl.write_alloc(lpn, None);
        if let Err(FtlError::OutOfSpace { cluster, fimm }) = written {
            if self.cycle(ftl, cluster, fimm) {
                written = ftl.write_alloc(lpn, None);
            }
        }
        match written {
            Ok(loc) if ftl.needs_gc(loc.cluster, loc.fimm, threshold) => {
                self.cycle(ftl, loc.cluster, loc.fimm);
            }
            Ok(_) => {}
            Err(_) => self.skipped_writes += 1,
        }
    }
}

/// FTL replays of the workload's page stream, every request replayed as
/// a write so read-only workloads still exercise the map and allocator
/// over their own address set.
fn ftl_replays(out: &mut Outcome, cfg: &ArrayConfig, trace: &Trace, requests: usize) {
    let threshold = cfg.gc_threshold_blocks;
    let written = pages(trace).count() as f64;

    // Map and allocator on the workload's own shape.
    let mut ftl = Ftl::new(cfg.shape);
    let mut gc = Gc::default();
    let t0 = Instant::now();
    for lpn in pages(trace) {
        gc.write(&mut ftl, lpn, threshold);
    }
    let write_time = t0.elapsed().saturating_sub(gc.time);
    out.metric(
        "ftl.write_ns",
        write_time.as_secs_f64() * 1e9 / written,
        "ns",
        &format!("per page, {written} pages, GC excluded"),
    );
    let t0 = Instant::now();
    let mut sink = 0u64;
    for lpn in pages(trace) {
        sink = sink.wrapping_add(ftl.locate(LogicalPage(lpn)).fimm as u64);
    }
    std::hint::black_box(sink);
    out.metric(
        "ftl.locate_ns",
        t0.elapsed().as_secs_f64() * 1e9 / written,
        "ns",
        "per page, after the write replay",
    );
    let t0 = Instant::now();
    let integrity = ftl.verify_integrity();
    out.metric(
        "ftl.verify_ms",
        ms(t0.elapsed()),
        "ms",
        "verify_integrity after the write replay",
    );
    if let Err(e) = integrity {
        out.problem(format!("FTL replay integrity: {e}"));
    }
    drop(ftl);

    // The same writes journaled, then a power cut.
    let cadence = PowerLossEvent::at(0);
    let mut ftl = Ftl::new(cfg.shape);
    ftl.enable_journal(JournalConfig {
        flush_every: cadence.flush_every,
        checkpoint_every: cadence.checkpoint_every,
    });
    let mut gc = Gc::default();
    let t0 = Instant::now();
    for lpn in pages(trace) {
        gc.write(&mut ftl, lpn, threshold);
    }
    let journal_time = t0.elapsed().saturating_sub(gc.time);
    out.metric(
        "ftl.journal_write_ns",
        journal_time.as_secs_f64() * 1e9 / written,
        "ns",
        "per page, journal on, GC excluded",
    );
    let t0 = Instant::now();
    let recovered = ftl.power_loss();
    out.metric(
        "ftl.power_loss_ms",
        ms(t0.elapsed()),
        "ms",
        "journal replay after the writes",
    );
    if let Err(e) = recovered {
        out.problem(format!("FTL replay power loss: {e}"));
    }
    drop(ftl);

    // GC: the stream folded onto the same topology with `mixed_gc`'s
    // flash geometry (1 block per plane, 32 pages per block), so every
    // workload's FIMMs fall below the GC threshold within one pass.
    let mut shape: ArrayShape = cfg.shape;
    shape.flash.blocks_per_plane = 1;
    shape.flash.pages_per_block = 32;
    let total = shape.total_pages();
    let budget = Duration::from_secs_f64(GC_REPLAY_SECONDS * requests as f64 / 100_000.0);
    let mut ftl = Ftl::new(shape);
    let mut gc = Gc::default();
    let mut replayed = 0u64;
    for lpn in pages(trace) {
        gc.write(&mut ftl, lpn % total, threshold);
        replayed += 1;
        if gc.time >= budget {
            break;
        }
    }
    out.metric(
        "ftl.gc_cycle_us",
        if gc.cycles == 0 {
            0.0
        } else {
            gc.time.as_secs_f64() * 1e6 / gc.cycles as f64
        },
        "us",
        &format!(
            "host time per needs_gc -> gc_pick -> gc_rewrite* -> gc_finish cycle; \
             {} cycles reclaimed {} blocks over {replayed} page writes, {} writes skipped",
            gc.cycles, gc.reclaimed, gc.skipped_writes
        ),
    );
}

/// The workload's arrivals pushed through the weighted-fair arbiter, a
/// window of requests kept admitted. Untenanted workloads use one lane.
fn arbiter_replay(out: &mut Outcome, cfg: &ArrayConfig, trace: &Trace) {
    let specs = if cfg.tenants.is_empty() {
        vec![TenantSpec::batch()]
    } else {
        cfg.tenants.specs().to_vec()
    };
    let mut arb = WeightedArbiter::new(&specs);
    let mut admitted: VecDeque<TenantId> = VecDeque::new();
    let t0 = Instant::now();
    for (i, r) in trace.requests().iter().enumerate() {
        // Untenanted requests carry tenant 0, the single lane.
        arb.enqueue(r.tenant, i as u32);
        while let Some((t, _)) = arb.grant() {
            admitted.push_back(t);
            if admitted.len() >= ARBITER_WINDOW {
                arb.complete(admitted.pop_front().expect("window non-empty"));
            }
        }
    }
    while let Some(t) = admitted.pop_front() {
        arb.complete(t);
        while let Some((t, _)) = arb.grant() {
            admitted.push_back(t);
        }
    }
    out.metric(
        "tenant.arbiter_ns",
        t0.elapsed().as_secs_f64() * 1e9 / trace.len().max(1) as f64,
        "ns",
        &format!(
            "per request (enqueue, grant, complete), {} lanes",
            specs.len()
        ),
    );
}

/// The workload's arrivals through the event queue: each arrival pushed
/// at its time, everything due popped, and each popped arrival followed
/// by a completion one mean simulated latency later.
fn queue_replay(out: &mut Outcome, trace: &Trace, reference: &RunReport) {
    let service_ns = (reference.mean_latency_us() * 1e3) as u64;
    const COMPLETION: u32 = u32::MAX;
    let mut q: EventQueue<u32> = EventQueue::new();
    let t0 = Instant::now();
    for (i, r) in trace.requests().iter().enumerate() {
        q.push(r.at, i as u32);
        while q.peek_time().is_some_and(|t| t <= r.at) {
            let (now, id) = q.pop().expect("peeked event present");
            if id != COMPLETION {
                q.push(SimTime::from_nanos(now.as_nanos() + service_ns), COMPLETION);
            }
        }
    }
    while q.pop().is_some() {}
    let ops = q.total_pushed() + q.total_popped();
    out.metric(
        "sim.queue_ns_per_op",
        t0.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64,
        "ns",
        &format!("{ops} push/pop operations"),
    );
}
