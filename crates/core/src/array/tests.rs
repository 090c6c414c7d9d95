use super::*;
use crate::request::{IoOp, TraceRequest};
use crate::tenant::TenantId;
use triplea_fimm::FimmFaultKind;
use triplea_ftl::LogicalPage;
use triplea_sim::trace::TraceEventKind;

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
    let report = Array::new(ArrayConfig::small_test(), ManagementMode::NonAutonomic).run(&trace);
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
    let full_map = Array::new(ArrayConfig::small_test(), ManagementMode::NonAutonomic).run(&trace);
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
        let report = Array::new(cfg, ManagementMode::Autonomic).run(&tenant_trace(1_500, t, 900));
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
    let mut runner = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).into_runner();
    runner.submit(&TraceRequest::new(
        SimTime::ZERO,
        IoOp::Read,
        LogicalPage(u64::MAX),
        1,
    ));
}

#[test]
#[should_panic(expected = "before the previous request")]
fn submit_rejects_a_time_before_the_previous_submission() {
    let mut runner = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).into_runner();
    runner.submit(&read_at(5, 0));
    runner.submit(&read_at(4, 1));
}

fn read_at_ns(ns: u64, lpn: u64) -> TraceRequest {
    TraceRequest::new(SimTime::from_nanos(ns), IoOp::Read, LogicalPage(lpn), 1)
}

#[test]
fn an_arrival_at_the_clock_limit_completes() {
    let trace = Trace::new(vec![read_at(0, 0), read_at_ns(MAX_ARRIVAL_NS, 1)]);
    let run = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run_verified(&trace);
    assert_eq!(run.report.completed(), 2);
    run.integrity.expect("FTL metadata stays coherent");
}

#[test]
#[should_panic(expected = "request 1 arrives at 18446744073709551615 ns, past the last")]
fn run_rejects_an_arrival_past_the_clock_limit() {
    // The event loop drains only events strictly before `SimTime::MAX`,
    // so an arrival there would silently never be delivered.
    let trace = Trace::new(vec![read_at(0, 0), read_at_ns(u64::MAX, 1)]);
    Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).run(&trace);
}

#[test]
#[should_panic(expected = "request 1 arrives at 4611686018427387905 ns, past the last")]
fn submit_rejects_a_time_past_the_clock_limit() {
    let mut runner = Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic).into_runner();
    runner.submit(&read_at(0, 0));
    runner.submit(&read_at_ns(MAX_ARRIVAL_NS + 1, 1));
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

#[test]
fn rc_queue_capacity_follows_config() {
    let mut cfg = ArrayConfig::small_test();
    cfg.pcie.rc_queue = 7;
    let array = Array::new(cfg, ManagementMode::Autonomic);
    assert_eq!(array.e.rc_queue.capacity(), 7);
}

/// How each submission of a stepped run finished, indexed by id, read
/// from the runner's stream step by step.
#[derive(Default)]
struct Outcomes(Vec<Option<Finished>>);

impl Outcomes {
    /// Steps `runner` to `t` and records what the step finished,
    /// checking that no id finishes twice.
    fn step(&mut self, runner: &mut ArrayRunner, t: SimTime) {
        runner.step_until(t);
        self.0.resize(runner.submitted() as usize, None);
        for &(id, how) in runner.finished() {
            let slot = &mut self.0[id as usize];
            assert_eq!(*slot, None, "request {id} finished twice");
            *slot = Some(how);
        }
    }

    /// When request `id` completed.
    fn done_at(&self, id: u32) -> SimTime {
        match self.0[id as usize] {
            Some(Finished::Done(t)) => t,
            other => panic!("request {id} did not complete: {other:?}"),
        }
    }
}

/// Submits `trace` to `array`'s stepped runner and steps it in 10 µs
/// epochs until idle, recording how each request finished.
fn stepped(array: Array, trace: &Trace) -> (ArrayRunner, Outcomes) {
    let mut runner = array.into_runner();
    for r in trace.requests() {
        runner.submit(r);
    }
    let mut outcomes = Outcomes::default();
    let mut t = SimTime::ZERO;
    while !runner.is_idle() {
        t += 10_000;
        outcomes.step(&mut runner, t);
    }
    (runner, outcomes)
}

/// Most requests between arrival and completion at once, from the
/// completion instants of a stepped run. At a shared instant the
/// arrival is counted before the completion, the order the event loop
/// handles them in.
fn peak_in_flight(trace: &Trace, outcomes: &Outcomes) -> usize {
    // `(instant, completes)`: `false` sorts first, so arrivals lead.
    let mut edges: Vec<(SimTime, bool)> = trace
        .requests()
        .iter()
        .enumerate()
        .flat_map(|(id, r)| [(r.at, false), (outcomes.done_at(id as u32), true)])
        .collect();
    edges.sort_unstable();
    let (mut live, mut peak) = (0, 0);
    for (_, completes) in edges {
        if completes {
            live -= 1;
        } else {
            live += 1;
            peak = peak.max(live);
        }
    }
    peak
}

#[test]
fn request_table_stays_within_peak_in_flight() {
    let cfg = ArrayConfig::small_test();
    // Uncontended reads striped over every cluster.
    let trace: Trace = (0..20_000u64)
        .map(|i| {
            let lpn = (i * 7_919) % cfg.shape.total_pages();
            TraceRequest::new(
                SimTime::from_nanos(i * 4_000),
                IoOp::Read,
                LogicalPage(lpn),
                1,
            )
        })
        .collect();
    let (reference, outcomes) = stepped(Array::new(cfg.clone(), ManagementMode::Autonomic), &trace);
    let peak = peak_in_flight(&trace, &outcomes);
    assert!(
        peak < 64,
        "the trace should be uncontended: {peak} in flight"
    );
    assert_eq!(reference.e.reqs.high_water(), peak);
    let mut runner = Array::new(cfg, ManagementMode::Autonomic).into_runner();
    runner.replay(trace.requests());
    assert_eq!(runner.e.reqs.high_water(), peak);
    assert_eq!(runner.finish().report, reference.finish().report);
}

#[test]
fn power_cut_frees_the_slots_of_lost_requests() {
    use crate::config::PowerLossEvent;
    const BURST: u64 = 48;
    let mut cfg = ArrayConfig::small_test();
    cfg.faults = cfg.faults.with_power_loss(PowerLossEvent::at(5_000));
    // A burst in flight at the cut, and the same burst again long after
    // the remount.
    let trace: Trace = (0..2 * BURST)
        .map(|i| read_at(if i < BURST { 0 } else { 20_000 }, i % BURST * 97))
        .collect();
    let mut runner = Array::new(cfg, ManagementMode::Autonomic).into_runner();
    runner.replay(trace.requests());
    assert_eq!(runner.lost(), BURST, "the whole first burst is in flight");
    assert_eq!(
        runner.e.reqs.high_water(),
        BURST as usize,
        "the second burst reuses the lost requests' slots"
    );
    let run = runner.finish();
    assert_eq!(run.report.completed(), BURST);
    assert_eq!(run.report.recovery_stats().requeued_requests, BURST);
}

#[test]
fn same_instant_arrivals_and_completions_order_like_the_stepped_runner() {
    let array = || {
        Array::new(ArrayConfig::small_test(), ManagementMode::Autonomic)
            .with_recorder(TraceConfig::all().with_capacity(1 << 16))
    };
    // Three reads sharing an instant, then two more at each instant one
    // of those completes.
    let first: Vec<TraceRequest> = (0..3).map(|i| read_at(0, i * 5)).collect();
    let (_, alone) = stepped(array(), &Trace::new(first.clone()));
    let mut requests = first;
    for id in 0..3 {
        let at = alone.done_at(id);
        for k in 0..2 {
            requests.push(TraceRequest::new(
                at,
                IoOp::Read,
                LogicalPage(100 + 10 * id as u64 + k),
                1,
            ));
        }
    }
    let trace = Trace::new(requests);
    let (reference, outcomes) = stepped(array(), &trace);
    let finishes: Vec<SimTime> = (0..trace.len() as u32)
        .map(|id| outcomes.done_at(id))
        .collect();
    assert!(
        trace.requests().iter().any(|r| finishes.contains(&r.at)),
        "some arrival must share its instant with a completion"
    );
    // The recorded order of same-instant submits and completions must
    // match too, not only the report.
    let one_shot = array().run_verified(&trace);
    let reference = reference.finish();
    assert_eq!(one_shot.report, reference.report);
    let events = |run: VerifiedRun| run.trace.expect("recorder attached").events;
    assert_eq!(events(one_shot), events(reference));
}

#[test]
fn stepped_submissions_inside_the_remount_window_wait_for_it() {
    use crate::config::PowerLossEvent;
    const CUT: u64 = 1_000_000;
    let mut cfg = ArrayConfig::small_test();
    cfg.faults = cfg.faults.with_power_loss(PowerLossEvent::at(CUT));
    let trace = mixed_trace(2_000, 1_000);
    let reqs = trace.requests();
    let (reference, expected) = stepped(Array::new(cfg.clone(), ManagementMode::Autonomic), &trace);
    // Submit through 100 µs past the cut, step past the cut, then submit
    // the rest: its first arrivals are due while the array remounts.
    let split = reqs.partition_point(|r| r.at < SimTime::from_nanos(CUT + 100_000));
    let mut late = Array::new(cfg, ManagementMode::Autonomic).into_runner();
    for r in &reqs[..split] {
        late.submit(r);
    }
    let mut outcomes = Outcomes::default();
    outcomes.step(&mut late, SimTime::from_nanos(CUT + 1));
    assert_eq!(late.lost(), reference.lost(), "the cut has fired");
    for r in &reqs[split..] {
        late.submit(r);
    }
    let mut t = SimTime::from_nanos(CUT);
    while !late.is_idle() {
        t += 10_000;
        outcomes.step(&mut late, t);
    }
    for id in 0..trace.len() {
        assert_eq!(outcomes.0[id], expected.0[id], "request {id}");
    }
    let mut late = late.finish().report;
    let reference = reference.finish().report;
    let back_up = SimTime::from_nanos(CUT + reference.recovery.remount_ns);
    assert!(
        reqs[split].at < back_up,
        "a late submission is due inside the window"
    );
    // Only arrivals submitted by the cut count as requeued.
    let after_cut = reqs.partition_point(|r| r.at <= SimTime::from_nanos(CUT));
    assert_eq!(
        reference.recovery.requeued_requests,
        (reqs.len() - after_cut) as u64
    );
    assert_eq!(late.recovery.requeued_requests, (split - after_cut) as u64);
    late.recovery.requeued_requests = reference.recovery.requeued_requests;
    assert_eq!(late, reference);
}

#[test]
fn the_stream_reports_each_submission_once() {
    use crate::config::PowerLossEvent;
    const CUT: u64 = 1_000_000;
    let mut cfg = ArrayConfig::small_test();
    cfg.faults = cfg.faults.with_power_loss(PowerLossEvent::at(CUT));
    let trace = mixed_trace(2_000, 1_000);
    let mut runner = Array::new(cfg, ManagementMode::Autonomic).into_runner();
    for r in trace.requests() {
        runner.submit(r);
    }
    let mut outcomes = Outcomes::default();
    let mut lost_by_step = Vec::new();
    let mut t = SimTime::ZERO;
    while !runner.is_idle() {
        let from = t;
        t += 10_000;
        outcomes.step(&mut runner, t);
        let lost = runner
            .finished()
            .iter()
            .filter(|(_, how)| *how == Finished::Lost);
        lost_by_step.push((from, lost.count() as u64));
        for &(id, how) in runner.finished() {
            if let Finished::Done(at) = how {
                assert!(from <= at && at < t, "request {id} done outside its step");
            }
        }
        runner.step_until(t);
        assert!(
            runner.finished().is_empty(),
            "nothing finishes in [{t:?}, {t:?})"
        );
    }
    assert!(
        outcomes.0.len() == trace.len() && outcomes.0.iter().all(Option::is_some),
        "every submission finishes"
    );
    let report = runner.finish().report;
    let lost = report.recovery_stats().lost_inflight_requests;
    assert!(lost > 0, "the cut must catch requests in flight");
    let cut_step = lost_by_step.partition_point(|&(from, _)| from <= SimTime::from_nanos(CUT)) - 1;
    for (i, &(from, n)) in lost_by_step.iter().enumerate() {
        let want = if i == cut_step { lost } else { 0 };
        assert_eq!(n, want, "Lost records in the step from {from:?}");
    }
    let done = outcomes
        .0
        .iter()
        .filter(|o| matches!(o, Some(Finished::Done(_))));
    assert_eq!(done.count() as u64, report.completed());
}

mod properties {
    use super::*;
    use crate::tenant::TenantSpec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        /// However a trace is cut into submissions between steps, the
        /// stepped runner reports what `run_verified` does, as long as no
        /// request is submitted earlier than the last step bound. Arrival
        /// gaps of zero make arrivals share instants with each other, and
        /// echoes (a request re-sent at the instant another completed in
        /// a run without echoes) make them share instants with calendar
        /// events.
        #[test]
        fn stepped_runs_match_one_shot_for_any_submission_schedule(
            requests in prop::collection::vec(
                (0u64..2_500, 0u64..4_096, 1u32..4, 0u32..4, 0u32..4),
                1..300,
            ),
            tenanted in prop::bool::weighted(0.5),
            schedule in prop::collection::vec((0usize..64, 1u64..200_000), 1..24),
        ) {
            let cfg = if tenanted {
                tenant_cfg(vec![TenantSpec::interactive(), TenantSpec::batch()])
            } else {
                ArrayConfig::small_test()
            };
            let mut at = 0;
            let base: Vec<TraceRequest> = requests
                .iter()
                .enumerate()
                .map(|(i, &(gap, lpn, pages, kind, _))| {
                    at += gap.saturating_sub(1_000);
                    let op = if kind == 0 { IoOp::Write } else { IoOp::Read };
                    let tenant = TenantId(if tenanted { i as u32 % 2 } else { 0 });
                    let r = TraceRequest::new(SimTime::from_nanos(at), op, LogicalPage(lpn), pages);
                    r.owned_by(tenant)
                })
                .collect();
            let (_, alone) = stepped(
                Array::new(cfg.clone(), ManagementMode::Autonomic),
                &Trace::new(base.clone()),
            );
            let echoes: Vec<TraceRequest> = requests
                .iter()
                .enumerate()
                .filter(|&(_, r)| r.4 == 0)
                .map(|(i, _)| TraceRequest {
                    at: alone.done_at(i as u32),
                    ..base[i]
                })
                .collect();
            let trace = Trace::new([base, echoes].concat());
            let reqs = trace.requests();
            let one_shot = Array::new(cfg.clone(), ManagementMode::Autonomic).run_verified(&trace);
            let mut runner = Array::new(cfg, ManagementMode::Autonomic).into_runner();
            let (mut next, mut bound) = (0, SimTime::ZERO);
            for &(chunk, step) in schedule.iter().cycle() {
                if next == reqs.len() {
                    break;
                }
                bound += step;
                // `chunk` more, and at least every request due before the
                // step bound.
                let due = reqs.partition_point(|r| r.at < bound);
                let end = (next + chunk).max(due).min(reqs.len());
                for r in &reqs[next..end] {
                    runner.submit(r);
                }
                next = end;
                runner.step_until(bound);
            }
            let stepped = runner.finish();
            prop_assert_eq!(stepped.report, one_shot.report);
            prop_assert_eq!(stepped.integrity, one_shot.integrity);
        }
    }
}
