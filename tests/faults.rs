//! Fault-injection integration tests: zero-rate transparency, seeded
//! determinism, degraded-mode operation under module death/slowdown,
//! migration rollback integrity, and an exhaustive abort-at-every-step
//! property over the clone-then-unlink migration protocol.

use proptest::prelude::*;

use triple_a::core::{
    Array, ArrayConfig, FaultConfig, FimmFaultEvent, FimmFaultKind, FlashFaultProfile, IoOp,
    ManagementMode, PcieFaultProfile, PowerLossEvent, TenantId, TenantSpec, Trace, TraceRequest,
};
use triple_a::ftl::{Ftl, LogicalPage};
use triple_a::pcie::ClusterId;
use triple_a::sim::SimTime;
use triple_a::workloads::Microbench;

fn small() -> ArrayConfig {
    ArrayConfig::small_test()
}

/// Validated variant of [`small`] for tests that tweak fields: routes
/// the edit through the cross-field-checking builder.
fn small_with(f: impl FnOnce(&mut ArrayConfig)) -> ArrayConfig {
    ArrayConfig::small_builder()
        .tune(f)
        .build()
        .expect("test configuration validates")
}

fn hot_read_trace(cfg: &ArrayConfig) -> triple_a::core::Trace {
    Microbench::read()
        .hot_clusters(1)
        .requests(6_000)
        .gap_ns(1_400)
        .build(cfg, 31)
}

/// A quiet fault plan (all rates zero, no events) must not perturb the
/// simulation at all — byte-identical report, even with a nonzero seed.
#[test]
fn zero_rate_fault_config_is_transparent() {
    let plain = small();
    let mut seeded = small();
    seeded.faults = FaultConfig {
        seed: 0xDEAD_BEEF,
        ..FaultConfig::default()
    };
    assert!(seeded.faults.is_quiet());
    let trace = hot_read_trace(&plain);
    let a = Array::new(plain, ManagementMode::Autonomic).run(&trace);
    let b = Array::new(seeded, ManagementMode::Autonomic).run(&trace);
    assert_eq!(format!("{a}"), format!("{b}"));
    assert_eq!(a.events_processed(), b.events_processed());
    assert!(!b.fault_stats().any());
}

/// Same seed + same rates ⇒ identical faults ⇒ identical reports.
/// A different seed must (for these rates) fault differently.
#[test]
fn nonzero_fault_runs_are_deterministic() {
    let cfg = small_with(|c| {
        c.faults = FaultConfig {
            flash: FlashFaultProfile {
                read_transient_prob: 0.02,
                prog_fail_prob: 0.001,
                erase_fail_prob: 0.001,
            },
            pcie: PcieFaultProfile {
                corrupt_prob: 0.005,
                replay_ns: 600,
            },
            seed: 7,
            ..FaultConfig::default()
        };
    });
    let trace = hot_read_trace(&cfg);
    let a = Array::new(cfg.clone(), ManagementMode::Autonomic).run(&trace);
    let b = Array::new(cfg.clone(), ManagementMode::Autonomic).run(&trace);
    assert_eq!(format!("{a}"), format!("{b}"));
    assert_eq!(a.fault_stats(), b.fault_stats());
    assert!(a.fault_stats().any(), "rates this high must fault");

    let mut other = cfg;
    other.faults.seed = 8;
    let c = Array::new(other, ManagementMode::Autonomic).run(&trace);
    assert_ne!(
        format!("{a}"),
        format!("{c}"),
        "different fault seeds should perturb the run"
    );
}

/// Transient read faults burn die time and retry, but every request
/// still completes and the ECC-retry count is visible in the report.
#[test]
fn transient_read_faults_retry_and_complete() {
    let cfg = small_with(|c| {
        c.faults.flash.read_transient_prob = 0.05;
        c.faults.seed = 11;
    });
    let trace = hot_read_trace(&cfg);
    let report = Array::new(cfg, ManagementMode::NonAutonomic).run(&trace);
    assert_eq!(report.completed(), trace.len() as u64);
    assert!(report.fault_stats().transient_read_faults > 0);
    assert_eq!(report.fault_stats().unserviceable_reads, 0);
}

/// A Slowdown fault on a hot FIMM makes it a laggard: Eq. 3 detection
/// must fire and reshaping move pages off the slow module.
#[test]
fn slowdown_fault_triggers_laggard_detection() {
    let cfg = small_with(|c| {
        c.faults = FaultConfig::default().with_fimm_event(FimmFaultEvent {
            cluster: 0,
            fimm: 0,
            at_ns: 200_000,
            kind: FimmFaultKind::Slowdown(8),
        });
    });
    let trace = hot_read_trace(&cfg);

    let faulty = Array::new(cfg.clone(), ManagementMode::Autonomic).run(&trace);
    let clean_cfg = small_with(|c| c.autonomic = cfg.autonomic);
    let clean = Array::new(clean_cfg, ManagementMode::Autonomic).run(&trace);

    assert_eq!(faulty.completed(), trace.len() as u64);
    assert_eq!(faulty.fault_stats().fimm_slowdowns, 1);
    assert!(
        faulty.autonomic_stats().laggard_detections > clean.autonomic_stats().laggard_detections,
        "slowdown x8 must add laggard detections: faulty {} vs clean {}",
        faulty.autonomic_stats().laggard_detections,
        clean.autonomic_stats().laggard_detections
    );
}

/// Killing one FIMM mid-run degrades reads onto its siblings; the run
/// still completes every request and the FTL metadata stays coherent.
#[test]
fn dead_fimm_degrades_reads_and_preserves_integrity() {
    let cfg = small_with(|c| {
        c.faults = FaultConfig::default().with_fimm_event(FimmFaultEvent {
            cluster: 0,
            fimm: 1,
            at_ns: 500_000,
            kind: FimmFaultKind::Dead,
        });
    });
    let trace = hot_read_trace(&cfg);
    let run = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
    assert_eq!(run.report.completed(), trace.len() as u64);
    assert_eq!(run.report.fault_stats().fimm_deaths, 1);
    assert!(run.report.fault_stats().degraded_reads > 0);
    run.integrity
        .expect("FTL metadata must stay coherent after a module death");
}

/// Program failures during relocation force migration rollback; the
/// end-to-end integrity check proves no page was lost or duplicated,
/// and the failed blocks are retired.
#[test]
fn program_failures_roll_back_migrations_without_losing_pages() {
    let cfg = small_with(|c| {
        c.faults.flash.prog_fail_prob = 0.01;
        c.faults.seed = 5;
    });
    let trace = Microbench::read()
        .hot_clusters(1)
        .requests(8_000)
        .gap_ns(1_300)
        .build(&cfg, 37);
    let run = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
    assert_eq!(run.report.completed(), trace.len() as u64);
    assert!(run.report.fault_stats().prog_failures > 0);
    assert!(run.report.fault_stats().blocks_retired_by_fault > 0);
    run.integrity
        .expect("no page lost or duplicated across fault rollbacks");
}

/// TLP corruption adds replay latency but never corrupts results: the
/// run completes, replays are counted, and the run stays deterministic.
#[test]
fn pcie_corruption_replays_and_completes() {
    let cfg = small_with(|c| {
        c.faults.pcie = PcieFaultProfile {
            corrupt_prob: 0.01,
            replay_ns: 800,
        };
        c.faults.seed = 13;
    });
    let trace = hot_read_trace(&cfg);
    let report = Array::new(cfg, ManagementMode::NonAutonomic).run(&trace);
    assert_eq!(report.completed(), trace.len() as u64);
    assert!(report.fault_stats().tlp_replays > 0);
}

/// Write-heavy trace so a power cut lands mid-write and the journal
/// replay has real mutations to recover.
fn hot_write_trace(cfg: &ArrayConfig) -> triple_a::core::Trace {
    Microbench::write()
        .hot_clusters(1)
        .requests(2_000)
        .gap_ns(1_400)
        .build(cfg, 53)
}

/// Runs a write burst with a power cut at `cut_ns`, then checks the
/// remount invariants: metadata coherent, every request completed or
/// accounted lost, and the cut visible in the recovery stats. The same
/// run driven incrementally — submit everything, then step in 10 µs
/// epochs — must report exactly what `run_verified` reports, even when
/// the cut shares its instant with an arrival.
fn check_power_loss_at(cut_ns: u64) {
    let cfg = small_with(|c| {
        c.faults = FaultConfig::default().with_power_loss(PowerLossEvent::at(cut_ns));
    });
    let trace = hot_write_trace(&cfg);
    let run = Array::new(cfg.clone(), ManagementMode::Autonomic).run_verified(&trace);
    assert!(
        run.integrity.is_ok(),
        "journal replay must rebuild coherent metadata after a cut at {cut_ns}ns: {:?}",
        run.integrity
    );
    let rec = run.report.recovery_stats();
    assert_eq!(rec.power_losses, 1, "the scheduled cut must fire");
    assert_eq!(
        run.report.completed() + rec.lost_inflight_requests,
        trace.len() as u64,
        "every request must complete or be accounted lost"
    );

    let mut runner = Array::new(cfg, ManagementMode::Autonomic).into_runner();
    for r in trace.requests() {
        runner.submit(r);
    }
    let mut t = SimTime::ZERO;
    while !runner.is_idle() {
        t += 10_000;
        runner.step_until(t);
    }
    let stepped = runner.finish();
    assert_eq!(
        stepped.report, run.report,
        "stepped and one-shot runs disagree for a cut at {cut_ns}ns"
    );
}

/// Arrival instants of [`hot_write_trace`], for cuts that coincide with
/// a submission.
fn hot_write_arrivals() -> Vec<u64> {
    hot_write_trace(&small())
        .requests()
        .iter()
        .map(|r| r.at.as_nanos())
        .collect()
}

/// Runs a non-stationary scenario with a power cut at `cut_ns` and
/// checks the same remount invariants as [`check_power_loss_at`] — the
/// scenario shapes move the hot set and the arrival rate mid-run, so
/// the journal replay happens against a layout that is already being
/// chased by the autonomic machinery.
fn check_scenario_power_loss(scenario: &triple_a::workloads::ScenarioTrace, cut_ns: u64) {
    let cfg = small_with(|c| {
        c.faults = FaultConfig::default().with_power_loss(PowerLossEvent::at(cut_ns));
    });
    let trace = scenario.build(&cfg, 53);
    let run = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
    assert!(
        run.integrity.is_ok(),
        "{}: journal replay must rebuild coherent metadata after a cut at {cut_ns}ns: {:?}",
        scenario.name(),
        run.integrity
    );
    let rec = run.report.recovery_stats();
    assert_eq!(
        rec.power_losses,
        1,
        "{}: the scheduled cut must fire",
        scenario.name()
    );
    assert_eq!(
        run.report.completed() + rec.lost_inflight_requests,
        trace.len() as u64,
        "{}: every request must complete or be accounted lost",
        scenario.name()
    );
}

/// Power cut in the middle of a hot-spot-drift scenario: the hot set
/// has already rotated once when the cut lands, and rotates again after
/// the remount. Integrity must hold at every phase boundary and at
/// mid-phase instants.
#[test]
fn power_loss_mid_drift_scenario_recovers() {
    let profile = triple_a::workloads::WorkloadProfile::by_name("mds").expect("mds registered");
    let scenario = triple_a::workloads::ScenarioTrace::hotspot_drift(profile, 2_000, 1_400, 4);
    let starts = scenario.phase_starts_ns();
    // Mid-phase-2 (post-first-rotation) and exactly on a rotation edge.
    for cut_ns in [starts[1] + (starts[2] - starts[1]) / 2, starts[2]] {
        check_scenario_power_loss(&scenario, cut_ns);
    }
}

/// Power cut inside a flash-crowd burst: the journal is absorbing
/// writes concentrated on a single cluster when DRAM vanishes.
#[test]
fn power_loss_mid_flash_crowd_burst_recovers() {
    let profile = triple_a::workloads::WorkloadProfile::by_name("mds").expect("mds registered");
    let scenario = triple_a::workloads::ScenarioTrace::flash_crowd(profile, 2_000, 2_800, 700, 2);
    let starts = scenario.phase_starts_ns();
    // Phase 1 is the first crowd burst; cut in its middle, and again in
    // the calm stretch right after it.
    for cut_ns in [starts[1] + (starts[2] - starts[1]) / 2, starts[2] + 1_000] {
        check_scenario_power_loss(&scenario, cut_ns);
    }
}

/// A cut before the first submission finds nothing volatile to lose:
/// the array remounts into an empty journal and serves the whole trace.
#[test]
fn power_loss_at_time_zero_is_a_clean_remount() {
    check_power_loss_at(0);
}

/// A cut scheduled after the last completion still fires (the run
/// extends to it) but loses nothing.
#[test]
fn power_loss_after_the_burst_loses_nothing() {
    let cfg = small_with(|c| {
        c.faults = FaultConfig::default().with_power_loss(PowerLossEvent::at(1 << 40));
    });
    let trace = hot_write_trace(&cfg);
    let run = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
    run.integrity.expect("idle-time power loss recovers");
    let rec = run.report.recovery_stats();
    assert_eq!(rec.power_losses, 1);
    assert_eq!(rec.lost_inflight_requests, 0);
    assert_eq!(run.report.completed(), trace.len() as u64);
}

/// The stepped runner through the tenant front door: eight tenants, 2 %
/// transient read faults, a module death covered by a hot spare, and a
/// journaled power cut that lands while the rebuild is in progress.
/// Submitting everything and stepping in 10 µs epochs must report
/// exactly what `run_verified` reports — arbitration, the rebuild and
/// the remount all run inside the epoch loop.
#[test]
fn tenanted_power_loss_stepped_matches_one_shot() {
    let cfg = small_with(|c| {
        c.tenants = (0..8)
            .map(|t| {
                if t % 4 == 0 {
                    TenantSpec::interactive()
                } else {
                    TenantSpec::batch()
                }
            })
            .collect();
        c.hot_spares = 1;
        c.faults = FaultConfig {
            flash: FlashFaultProfile {
                read_transient_prob: 0.02,
                ..FlashFaultProfile::default()
            },
            seed: 19,
            ..FaultConfig::default()
        }
        .with_fimm_event(FimmFaultEvent {
            cluster: 0,
            fimm: 1,
            at_ns: 300_000,
            kind: FimmFaultKind::Dead,
        })
        .with_power_loss(PowerLossEvent::at(900_000));
    });
    // A hot read stream with every third request turned into a write,
    // dealt round-robin to the tenants.
    let trace: Trace = hot_read_trace(&cfg)
        .requests()
        .iter()
        .take(2_000)
        .enumerate()
        .map(|(i, r)| {
            let op = if i % 3 == 0 { IoOp::Write } else { IoOp::Read };
            TraceRequest::for_tenant(TenantId(i as u32 % 8), r.at, op, r.lpn, r.pages)
        })
        .collect();
    let run = Array::new(cfg.clone(), ManagementMode::Autonomic).run_verified(&trace);
    run.integrity
        .expect("the remount replays to coherent metadata");
    let rec = run.report.recovery_stats();
    assert_eq!(rec.power_losses, 1, "the scheduled cut must fire");
    assert_eq!(rec.rebuilds_completed, 1, "the spare must take over");
    assert!(
        rec.lost_inflight_requests > 0,
        "the cut must catch work in flight"
    );
    assert!(run.report.fault_stats().transient_read_faults > 0);
    assert_eq!(run.report.tenant_stats().len(), 8);
    assert_eq!(
        run.report.completed() + rec.lost_inflight_requests,
        trace.len() as u64,
        "every request must complete or be accounted lost"
    );

    let mut runner = Array::new(cfg, ManagementMode::Autonomic).into_runner();
    for r in trace.requests() {
        runner.submit(r);
    }
    let mut t = SimTime::ZERO;
    while !runner.is_idle() {
        t += 10_000;
        runner.step_until(t);
    }
    let stepped = runner.finish();
    assert_eq!(
        stepped.report, run.report,
        "stepped and one-shot runs disagree"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// Power loss injected at an arbitrary instant across the whole
    /// write burst (and a little past it), or exactly on one of its
    /// arrivals: wherever the cut lands — between any two events,
    /// mid-flight, mid-journal-batch, beside a submission — the remount
    /// must replay to coherent metadata and account for every request.
    #[test]
    fn power_loss_at_any_instant_recovers_consistently(
        cut_ns in prop_oneof![
            0u64..3_200_000,
            (0usize..2_000).prop_map(|i| hot_write_arrivals()[i]),
        ],
    ) {
        check_power_loss_at(cut_ns);
    }

    /// Clone-then-unlink migration, aborted (or superseded by a host
    /// overwrite) at every possible step: whatever combination of
    /// prepare/abort/commit/overwrite happens per page, the map and the
    /// block tables must stay a bijection — no page lost, none duplicated.
    #[test]
    fn migration_abort_at_every_step_loses_nothing(
        n_pages in 1u64..48,
        abort_mask in 0u64..u64::MAX,
        overwrite_mask in 0u64..u64::MAX,
    ) {
        let shape = small().shape;
        let mut ftl = Ftl::new(shape);
        let src = ClusterId { switch: 0, index: 0 };
        let dst = ClusterId { switch: 1, index: 2 };

        // Seed every page with a real allocation on the source FIMM.
        let lpns: Vec<LogicalPage> = (0..n_pages).map(|i| LogicalPage(i * 7)).collect();
        for &l in &lpns {
            ftl.write_alloc(l, Some((src, 0))).expect("seed write fits");
        }

        for (i, &l) in lpns.iter().enumerate() {
            let old = ftl.locate(l);
            let clone = ftl.migrate_prepare(l, dst, 1).expect("clone fits");
            let overwritten = overwrite_mask >> (i % 64) & 1 == 1;
            if overwritten {
                // Host write lands mid-clone and supersedes the data.
                ftl.write_alloc(l, Some((src, 0))).expect("overwrite fits");
            }
            if abort_mask >> (i % 64) & 1 == 1 {
                // Copy failed mid-flight: roll back; mapping untouched.
                prop_assert!(ftl.migrate_abort(l, clone));
                prop_assert!(ftl.locate(l) != clone);
            } else {
                // Commit must refuse to clobber a newer host write.
                let committed = ftl.migrate_commit(l, clone, old);
                prop_assert_eq!(committed, !overwritten);
                prop_assert_eq!(ftl.locate(l) == clone, !overwritten);
            }
        }

        ftl.verify_integrity().expect("map <-> block tables stay a bijection");
    }
}
