//! Failure-storm scenarios: whole-array power cuts, hot-spare rebuilds
//! of dead modules, and a combined storm (NAND faults + module death +
//! slowdown + power loss) — the crash-recovery counterpart of the
//! `faults` sweep. Every run remounts from the journaled FTL metadata,
//! passes the end-to-end integrity audit, and reproduces byte for byte
//! at any thread count.

use crate::experiments::{profile, run_checked};
use crate::harness::{jf, ju, obj, report_json, text, uint, Experiment, Scale};
use crate::{bench_builder, f1, overload_gap_ns};
use triplea_core::{
    Array, ArrayConfig, FaultConfig, FimmFaultEvent, FimmFaultKind, FlashFaultProfile,
    ManagementMode, PowerLossEvent, Trace,
};
use triplea_workloads::ProfileTrace;

/// Write-heavy enterprise mix (mds: ~26 % reads) — a power cut must
/// land mid-write for the journal replay to have work to do.
fn storm_trace(cfg: &ArrayConfig, seed: u64, requests: usize, gap_ns: u64) -> Trace {
    ProfileTrace::new(profile("mds"))
        .requests(requests)
        .gap_ns(gap_ns)
        .build(cfg, seed)
}

/// Builds the failure-storm experiment: power-cut instants, hot-spare
/// rebuild under idle vs busy foreground load, and the combined storm.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "failure_storm",
        "Failure storms: power-loss recovery, hot-spare rebuild, combined",
    );
    let gap = overload_gap_ns(&crate::bench_config(), 2);
    let span_ns = gap * scale.requests as u64;
    for (label, frac_num) in [("quarter", 1u64), ("half", 2), ("three_quarter", 3)] {
        e.point(format!("power_loss/{label}"), move |ctx| {
            let cut_ns = span_ns * frac_num / 4;
            let cfg = bench_builder()
                .faults(FaultConfig::default().with_power_loss(PowerLossEvent::at(cut_ns)))
                .build()
                .expect("power-loss configuration validates");
            let trace = storm_trace(&cfg, ctx.base_seed, scale.requests, gap);
            let aaa = {
                let run = Array::new(cfg.clone(), ManagementMode::Autonomic).run_verified(&trace);
                run.integrity
                    .expect("FTL integrity violated after power-loss remount");
                let rec = run.report.recovery_stats();
                assert_eq!(rec.power_losses, 1, "the scheduled cut must fire");
                assert_eq!(
                    run.report.completed() + rec.lost_inflight_requests,
                    trace.len() as u64,
                    "every request must complete or be accounted lost"
                );
                report_json(&run.report)
            };
            obj([
                ("instant", text(label)),
                ("cut_ns", uint(cut_ns)),
                ("aaa", aaa),
                (
                    "base",
                    run_checked(cfg, ManagementMode::NonAutonomic, &trace),
                ),
            ])
        });
    }
    for (label, gap_mult) in [("idle", 4u64), ("busy", 1)] {
        e.point(format!("rebuild/{label}"), move |ctx| {
            let cfg = bench_builder()
                .hot_spares(1)
                .faults(FaultConfig::default().with_fimm_event(FimmFaultEvent {
                    cluster: 0,
                    fimm: 0,
                    at_ns: span_ns / 2,
                    kind: FimmFaultKind::Dead,
                }))
                .build()
                .expect("rebuild configuration validates");
            let trace = storm_trace(&cfg, ctx.base_seed, scale.requests, gap * gap_mult);
            let run = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
            run.integrity
                .expect("FTL integrity violated after hot-spare rebuild");
            let rec = run.report.recovery_stats();
            assert_eq!(rec.rebuilds_completed, 1, "the rebuild must finish");
            obj([("load", text(label)), ("aaa", report_json(&run.report))])
        });
    }
    e.point("storm/combined", move |ctx| {
        let cfg = bench_builder()
            .hot_spares(1)
            .faults(FaultConfig {
                flash: FlashFaultProfile {
                    read_transient_prob: 0.005,
                    prog_fail_prob: 0.0002,
                    erase_fail_prob: 0.0002,
                },
                seed: ctx.base_seed,
                ..FaultConfig::default()
            })
            .tune(|c| {
                c.faults = std::mem::take(&mut c.faults)
                    .with_fimm_event(FimmFaultEvent {
                        cluster: 0,
                        fimm: 0,
                        at_ns: span_ns / 4,
                        kind: FimmFaultKind::Dead,
                    })
                    .with_fimm_event(FimmFaultEvent {
                        cluster: 1,
                        fimm: 1,
                        at_ns: span_ns / 4,
                        kind: FimmFaultKind::Slowdown(4),
                    })
                    .with_power_loss(PowerLossEvent::at(span_ns / 2));
            })
            .build()
            .expect("storm configuration validates");
        let trace = storm_trace(&cfg, ctx.base_seed, scale.requests, gap);
        let run = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
        run.integrity
            .expect("FTL integrity violated after the combined storm");
        let rec = run.report.recovery_stats();
        assert_eq!(rec.power_losses, 1);
        obj([("aaa", report_json(&run.report))])
    });
    e.renderer(|res| {
        let mut out = String::new();
        let mut rows = Vec::new();
        for (_, d) in res.section("power_loss/") {
            rows.push(vec![
                crate::harness::js(d, "instant"),
                (ju(d, "aaa.completed")).to_string(),
                ju(d, "aaa.recovery.lost_inflight_requests").to_string(),
                ju(d, "aaa.recovery.requeued_requests").to_string(),
                ju(d, "aaa.recovery.journal_replayed").to_string(),
                ju(d, "aaa.recovery.journal_dropped").to_string(),
                f1(ju(d, "aaa.recovery.remount_ns") as f64 / 1_000.0),
                f1(jf(d, "aaa.p99_us")),
            ]);
        }
        out.push_str(&crate::harness::fmt_table(
            "Power cut mid-write-burst: journal replay + remount (write-heavy mds mix)",
            &[
                "Cut at",
                "Completed",
                "Lost",
                "Requeued",
                "Replayed",
                "Dropped",
                "Remount us",
                "p99 us",
            ],
            &rows,
        ));
        let mut rows = Vec::new();
        for (_, d) in res.section("rebuild/") {
            rows.push(vec![
                crate::harness::js(d, "load"),
                ju(d, "aaa.recovery.rebuild_pages").to_string(),
                f1(ju(d, "aaa.recovery.rebuild_ns") as f64 / 1_000_000.0),
                f1(ju(d, "aaa.recovery.degraded_p99_ns") as f64 / 1_000.0),
                ju(d, "aaa.faults.degraded_reads").to_string(),
                ju(d, "aaa.faults.fimm_deaths").to_string(),
            ]);
        }
        out.push('\n');
        out.push_str(&crate::harness::fmt_table(
            "Hot-spare rebuild of a dead module at t=midpoint (throttled by foreground load)",
            &[
                "Load",
                "Pages copied",
                "Rebuild ms",
                "Degraded p99 us",
                "Degraded reads",
                "Deaths",
            ],
            &rows,
        ));
        let mut rows = Vec::new();
        for (_, d) in res.section("storm/") {
            rows.push(vec![
                ju(d, "aaa.completed").to_string(),
                ju(d, "aaa.recovery.power_losses").to_string(),
                ju(d, "aaa.recovery.rebuilds_completed").to_string(),
                ju(d, "aaa.recovery.journal_replayed").to_string(),
                ju(d, "aaa.recovery.aborted_clones").to_string(),
                ju(d, "aaa.faults.blocks_retired_by_fault").to_string(),
                f1(jf(d, "aaa.p99_us")),
            ]);
        }
        out.push('\n');
        out.push_str(&crate::harness::fmt_table(
            "Combined storm: NAND faults + module death + slowdown + power cut",
            &[
                "Completed",
                "Power losses",
                "Rebuilds",
                "Replayed",
                "Clones aborted",
                "Bad blocks",
                "p99 us",
            ],
            &rows,
        ));
        out.push_str(
            "\nall runs journal FTL metadata, remount after the cut, and pass the\n\
             end-to-end integrity audit; artifacts are byte-identical at any\n\
             thread count.\n",
        );
        out
    });
    e
}
