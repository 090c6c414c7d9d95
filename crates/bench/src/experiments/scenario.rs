//! The scenario catalog: named end-to-end runs that exercise the array
//! under *non-stationary* conditions — replayed block traces, diurnal
//! load, flash crowds, drifting hot spots, and failure storms layered
//! on the crash-recovery machinery. `bench scenario <name>` drives the
//! catalog; `tests/golden.rs` pins every artifact byte-for-byte across
//! thread counts.
//!
//! Each scenario is a full [`Experiment`], so it inherits the harness's
//! seed derivation, spec-order collection, and golden-snapshot flow
//! unchanged.

use crate::experiments::profile;
use crate::harness::{flag, jf, ju, obj, report_json, text, uint, Experiment, Scale};
use crate::{bench_builder, bench_config, f1, f2, profile_gap_ns};
use serde_json::Value;
use triplea_core::{
    Array, ArrayConfig, FaultConfig, FimmFaultEvent, FimmFaultKind, ManagementMode, PowerLossEvent,
    Trace,
};
use triplea_workloads::msr::{parse_msr, to_msr_csv, write_msr};
use triplea_workloads::ScenarioTrace;

/// Names of every catalog scenario, in artifact order — the list
/// `bench scenario list` prints and the golden suite iterates.
pub const NAMES: [&str; 6] = [
    "scenario_trace_replay",
    "scenario_diurnal",
    "scenario_flash_crowd",
    "scenario_hotspot_drift",
    "scenario_failure_storm_mix",
    "scenario_sla_under_drift",
];

/// Builds the whole catalog, in [`NAMES`] order.
pub fn catalog(scale: Scale) -> Vec<Experiment> {
    vec![
        trace_replay(scale),
        diurnal(scale),
        flash_crowd(scale),
        hotspot_drift(scale),
        failure_storm_mix(scale),
        sla_under_drift(scale),
    ]
}

/// Shared summary shape: scenario metadata + both management modes.
fn scenario_pair(cfg: ArrayConfig, scenario: &ScenarioTrace, seed: u64) -> Value {
    let trace = scenario.build(&cfg, seed);
    let (base, aaa) = crate::experiments::pair_json(cfg, &trace);
    obj([
        ("shape", text(scenario.name())),
        ("phases", uint(scenario.phases().len() as u64)),
        ("span_ns", uint(scenario.span_ns())),
        ("requests", uint(trace.len() as u64)),
        ("base", base),
        ("aaa", aaa),
    ])
}

/// Standard scenario table: offered shape on the left, both modes'
/// headline numbers on the right.
fn scenario_renderer(title: &'static str) -> impl Fn(&crate::harness::ExperimentResult) -> String {
    move |res| {
        let rows: Vec<Vec<String>> = res
            .points
            .iter()
            .map(|p| {
                let d = &p.data;
                vec![
                    p.label.clone(),
                    ju(d, "phases").to_string(),
                    f1(jf(d, "base.iops") / 1e3),
                    f1(jf(d, "aaa.iops") / 1e3),
                    f2(crate::experiments::ratio(
                        jf(d, "aaa.iops"),
                        jf(d, "base.iops"),
                    )),
                    f1(jf(d, "base.p99_us")),
                    f1(jf(d, "aaa.p99_us")),
                ]
            })
            .collect();
        crate::harness::fmt_table(
            title,
            &[
                "Scenario",
                "Phases",
                "Base kIOPS",
                "AAA kIOPS",
                "Gain",
                "Base p99 us",
                "AAA p99 us",
            ],
            &rows,
        )
    }
}

/// `scenario_trace_replay`: synthesize a Table-1 stream, serialize it
/// into the MSR-Cambridge CSV schema, and run it back through the
/// *real* ingestion path: `parse_msr`, then [`super::replay::pair`]
/// (the mapper and both modes), as `bench replay` does with a file. A
/// lossless `parse → write → parse` round-trip is asserted inline on
/// every point, so the golden suite also pins the parser.
pub fn trace_replay(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "scenario_trace_replay",
        "Scenario: MSR-style trace ingestion and replay",
    );
    for name in ["fin", "mds", "prxy"] {
        e.point(format!("replay/{name}"), move |ctx| {
            let cfg = bench_config();
            let p = profile(name);
            let synth = crate::enterprise_trace_n(&p, &cfg, ctx.base_seed, scale.requests);
            let page = cfg.shape.flash.page_size as u64;

            // Through the wire format and back: the scenario exercises
            // the same code path a real MSR capture would.
            let csv = to_msr_csv(&synth, "triplea", page);
            let records = parse_msr(csv.as_bytes()).expect("serialized trace parses");

            let mut rewritten = Vec::new();
            write_msr(&mut rewritten, &records).expect("in-memory write succeeds");
            let reparsed = parse_msr(rewritten.as_slice()).expect("re-serialized trace parses");
            assert_eq!(
                records, reparsed,
                "parse -> write -> parse must be lossless"
            );

            let span_ns = synth
                .requests()
                .last()
                .map(|r| r.at.as_nanos())
                .unwrap_or(0)
                .max(1);
            assert_eq!(records.len(), synth.len(), "every request must parse back");
            let (base, aaa) = super::replay::pair(&records, Some(span_ns));
            obj([
                ("profile", text(name)),
                ("records", uint(records.len() as u64)),
                ("roundtrip_lossless", flag(true)),
                ("span_ns", uint(span_ns)),
                ("base", base),
                ("aaa", aaa),
            ])
        });
    }
    e.renderer(|res| {
        let rows: Vec<Vec<String>> = res
            .points
            .iter()
            .map(|p| {
                let d = &p.data;
                vec![
                    crate::harness::js(d, "profile"),
                    ju(d, "records").to_string(),
                    f1(jf(d, "base.iops") / 1e3),
                    f1(jf(d, "aaa.iops") / 1e3),
                    f2(crate::experiments::ratio(
                        jf(d, "aaa.iops"),
                        jf(d, "base.iops"),
                    )),
                    f1(jf(d, "aaa.p99_us")),
                ]
            })
            .collect();
        let mut out = crate::harness::fmt_table(
            "Trace replay: Table-1 stream -> MSR CSV -> parser -> mapper -> array",
            &[
                "Profile",
                "Records",
                "Base kIOPS",
                "AAA kIOPS",
                "Gain",
                "AAA p99 us",
            ],
            &rows,
        );
        out.push_str(
            "\nevery point also asserts a lossless parse -> serialize -> parse\n\
             round-trip of the MSR schema before replaying.\n",
        );
        out
    });
    e
}

/// `scenario_diurnal`: the offered load breathes through day curves —
/// the arrival gap interpolates trough → peak → trough while the mix
/// stays fixed, one point per cycle count.
pub fn diurnal(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "scenario_diurnal",
        "Scenario: diurnal load (arrival gap follows a day curve)",
    );
    for cycles in [1u32, 2] {
        e.point(format!("cycles/{cycles}"), move |ctx| {
            let cfg = bench_config();
            let peak = profile_gap_ns(&profile("fin"), &cfg);
            let s = ScenarioTrace::diurnal(profile("fin"), scale.requests, peak * 6, peak, cycles)
                .hot_region_pages(crate::HOT_REGION_PAGES);
            scenario_pair(cfg, &s, ctx.base_seed)
        });
    }
    e.renderer(scenario_renderer(
        "Diurnal load: trough -> peak -> trough arrival gaps (fin mix)",
    ));
    e
}

/// `scenario_flash_crowd`: calm stretches punctured by short bursts that
/// slam ~97 % of I/O onto one (rotating) cluster.
pub fn flash_crowd(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "scenario_flash_crowd",
        "Scenario: flash crowds slamming one rotating cluster",
    );
    for crowds in [2u32, 4] {
        e.point(format!("crowds/{crowds}"), move |ctx| {
            let cfg = bench_config();
            let gap = profile_gap_ns(&profile("prxy"), &cfg);
            let s = ScenarioTrace::flash_crowd(
                profile("prxy"),
                scale.requests,
                gap * 4,
                gap / 2,
                crowds,
            )
            .hot_region_pages(crate::HOT_REGION_PAGES);
            scenario_pair(cfg, &s, ctx.base_seed)
        });
    }
    e.renderer(scenario_renderer(
        "Flash crowds: calm prxy traffic with 97%-concentrated bursts",
    ));
    e
}

/// `scenario_hotspot_drift`: the hot cluster set rotates to a disjoint
/// set each phase, so placement decisions go stale mid-run.
pub fn hotspot_drift(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "scenario_hotspot_drift",
        "Scenario: hot-spot drift (hot clusters move mid-run)",
    );
    for phases in [2u32, 4, 8] {
        e.point(format!("phases/{phases}"), move |ctx| {
            let cfg = bench_config();
            let gap = profile_gap_ns(&profile("usr"), &cfg);
            let s = ScenarioTrace::hotspot_drift(profile("usr"), scale.requests, gap, phases)
                .hot_region_pages(crate::HOT_REGION_PAGES);
            scenario_pair(cfg, &s, ctx.base_seed)
        });
    }
    e.renderer(scenario_renderer(
        "Hot-spot drift: usr mix, hot set rotates to disjoint clusters each phase",
    ));
    e
}

/// Schedules a module death and a slowdown at the given phase starts,
/// and a power cut at `cut_ns`.
fn storm_faults(starts: &[u64], cut_ns: u64) -> FaultConfig {
    FaultConfig::default()
        .with_power_loss(PowerLossEvent::at(cut_ns))
        .with_fimm_event(FimmFaultEvent {
            cluster: 0,
            fimm: 0,
            at_ns: starts.get(1).copied().unwrap_or(1).max(1),
            kind: FimmFaultKind::Dead,
        })
        .with_fimm_event(FimmFaultEvent {
            cluster: 1,
            fimm: 1,
            at_ns: starts.get(2).copied().unwrap_or(2).max(1),
            kind: FimmFaultKind::Slowdown(4),
        })
}

/// `scenario_failure_storm_mix`: power cuts and module faults aimed at
/// specific phases of the drift and flash-crowd shapes. Every point
/// remounts from journaled FTL metadata and must pass the end-to-end
/// integrity audit; the artifact records the recovery accounting.
pub fn failure_storm_mix(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "scenario_failure_storm_mix",
        "Scenario: failure storms layered on non-stationary traffic",
    );
    e.point("cut/drift_mid", move |ctx| {
        let cfg0 = bench_config();
        let gap = profile_gap_ns(&profile("mds"), &cfg0);
        let s = ScenarioTrace::hotspot_drift(profile("mds"), scale.requests, gap, 4)
            .hot_region_pages(crate::HOT_REGION_PAGES);
        // Cut in the middle of the third drift phase: the hot set has
        // already moved twice when the journal replays.
        let starts = s.phase_starts_ns();
        let cut_ns = starts[2] + (starts[3] - starts[2]) / 2;
        let cfg = bench_builder()
            .faults(FaultConfig::default().with_power_loss(PowerLossEvent::at(cut_ns)))
            .build()
            .expect("drift power-cut configuration validates");
        storm_point(cfg, &s, ctx.base_seed, cut_ns, false)
    });
    e.point("cut/crowd_mid", move |ctx| {
        let cfg0 = bench_config();
        let gap = profile_gap_ns(&profile("prxy"), &cfg0);
        let s = ScenarioTrace::flash_crowd(profile("prxy"), scale.requests, gap * 4, gap / 2, 2)
            .hot_region_pages(crate::HOT_REGION_PAGES);
        // Cut inside the first crowd burst, the worst instant: writes
        // are concentrated on one cluster when DRAM vanishes.
        let starts = s.phase_starts_ns();
        let cut_ns = starts[1] + (starts[2] - starts[1]) / 2;
        let cfg = bench_builder()
            .faults(FaultConfig::default().with_power_loss(PowerLossEvent::at(cut_ns)))
            .build()
            .expect("crowd power-cut configuration validates");
        storm_point(cfg, &s, ctx.base_seed, cut_ns, false)
    });
    e.point("storm/drift_mix", move |ctx| {
        let cfg0 = bench_config();
        let gap = profile_gap_ns(&profile("mds"), &cfg0);
        let s = ScenarioTrace::hotspot_drift(profile("mds"), scale.requests, gap, 4)
            .hot_region_pages(crate::HOT_REGION_PAGES);
        let starts = s.phase_starts_ns();
        let cut_ns = starts[3] + (s.span_ns() - starts[3]) / 2;
        let cfg = bench_builder()
            .hot_spares(1)
            .faults(storm_faults(&starts, cut_ns))
            .build()
            .expect("storm configuration validates");
        storm_point(cfg, &s, ctx.base_seed, cut_ns, true)
    });
    e.renderer(|res| {
        let rows: Vec<Vec<String>> = res
            .points
            .iter()
            .map(|p| {
                let d = &p.data;
                vec![
                    p.label.clone(),
                    crate::harness::js(d, "shape"),
                    ju(d, "aaa.completed").to_string(),
                    ju(d, "aaa.recovery.lost_inflight_requests").to_string(),
                    ju(d, "aaa.recovery.journal_replayed").to_string(),
                    ju(d, "aaa.recovery.rebuilds_completed").to_string(),
                    f1(ju(d, "aaa.recovery.remount_ns") as f64 / 1_000.0),
                    f1(jf(d, "aaa.p99_us")),
                ]
            })
            .collect();
        let mut out = crate::harness::fmt_table(
            "Failure storms on moving targets: cut + module faults mid-scenario",
            &[
                "Point",
                "Shape",
                "Completed",
                "Lost",
                "Replayed",
                "Rebuilds",
                "Remount us",
                "p99 us",
            ],
            &rows,
        );
        out.push_str(
            "\nevery point remounts from the journal mid-scenario and passes the\n\
             end-to-end FTL integrity audit.\n",
        );
        out
    });
    e
}

/// Runs one faulted scenario through the autonomic array with the full
/// recovery assertions, and embeds scenario + recovery accounting.
fn storm_point(
    cfg: ArrayConfig,
    scenario: &ScenarioTrace,
    seed: u64,
    cut_ns: u64,
    expect_rebuild: bool,
) -> Value {
    let trace = scenario.build(&cfg, seed);
    let run = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
    run.integrity
        .expect("FTL integrity violated after mid-scenario recovery");
    let rec = run.report.recovery_stats();
    assert_eq!(rec.power_losses, 1, "the scheduled cut must fire");
    assert_eq!(
        run.report.completed() + rec.lost_inflight_requests,
        trace.len() as u64,
        "every request must complete or be accounted lost"
    );
    if expect_rebuild {
        assert_eq!(rec.rebuilds_completed, 1, "the dead module must rebuild");
    }
    obj([
        ("shape", text(scenario.name())),
        ("phases", uint(scenario.phases().len() as u64)),
        ("span_ns", uint(scenario.span_ns())),
        ("cut_ns", uint(cut_ns)),
        ("aaa", report_json(&run.report)),
    ])
}

/// `scenario_sla_under_drift`: the multi-tenant front door under
/// everything at once — an interactive/batch tenant blend (the `sla`
/// sweep's tables), the interactive class riding a drifting hot set,
/// the batch class breathing through a day curve, and a failure storm
/// (power cut + module death + slowdown) timed to land mid-drift, when
/// the interactive lanes' placement is already stale. Both management
/// modes run the same blended trace; the autonomic run must survive the
/// storm with full recovery accounting and the artifact compares
/// per-class SLA violations.
pub fn sla_under_drift(scale: Scale) -> Experiment {
    use crate::experiments::sla;

    let mut e = Experiment::new(
        "scenario_sla_under_drift",
        "Scenario: tenant SLAs under hot-set drift and a failure storm",
    );
    for n in [10usize, 100] {
        e.point(format!("tenants/{n}"), move |ctx| {
            let cfg0 = bench_config();
            let k = sla::interactive_count(n);
            let interactive_reqs = scale.requests * 2 / 5;
            let batch_reqs = scale.requests - interactive_reqs;

            // Interactive lanes chase a hot set that rotates to a
            // disjoint cluster group every phase; batch lanes breathe
            // through one diurnal cycle underneath them.
            let gap = profile_gap_ns(&profile("fin"), &cfg0);
            let drift = ScenarioTrace::hotspot_drift(profile("fin"), interactive_reqs, gap, 4)
                .hot_region_pages(crate::HOT_REGION_PAGES);
            let peak = profile_gap_ns(&profile("mds"), &cfg0);
            let day = ScenarioTrace::diurnal(profile("mds"), batch_reqs, peak * 6, peak, 1)
                .hot_region_pages(crate::HOT_REGION_PAGES);

            // The storm is aimed at the interactive class: the cut lands
            // mid third drift phase, after the hot set has moved twice,
            // with a module death and a slowdown at earlier phase seams.
            let starts = drift.phase_starts_ns();
            let cut_ns = starts[2] + (starts[3] - starts[2]) / 2;
            let cfg = bench_builder()
                .with_tenants(sla::tenant_table(n))
                .hot_spares(1)
                .faults(storm_faults(&starts, cut_ns))
                .build()
                .expect("sla-under-drift configuration validates");

            let mut all = sla::split_across(drift.build(&cfg, ctx.base_seed), 0, k);
            all.extend(sla::split_across(
                day.build(&cfg, ctx.base_seed ^ 0xD1A),
                k,
                n - k,
            ));
            let trace = Trace::new(all);

            let base = Array::new(cfg.clone(), ManagementMode::NonAutonomic).run(&trace);
            let run = Array::new(cfg, ManagementMode::Autonomic).run_verified(&trace);
            run.integrity
                .expect("FTL integrity violated after the mid-drift storm");
            let rec = run.report.recovery_stats();
            assert_eq!(rec.power_losses, 1, "the scheduled cut must fire");
            assert_eq!(rec.rebuilds_completed, 1, "the dead module must rebuild");
            assert_eq!(
                run.report.completed() + rec.lost_inflight_requests,
                trace.len() as u64,
                "every request must complete or be accounted lost"
            );
            obj([
                ("tenants", uint(n as u64)),
                ("interactive", uint(k as u64)),
                ("batch", uint((n - k) as u64)),
                ("requests", uint(trace.len() as u64)),
                ("cut_ns", uint(cut_ns)),
                ("base", sla::mode_json(&base, k, false)),
                ("aaa", sla::mode_json(&run.report, k, true)),
                (
                    "recovery",
                    obj([
                        ("power_losses", uint(rec.power_losses)),
                        ("lost_inflight_requests", uint(rec.lost_inflight_requests)),
                        ("journal_replayed", uint(rec.journal_replayed)),
                        ("rebuilds_completed", uint(rec.rebuilds_completed)),
                        ("remount_ns", uint(rec.remount_ns)),
                    ]),
                ),
            ])
        });
    }
    e.renderer(|res| {
        let rows: Vec<Vec<String>> = res
            .points
            .iter()
            .map(|p| {
                let d = &p.data;
                vec![
                    p.label.clone(),
                    ju(d, "base.sla_violations").to_string(),
                    ju(d, "aaa.sla_violations").to_string(),
                    ju(d, "aaa.interactive_violations").to_string(),
                    ju(d, "aaa.batch_violations").to_string(),
                    ju(d, "aaa.violating_tenants").to_string(),
                    ju(d, "recovery.rebuilds_completed").to_string(),
                    f1(ju(d, "aaa.worst_interactive_p99_ns") as f64 / 1e3),
                ]
            })
            .collect();
        let mut out = crate::harness::fmt_table(
            "Tenant SLAs under drift + failure storm: base vs Triple-A",
            &[
                "Point",
                "Base viol",
                "AAA viol",
                "Int viol",
                "Batch viol",
                "Viol tenants",
                "Rebuilds",
                "Worst int p99 us",
            ],
            &rows,
        );
        out.push_str(
            "\nthe cut lands mid drift phase with a module dead and a lane\n\
             slowed; the autonomic run must remount, rebuild onto the spare,\n\
             and keep the interactive class inside its p99 budget.\n",
        );
        out
    });
    e
}
