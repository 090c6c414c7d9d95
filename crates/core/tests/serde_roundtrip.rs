//! A [`RunReport`] must survive JSON serialization losslessly: the
//! experiment harness persists reports into `results/*.json`, the
//! golden-snapshot suite compares those artifacts byte-for-byte, and
//! readers (the benchmark's `compare`) parse them back as a `Value`
//! tree, never as a typed report.

use serde_json::Value;
use triplea_core::{
    Array, ArrayConfig, IoOp, ManagementMode, RunReport, TenantId, TenantSpec, Trace, TraceRequest,
};
use triplea_ftl::LogicalPage;
use triplea_sim::SimTime;

/// A short hot-cluster run on the small test array: enough traffic to
/// populate histograms, per-cluster counters, autonomic stats, and the
/// latency series (small_test enables series collection).
fn populated_report() -> RunReport {
    let cfg = ArrayConfig::small_test();
    let trace: Trace = (0..600)
        .map(|i| {
            TraceRequest::new(
                SimTime::from_us(i / 4),
                if i % 5 == 0 { IoOp::Write } else { IoOp::Read },
                LogicalPage((i % 64) * 8),
                1,
            )
        })
        .collect();
    Array::new(cfg, ManagementMode::Autonomic).run(&trace)
}

/// The same traffic split round-robin across a three-tenant table, so
/// the report carries a populated per-tenant section.
fn tenanted_report() -> RunReport {
    let mut cfg = ArrayConfig::small_test();
    cfg.tenants = [
        TenantSpec::interactive(),
        TenantSpec::batch(),
        TenantSpec::batch(),
    ]
    .into_iter()
    .collect();
    let trace: Trace = (0..600)
        .map(|i| {
            TraceRequest::for_tenant(
                TenantId((i % 3) as u32),
                SimTime::from_us(i / 4),
                if i % 5 == 0 { IoOp::Write } else { IoOp::Read },
                LogicalPage((i % 64) * 8),
                1,
            )
        })
        .collect();
    Array::new(cfg, ManagementMode::Autonomic).run(&trace)
}

/// Serializes `report` compact and pretty, checks that parsing either
/// text to a `Value` and serializing that again reproduces it byte for
/// byte, and returns the parsed tree.
fn text_round_trip(report: &RunReport) -> Value {
    let compact = serde_json::to_string(report).expect("report serializes");
    let v: Value = serde_json::from_str(&compact).expect("compact text parses");
    assert_eq!(serde_json::to_string(&v).unwrap(), compact);

    let pretty = serde_json::to_string_pretty(report).expect("report serializes");
    let vp: Value = serde_json::from_str(&pretty).expect("pretty text parses");
    assert_eq!(serde_json::to_string_pretty(&vp).unwrap(), pretty);

    assert_eq!(vp, v, "compact and pretty text carry the same tree");
    assert_eq!(v, serde_json::to_value(report), "parsing loses nothing");
    v
}

/// A histogram's `u128` sum, which travels as a decimal string.
fn hist_sum(h: &Value) -> u128 {
    h["sum"]
        .as_str()
        .expect("u128 sum is a string")
        .parse()
        .expect("decimal u128")
}

#[test]
fn run_report_round_trips_losslessly_through_json() {
    let report = populated_report();
    assert!(report.completed() > 0, "run produced traffic");
    assert!(!report.series().is_empty(), "series was collected");

    let v = text_round_trip(&report);

    assert_eq!(v["mode"].as_str(), Some("Autonomic"));
    assert_eq!(v["completed"].as_u64(), Some(report.completed()));
    assert_eq!(v["reads"].as_u64(), Some(report.reads()));
    assert_eq!(v["writes"].as_u64(), Some(report.writes()));

    // Histogram sums are exact: mean = sum / count, bit for bit.
    let latency = &v["latency"];
    let count = latency["count"].as_u64().unwrap();
    assert_eq!(count, report.completed());
    let mean_us = hist_sum(latency) as f64 / count as f64 / 1_000.0;
    assert_eq!(mean_us.to_bits(), report.mean_latency_us().to_bits());
    for (key, h) in [
        ("read_latency", report.read_latency_histogram()),
        ("write_latency", report.write_latency_histogram()),
    ] {
        let count = v[key]["count"].as_u64().unwrap();
        assert_eq!(count, h.count(), "{key}");
        let mean = hist_sum(&v[key]) as f64 / count as f64;
        assert_eq!(mean.to_bits(), h.mean().to_bits(), "{key}");
    }

    // Each section is exactly what its accessor serializes to.
    assert_eq!(
        v["autonomic"],
        serde_json::to_value(report.autonomic_stats())
    );
    assert_eq!(v["ftl"], serde_json::to_value(&report.ftl_stats()));
    assert_eq!(v["wear"], serde_json::to_value(&report.wear()));
    assert_eq!(v["faults"], serde_json::to_value(&report.fault_stats()));
    assert_eq!(v["series"], serde_json::to_value(report.series()));
}

#[test]
fn tenant_stats_round_trip_losslessly_through_json() {
    let report = tenanted_report();
    let ts = report.tenant_stats();
    assert_eq!(ts.len(), 3, "three tenants configured");
    assert!(ts.iter().all(|t| t.completed > 0), "all lanes saw traffic");

    let v = text_round_trip(&report);
    let tenants = v["tenants"].as_array().expect("tenants section");
    assert_eq!(tenants.len(), ts.len());
    for (t, want) in tenants.iter().zip(ts) {
        assert_eq!(t["tenant"].as_u64(), Some(u64::from(want.tenant)));
        assert_eq!(t["completed"].as_u64(), Some(want.completed));
        assert_eq!(t["violations"].as_u64(), Some(want.violations));
        assert_eq!(t["p99_ns"].as_u64(), Some(want.p99_ns));
    }
    let violations: u64 = tenants
        .iter()
        .map(|t| t["violations"].as_u64().unwrap())
        .sum();
    assert_eq!(violations, report.sla_violations());
    assert_eq!(v["tenants"], serde_json::to_value(ts));
}

#[test]
fn mode_serializes_as_variant_name() {
    for (mode, name) in [
        (ManagementMode::Autonomic, "Autonomic"),
        (ManagementMode::NonAutonomic, "NonAutonomic"),
    ] {
        assert_eq!(serde_json::to_value(&mode).as_str(), Some(name));
        assert_eq!(serde_json::to_string(&mode).unwrap(), format!("\"{name}\""));
    }
}
