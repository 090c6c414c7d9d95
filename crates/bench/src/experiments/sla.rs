//! `sla`: the multi-tenant front door under scale — 10, 100, and 1000
//! tenants sharing one array through per-tenant queues and
//! weighted-fair arbitration.
//!
//! Each sweep point blends two tenant classes into one run:
//!
//! * **interactive** tenants (20 % of the table, weight 8, 200 µs p99
//!   target, shallow queues) submit a flash-crowd shape — calm traffic
//!   punctured by violent single-cluster bursts;
//! * **batch** tenants (the rest, weight 1, 5 ms p99 target, deep
//!   queues) submit a diurnal shape whose offered load breathes over
//!   the day.
//!
//! Both classes' streams are split round-robin across their tenants and
//! merged into one arrival-ordered trace, so every point is a
//! deterministic function of `(config, seed)` and the golden suite can
//! pin the artifacts byte-for-byte at any thread count. The summary
//! compares SLA-violation counts between the non-autonomic baseline and
//! Triple-A; a `results/sla.heatmap.csv` artifact flattens per-tenant
//! violation rates for heatmap plotting.

use crate::experiments::profile;
use crate::harness::{arr, jf, ju, num, obj, uint, Experiment, Scale};
use crate::{bench_builder, f1};
use serde_json::Value;
use triplea_core::{Array, ManagementMode, RunReport, TenantId, TenantSpec, TenantStats, Trace};
use triplea_workloads::ScenarioTrace;

/// Tenant counts the sweep visits.
pub const TENANT_POINTS: [usize; 3] = [10, 100, 1_000];

/// Interactive tenants in an `n`-tenant table (20 %, at least one).
pub(crate) fn interactive_count(n: usize) -> usize {
    (n / 5).max(1)
}

/// The tenant table for an `n`-tenant point: interactive lanes first,
/// batch lanes after.
pub(crate) fn tenant_table(n: usize) -> Vec<TenantSpec> {
    let k = interactive_count(n);
    (0..n)
        .map(|i| {
            if i < k {
                TenantSpec::interactive()
            } else {
                TenantSpec::batch()
            }
        })
        .collect()
}

/// Splits `trace` round-robin across tenants `[first, first + count)`.
pub(crate) fn split_across(
    trace: Trace,
    first: usize,
    count: usize,
) -> Vec<triplea_core::TraceRequest> {
    trace
        .into_requests()
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.owned_by(TenantId((first + i % count) as u32)))
        .collect()
}

/// One point's blended workload: a flash-crowd interactive stream and a
/// diurnal batch stream, split across their classes and merged.
fn blended_trace(cfg: &triplea_core::ArrayConfig, n: usize, requests: usize, seed: u64) -> Trace {
    let k = interactive_count(n);
    let interactive_reqs = requests * 2 / 5;
    let batch_reqs = requests - interactive_reqs;
    // Interactive: calm fin traffic with three single-cluster crowds.
    let interactive = ScenarioTrace::flash_crowd(profile("fin"), interactive_reqs, 1_600, 400, 3)
        .build(cfg, seed);
    // Batch: write-heavy mds load breathing over one day curve.
    let batch =
        ScenarioTrace::diurnal(profile("mds"), batch_reqs, 3_200, 800, 1).build(cfg, seed ^ 0xD1A);
    let mut all = split_across(interactive, 0, k);
    all.extend(split_across(batch, k, n - k));
    Trace::new(all)
}

/// Class-level rollup of one run's per-tenant stats.
fn class_summary(stats: &[TenantStats], k: usize) -> (u64, u64, u64, u64) {
    let violating = stats.iter().filter(|t| t.sla_violated()).count() as u64;
    let interactive: u64 = stats[..k].iter().map(|t| t.violations).sum();
    let batch: u64 = stats[k..].iter().map(|t| t.violations).sum();
    let worst_interactive_p99 = stats[..k].iter().map(|t| t.p99_ns).max().unwrap_or(0);
    (violating, interactive, batch, worst_interactive_p99)
}

/// Mode summary: headline numbers plus the per-tenant heatmap rows
/// (`[tenant, completed, violations, p99_ns]`, in tenant order).
pub(crate) fn mode_json(report: &RunReport, k: usize, with_heatmap: bool) -> Value {
    let stats = report.tenant_stats();
    let (violating, vi, vb, worst) = class_summary(stats, k);
    let mut v = obj([
        ("completed", uint(report.completed())),
        ("iops", num(report.iops())),
        ("p99_us", num(report.latency_percentile_us(0.99))),
        ("sla_violations", uint(report.sla_violations())),
        ("violating_tenants", uint(violating)),
        ("interactive_violations", uint(vi)),
        ("batch_violations", uint(vb)),
        ("worst_interactive_p99_ns", uint(worst)),
    ]);
    if with_heatmap {
        if let Value::Object(fields) = &mut v {
            fields.push((
                "heatmap".to_string(),
                arr(stats
                    .iter()
                    .map(|t| {
                        arr(vec![
                            uint(t.tenant as u64),
                            uint(t.completed),
                            uint(t.violations),
                            uint(t.p99_ns),
                        ])
                    })
                    .collect()),
            ));
        }
    }
    v
}

/// Builds the `sla` experiment at `scale`.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "sla",
        "Multi-tenant front door: SLA violations at 10/100/1000 tenants",
    );
    for n in TENANT_POINTS {
        e.point(format!("tenants/{n}"), move |ctx| {
            let cfg = bench_builder()
                .with_tenants(tenant_table(n))
                .build()
                .expect("tenanted bench configuration validates");
            let trace = blended_trace(&cfg, n, scale.requests, ctx.seed);
            let k = interactive_count(n);
            let base = Array::new(cfg.clone(), ManagementMode::NonAutonomic).run(&trace);
            let aaa = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
            obj([
                ("tenants", uint(n as u64)),
                ("interactive", uint(k as u64)),
                ("batch", uint((n - k) as u64)),
                ("requests", uint(trace.len() as u64)),
                ("base", mode_json(&base, k, false)),
                ("aaa", mode_json(&aaa, k, true)),
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
                    ju(d, "requests").to_string(),
                    f1(jf(d, "base.iops") / 1e3),
                    f1(jf(d, "aaa.iops") / 1e3),
                    ju(d, "base.sla_violations").to_string(),
                    ju(d, "aaa.sla_violations").to_string(),
                    ju(d, "aaa.violating_tenants").to_string(),
                    f1(jf(d, "aaa.worst_interactive_p99_ns") / 1e3),
                ]
            })
            .collect();
        crate::harness::fmt_table(
            "Multi-tenant SLA sweep",
            &[
                "Point",
                "Requests",
                "Base kIOPS",
                "AAA kIOPS",
                "Base viol",
                "AAA viol",
                "Viol tenants",
                "Worst int p99 us",
            ],
            &rows,
        )
    });
    // Per-tenant violation heatmap: one CSV row per (point, tenant),
    // a pure function of the collected results (so byte-deterministic).
    e.artifact("heatmap.csv", |res| {
        let mut out = String::from("# sla violation heatmap (autonomic mode)\n");
        out.push_str("tenants,tenant,completed,violations,violation_pct,p99_us\n");
        for p in &res.points {
            let n = ju(&p.data, "tenants");
            for row in p.data["aaa"]["heatmap"].as_array().unwrap_or(&[]) {
                let cell = |i: usize| row.as_array().unwrap()[i].as_f64().unwrap_or(0.0);
                let completed = cell(1);
                let pct = if completed > 0.0 {
                    cell(2) * 100.0 / completed
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "{n},{},{},{},{:.2},{:.1}\n",
                    cell(0) as u64,
                    completed as u64,
                    cell(2) as u64,
                    pct,
                    cell(3) / 1e3,
                ));
            }
        }
        out
    });
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_table_shape_and_classes() {
        for n in TENANT_POINTS {
            let specs = tenant_table(n);
            assert_eq!(specs.len(), n);
            let k = interactive_count(n);
            assert!(specs[..k].iter().all(|s| s.weight == 8));
            assert!(specs[k..].iter().all(|s| s.weight == 1));
        }
    }

    #[test]
    fn blended_trace_covers_every_tenant() {
        let n = 10;
        let cfg = bench_builder()
            .with_tenants(tenant_table(n))
            .build()
            .unwrap();
        let t = blended_trace(&cfg, n, 2_000, 7);
        assert_eq!(t.len(), 2_000);
        let mut seen = vec![false; n];
        for r in t.requests() {
            seen[r.tenant.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "every tenant got traffic");
        assert!(t.requests().windows(2).all(|w| w[0].at <= w[1].at));
    }
}
