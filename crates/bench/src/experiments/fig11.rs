//! Figure 11: per-workload latency CDFs on the non-autonomic array and
//! Triple-A, for the six workloads the paper plots.

use crate::experiments::curve_rows;
use crate::harness::{jf, obj, report_json, text, Experiment, Scale};
use crate::{bench_config, enterprise_trace_n, f1};
use triplea_core::{Array, ManagementMode};
use triplea_workloads::WorkloadProfile;

const WORKLOADS: [&str; 6] = ["mds", "msnfs", "proj", "prxy", "websql", "g-eigen"];

/// Builds the Figure 11 experiment: one point per plotted workload.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "fig11",
        "Figure 11: latency percentiles, baseline vs Triple-A",
    );
    for name in WORKLOADS {
        e.point(name, move |ctx| {
            let cfg = bench_config();
            let profile = WorkloadProfile::by_name(name).expect("known workload");
            let trace = enterprise_trace_n(&profile, &cfg, ctx.seed, scale.requests);
            let base = Array::new(cfg.clone(), ManagementMode::NonAutonomic).run(&trace);
            let aaa = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
            obj([
                ("workload", text(name)),
                ("base", report_json(&base)),
                ("aaa", report_json(&aaa)),
                ("base_cdf", super::cdf_json(&base)),
                ("aaa_cdf", super::cdf_json(&aaa)),
            ])
        });
    }
    e.renderer(|res| {
        let mut rows = Vec::new();
        let mut curves = Vec::new();
        for (w, p) in res.points.iter().enumerate() {
            let d = &p.data;
            rows.push(vec![
                p.label.clone(),
                f1(jf(d, "base.p50_us")),
                f1(jf(d, "aaa.p50_us")),
                f1(jf(d, "base.p99_us")),
                f1(jf(d, "aaa.p99_us")),
            ]);
            for (mode, key) in [(0.0, "base_cdf"), (1.0, "aaa_cdf")] {
                for pt in curve_rows(&d[key]) {
                    curves.push(vec![w as f64, mode, pt[0], pt[1]]);
                }
            }
        }
        let mut out = crate::harness::fmt_table(
            &res.title,
            &[
                "Workload",
                "Base p50 (us)",
                "AAA p50 (us)",
                "Base p99 (us)",
                "AAA p99 (us)",
            ],
            &rows,
        );
        out.push_str(&crate::harness::fmt_csv_series(
            "fig11 CDFs (workload index per point order; mode 0=base, 1=triple-a)",
            &["workload", "mode", "latency_us", "cdf"],
            &curves,
        ));
        out
    });
    e
}
