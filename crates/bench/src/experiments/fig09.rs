//! Figure 9: latency and IOPS of Triple-A normalized to the
//! non-autonomic array, across the enterprise and HPC workloads.

use crate::experiments::{geo_mean, kiops, pair_json, ratio};
use crate::harness::{flag, jf, ju, obj, text, Experiment, Scale};
use crate::{bench_config, enterprise_trace_n, f2};
use triplea_workloads::WorkloadProfile;

/// Builds the Figure 9 experiment: one point per Table-1 workload.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "fig09",
        "Figure 9: Triple-A normalized to non-autonomic baseline",
    );
    for profile in WorkloadProfile::table1() {
        let profile = *profile;
        e.point(profile.name, move |ctx| {
            let cfg = bench_config();
            let trace = enterprise_trace_n(&profile, &cfg, ctx.seed, scale.requests);
            let (base, aaa) = pair_json(cfg, &trace);
            obj([
                ("workload", text(profile.name)),
                ("uniform", flag(profile.is_uniform())),
                ("base", base),
                ("aaa", aaa),
            ])
        });
    }
    e.renderer(|res| {
        let mut rows = Vec::new();
        let mut lat_ratios = Vec::new();
        let mut iops_ratios = Vec::new();
        for p in &res.points {
            let d = &p.data;
            let lat_ratio = ratio(jf(d, "aaa.mean_latency_us"), jf(d, "base.mean_latency_us"));
            let iops_ratio = ratio(jf(d, "aaa.iops"), jf(d, "base.iops"));
            if d["uniform"].as_bool() != Some(true) {
                lat_ratios.push(lat_ratio);
                iops_ratios.push(iops_ratio);
            }
            rows.push(vec![
                p.label.clone(),
                f2(lat_ratio),
                f2(iops_ratio),
                format!("{:.0}", jf(d, "base.mean_latency_us")),
                format!("{:.0}", jf(d, "aaa.mean_latency_us")),
                kiops(jf(d, "base.iops")),
                kiops(jf(d, "aaa.iops")),
                ju(d, "aaa.autonomic.migrations_started").to_string(),
            ]);
        }
        let mut out = crate::harness::fmt_table(
            &res.title,
            &[
                "Workload",
                "Norm. latency (lower=better)",
                "Norm. IOPS (higher=better)",
                "Base lat (us)",
                "AAA lat (us)",
                "Base IOPS",
                "AAA IOPS",
                "Migrations",
            ],
            &rows,
        );
        out.push_str(&format!(
            "\nhot-cluster workloads geometric mean: normalized latency {:.2} \
             (paper: ~0.2), normalized IOPS {:.2} (paper: ~2.0)\n",
            geo_mean(&lat_ratios),
            geo_mean(&iops_ratios),
        ));
        out
    });
    e
}
