//! §6.5 wear-out analysis: extra writes induced by autonomic data
//! migration and the resulting flash-lifetime reduction.

use crate::harness::{jf, ju, obj, report_json, text, Experiment, Scale};
use crate::{bench_config, enterprise_trace_n, f1};
use triplea_core::{Array, ManagementMode};
use triplea_workloads::WorkloadProfile;

/// Builds the wear-out experiment: one point per workload with writes.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "wearout",
        "Wear-out: extra writes from autonomic migration (paper worst case: +34% writes, -23% lifetime)",
    );
    for profile in WorkloadProfile::table1() {
        if profile.read_ratio >= 1.0 {
            continue; // no host writes: overhead ratio undefined
        }
        let profile = *profile;
        e.point(profile.name, move |ctx| {
            let cfg = bench_config();
            let trace = enterprise_trace_n(&profile, &cfg, ctx.seed, scale.requests);
            let aaa = Array::new(cfg, ManagementMode::Autonomic).run(&trace);
            obj([("workload", text(profile.name)), ("aaa", report_json(&aaa))])
        });
    }
    e.renderer(|res| {
        let mut rows = Vec::new();
        let mut worst = 0.0f64;
        for p in &res.points {
            let d = &p.data;
            let overhead = jf(d, "aaa.migration_write_overhead");
            let lifetime_loss = overhead / (1.0 + overhead);
            worst = worst.max(overhead);
            rows.push(vec![
                p.label.clone(),
                ju(d, "aaa.ftl.host_writes").to_string(),
                ju(d, "aaa.ftl.migration_writes").to_string(),
                ju(d, "aaa.ftl.gc_writes").to_string(),
                f1(overhead * 100.0),
                f1(lifetime_loss * 100.0),
                format!("{:.4}", jf(d, "aaa.wear.mean_erase_count")),
            ]);
        }
        let mut out = crate::harness::fmt_table(
            &res.title,
            &[
                "Workload",
                "Host writes",
                "Migration writes",
                "GC writes",
                "Extra writes (%)",
                "Lifetime loss (%)",
                "Mean erase count",
            ],
            &rows,
        );
        out.push_str(&format!(
            "\nworst case measured: +{:.0}% writes => -{:.0}% lifetime \
             (offset by the ~50% cost reduction of unboxing, §6.5)\n",
            worst * 100.0,
            worst / (1.0 + worst) * 100.0
        ));
        out
    });
    e
}
