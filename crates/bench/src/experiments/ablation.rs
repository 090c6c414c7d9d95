//! Ablation studies of Triple-A's design choices (beyond the paper's
//! own figures; DESIGN.md documents the knobs).

use crate::experiments::kiops;
use crate::harness::{jf, ju, obj, report_json, text, Experiment, Scale};
use crate::{bench_config_with, f1, f2, overload_gap_ns};
use serde_json::Value;
use triplea_core::{Array, ArrayConfig, LaggardStrategy, ManagementMode};
use triplea_workloads::Microbench;

fn run(cfg: ArrayConfig, seed: u64, requests: usize) -> Value {
    let gap = overload_gap_ns(&cfg, 4);
    let trace = Microbench::read()
        .hot_clusters(4)
        .requests(requests)
        .gap_ns(gap)
        .build(&cfg, seed);
    report_json(&Array::new(cfg, ManagementMode::Autonomic).run(&trace))
}

type Variant = (String, Box<dyn Fn(&mut ArrayConfig) + Send + Sync>);

fn variants() -> Vec<Variant> {
    let mut v: Vec<Variant> = Vec::new();
    for extent in [1u32, 4, 8, 16] {
        v.push((
            format!("extent={extent}"),
            Box::new(move |c| c.autonomic.migration_extent_pages = extent),
        ));
    }
    for (name, strat) in [
        ("laggard=latency", LaggardStrategy::LatencyMonitoring),
        ("laggard=queue", LaggardStrategy::QueueExamination),
        ("laggard=both", LaggardStrategy::Both),
    ] {
        v.push((
            name.to_string(),
            Box::new(move |c| c.autonomic.laggard = strat),
        ));
    }
    for thresh in [0.5f64, 0.7, 0.9] {
        v.push((
            format!("hot_bus={thresh}"),
            Box::new(move |c| c.autonomic.hot_bus_threshold = thresh),
        ));
    }
    for pages in [0usize, 256, 4_096] {
        let label = if pages == 0 {
            "map=full-DRAM".to_string()
        } else {
            format!("map=dftl-{pages}")
        };
        v.push((label, Box::new(move |c| c.mapping_cache_pages = pages)));
    }
    for wear_aware in [true, false] {
        v.push((
            format!("wear_aware={wear_aware}"),
            Box::new(move |c| c.autonomic.wear_aware = wear_aware),
        ));
    }
    // The paper's RC-queue range (650-1000 entries) bounds outstanding
    // I/O array-wide.
    for rc in [650usize, 800, 1_000] {
        v.push((
            format!("rc_queue={rc}"),
            Box::new(move |c| c.pcie.rc_queue = rc),
        ));
    }
    v
}

/// Builds the ablation experiment: one point per design-knob variant.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "ablation",
        "Ablation: Triple-A design knobs (read micro-benchmark, 4 hot clusters)",
    );
    for (label, tweak) in variants() {
        let shown = label.clone();
        e.point(label, move |ctx| {
            let cfg = bench_config_with(|c| tweak(c));
            obj([
                ("variant", text(&shown)),
                ("aaa", run(cfg, ctx.base_seed, scale.requests)),
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
                    kiops(jf(d, "aaa.iops")),
                    f1(jf(d, "aaa.mean_latency_us")),
                    ju(d, "aaa.autonomic.pages_migrated").to_string(),
                    ju(d, "aaa.autonomic.pages_reshaped").to_string(),
                    f2(jf(d, "aaa.migration_write_overhead")),
                ]
            })
            .collect();
        crate::harness::fmt_table(
            &res.title,
            &[
                "Variant",
                "IOPS",
                "Mean latency (us)",
                "Pages migrated",
                "Pages reshaped",
                "Write overhead",
            ],
            &rows,
        )
    });
    e
}
