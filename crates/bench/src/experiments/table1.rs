//! Table 1: workload characteristics — the paper's reported values
//! versus what our synthetic traces actually exhibit.

use crate::harness::{jf, ju, num, obj, text, uint, Experiment, Scale};
use crate::{bench_config, enterprise_trace_n, f1, f3};
use triplea_workloads::{analyze, WorkloadProfile};

/// Builds the Table 1 experiment: one point per Table-1 workload.
pub fn spec(scale: Scale) -> Experiment {
    let mut e = Experiment::new(
        "table1",
        "Table 1: workload characteristics (paper / measured on synthetic trace)",
    );
    for profile in WorkloadProfile::table1() {
        let profile = *profile;
        e.point(profile.name, move |ctx| {
            let cfg = bench_config();
            let trace = enterprise_trace_n(&profile, &cfg, ctx.seed, scale.requests);
            let stats = analyze(&trace, &cfg.shape);
            obj([
                ("workload", text(profile.name)),
                (
                    "paper",
                    obj([
                        ("read_ratio", num(profile.read_ratio)),
                        ("read_randomness", num(profile.read_randomness)),
                        ("write_randomness", num(profile.write_randomness)),
                        ("hot_clusters", uint(profile.hot_clusters as u64)),
                        ("hot_io_ratio", num(profile.hot_io_ratio)),
                    ]),
                ),
                (
                    "measured",
                    obj([
                        ("read_ratio", num(stats.read_ratio)),
                        ("read_randomness", num(stats.read_randomness)),
                        ("write_randomness", num(stats.write_randomness)),
                        ("hot_clusters", uint(stats.hot_clusters as u64)),
                        ("hot_io_ratio", num(stats.hot_io_ratio)),
                    ]),
                ),
            ])
        });
    }
    e.renderer(|res| {
        let pct = |d: &serde_json::Value, path: &str| f1(jf(d, path) * 100.0);
        let rows: Vec<Vec<String>> = res
            .points
            .iter()
            .map(|p| {
                let d = &p.data;
                vec![
                    p.label.clone(),
                    format!(
                        "{} / {}",
                        pct(d, "paper.read_ratio"),
                        pct(d, "measured.read_ratio")
                    ),
                    format!(
                        "{} / {}",
                        pct(d, "paper.read_randomness"),
                        pct(d, "measured.read_randomness")
                    ),
                    format!(
                        "{} / {}",
                        pct(d, "paper.write_randomness"),
                        pct(d, "measured.write_randomness")
                    ),
                    format!(
                        "{} / {}",
                        ju(d, "paper.hot_clusters"),
                        ju(d, "measured.hot_clusters")
                    ),
                    format!(
                        "{} / {}",
                        f3(jf(d, "paper.hot_io_ratio")),
                        f3(jf(d, "measured.hot_io_ratio"))
                    ),
                ]
            })
            .collect();
        crate::harness::fmt_table(
            &res.title,
            &[
                "Workload",
                "Read %",
                "Read rand %",
                "Write rand %",
                "# hot clusters",
                "I/O ratio on hot",
            ],
            &rows,
        )
    });
    e
}
