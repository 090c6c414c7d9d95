//! Declarative experiment specs, one per paper table/figure.
//!
//! Each submodule builds the [`Experiment`] for one table or figure;
//! `bench <name>` runs a spec through the [`Runner`](crate::harness::Runner)
//! and `bench all` runs the whole suite in parallel, writing
//! `results/*.json` + `results/*.txt`.

mod ablation;
mod dram;
mod failure_storm;
mod faults;
pub mod federation;
mod fig01;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod ftl_compare;
pub mod replay;
pub mod scenario;
pub mod sla;
mod table1;
mod table2;
mod timeline;
mod wearout;

use crate::harness::{arr, num, report_json, Experiment, Scale};
use serde_json::Value;
use triplea_core::{Array, ArrayConfig, ManagementMode, RunReport, Trace};
use triplea_workloads::WorkloadProfile;

/// Every experiment in the suite, in artifact order: the paper
/// reproductions first, then the scenario catalog (see
/// [`scenario::NAMES`]).
pub fn all(scale: Scale) -> Vec<Experiment> {
    let mut suite = vec![
        fig01::spec(scale),
        fig09::spec(scale),
        fig10::spec(scale),
        fig11::spec(scale),
        fig12::spec(scale),
        fig13::spec(scale),
        fig14::spec(scale),
        fig15::spec(scale),
        fig16::spec(scale),
        table1::spec(scale),
        table2::spec(scale),
        ablation::spec(scale),
        dram::spec(scale),
        wearout::spec(scale),
        ftl_compare::spec(scale),
        faults::spec(scale),
        failure_storm::spec(scale),
        timeline::spec(scale),
        sla::spec(scale),
        federation::spec(scale),
    ];
    suite.extend(scenario::catalog(scale));
    suite
}

/// Looks up one experiment by its artifact name.
pub fn by_name(name: &str, scale: Scale) -> Option<Experiment> {
    all(scale).into_iter().find(|e| e.name == name)
}

/// A Table-1 profile by its paper name.
pub(crate) fn profile(name: &str) -> WorkloadProfile {
    WorkloadProfile::by_name(name).expect("Table-1 profile registered")
}

/// Runs one mode and hard-fails the experiment if the FTL metadata lost
/// or duplicated a page along the way (under fault injection or after
/// recovery). The summary carries a `recovery` key exactly when power
/// losses or rebuilds happened.
pub(crate) fn run_checked(cfg: ArrayConfig, mode: ManagementMode, trace: &Trace) -> Value {
    let run = Array::new(cfg, mode).run_verified(trace);
    run.integrity.expect("FTL metadata integrity violated");
    report_json(&run.report)
}

/// Runs one trace through both management modes and returns the two
/// summaries as `("base", "aaa")` JSON values, for point builders to
/// compose into their object.
pub(crate) fn pair_json(cfg: ArrayConfig, trace: &Trace) -> (Value, Value) {
    let base = Array::new(cfg.clone(), ManagementMode::NonAutonomic).run(trace);
    let aaa = Array::new(cfg, ManagementMode::Autonomic).run(trace);
    (report_json(&base), report_json(&aaa))
}

/// Thinned latency CDF as `[[latency_us, cdf], …]` (~24 samples), the
/// shape the figure renderers turn back into CSV curves.
pub(crate) fn cdf_json(report: &RunReport) -> Value {
    let cdf = report.latency_cdf_us();
    let step = (cdf.len() / 24).max(1);
    arr(cdf
        .into_iter()
        .step_by(step)
        .map(|(us, frac)| arr(vec![num(us), num(frac)]))
        .collect())
}

/// Reads `[[x, y], …]` rows back out of a value produced by
/// [`cdf_json`] (or any array-of-arrays of numbers).
pub(crate) fn curve_rows(v: &Value) -> Vec<Vec<f64>> {
    v.as_array()
        .unwrap_or(&[])
        .iter()
        .map(|pt| {
            pt.as_array()
                .unwrap_or(&[])
                .iter()
                .map(|x| x.as_f64().unwrap_or(0.0))
                .collect()
        })
        .collect()
}

/// The Figure 13/14/15 run: 4 hot clusters behind one switch at 1.6×
/// bus overload, on a `4×cps` array, both management modes.
pub(crate) fn netsize_pair(cps: u32, seed: u64, requests: usize) -> (Value, Value) {
    let cfg = crate::bench_builder()
        .clusters_per_switch(cps)
        .build()
        .expect("netsize configuration validates");
    let gap = crate::overload_gap_ns(&cfg, 4);
    let trace = triplea_workloads::Microbench::read()
        .hot_clusters(4)
        .same_switch()
        .requests(requests)
        .gap_ns(gap)
        .build(&cfg, seed);
    pair_json(cfg, &trace)
}

/// Geometric mean (0.0 for an empty slice).
pub(crate) fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `a / max(b, 1e-9)` — the normalization all the figure tables use.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    a / b.max(1e-9)
}

/// `"123K"`-style IOPS cell.
pub(crate) fn kiops(iops: f64) -> String {
    format!("{:.0}K", iops / 1e3)
}
