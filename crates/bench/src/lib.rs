//! Shared harness for the table/figure reproductions.
//!
//! Each experiment in [`experiments`] regenerates one table or figure of
//! the paper's evaluation (§5–§6); see `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for recorded paper-vs-measured results.
//! The `bench` binary runs them by name, for example:
//!
//! ```text
//! cargo run --release -p triplea-bench --bin bench -- fig09
//! ```
//!
//! Absolute numbers differ from the paper (its simulator used different,
//! unpublished timing constants); the reports print the *shape*
//! comparisons the reproduction targets: who wins, by what factor, and
//! where crossovers fall.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

use triplea_core::{ArrayConfig, ArrayConfigBuilder, Trace};

/// The array configuration all experiments run on: the paper's 4×16,
/// 16 TB baseline.
pub fn bench_config() -> ArrayConfig {
    ArrayConfig::paper_baseline()
}

/// A validating builder over [`bench_config`]; experiment-local edits go
/// through this so every swept configuration is cross-field checked
/// before it reaches the simulator.
pub fn bench_builder() -> ArrayConfigBuilder {
    ArrayConfigBuilder::from_base(bench_config())
}

/// One-shot variant of [`bench_builder`] for sweep points that tweak a
/// couple of fields: applies `f` to the baseline and validates.
///
/// # Panics
///
/// Panics when the tweaked configuration violates a cross-field
/// invariant — an experiment-spec bug that should fail loudly.
pub fn bench_config_with(f: impl FnOnce(&mut ArrayConfig)) -> ArrayConfig {
    bench_builder()
        .tune(f)
        .build()
        .expect("bench experiment configuration validates")
}

/// Requests per run. Long enough for hot pages to be re-accessed ~10x
/// (the paper's traces run for hours; migration only pays off under
/// reuse), small enough that the full suite runs in minutes.
pub const REQUESTS: usize = 100_000;

/// Default inter-arrival gap for the enterprise/HPC workloads, in
/// nanoseconds. 250 ns ⇒ 4 M IOPS offered, which drives the read side of
/// a handful of hot clusters into the bus-bound regime (the paper's
/// link-contention story) while leaving the 64-cluster array's aggregate
/// capacity unstressed.
pub const ENTERPRISE_GAP_NS: u64 = 180;

/// Pages per hot-cluster hot region in the synthetic enterprise traces;
/// together with [`REQUESTS`] this yields roughly tenfold reuse of hot
/// pages.
pub const HOT_REGION_PAGES: u64 = 1_024;

/// Inter-arrival gap for a profile, chosen so that each of its hot
/// clusters sees ≈1.6× its ONFi-bus capacity — the paper replays traces
/// at their natural rates; this reproduces each trace's contention
/// regime on our timing.
pub fn profile_gap_ns(profile: &triplea_workloads::WorkloadProfile, cfg: &ArrayConfig) -> u64 {
    if profile.is_uniform() {
        return ENTERPRISE_GAP_NS;
    }
    let per_cluster_iops = cluster_page_iops(cfg);
    let offered =
        (1.6 * per_cluster_iops * profile.hot_clusters as f64 / profile.hot_io_ratio).min(5.0e6);
    (1_000_000_000.0 / offered) as u64
}

/// Builds the standard enterprise/HPC trace for a profile with an
/// explicit request count (the harness's [`harness::Scale`] knob).
pub fn enterprise_trace_n(
    profile: &triplea_workloads::WorkloadProfile,
    cfg: &ArrayConfig,
    seed: u64,
    requests: usize,
) -> Trace {
    triplea_workloads::ProfileTrace::new(*profile)
        .requests(requests)
        .gap_ns(profile_gap_ns(profile, cfg))
        .hot_region_pages(HOT_REGION_PAGES)
        .build(cfg, seed)
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Pages per second one cluster's ONFi bus moves: one page's DMA plus
/// the command overhead each. A 4 KB page takes ~2.66 µs, so ~376 kIOPS
/// per cluster.
fn cluster_page_iops(cfg: &ArrayConfig) -> f64 {
    let page = cfg.shape.flash.page_size;
    let per_page_ns = cfg.flash_timing.dma_nanos(page) + cfg.flash_timing.onfi.cmd_overhead;
    1_000_000_000.0 / per_page_ns as f64
}

/// Per-hot-cluster 1.6× bus overload gap for a read micro-benchmark with
/// `hot_clusters` hot clusters: keeps pressure per hot cluster constant
/// as their number grows (Figure 1's "more hot regions = more pressure").
pub fn overload_gap_ns(cfg: &ArrayConfig, hot_clusters: u32) -> u64 {
    let per_cluster_iops = cluster_page_iops(cfg);
    let offered = per_cluster_iops * 1.6 * hot_clusters.max(1) as f64;
    (1_000_000_000.0 / offered) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_gap_scales_inversely_with_hot_count() {
        let cfg = bench_config();
        let one = overload_gap_ns(&cfg, 1);
        let four = overload_gap_ns(&cfg, 4);
        assert!(one > 3 * four && one < 5 * four, "one={one} four={four}");
        assert_eq!(overload_gap_ns(&cfg, 0), one, "zero clamps to one");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.257), "1.26");
        assert_eq!(f3(0.12345), "0.123");
    }
}
