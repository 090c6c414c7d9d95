//! The paper's random-I/O micro-benchmarks (§5.2): one [`Phase`] of
//! purely random traffic, all reads or all writes.

use triplea_core::{ArrayConfig, Trace};

use crate::dist::BurstShape;
use crate::generator::{checked_pages, emit, HotPlacement, Phase, STATIONARY_SALT};

/// Builder for the `read` / `write` micro-benchmarks: purely random
/// 4 KB requests, optionally concentrated on a configurable number of
/// hot clusters — the knob behind the paper's sensitivity studies
/// (Figures 12–16).
///
/// # Example
///
/// ```
/// use triplea_core::ArrayConfig;
/// use triplea_workloads::Microbench;
///
/// let cfg = ArrayConfig::small_test();
/// let trace = Microbench::read()
///     .hot_clusters(4)
///     .requests(2_000)
///     .gap_ns(1_500)
///     .build(&cfg, 1);
/// assert_eq!(trace.len(), 2_000);
/// ```
#[derive(Clone, Debug)]
pub struct Microbench {
    phase: Phase,
    pages: u32,
    region_pages: u64,
}

impl Microbench {
    fn new(label: &'static str, read_ratio: f64) -> Self {
        Microbench {
            phase: Phase {
                label,
                requests: 10_000,
                gap_ns: 1_400,
                read_ratio,
                read_randomness: 1.0,
                write_randomness: 1.0,
                hot_clusters: 1,
                hot_io_ratio: 1.0,
                hot_placement: HotPlacement::Spread,
                zipf_theta: 0.0,
                burst: None,
            },
            pages: 1,
            region_pages: 2_048,
        }
    }

    /// The `read` micro-benchmark: 100 % random reads.
    pub fn read() -> Self {
        Microbench::new("read", 1.0)
    }

    /// The `write` micro-benchmark: 100 % random writes.
    pub fn write() -> Self {
        Microbench::new("write", 0.0)
    }

    /// Number of hot clusters all I/O concentrates on (0 ⇒ uniform).
    pub fn hot_clusters(mut self, n: u32) -> Self {
        self.phase.hot_clusters = n;
        self
    }

    /// Places all hot clusters under a single switch.
    pub fn same_switch(mut self) -> Self {
        self.phase.hot_placement = HotPlacement::SameSwitch;
        self
    }

    /// Number of requests.
    pub fn requests(mut self, n: usize) -> Self {
        self.phase.requests = n;
        self
    }

    /// Inter-arrival gap in nanoseconds.
    pub fn gap_ns(mut self, ns: u64) -> Self {
        self.phase.gap_ns = ns;
        self
    }

    /// Pages per request (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn pages(mut self, n: u32) -> Self {
        self.pages = checked_pages(n);
        self
    }

    /// Hot-region size per hot cluster, in pages.
    pub fn region_pages(mut self, n: u64) -> Self {
        self.region_pages = n;
        self
    }

    /// Zipfian skew of slot popularity *within* each hot region
    /// (0 = uniform, the default; 0.99 = classic YCSB skew).
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or ≥ 2.
    pub fn zipf(mut self, theta: f64) -> Self {
        assert!((0.0..2.0).contains(&theta), "theta must be in [0, 2)");
        self.phase.zipf_theta = theta;
        self
    }

    /// ON/OFF bursty arrivals instead of a steady stream: requests pack
    /// into `on_ns` windows separated by `off_ns` of silence (the §1
    /// checkpoint-burst pattern).
    pub fn bursty(mut self, on_ns: u64, off_ns: u64) -> Self {
        self.phase.burst = Some(BurstShape::new(on_ns, off_ns));
        self
    }

    /// Generates the trace, deterministically for a given `seed`.
    pub fn build(&self, cfg: &ArrayConfig, seed: u64) -> Trace {
        emit(
            cfg,
            seed ^ STATIONARY_SALT,
            std::slice::from_ref(&self.phase),
            self.pages,
            self.region_pages,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;

    fn cfg() -> ArrayConfig {
        ArrayConfig::small_test()
    }

    #[test]
    fn read_bench_is_all_reads() {
        let t = Microbench::read().requests(1_000).build(&cfg(), 2);
        assert!((t.read_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn write_bench_is_all_writes() {
        let t = Microbench::write().requests(1_000).build(&cfg(), 2);
        assert_eq!(t.read_ratio(), 0.0);
    }

    #[test]
    fn hot_clusters_receive_all_io() {
        let c = cfg();
        let t = Microbench::read()
            .hot_clusters(2)
            .requests(5_000)
            .build(&c, 3);
        let stats = analyze(&t, &c.shape);
        assert_eq!(stats.hot_clusters, 2);
        assert!((stats.hot_io_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_hot_clusters_is_uniform() {
        let c = cfg();
        let t = Microbench::read()
            .hot_clusters(0)
            .requests(8_000)
            .build(&c, 4);
        let stats = analyze(&t, &c.shape);
        // 8 clusters, uniform 12.5% each: none reaches 2x the fair share.
        assert!(stats.hot_clusters <= c.shape.topology.total_clusters() as usize);
        let max = t
            .requests()
            .iter()
            .map(|r| r.lpn.0 / c.shape.pages_per_cluster())
            .fold(std::collections::HashMap::<u64, u64>::new(), |mut m, g| {
                *m.entry(g).or_default() += 1;
                m
            })
            .into_values()
            .max()
            .unwrap();
        assert!(
            (max as f64) < 8_000.0 * 0.25,
            "uniform traffic too skewed: {max}"
        );
    }

    #[test]
    fn same_switch_keeps_hot_on_switch_zero() {
        let c = cfg();
        let t = Microbench::read()
            .hot_clusters(3)
            .same_switch()
            .requests(4_000)
            .build(&c, 5);
        let cps = c.shape.topology.clusters_per_switch as u64;
        let per_cluster = c.shape.pages_per_cluster();
        for r in t.requests() {
            let g = r.lpn.0 / per_cluster;
            assert!(g / cps == 0, "request escaped switch 0");
        }
    }

    #[test]
    fn zipf_skews_hot_slot_popularity() {
        let c = cfg();
        let uniform = Microbench::read()
            .hot_clusters(1)
            .region_pages(1_024)
            .requests(20_000)
            .build(&c, 8);
        let skewed = Microbench::read()
            .hot_clusters(1)
            .region_pages(1_024)
            .zipf(0.99)
            .requests(20_000)
            .build(&c, 8);
        let top_share = |t: &triplea_core::Trace| {
            let mut counts = std::collections::HashMap::<u64, u64>::new();
            for r in t.requests() {
                *counts.entry(r.lpn.0).or_default() += 1;
            }
            let mut v: Vec<u64> = counts.into_values().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.iter().take(10).sum::<u64>() as f64 / t.len() as f64
        };
        assert!(
            top_share(&skewed) > top_share(&uniform) * 3.0,
            "zipf should concentrate accesses: {} vs {}",
            top_share(&skewed),
            top_share(&uniform)
        );
    }

    #[test]
    fn bursty_arrivals_have_gaps() {
        let c = cfg();
        let t = Microbench::read()
            .bursty(100_000, 900_000)
            .gap_ns(1_000)
            .requests(500)
            .build(&c, 9);
        let times: Vec<u64> = t.requests().iter().map(|r| r.at.as_nanos()).collect();
        let max_gap = times.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(max_gap >= 900_000, "no OFF window found, max gap {max_gap}");
    }

    #[test]
    fn region_bounds_reuse() {
        let c = cfg();
        let t = Microbench::read()
            .hot_clusters(1)
            .region_pages(64)
            .requests(4_000)
            .build(&c, 6);
        let distinct: std::collections::HashSet<u64> =
            t.requests().iter().map(|r| r.lpn.0).collect();
        assert!(
            distinct.len() <= 64,
            "region not honoured: {}",
            distinct.len()
        );
    }
}
