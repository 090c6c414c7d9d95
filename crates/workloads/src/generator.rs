//! Synthetic trace generation from workload profiles.

use triplea_core::{ArrayConfig, IoOp, Trace, TraceRequest};
use triplea_ftl::{LogicalPage, StripedLayout};
use triplea_pcie::ClusterId;
use triplea_sim::{SimTime, SplitMix64};

use crate::profile::WorkloadProfile;

/// Where a trace's hot clusters sit in the topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotPlacement {
    /// Hot clusters round-robin across switches (the common case).
    Spread,
    /// All hot clusters under one switch — the paper's `websql` layout,
    /// which limits migration targets (§6.1).
    SameSwitch,
}

/// Builder for a synthetic trace that reproduces a [`WorkloadProfile`]'s
/// Table-1 marginals on a given array shape.
///
/// # Example
///
/// ```
/// use triplea_core::ArrayConfig;
/// use triplea_workloads::{ProfileTrace, WorkloadProfile};
///
/// let cfg = ArrayConfig::small_test();
/// let trace = ProfileTrace::new(WorkloadProfile::by_name("websql").unwrap())
///     .requests(1_000)
///     .gap_ns(2_000)
///     .build(&cfg, 42);
/// assert_eq!(trace.len(), 1_000);
/// ```
#[derive(Clone, Debug)]
pub struct ProfileTrace {
    profile: WorkloadProfile,
    requests: usize,
    gap_ns: u64,
    pages: u32,
    hot_region_pages: u64,
}

impl ProfileTrace {
    /// Starts a builder for `profile` with defaults: 20 000 requests,
    /// 1 µs inter-arrival gap, 4 KB (1-page) requests, 2048-page hot
    /// regions.
    pub fn new(profile: WorkloadProfile) -> Self {
        ProfileTrace {
            profile,
            requests: 20_000,
            gap_ns: 1_000,
            pages: 1,
            hot_region_pages: 2_048,
        }
    }

    /// Number of requests to generate.
    pub fn requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Fixed inter-arrival gap in nanoseconds (controls offered load).
    pub fn gap_ns(mut self, ns: u64) -> Self {
        self.gap_ns = ns;
        self
    }

    /// Pages per request (power of two; the paper's payloads are 4 KB,
    /// i.e. one page).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn pages(mut self, n: u32) -> Self {
        assert!(
            n >= 1 && n.is_power_of_two(),
            "pages must be a power of two"
        );
        self.pages = n;
        self
    }

    /// Pages in each hot cluster's hot region (smaller ⇒ more reuse).
    pub fn hot_region_pages(mut self, n: u64) -> Self {
        self.hot_region_pages = n.max(self.pages as u64);
        self
    }

    /// Generates the trace, deterministically for a given `seed`.
    pub fn build(&self, cfg: &ArrayConfig, seed: u64) -> Trace {
        let placement = if self.profile.hot_on_same_switch {
            HotPlacement::SameSwitch
        } else {
            HotPlacement::Spread
        };
        synthesize(
            cfg,
            seed,
            &SynthSpec {
                read_ratio: self.profile.read_ratio,
                read_randomness: self.profile.read_randomness,
                write_randomness: self.profile.write_randomness,
                hot_clusters: self.profile.hot_clusters,
                hot_io_ratio: self.profile.hot_io_ratio,
                placement,
                requests: self.requests,
                gap_ns: self.gap_ns,
                pages: self.pages,
                hot_region_pages: self.hot_region_pages,
                zipf_theta: 0.0,
                burst: None,
            },
        )
    }
}

/// Everything the synthesizer needs; shared by [`ProfileTrace`] and
/// [`crate::Microbench`].
pub(crate) struct SynthSpec {
    pub read_ratio: f64,
    pub read_randomness: f64,
    pub write_randomness: f64,
    pub hot_clusters: u32,
    pub hot_io_ratio: f64,
    pub placement: HotPlacement,
    pub requests: usize,
    pub gap_ns: u64,
    pub pages: u32,
    pub hot_region_pages: u64,
    /// Zipf skew of slot popularity within hot regions (0 = uniform).
    pub zipf_theta: f64,
    /// Optional ON/OFF arrival shaping.
    pub burst: Option<crate::dist::BurstShape>,
}

/// Picks the hot cluster IDs for a spec on a topology.
pub(crate) fn hot_cluster_ids(
    cfg: &ArrayConfig,
    n_hot: u32,
    placement: HotPlacement,
) -> Vec<ClusterId> {
    let topo = cfg.shape.topology;
    let n = n_hot
        .min(topo.total_clusters().saturating_sub(1))
        .max(if n_hot > 0 { 1 } else { 0 });
    match placement {
        HotPlacement::SameSwitch => (0..n.min(topo.clusters_per_switch))
            .map(|i| ClusterId {
                switch: 0,
                index: i,
            })
            .collect(),
        HotPlacement::Spread => (0..n)
            .map(|i| ClusterId {
                switch: i % topo.switches,
                index: (i / topo.switches) % topo.clusters_per_switch,
            })
            .collect(),
    }
}

/// One homogeneous stretch of traffic, as consumed by [`emit_phase`] —
/// the shared inner loop behind both the stationary [`synthesize`] path
/// and the multi-phase [`crate::ScenarioTrace`] shapes.
pub(crate) struct PhaseParams<'a> {
    pub read_ratio: f64,
    pub read_randomness: f64,
    pub write_randomness: f64,
    pub hot: &'a [ClusterId],
    pub cold: &'a [ClusterId],
    pub hot_io_ratio: f64,
    pub requests: usize,
    pub gap_ns: u64,
    pub pages: u32,
    pub hot_region_pages: u64,
    pub zipf_theta: f64,
    pub burst: Option<crate::dist::BurstShape>,
    /// Simulated time the phase starts at (arrivals are relative to it).
    pub base_ns: u64,
}

/// Emits one phase's requests into `out`, advancing `rng` and the
/// per-cluster sequential `cursors` (which persist across phases so
/// sequential streams keep running through shape changes).
pub(crate) fn emit_phase(
    cfg: &ArrayConfig,
    layout: &StripedLayout,
    rng: &mut SplitMix64,
    cursors: &mut [u64],
    out: &mut Vec<TraceRequest>,
    p: &PhaseParams<'_>,
) {
    let topo = cfg.shape.topology;
    let per_cluster = cfg.shape.pages_per_cluster();
    let hot_region = p.hot_region_pages.max(p.pages as u64).min(per_cluster);
    let zipf = (p.zipf_theta > 0.0)
        .then(|| crate::dist::Zipfian::new(hot_region / p.pages as u64, p.zipf_theta));
    for i in 0..p.requests {
        let is_read = rng.chance(p.read_ratio);
        let go_hot = !p.hot.is_empty() && rng.chance(p.hot_io_ratio);
        let cluster = if go_hot || p.cold.is_empty() {
            p.hot[rng.next_below(p.hot.len() as u64) as usize]
        } else {
            p.cold[rng.next_below(p.cold.len() as u64) as usize]
        };
        let base = layout.region_start(cluster).0;
        // Hot traffic concentrates in a small region (reuse); cold
        // traffic roams the whole cluster.
        let region = if go_hot { hot_region } else { per_cluster };
        let slots = region / p.pages as u64;

        let randomness = if is_read {
            p.read_randomness
        } else {
            p.write_randomness
        };
        let slot = if rng.chance(randomness) {
            match (&zipf, go_hot) {
                (Some(z), true) => z.sample(rng).min(slots - 1),
                _ => rng.next_below(slots),
            }
        } else {
            let g = topo.global_index(cluster) as usize;
            let s = cursors[g] % slots;
            cursors[g] += 1;
            s
        };
        let at_ns = p.base_ns
            + match &p.burst {
                Some(b) => b.arrival_ns(i as u64, p.gap_ns),
                None => i as u64 * p.gap_ns,
            };
        out.push(TraceRequest::new(
            SimTime::from_nanos(at_ns),
            if is_read { IoOp::Read } else { IoOp::Write },
            LogicalPage(base + slot * p.pages as u64),
            p.pages,
        ));
    }
}

pub(crate) fn synthesize(cfg: &ArrayConfig, seed: u64, spec: &SynthSpec) -> Trace {
    let layout = StripedLayout::new(cfg.shape);
    let topo = cfg.shape.topology;
    let mut rng = SplitMix64::new(seed ^ 0xA11F_1A5F);

    let hot = hot_cluster_ids(cfg, spec.hot_clusters, spec.placement);
    let cold: Vec<ClusterId> = topo.iter_clusters().filter(|c| !hot.contains(c)).collect();
    let mut cursors = vec![0u64; topo.total_clusters() as usize];

    let mut out = Vec::with_capacity(spec.requests);
    emit_phase(
        cfg,
        &layout,
        &mut rng,
        &mut cursors,
        &mut out,
        &PhaseParams {
            read_ratio: spec.read_ratio,
            read_randomness: spec.read_randomness,
            write_randomness: spec.write_randomness,
            hot: &hot,
            cold: &cold,
            hot_io_ratio: spec.hot_io_ratio,
            requests: spec.requests,
            gap_ns: spec.gap_ns,
            pages: spec.pages,
            hot_region_pages: spec.hot_region_pages,
            zipf_theta: spec.zipf_theta,
            burst: spec.burst,
            base_ns: 0,
        },
    );
    Trace::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;

    fn cfg() -> ArrayConfig {
        ArrayConfig::small_test()
    }

    /// Small flash geometry on the paper's 4x16 topology: Table-1 hot
    /// percentages assume 64 clusters.
    fn wide() -> ArrayConfig {
        let mut c = ArrayConfig::small_test();
        c.shape.topology = triplea_core::Topology {
            switches: 4,
            clusters_per_switch: 16,
        };
        c
    }

    #[test]
    fn builds_requested_count_and_ops() {
        let t = ProfileTrace::new(WorkloadProfile::by_name("web").unwrap())
            .requests(500)
            .build(&cfg(), 1);
        assert_eq!(t.len(), 500);
        assert!((t.read_ratio() - 1.0).abs() < 1e-12, "web is 100% reads");
    }

    #[test]
    fn read_ratio_approximates_profile() {
        let p = WorkloadProfile::by_name("mds").unwrap(); // 25.9% reads
        let t = ProfileTrace::new(p).requests(20_000).build(&cfg(), 3);
        assert!(
            (t.read_ratio() - p.read_ratio).abs() < 0.02,
            "got {}",
            t.read_ratio()
        );
    }

    #[test]
    fn hot_io_concentrates_on_hot_clusters() {
        let p = WorkloadProfile::by_name("g-eigen").unwrap(); // 70.6% hot
        let c = wide();
        let t = ProfileTrace::new(p).requests(20_000).build(&c, 5);
        let stats = analyze(&t, &c.shape);
        assert!(stats.hot_clusters >= 1, "no hot clusters induced");
        assert!(
            (stats.hot_io_ratio - p.hot_io_ratio).abs() < 0.15,
            "hot io ratio {} vs profile {}",
            stats.hot_io_ratio,
            p.hot_io_ratio
        );
    }

    #[test]
    fn uniform_profile_stays_uniform() {
        let p = WorkloadProfile::by_name("cfs").unwrap();
        let c = wide();
        let t = ProfileTrace::new(p).requests(20_000).build(&c, 9);
        let stats = analyze(&t, &c.shape);
        assert_eq!(stats.hot_clusters, 0, "cfs must induce no hot clusters");
    }

    #[test]
    fn same_switch_placement_for_websql() {
        let c = cfg();
        let ids = hot_cluster_ids(&c, 4, HotPlacement::SameSwitch);
        assert!(ids.iter().all(|id| id.switch == 0));
        assert_eq!(ids.len(), 4);
        let spread = hot_cluster_ids(&c, 4, HotPlacement::Spread);
        let switches: std::collections::HashSet<u32> = spread.iter().map(|id| id.switch).collect();
        assert!(switches.len() > 1, "spread placement uses many switches");
    }

    #[test]
    fn deterministic_per_seed() {
        let p = WorkloadProfile::by_name("fin").unwrap();
        let a = ProfileTrace::new(p).requests(1_000).build(&cfg(), 77);
        let b = ProfileTrace::new(p).requests(1_000).build(&cfg(), 77);
        assert_eq!(a.requests(), b.requests());
        let c = ProfileTrace::new(p).requests(1_000).build(&cfg(), 78);
        assert_ne!(a.requests(), c.requests());
    }

    #[test]
    fn addresses_stay_in_range_and_aligned() {
        let p = WorkloadProfile::by_name("usr").unwrap();
        let c = cfg();
        let t = ProfileTrace::new(p).requests(5_000).pages(4).build(&c, 11);
        let total = c.shape.total_pages();
        for r in t.requests() {
            assert!(r.lpn.0 + r.pages as u64 <= total);
            assert_eq!(r.lpn.0 % r.pages as u64, 0, "requests are size-aligned");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn pages_must_be_power_of_two() {
        ProfileTrace::new(WorkloadProfile::by_name("web").unwrap()).pages(3);
    }

    #[test]
    fn sequential_profile_produces_sequential_runs() {
        // g-eigen: 17.1% random => long sequential runs.
        let p = WorkloadProfile::by_name("g-eigen").unwrap();
        let c = cfg();
        let t = ProfileTrace::new(p).requests(10_000).build(&c, 13);
        let stats = analyze(&t, &c.shape);
        assert!(
            stats.read_randomness < 0.5,
            "expected mostly-sequential reads, got randomness {}",
            stats.read_randomness
        );
    }
}
