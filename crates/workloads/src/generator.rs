//! The one description of synthetic traffic, [`Phase`], and the one
//! loop that turns phases into requests, [`emit`].
//!
//! Every synthetic builder is a list of phases: [`ProfileTrace`] and
//! [`crate::Microbench`] hold one, [`crate::ScenarioTrace`] holds many.
//! All phases of a trace share one SplitMix64 stream and per-cluster
//! sequential cursors, so the whole trace is a deterministic function
//! of `(config, seed)`.

use triplea_core::{ArrayConfig, IoOp, Trace, TraceRequest};
use triplea_ftl::{LogicalPage, StripedLayout};
use triplea_pcie::ClusterId;
use triplea_sim::{SimTime, SplitMix64};

use crate::dist::{BurstShape, Zipfian};
use crate::profile::WorkloadProfile;

/// RNG salt of the stationary builders ([`ProfileTrace`] and
/// [`crate::Microbench`]).
pub(crate) const STATIONARY_SALT: u64 = 0xA11F_1A5F;

/// Where a phase's hot clusters sit in the topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotPlacement {
    /// Hot clusters round-robin across switches (the common case).
    Spread,
    /// All hot clusters under one switch — the paper's `websql` layout,
    /// which limits migration targets (§6.1).
    SameSwitch,
    /// The hot clusters are consecutive global indices starting at this
    /// one (mod array size). Distinct rotations ⇒ the hot spot has
    /// *moved*.
    Rotated(u32),
}

/// One homogeneous stretch of traffic: a request budget, an arrival
/// law, Table-1 style marginals, and a hot cluster set.
///
/// A phase carries no tenant: every request it emits belongs to
/// `TenantId::DEFAULT`. A multi-tenant run tags each stream's requests
/// with `TraceRequest::owned_by` before merging the streams.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// Shape tag, for diagnostics and artifact labels.
    pub label: &'static str,
    /// Requests emitted during this phase.
    pub requests: usize,
    /// Within-phase inter-arrival gap in nanoseconds.
    pub gap_ns: u64,
    /// Fraction of requests that are reads.
    pub read_ratio: f64,
    /// Fraction of reads that are random.
    pub read_randomness: f64,
    /// Fraction of writes that are random.
    pub write_randomness: f64,
    /// Hot clusters this phase concentrates on (0 ⇒ uniform).
    pub hot_clusters: u32,
    /// Fraction of I/O heading to the hot set.
    pub hot_io_ratio: f64,
    /// Where the hot set sits.
    pub hot_placement: HotPlacement,
    /// Zipf skew of slot popularity inside hot regions (0 = uniform).
    pub zipf_theta: f64,
    /// Optional ON/OFF arrival shaping within the phase.
    pub burst: Option<BurstShape>,
}

impl Phase {
    /// A phase reproducing `profile`'s Table-1 marginals at `gap_ns`,
    /// with the profile's own hot-set placement.
    pub(crate) fn from_profile(profile: &WorkloadProfile, requests: usize, gap_ns: u64) -> Self {
        Phase {
            label: "profile",
            requests,
            gap_ns,
            read_ratio: profile.read_ratio,
            read_randomness: profile.read_randomness,
            write_randomness: profile.write_randomness,
            hot_clusters: profile.hot_clusters,
            hot_io_ratio: profile.hot_io_ratio,
            hot_placement: if profile.hot_on_same_switch {
                HotPlacement::SameSwitch
            } else {
                HotPlacement::Spread
            },
            zipf_theta: 0.0,
            burst: None,
        }
    }

    /// Simulated duration of the phase: the arrival slot after its last
    /// request (so consecutive phases never interleave arrivals).
    pub fn span_ns(&self) -> u64 {
        self.arrival_ns(self.requests)
    }

    /// Arrival of the phase's `i`-th request, relative to its start.
    fn arrival_ns(&self, i: usize) -> u64 {
        match &self.burst {
            Some(b) => b.arrival_ns(i as u64, self.gap_ns),
            None => i as u64 * self.gap_ns,
        }
    }
}

/// Checks a request size: pages per request must be a power of two.
///
/// # Panics
///
/// Panics if `n` is zero or not a power of two.
pub(crate) fn checked_pages(n: u32) -> u32 {
    assert!(
        n >= 1 && n.is_power_of_two(),
        "pages must be a power of two"
    );
    n
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
    phase: Phase,
    pages: u32,
    hot_region_pages: u64,
}

impl ProfileTrace {
    /// Starts a builder for `profile` with defaults: 20 000 requests,
    /// 1 µs inter-arrival gap, 4 KB (1-page) requests, 2048-page hot
    /// regions.
    pub fn new(profile: WorkloadProfile) -> Self {
        ProfileTrace {
            phase: Phase::from_profile(&profile, 20_000, 1_000),
            pages: 1,
            hot_region_pages: 2_048,
        }
    }

    /// Number of requests to generate.
    pub fn requests(mut self, n: usize) -> Self {
        self.phase.requests = n;
        self
    }

    /// Fixed inter-arrival gap in nanoseconds (controls offered load).
    pub fn gap_ns(mut self, ns: u64) -> Self {
        self.phase.gap_ns = ns;
        self
    }

    /// Pages per request (power of two; the paper's payloads are 4 KB,
    /// i.e. one page).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn pages(mut self, n: u32) -> Self {
        self.pages = checked_pages(n);
        self
    }

    /// Pages in each hot cluster's hot region (smaller ⇒ more reuse).
    pub fn hot_region_pages(mut self, n: u64) -> Self {
        self.hot_region_pages = n.max(self.pages as u64);
        self
    }

    /// Generates the trace, deterministically for a given `seed`.
    pub fn build(&self, cfg: &ArrayConfig, seed: u64) -> Trace {
        emit(
            cfg,
            seed ^ STATIONARY_SALT,
            std::slice::from_ref(&self.phase),
            self.pages,
            self.hot_region_pages,
        )
    }
}

/// Picks the hot cluster IDs for `n_hot` hot clusters on a topology.
///
/// At least one cluster stays cold so migration has a target, except
/// that [`HotPlacement::Spread`] and [`HotPlacement::SameSwitch`] keep
/// one hot cluster on a one-cluster array.
fn hot_cluster_ids(cfg: &ArrayConfig, n_hot: u32, placement: HotPlacement) -> Vec<ClusterId> {
    let topo = cfg.shape.topology;
    let total = topo.total_clusters();
    let n = n_hot.min(total.saturating_sub(1));
    let kept = n.max(u32::from(n_hot > 0));
    match placement {
        HotPlacement::SameSwitch => (0..kept.min(topo.clusters_per_switch))
            .map(|i| ClusterId {
                switch: 0,
                index: i,
            })
            .collect(),
        HotPlacement::Spread => (0..kept)
            .map(|i| ClusterId {
                switch: i % topo.switches,
                index: (i / topo.switches) % topo.clusters_per_switch,
            })
            .collect(),
        HotPlacement::Rotated(start) => (0..n)
            .map(|i| topo.cluster_from_global((start + i) % total))
            .collect(),
    }
}

/// Turns `phases` into one trace. `seed` arrives salted by the builder.
/// The RNG stream and the per-cluster sequential cursors persist across
/// phases, so sequential streams keep running through shape changes,
/// and each phase starts where the previous one's span ends.
pub(crate) fn emit(
    cfg: &ArrayConfig,
    seed: u64,
    phases: &[Phase],
    pages: u32,
    hot_region_pages: u64,
) -> Trace {
    let layout = StripedLayout::new(cfg.shape);
    let topo = cfg.shape.topology;
    let per_cluster = cfg.shape.pages_per_cluster();
    let hot_region = hot_region_pages.max(pages as u64).min(per_cluster);
    let mut rng = SplitMix64::new(seed);
    let mut cursors = vec![0u64; topo.total_clusters() as usize];
    let mut out = Vec::with_capacity(phases.iter().map(|p| p.requests).sum());
    let mut base_ns = 0u64;
    for p in phases {
        let hot = hot_cluster_ids(cfg, p.hot_clusters, p.hot_placement);
        let cold: Vec<ClusterId> = topo.iter_clusters().filter(|c| !hot.contains(c)).collect();
        let zipf =
            (p.zipf_theta > 0.0).then(|| Zipfian::new(hot_region / pages as u64, p.zipf_theta));
        for i in 0..p.requests {
            let is_read = rng.chance(p.read_ratio);
            let go_hot = !hot.is_empty() && rng.chance(p.hot_io_ratio);
            let cluster = if go_hot || cold.is_empty() {
                hot[rng.next_below(hot.len() as u64) as usize]
            } else {
                cold[rng.next_below(cold.len() as u64) as usize]
            };
            let base = layout.region_start(cluster).0;
            // Hot traffic concentrates in a small region (reuse); cold
            // traffic roams the whole cluster.
            let region = if go_hot { hot_region } else { per_cluster };
            let slots = region / pages as u64;

            let randomness = if is_read {
                p.read_randomness
            } else {
                p.write_randomness
            };
            let slot = if rng.chance(randomness) {
                match (&zipf, go_hot) {
                    (Some(z), true) => z.sample(&mut rng).min(slots - 1),
                    _ => rng.next_below(slots),
                }
            } else {
                let g = topo.global_index(cluster) as usize;
                let s = cursors[g] % slots;
                cursors[g] += 1;
                s
            };
            out.push(TraceRequest::new(
                SimTime::from_nanos(base_ns + p.arrival_ns(i)),
                if is_read { IoOp::Read } else { IoOp::Write },
                LogicalPage(base + slot * pages as u64),
                pages,
            ));
        }
        base_ns += p.span_ns();
    }
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
    fn each_placement_keeps_its_clamp() {
        let mut one = cfg();
        one.shape.topology = triplea_core::Topology {
            switches: 1,
            clusters_per_switch: 1,
        };
        assert_eq!(hot_cluster_ids(&one, 3, HotPlacement::Spread).len(), 1);
        assert_eq!(hot_cluster_ids(&one, 3, HotPlacement::SameSwitch).len(), 1);
        assert!(hot_cluster_ids(&one, 3, HotPlacement::Rotated(0)).is_empty());
        // On 2x4, a rotation wraps past the last cluster and never takes
        // the whole array.
        let c = cfg();
        let rotated = hot_cluster_ids(&c, 99, HotPlacement::Rotated(6));
        assert_eq!(rotated.len(), 7);
        let first: Vec<u32> = rotated[..3]
            .iter()
            .map(|&id| c.shape.topology.global_index(id))
            .collect();
        assert_eq!(first, [6, 7, 0]);
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
