//! Non-stationary traffic scenarios: multi-phase shapes that *change*
//! mid-run and force the autonomic layer to chase them.
//!
//! Every Table-1 stream the rest of this crate produces is stationary —
//! its marginals hold from the first request to the last, so a single
//! early migration round settles the array. Real storage frontends are
//! not like that: load breathes over the day, flash crowds slam one
//! tenant's data, and the hot working set *moves*. [`ScenarioTrace`]
//! models a run as a sequence of [`Phase`]s, each a homogeneous stretch
//! with its own arrival gap, mix, skew, and — crucially — its own *hot
//! cluster set*, a [`HotPlacement::Rotated`] window of consecutive
//! clusters. The phases go through the same emitter as the stationary
//! builders, with the scenario's own RNG salt.
//!
//! Three canonical shapes ship as constructors:
//!
//! * [`ScenarioTrace::diurnal`] — arrival gap follows a day curve
//!   (trough → peak → trough) over N cycles;
//! * [`ScenarioTrace::flash_crowd`] — calm traffic interrupted by
//!   short, violent bursts that concentrate nearly all I/O on a single
//!   (rotating) cluster;
//! * [`ScenarioTrace::hotspot_drift`] — the profile's hot clusters
//!   rotate to a disjoint set every phase, so layout decisions made for
//!   phase *k* are wrong by phase *k+1*.
//!
//! The `bench scenario` catalog snapshots each shape as a golden
//! regression artifact; see `crates/bench/src/experiments/scenario.rs`.
//!
//! # Example
//!
//! ```
//! use triplea_core::ArrayConfig;
//! use triplea_workloads::{ScenarioTrace, WorkloadProfile};
//!
//! let cfg = ArrayConfig::small_test();
//! let profile = WorkloadProfile::by_name("fin").unwrap();
//! let scenario = ScenarioTrace::hotspot_drift(profile, 4_000, 1_500, 4);
//! let trace = scenario.build(&cfg, 7);
//! assert_eq!(trace.len(), 4_000);
//! assert_eq!(scenario.phases().len(), 4);
//! ```

use triplea_core::{ArrayConfig, Trace};

use crate::generator::{checked_pages, emit, HotPlacement, Phase};
use crate::profile::WorkloadProfile;

/// RNG salt of the scenario shapes.
const SCENARIO_SALT: u64 = 0x5CE0_A210_D21F_7001;

/// A phase of `profile` traffic whose hot set is rotated to start at
/// global cluster index `rotation`.
fn rotated(
    profile: &WorkloadProfile,
    label: &'static str,
    requests: usize,
    gap_ns: u64,
    rotation: u32,
) -> Phase {
    Phase {
        label,
        hot_placement: HotPlacement::Rotated(rotation),
        ..Phase::from_profile(profile, requests, gap_ns)
    }
}

/// A multi-phase, non-stationary trace builder; see the module docs.
#[derive(Clone, Debug)]
pub struct ScenarioTrace {
    name: &'static str,
    phases: Vec<Phase>,
    pages: u32,
    hot_region_pages: u64,
}

/// Steps per diurnal cycle (3-hour buckets of a day curve).
const DIURNAL_STEPS: usize = 8;
/// Triangular day curve: 0 = trough (longest gap), 3 = peak (shortest).
const DIURNAL_WEIGHTS: [u64; DIURNAL_STEPS] = [0, 1, 2, 3, 3, 2, 1, 0];

impl ScenarioTrace {
    /// Assembles a scenario from explicit phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    pub(crate) fn from_phases(name: &'static str, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a scenario needs at least one phase");
        ScenarioTrace {
            name,
            phases,
            pages: 1,
            hot_region_pages: 2_048,
        }
    }

    /// Diurnal load: `cycles` day curves, each of eight
    /// equal-request phases whose gap interpolates from `trough_gap_ns`
    /// (nighttime, longest) down to `peak_gap_ns` (midday, shortest)
    /// and back. The mix and skew are `profile`'s throughout — only the
    /// offered load breathes.
    ///
    /// # Panics
    ///
    /// Panics if `peak_gap_ns` is zero or exceeds `trough_gap_ns`.
    pub fn diurnal(
        profile: WorkloadProfile,
        requests: usize,
        trough_gap_ns: u64,
        peak_gap_ns: u64,
        cycles: u32,
    ) -> Self {
        assert!(
            peak_gap_ns >= 1 && peak_gap_ns <= trough_gap_ns,
            "diurnal needs 1 <= peak gap <= trough gap"
        );
        let cycles = cycles.max(1) as usize;
        let n = cycles * DIURNAL_STEPS;
        let per = requests / n;
        let mut phases = Vec::with_capacity(n);
        for c in 0..cycles {
            for (s, &w) in DIURNAL_WEIGHTS.iter().enumerate() {
                let gap = trough_gap_ns - (trough_gap_ns - peak_gap_ns) * w / 3;
                let label = match w {
                    3 => "peak",
                    0 => "trough",
                    _ => "shoulder",
                };
                let mut p = rotated(&profile, label, per, gap, 0);
                // Remainder lands on the final phase.
                if c == cycles - 1 && s == DIURNAL_STEPS - 1 {
                    p.requests = requests - per * (n - 1);
                }
                phases.push(p);
            }
        }
        ScenarioTrace::from_phases("diurnal", phases)
    }

    /// Flash crowds: calm stretches of `profile` traffic at
    /// `base_gap_ns`, punctured by `crowds` violent bursts — 97 % of
    /// burst I/O lands Zipf-skewed on a *single* cluster at
    /// `crowd_gap_ns`, and every crowd targets a different cluster.
    /// Requests split evenly between calm and crowd phases.
    ///
    /// # Panics
    ///
    /// Panics if `crowd_gap_ns` is zero.
    pub fn flash_crowd(
        profile: WorkloadProfile,
        requests: usize,
        base_gap_ns: u64,
        crowd_gap_ns: u64,
        crowds: u32,
    ) -> Self {
        assert!(crowd_gap_ns >= 1, "crowd gap must be positive");
        let crowds = crowds.max(1) as usize;
        let n = crowds * 2;
        let per = requests / n;
        let mut phases = Vec::with_capacity(n);
        for c in 0..crowds {
            phases.push(rotated(&profile, "calm", per, base_gap_ns, 0));
            let crowd_requests = if c == crowds - 1 {
                requests - per * (n - 1)
            } else {
                per
            };
            phases.push(Phase {
                label: "crowd",
                requests: crowd_requests,
                gap_ns: crowd_gap_ns,
                read_ratio: profile.read_ratio,
                read_randomness: 1.0,
                write_randomness: 1.0,
                hot_clusters: 1,
                hot_io_ratio: 0.97,
                // Each crowd slams a different cluster, stepping off the
                // profile's own resting hot set.
                hot_placement: HotPlacement::Rotated(profile.hot_clusters + c as u32),
                zipf_theta: 0.99,
                burst: None,
            });
        }
        ScenarioTrace::from_phases("flash_crowd", phases)
    }

    /// Hot-spot drift: `n_phases` equal stretches of `profile` traffic
    /// in which the hot cluster set rotates to a *disjoint* set of
    /// clusters each phase — the migrations the autonomic layer made
    /// for phase `k` are exactly wrong for phase `k+1`.
    ///
    /// # Panics
    ///
    /// Panics if `gap_ns` is zero.
    pub fn hotspot_drift(
        profile: WorkloadProfile,
        requests: usize,
        gap_ns: u64,
        n_phases: u32,
    ) -> Self {
        assert!(gap_ns >= 1, "drift gap must be positive");
        let n = n_phases.max(1) as usize;
        let per = requests / n;
        let stride = profile.hot_clusters.max(1);
        let mut phases = Vec::with_capacity(n);
        for k in 0..n {
            let requests = if k == n - 1 {
                requests - per * (n - 1)
            } else {
                per
            };
            phases.push(rotated(
                &profile,
                "drift",
                requests,
                gap_ns,
                k as u32 * stride,
            ));
        }
        ScenarioTrace::from_phases("hotspot_drift", phases)
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

    /// Pages in each hot cluster's hot region (smaller ⇒ more reuse).
    pub fn hot_region_pages(mut self, n: u64) -> Self {
        self.hot_region_pages = n.max(self.pages as u64);
        self
    }

    /// The shape's name (`diurnal`, `flash_crowd`, …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The phase schedule.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total simulated span of the arrival schedule: the sum of phase
    /// spans. Fault storms use this to aim power cuts and module deaths
    /// at specific scenario fractions.
    pub fn span_ns(&self) -> u64 {
        self.phases.iter().map(Phase::span_ns).sum()
    }

    /// Start time of each phase (same length as [`Self::phases`]) — the
    /// boundaries recovery tests aim power cuts at.
    pub fn phase_starts_ns(&self) -> Vec<u64> {
        let mut t = 0u64;
        self.phases
            .iter()
            .map(|p| {
                let start = t;
                t += p.span_ns();
                start
            })
            .collect()
    }

    /// Generates the trace, deterministically for a given `seed`.
    pub fn build(&self, cfg: &ArrayConfig, seed: u64) -> Trace {
        emit(
            cfg,
            seed ^ SCENARIO_SALT,
            &self.phases,
            self.pages,
            self.hot_region_pages,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use triplea_core::{TenantId, Topology};

    fn wide() -> ArrayConfig {
        let mut c = ArrayConfig::small_test();
        c.shape.topology = Topology {
            switches: 4,
            clusters_per_switch: 16,
        };
        c
    }

    fn profile(name: &str) -> WorkloadProfile {
        WorkloadProfile::by_name(name).unwrap()
    }

    #[test]
    fn request_budget_is_exact_despite_uneven_splits() {
        for requests in [1_000usize, 1_009, 4_321] {
            let d = ScenarioTrace::diurnal(profile("fin"), requests, 4_000, 500, 2);
            assert_eq!(d.build(&wide(), 1).len(), requests, "diurnal {requests}");
            let f = ScenarioTrace::flash_crowd(profile("fin"), requests, 2_000, 250, 3);
            assert_eq!(f.build(&wide(), 1).len(), requests, "crowd {requests}");
            let h = ScenarioTrace::hotspot_drift(profile("fin"), requests, 1_500, 5);
            assert_eq!(h.build(&wide(), 1).len(), requests, "drift {requests}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let s = ScenarioTrace::hotspot_drift(profile("usr"), 2_000, 1_500, 4);
        let cfg = wide();
        let a = s.build(&cfg, 42);
        let b = s.build(&cfg, 42);
        assert_eq!(a.requests(), b.requests());
        let c = s.build(&cfg, 43);
        assert_ne!(a.requests(), c.requests());
    }

    #[test]
    fn diurnal_gap_breathes_between_trough_and_peak() {
        let s = ScenarioTrace::diurnal(profile("web"), 8_000, 8_000, 1_000, 1);
        assert_eq!(s.phases().len(), DIURNAL_STEPS);
        let gaps: Vec<u64> = s.phases().iter().map(|p| p.gap_ns).collect();
        assert_eq!(*gaps.first().unwrap(), 8_000, "starts at the trough");
        assert_eq!(gaps[3], 1_000, "reaches the peak");
        assert!(gaps[..4].windows(2).all(|w| w[1] <= w[0]), "ramps down");
        assert!(gaps[4..].windows(2).all(|w| w[1] >= w[0]), "ramps back up");
        // The built trace's arrival rate actually varies: the peak
        // phase packs more arrivals per unit time than the trough.
        let t = s.build(&wide(), 3);
        let starts = s.phase_starts_ns();
        let in_window = |from: u64, to: u64| {
            t.requests()
                .iter()
                .filter(|r| r.at.as_nanos() >= from && r.at.as_nanos() < to)
                .count() as f64
                / (to - from) as f64
        };
        let trough_rate = in_window(starts[0], starts[1]);
        let peak_rate = in_window(starts[3], starts[4]);
        assert!(
            peak_rate > 4.0 * trough_rate,
            "peak {peak_rate} vs trough {trough_rate}"
        );
    }

    #[test]
    fn flash_crowd_concentrates_on_one_rotating_cluster() {
        let cfg = wide();
        let s = ScenarioTrace::flash_crowd(profile("cfs"), 12_000, 2_000, 200, 2);
        let t = s.build(&cfg, 9);
        let per_cluster = cfg.shape.pages_per_cluster();
        let starts = s.phase_starts_ns();
        // Phase 1 and phase 3 are the crowds.
        let crowd_target = |phase_idx: usize| {
            let from = starts[phase_idx];
            let to = starts.get(phase_idx + 1).copied().unwrap_or(u64::MAX);
            let mut counts = std::collections::HashMap::<u64, usize>::new();
            let mut n = 0usize;
            for r in t.requests() {
                let at = r.at.as_nanos();
                if at >= from && at < to {
                    *counts.entry(r.lpn.0 / per_cluster).or_default() += 1;
                    n += 1;
                }
            }
            let (&winner, &hits) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
            assert!(
                hits as f64 / n as f64 > 0.9,
                "crowd phase {phase_idx} not concentrated: {hits}/{n}"
            );
            winner
        };
        assert_ne!(
            crowd_target(1),
            crowd_target(3),
            "each crowd must slam a different cluster"
        );
    }

    #[test]
    fn hotspot_drift_moves_the_hot_set_each_phase() {
        let cfg = wide();
        let s = ScenarioTrace::hotspot_drift(profile("mds"), 16_000, 1_000, 4);
        let t = s.build(&cfg, 5);
        let per_cluster = cfg.shape.pages_per_cluster();
        let starts = s.phase_starts_ns();
        let hot_set = |k: usize| {
            let from = starts[k];
            let to = starts.get(k + 1).copied().unwrap_or(u64::MAX);
            let mut counts = std::collections::HashMap::<u64, usize>::new();
            let mut n = 0usize;
            for r in t.requests() {
                let at = r.at.as_nanos();
                if at >= from && at < to {
                    *counts.entry(r.lpn.0 / per_cluster).or_default() += 1;
                    n += 1;
                }
            }
            let threshold = n / 16; // > 2x the 1/64 fair share
            counts
                .into_iter()
                .filter(|&(_, c)| c > threshold)
                .map(|(g, _)| g)
                .collect::<std::collections::HashSet<u64>>()
        };
        let first = hot_set(0);
        let second = hot_set(1);
        assert!(!first.is_empty() && !second.is_empty());
        assert!(
            first.is_disjoint(&second),
            "consecutive drift phases must not share hot clusters: {first:?} vs {second:?}"
        );
    }

    #[test]
    fn marginals_survive_phasing() {
        // The non-stationary machinery must not distort the per-phase
        // Table-1 marginals: aggregate read ratio tracks the profile.
        let p = profile("mds");
        let cfg = wide();
        let t = ScenarioTrace::hotspot_drift(p, 20_000, 1_000, 4).build(&cfg, 11);
        let stats = analyze(&t, &cfg.shape);
        assert!(
            (stats.read_ratio - p.read_ratio).abs() < 0.02,
            "read ratio {} vs profile {}",
            stats.read_ratio,
            p.read_ratio
        );
    }

    #[test]
    fn span_and_phase_starts_are_consistent() {
        let s = ScenarioTrace::flash_crowd(profile("fin"), 4_000, 2_000, 250, 2);
        let starts = s.phase_starts_ns();
        assert_eq!(starts.len(), s.phases().len());
        assert_eq!(starts[0], 0);
        let span: u64 = s.phases().iter().map(Phase::span_ns).sum();
        assert_eq!(s.span_ns(), span);
        // Every arrival lands inside the span.
        let t = s.build(&wide(), 1);
        assert!(t.requests().iter().all(|r| r.at.as_nanos() < span));
    }

    #[test]
    fn addresses_stay_in_range() {
        let cfg = wide();
        let t = ScenarioTrace::flash_crowd(profile("proj"), 8_000, 1_000, 150, 3)
            .pages(4)
            .build(&cfg, 13);
        let total = cfg.shape.total_pages();
        for r in t.requests() {
            assert!(r.lpn.0 + r.pages as u64 <= total);
        }
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_scenarios_are_rejected() {
        ScenarioTrace::from_phases("empty", Vec::new());
    }

    #[test]
    fn scenario_requests_belong_to_the_default_tenant() {
        let cfg = wide();
        let plain = ScenarioTrace::flash_crowd(profile("fin"), 2_000, 2_000, 250, 2).build(&cfg, 7);
        // Untenanted arrays replay a scenario unchanged.
        assert!(plain
            .requests()
            .iter()
            .all(|r| r.tenant == TenantId::DEFAULT));
    }
}
