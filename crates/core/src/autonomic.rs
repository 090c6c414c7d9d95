//! State and bookkeeping of the autonomic management module (paper §4).
//!
//! The detection *formulas* live in [`crate::config::ArrayConfig`]
//! (Eqs. 1 and 3) and the cold-cluster test (Eq. 2) in
//! [`AutonomicState::pick_cold_sibling`]; the event-loop integration is
//! in [`crate::array`].

use triplea_pcie::{ClusterId, Topology};
use triplea_sim::{grown, FxHashSet, Nanos, SimTime, SplitMix64};

use crate::config::{AutonomicParams, COLD_BUS_THRESHOLD};

/// Activity counters of the autonomic management module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct AutonomicStats {
    /// Eq. 1 hot-cluster detections.
    pub hot_detections: u64,
    /// Inter-cluster migrations started.
    pub migrations_started: u64,
    /// Inter-cluster migrations fully programmed at the target.
    pub migrations_completed: u64,
    /// Pages moved across clusters.
    pub pages_migrated: u64,
    /// Laggard detections (Eq. 3 or queue examination, debounced).
    pub laggard_detections: u64,
    /// Pages reshaped to adjacent FIMMs within a cluster.
    pub pages_reshaped: u64,
    /// Stalled writes redirected to adjacent FIMMs.
    pub write_redirects: u64,
    /// "All FIMMs are laggards" escalations to inter-cluster migration.
    pub escalations: u64,
    /// Hot detections that found no cold sibling (migration skipped).
    pub no_cold_target: u64,
}

impl std::fmt::Display for AutonomicStats {
    /// A one-line summary; `"idle"` when the manager never acted.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == AutonomicStats::default() {
            return write!(f, "idle");
        }
        write!(
            f,
            "{} hot detections, {}/{} migrations ({} pages), \
             {} laggards ({} pages reshaped), {} write redirects, \
             {} escalations, {} no-cold-target",
            self.hot_detections,
            self.migrations_completed,
            self.migrations_started,
            self.pages_migrated,
            self.laggard_detections,
            self.pages_reshaped,
            self.write_redirects,
            self.escalations,
            self.no_cold_target
        )
    }
}

/// Mutable state of the autonomic manager during a run.
///
/// Iteration-order audit: the in-flight set is the one hashed table (a
/// deterministic-but-arbitrary-order [`FxHashSet`] keyed by LPN). It is
/// accessed strictly by key — `insert`/`remove`/`len` — and cleared,
/// never iterated, so no simulated decision can depend on hasher
/// internals. The debounce clocks are vectors indexed by position, and
/// candidate scans (`pick_cold_sibling`) walk the topology's ordered
/// sibling list.
#[derive(Clone, Debug)]
pub struct AutonomicState {
    params: AutonomicParams,
    /// Pages currently being migrated/reshaped (suppress duplicates).
    inflight: FxHashSet<u64>,
    /// Last laggard detection per FIMM, indexed by global cluster then
    /// FIMM, for debouncing; both levels grow on the first detection.
    last_laggard: Vec<Vec<Option<SimTime>>>,
    /// Last escalation per global cluster, for debouncing; grows on the
    /// first escalation.
    last_escalation: Vec<Option<SimTime>>,
    rng: SplitMix64,
    /// Counters reported at the end of the run.
    pub stats: AutonomicStats,
}

impl AutonomicState {
    /// Creates a quiescent manager.
    pub fn new(params: AutonomicParams, seed: u64) -> Self {
        AutonomicState {
            params,
            inflight: FxHashSet::default(),
            last_laggard: Vec::new(),
            last_escalation: Vec::new(),
            rng: SplitMix64::new(seed),
            stats: AutonomicStats::default(),
        }
    }

    /// The tunables in force.
    pub fn params(&self) -> &AutonomicParams {
        &self.params
    }

    /// Eq. 2 cold-cluster selection: among `src`'s same-switch siblings,
    /// pick the one with the lowest recent bus utilization, provided it
    /// is below the threshold. `bus_util` maps a global cluster index to
    /// its windowed utilization; `wear_of` maps it to total erase count
    /// (§6.7: the central module knows every cluster's erase counts, so
    /// equally-cold candidates break ties toward the least-worn cluster
    /// — global wear-levelling folded into migration). Remaining ties
    /// break pseudo-randomly but deterministically.
    pub fn pick_cold_sibling<F, G>(
        &mut self,
        topology: &Topology,
        src: ClusterId,
        bus_util: F,
        wear_of: G,
    ) -> Option<ClusterId>
    where
        F: Fn(u32) -> f64,
        G: Fn(u32) -> u64,
    {
        // A sibling qualifies when its bus is below the absolute Eq. 2
        // threshold, or — under high aggregate load, where nothing is
        // absolutely cold — when it carries less than half the source's
        // load (migrating there still halves the hot bus's pressure).
        let src_util = bus_util(topology.global_index(src));
        let mut candidates: Vec<(f64, ClusterId)> = topology
            .siblings(src)
            .map(|sib| (bus_util(topology.global_index(sib)), sib))
            .filter(|(u, _)| *u < COLD_BUS_THRESHOLD || *u < src_util * 0.5)
            .collect();
        if candidates.is_empty() {
            self.stats.no_cold_target += 1;
            return None;
        }
        let min = candidates
            .iter()
            .map(|(u, _)| *u)
            .fold(f64::INFINITY, f64::min);
        // Keep every sibling within epsilon of the minimum...
        candidates.retain(|(u, _)| *u <= min + 1e-12);
        if self.params.wear_aware && candidates.len() > 1 {
            // ...prefer the least-worn among them (§6.7)...
            let min_wear = candidates
                .iter()
                .map(|(_, id)| wear_of(topology.global_index(*id)))
                .min()
                .unwrap_or(0);
            candidates.retain(|(_, id)| wear_of(topology.global_index(*id)) == min_wear);
        }
        // ...and spread the rest uniformly.
        let idx = self.rng.next_below(candidates.len() as u64) as usize;
        Some(candidates[idx].1)
    }

    /// Marks pages as being relocated; returns only the pages that were
    /// not already in flight.
    pub fn claim_pages(&mut self, lpns: impl IntoIterator<Item = u64>) -> Vec<u64> {
        lpns.into_iter()
            .filter(|&l| self.inflight.insert(l))
            .collect()
    }

    /// Releases pages after their relocation completes.
    pub fn release_pages<'a>(&mut self, lpns: impl IntoIterator<Item = &'a u64>) {
        for l in lpns {
            self.inflight.remove(l);
        }
    }

    /// Number of pages currently in flight.
    pub fn inflight_pages(&self) -> usize {
        self.inflight.len()
    }

    /// Drops every in-flight claim: the management module's DRAM state is
    /// volatile and does not survive a power cut. Durable rollback of the
    /// half-built clones themselves is the FTL journal's job; this only
    /// clears the engine-side bookkeeping so remounted traffic can claim
    /// the pages again.
    pub fn forget_inflight(&mut self) {
        self.inflight.clear();
    }

    /// Debounced laggard registration: returns `true` (and counts a
    /// detection) unless the same FIMM was flagged within `cooldown_ns`.
    /// The SLA-aware path shrinks the window when the stalled tenant
    /// carries a tight p99 target (an interactive tenant's laggard is
    /// re-examined sooner) and stretches it when only batch traffic is
    /// hurt; untenanted arrays always pass
    /// [`LAGGARD_COOLDOWN_NS`](crate::LAGGARD_COOLDOWN_NS).
    pub fn register_laggard_with_cooldown(
        &mut self,
        cluster: u32,
        fimm: u32,
        now: SimTime,
        cooldown_ns: Nanos,
    ) -> bool {
        let clocks = grown(&mut self.last_laggard, cluster as usize);
        if !debounce(clocks, fimm, now, cooldown_ns) {
            return false;
        }
        self.stats.laggard_detections += 1;
        true
    }

    /// Debounced "all FIMMs are laggards" escalation: at most one per
    /// cluster per `cooldown_ns` window. Relocation programs make *every*
    /// FIMM look briefly backlogged, so un-debounced escalation feeds on
    /// its own repair traffic. The window scales with the stalled
    /// tenant's SLA exactly as for
    /// [`AutonomicState::register_laggard_with_cooldown`]; untenanted
    /// arrays pass [`ESCALATION_COOLDOWN_NS`](crate::ESCALATION_COOLDOWN_NS).
    pub fn register_escalation_with_cooldown(
        &mut self,
        cluster: u32,
        now: SimTime,
        cooldown_ns: Nanos,
    ) -> bool {
        if !debounce(&mut self.last_escalation, cluster, now, cooldown_ns) {
            return false;
        }
        self.stats.escalations += 1;
        true
    }
}

/// Restarts debounce clock `slot` of `clocks` at `now` and returns `true`,
/// unless it last fired less than `cooldown_ns` ago. `clocks` grows to
/// `slot`; a clock that never fired is `None`.
fn debounce(
    clocks: &mut Vec<Option<SimTime>>,
    slot: u32,
    now: SimTime,
    cooldown_ns: Nanos,
) -> bool {
    let clock = grown(clocks, slot as usize);
    if clock.is_some_and(|last| now.saturating_since(last) < cooldown_ns) {
        return false;
    }
    *clock = Some(now);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ESCALATION_COOLDOWN_NS, LAGGARD_COOLDOWN_NS};

    fn state() -> AutonomicState {
        AutonomicState::new(AutonomicParams::default(), 7)
    }

    #[test]
    fn cold_pick_prefers_lowest_utilization() {
        let mut s = state();
        let topo = Topology {
            switches: 1,
            clusters_per_switch: 4,
        };
        let src = ClusterId {
            switch: 0,
            index: 0,
        };
        let utils = [0.9, 0.08, 0.02, 0.05];
        let got = s
            .pick_cold_sibling(&topo, src, |g| utils[g as usize], |_| 0)
            .unwrap();
        assert_eq!(
            got,
            ClusterId {
                switch: 0,
                index: 2
            }
        );
    }

    #[test]
    fn cold_pick_rejects_busy_siblings() {
        let mut s = state();
        let topo = Topology {
            switches: 1,
            clusters_per_switch: 3,
        };
        let src = ClusterId {
            switch: 0,
            index: 0,
        };
        assert!(s.pick_cold_sibling(&topo, src, |_| 0.5, |_| 0).is_none());
        assert_eq!(s.stats.no_cold_target, 1);
    }

    #[test]
    fn cold_pick_never_leaves_switch() {
        let mut s = state();
        let topo = Topology {
            switches: 2,
            clusters_per_switch: 2,
        };
        let src = ClusterId {
            switch: 1,
            index: 0,
        };
        let got = s.pick_cold_sibling(&topo, src, |_| 0.0, |_| 0).unwrap();
        assert_eq!(got.switch, 1);
        assert_ne!(got, src);
    }

    #[test]
    fn claim_release_inflight() {
        let mut s = state();
        let claimed = s.claim_pages([1, 2, 3]);
        assert_eq!(claimed, vec![1, 2, 3]);
        let again = s.claim_pages([2, 3, 4]);
        assert_eq!(again, vec![4], "already-inflight pages filtered");
        assert_eq!(s.inflight_pages(), 4);
        s.release_pages(&claimed);
        assert_eq!(s.inflight_pages(), 1);
    }

    #[test]
    fn laggard_debounce() {
        let mut s = state();
        let mut lag = |fimm, us| {
            s.register_laggard_with_cooldown(0, fimm, SimTime::from_us(us), LAGGARD_COOLDOWN_NS)
        };
        assert!(lag(1, 10));
        assert!(!lag(1, 100), "cooldown");
        assert!(lag(2, 100), "other fimm");
        assert!(lag(1, 400));
        assert_eq!(s.stats.laggard_detections, 3);
    }

    #[test]
    fn explicit_cooldowns_scale_the_debounce() {
        let mut s = state();
        // Default laggard cooldown is 200us; a 50us window re-arms at
        // 70us where the default would still debounce.
        assert!(s.register_laggard_with_cooldown(0, 1, SimTime::from_us(10), 50_000));
        assert!(!s.register_laggard_with_cooldown(0, 1, SimTime::from_us(40), 50_000));
        assert!(s.register_laggard_with_cooldown(0, 1, SimTime::from_us(70), 50_000));
        assert!(s.register_escalation_with_cooldown(0, SimTime::from_us(10), 100_000));
        assert!(!s.register_escalation_with_cooldown(0, SimTime::from_us(100), 100_000));
        assert!(s.register_escalation_with_cooldown(0, SimTime::from_us(120), 100_000));
    }

    #[test]
    fn escalation_debounce_per_cluster() {
        let mut s = state();
        let mut esc = |cluster, us| {
            s.register_escalation_with_cooldown(
                cluster,
                SimTime::from_us(us),
                ESCALATION_COOLDOWN_NS,
            )
        };
        assert!(esc(0, 10));
        assert!(!esc(0, 200), "cooldown");
        assert!(esc(1, 200), "other cluster");
        assert!(esc(0, 1_000));
        assert_eq!(s.stats.escalations, 3);
    }

    #[test]
    fn cold_pick_spreads_over_equal_siblings() {
        let mut s = state();
        let topo = Topology {
            switches: 1,
            clusters_per_switch: 8,
        };
        let src = ClusterId {
            switch: 0,
            index: 0,
        };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(s.pick_cold_sibling(&topo, src, |_| 0.0, |_| 0).unwrap());
        }
        assert!(
            seen.len() >= 4,
            "equal-cold siblings should share load, got {seen:?}"
        );
    }

    #[test]
    fn cold_pick_prefers_least_worn_among_equals() {
        let mut s = state();
        let topo = Topology {
            switches: 1,
            clusters_per_switch: 4,
        };
        let src = ClusterId {
            switch: 0,
            index: 0,
        };
        // All equally cold; cluster 2 is the least worn.
        let wear = [100u64, 50, 5, 50];
        for _ in 0..8 {
            let got = s
                .pick_cold_sibling(&topo, src, |_| 0.0, |g| wear[g as usize])
                .unwrap();
            assert_eq!(
                got,
                ClusterId {
                    switch: 0,
                    index: 2
                }
            );
        }
    }

    #[test]
    fn cold_pick_deterministic_for_seed() {
        let topo = Topology {
            switches: 1,
            clusters_per_switch: 8,
        };
        let src = ClusterId {
            switch: 0,
            index: 0,
        };
        let mut a = AutonomicState::new(AutonomicParams::default(), 99);
        let mut b = AutonomicState::new(AutonomicParams::default(), 99);
        for _ in 0..16 {
            assert_eq!(
                a.pick_cold_sibling(&topo, src, |_| 0.0, |_| 0),
                b.pick_cold_sibling(&topo, src, |_| 0.0, |_| 0)
            );
        }
    }
}
