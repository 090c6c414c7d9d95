//! Multi-tenant front door: per-tenant submission lanes, weighted-fair
//! arbitration, and admission control at the root complex.
//!
//! The paper's premise is holding a latency SLA *for someone* — yet a
//! bare trace drives the array as one anonymous stream. This module
//! gives every request an owner. A [`TenantId`] names an NVMe-style
//! submission/completion queue pair at the root complex; a
//! [`TenantSpec`] states the tenant's service contract (weighted-fair
//! share, p99 latency target, admission queue depth); and
//! [`WeightedArbiter`] is the dispatch-side scheduler that decides,
//! every time a root-complex credit frees up, whose parked request is
//! admitted next.
//!
//! # Arbitration
//!
//! The arbiter runs start-time virtual-clock weighted fair queuing in
//! pure integer arithmetic so runs stay byte-deterministic:
//!
//! * each lane carries a virtual finish time `vtime`; dispatching from
//!   a lane advances it by `VT_SCALE / weight`, so a weight-4 lane's
//!   clock moves four times slower than a weight-1 lane's;
//! * the next grant goes to the eligible lane (non-empty, below its
//!   `qd_limit`) with the smallest `vtime`, ties broken by tenant id —
//!   the top of a min-heap of eligible lanes, so a grant costs
//!   O(log n) in the tenant count rather than a scan of every lane;
//! * a lane that wakes from idle is clamped forward to the global
//!   virtual clock, so sleeping never banks credit.
//!
//! Admission control is the `qd_limit`: a tenant with `k` requests
//! already inside the array cannot occupy another root-complex credit
//! until one completes, no matter how empty the device is — exactly an
//! NVMe submission queue of depth `k`.
//!
//! The zero-tenant configuration ([`TenantConfig::default`]) bypasses
//! all of this: requests flow through the root-complex credit queue
//! exactly as before, byte-for-byte.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use triplea_sim::Nanos;

/// Identifies one tenant: an index into the configured
/// [`TenantConfig`] spec table (`0..n`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The anonymous tenant. Traces built before the tenant model (and
    /// any constructor that doesn't name an owner) carry this id; on a
    /// tenant-enabled array it is simply tenant 0.
    pub const DEFAULT: TenantId = TenantId(0);

    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant.{}", self.0)
    }
}

/// One tenant's service contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct TenantSpec {
    /// Weighted-fair share of root-complex dispatch slots (≥ 1).
    pub weight: u32,
    /// p99 end-to-end latency target in nanoseconds (≥ 1). Completions
    /// above it count as SLA violations, and the autonomic layer treats
    /// laggards that stall this tenant with urgency proportional to how
    /// tight the target is.
    pub sla_p99_ns: Nanos,
    /// Admission-control queue depth: maximum requests this tenant may
    /// have in flight past the root complex (≥ 1).
    pub qd_limit: usize,
}

impl TenantSpec {
    /// A latency-sensitive foreground tenant: high share, tight p99
    /// (200 µs), moderate queue depth.
    pub fn interactive() -> Self {
        TenantSpec {
            weight: 8,
            sla_p99_ns: 200_000,
            qd_limit: 64,
        }
    }

    /// A throughput-oriented background tenant: low share, loose p99
    /// (5 ms), deep queue.
    pub fn batch() -> Self {
        TenantSpec {
            weight: 1,
            sla_p99_ns: 5_000_000,
            qd_limit: 256,
        }
    }
}

/// The array's tenant table: one [`TenantSpec`] per tenant, indexed by
/// [`TenantId`]. Empty (the default) means the array runs untenanted —
/// the front door is bypassed entirely and behavior is identical to a
/// build without this module.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantConfig {
    specs: Vec<TenantSpec>,
}

impl TenantConfig {
    /// The untenanted table.
    pub fn none() -> Self {
        TenantConfig::default()
    }

    /// A table with the given specs; tenant `i` gets `specs[i]`.
    pub fn new(specs: Vec<TenantSpec>) -> Self {
        TenantConfig { specs }
    }

    /// `true` when at least one tenant is configured (the front door is
    /// in force).
    pub fn is_active(&self) -> bool {
        !self.specs.is_empty()
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when no tenants are configured.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The spec table.
    pub fn specs(&self) -> &[TenantSpec] {
        &self.specs
    }

    /// The spec for `t`, if configured.
    pub fn get(&self, t: TenantId) -> Option<&TenantSpec> {
        self.specs.get(t.index())
    }
}

impl FromIterator<TenantSpec> for TenantConfig {
    fn from_iter<T: IntoIterator<Item = TenantSpec>>(iter: T) -> Self {
        TenantConfig::new(iter.into_iter().collect())
    }
}

/// Virtual-time scale: one dispatch from a weight-`w` lane advances its
/// clock by `VT_SCALE / w`. Large enough that integer division keeps
/// distinct weights distinct up to weights of a million.
const VT_SCALE: u64 = 1 << 20;

/// One tenant's submission lane inside the arbiter.
#[derive(Clone, Debug)]
struct Lane {
    weight: u64,
    qd_limit: usize,
    /// Virtual finish time of the lane's next dispatch.
    vtime: u64,
    /// Parked request ids, FIFO within the lane.
    waiting: VecDeque<u32>,
    /// Requests admitted past the root complex and not yet completed.
    inflight: usize,
}

impl Lane {
    /// Has parked work and a free admission slot.
    #[inline]
    fn is_eligible(&self) -> bool {
        !self.waiting.is_empty() && self.inflight < self.qd_limit
    }
}

/// Weighted-fair dispatch arbiter over per-tenant lanes; see the module
/// docs for the discipline. Deterministic: grants are a pure function
/// of the enqueue/complete call sequence.
#[derive(Clone, Debug)]
pub struct WeightedArbiter {
    lanes: Vec<Lane>,
    /// Min-heap of the eligible lanes keyed by `(vtime, tenant id)`. A
    /// lane is in it exactly when `Lane::is_eligible` holds, and its
    /// key is current: a lane's `vtime` only moves when it is granted
    /// (and re-keyed) or when it wakes from empty (and is not in the
    /// heap). A grant is one pop or one re-key, O(log n) in the lanes.
    eligible: BinaryHeap<Reverse<(u64, u32)>>,
    /// Virtual clock of the most recent grant; idle lanes wake no
    /// earlier than this.
    global_vtime: u64,
}

impl WeightedArbiter {
    /// Builds lanes from the spec table.
    ///
    /// # Panics
    ///
    /// Panics if any weight or `qd_limit` is zero (the config validator
    /// rejects these before an array is built).
    pub fn new(specs: &[TenantSpec]) -> Self {
        let lanes = specs
            .iter()
            .map(|s| {
                assert!(s.weight >= 1, "tenant weight must be >= 1");
                assert!(s.qd_limit >= 1, "tenant qd_limit must be >= 1");
                Lane {
                    weight: s.weight as u64,
                    qd_limit: s.qd_limit,
                    vtime: 0,
                    waiting: VecDeque::new(),
                    inflight: 0,
                }
            })
            .collect();
        WeightedArbiter {
            lanes,
            // Each lane is in the heap at most once, so it never grows.
            eligible: BinaryHeap::with_capacity(specs.len()),
            global_vtime: 0,
        }
    }

    /// Parks request `req` on tenant `t`'s submission lane.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a configured tenant.
    pub fn enqueue(&mut self, t: TenantId, req: u32) {
        let lane = &mut self.lanes[t.index()];
        let woke = lane.waiting.is_empty();
        if woke {
            // Waking from idle: no banked credit for time spent asleep.
            lane.vtime = lane.vtime.max(self.global_vtime);
        }
        lane.waiting.push_back(req);
        if woke && lane.is_eligible() {
            self.eligible.push(Reverse((lane.vtime, t.0)));
        }
    }

    /// Picks the next request to admit: the eligible lane (non-empty
    /// and below its `qd_limit`) with the smallest virtual time, ties
    /// broken by the lower tenant id. Returns `None` when no lane is
    /// eligible. The granted request counts as in flight until
    /// [`WeightedArbiter::complete`].
    pub fn grant(&mut self) -> Option<(TenantId, u32)> {
        let mut top = self.eligible.peek_mut()?;
        let Reverse((vtime, id)) = *top;
        let lane = &mut self.lanes[id as usize];
        debug_assert_eq!(lane.vtime, vtime, "stale eligible-lane key");
        self.global_vtime = vtime;
        lane.vtime += VT_SCALE / lane.weight;
        lane.inflight += 1;
        let req = lane.waiting.pop_front().expect("eligible lane non-empty");
        if lane.is_eligible() {
            // Re-key in place: one sift down when `top` drops.
            *top = Reverse((lane.vtime, id));
        } else {
            PeekMut::pop(top);
        }
        Some((TenantId(id), req))
    }

    /// Records completion of one of `t`'s in-flight requests, freeing
    /// an admission slot.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `t` has nothing in flight.
    pub fn complete(&mut self, t: TenantId) {
        let lane = &mut self.lanes[t.index()];
        debug_assert!(lane.inflight > 0, "complete without grant");
        let was_full = lane.inflight >= lane.qd_limit;
        lane.inflight = lane.inflight.saturating_sub(1);
        if was_full && lane.is_eligible() {
            self.eligible.push(Reverse((lane.vtime, t.0)));
        }
    }

    /// Discards every parked and in-flight entry and rewinds the
    /// virtual clocks — a power cycle of the front door. Lane
    /// *contents* are volatile; the spec table is not.
    pub fn power_cycle(&mut self) {
        for lane in &mut self.lanes {
            lane.waiting.clear();
            lane.inflight = 0;
            lane.vtime = 0;
        }
        self.eligible.clear();
        self.global_vtime = 0;
    }
}

/// Per-tenant results of one run; `RunReport::tenant_stats` carries one
/// entry per configured tenant, in tenant-id order. Empty on
/// untenanted runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct TenantStats {
    /// The tenant's id (its index in the configured table).
    pub tenant: u32,
    /// The configured weighted-fair share.
    pub weight: u32,
    /// The configured p99 target, nanoseconds.
    pub sla_p99_ns: u64,
    /// Requests completed for this tenant.
    pub completed: u64,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Completions whose end-to-end latency exceeded `sla_p99_ns`.
    pub violations: u64,
    /// Median end-to-end latency, nanoseconds.
    pub p50_ns: u64,
    /// p99 end-to-end latency, nanoseconds.
    pub p99_ns: u64,
    /// p99 read latency, nanoseconds.
    pub read_p99_ns: u64,
    /// p99 write latency, nanoseconds.
    pub write_p99_ns: u64,
    /// Mean end-to-end latency, nanoseconds (rounded).
    pub mean_ns: u64,
    /// Worst end-to-end latency, nanoseconds.
    pub max_ns: u64,
}

impl TenantStats {
    /// Fraction of completions that violated the p99 target, in
    /// `[0, 1]`.
    pub fn violation_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.violations as f64 / self.completed as f64
        }
    }

    /// `true` when more than 1 % of completions exceeded the target —
    /// i.e. the observed p99 is above `sla_p99_ns`.
    pub fn sla_violated(&self) -> bool {
        self.violations * 100 > self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(weights: &[u32]) -> Vec<TenantSpec> {
        weights
            .iter()
            .map(|&w| TenantSpec {
                weight: w,
                sla_p99_ns: 1_000_000,
                qd_limit: 8,
            })
            .collect()
    }

    /// Keeps every lane saturated and counts grants per tenant.
    fn grant_shares(weights: &[u32], rounds: usize) -> Vec<u64> {
        let mut arb = WeightedArbiter::new(&specs(weights));
        let mut counts = vec![0u64; weights.len()];
        let mut next_id = 0u32;
        for t in 0..weights.len() {
            for _ in 0..4 {
                arb.enqueue(TenantId(t as u32), next_id);
                next_id += 1;
            }
        }
        for _ in 0..rounds {
            let (t, _) = arb.grant().expect("lanes saturated");
            counts[t.index()] += 1;
            arb.complete(t);
            arb.enqueue(t, next_id);
            next_id += 1;
        }
        counts
    }

    #[test]
    fn equal_weights_share_equally() {
        let counts = grant_shares(&[1, 1, 1, 1], 4_000);
        for &c in &counts {
            assert_eq!(c, 1_000);
        }
    }

    #[test]
    fn grants_track_weight_ratios() {
        let counts = grant_shares(&[1, 2, 4], 7_000);
        assert_eq!(counts.iter().sum::<u64>(), 7_000);
        assert!((counts[1] as f64 / counts[0] as f64 - 2.0).abs() < 0.05);
        assert!((counts[2] as f64 / counts[0] as f64 - 4.0).abs() < 0.05);
    }

    #[test]
    fn qd_limit_caps_inflight() {
        let mut arb = WeightedArbiter::new(&[TenantSpec {
            weight: 1,
            sla_p99_ns: 1,
            qd_limit: 2,
        }]);
        for i in 0..5 {
            arb.enqueue(TenantId(0), i);
        }
        assert!(arb.grant().is_some());
        assert!(arb.grant().is_some());
        assert!(arb.grant().is_none(), "qd_limit reached");
        assert_eq!(arb.lanes[0].inflight, 2);
        assert_eq!(arb.lanes[0].waiting.len(), 3);
        arb.complete(TenantId(0));
        assert!(arb.grant().is_some(), "slot freed");
    }

    #[test]
    fn one_blocked_lane_does_not_starve_the_other() {
        let mut arb = WeightedArbiter::new(&specs(&[100, 1]));
        // Tenant 0 has huge weight but is at its qd_limit.
        for i in 0..8 {
            arb.enqueue(TenantId(0), i);
        }
        for _ in 0..8 {
            assert_eq!(arb.grant().unwrap().0, TenantId(0));
        }
        arb.enqueue(TenantId(0), 100);
        arb.enqueue(TenantId(1), 200);
        let (t, req) = arb.grant().expect("tenant 1 must proceed");
        assert_eq!((t, req), (TenantId(1), 200));
    }

    #[test]
    fn waking_lane_gets_no_banked_credit() {
        let mut arb = WeightedArbiter::new(&specs(&[1, 1]));
        arb.enqueue(TenantId(0), 0);
        for i in 1..100 {
            arb.enqueue(TenantId(0), i);
            let (t, _) = arb.grant().unwrap();
            arb.complete(t);
        }
        // Tenant 1 slept through 100 grants; it must not now receive
        // 100 back-to-back grants.
        arb.enqueue(TenantId(1), 500);
        arb.enqueue(TenantId(1), 501);
        arb.enqueue(TenantId(0), 502);
        let first = arb.grant().unwrap().0;
        arb.complete(first);
        let second = arb.grant().unwrap().0;
        assert_ne!(first, second, "grants must alternate, not bank credit");
    }

    #[test]
    fn ties_break_by_tenant_id() {
        let mut arb = WeightedArbiter::new(&specs(&[1, 1]));
        arb.enqueue(TenantId(1), 11);
        arb.enqueue(TenantId(0), 10);
        assert_eq!(arb.grant().unwrap(), (TenantId(0), 10));
    }

    #[test]
    fn power_cycle_clears_lanes() {
        let mut arb = WeightedArbiter::new(&specs(&[1]));
        arb.enqueue(TenantId(0), 1);
        arb.enqueue(TenantId(0), 2);
        arb.grant();
        arb.power_cycle();
        assert!(arb.lanes[0].waiting.is_empty());
        assert_eq!(arb.lanes[0].inflight, 0);
        assert!(arb.grant().is_none());
    }

    #[test]
    fn a_lane_at_its_limit_is_granted_again_after_complete() {
        let specs: Vec<TenantSpec> = [4, 1]
            .iter()
            .map(|&w| TenantSpec {
                weight: w,
                sla_p99_ns: 1,
                qd_limit: 1,
            })
            .collect();
        let mut arb = WeightedArbiter::new(&specs);
        arb.enqueue(TenantId(0), 10);
        arb.enqueue(TenantId(0), 11);
        arb.enqueue(TenantId(1), 20);
        assert_eq!(arb.grant(), Some((TenantId(0), 10)));
        assert_eq!(arb.grant(), Some((TenantId(1), 20)), "lane 0 is full");
        assert_eq!(arb.grant(), None);
        arb.enqueue(TenantId(1), 21);
        assert_eq!(arb.grant(), None, "lane 1 is full too");
        // Lane 0 leaves its limit with work parked: it is eligible
        // again, and its lower vtime wins once lane 1 is free as well.
        arb.complete(TenantId(1));
        arb.complete(TenantId(0));
        assert_eq!(arb.grant(), Some((TenantId(0), 11)));
        assert_eq!(arb.grant(), Some((TenantId(1), 21)));
        assert_eq!(arb.grant(), None);
    }

    #[test]
    fn the_eligible_heap_never_outgrows_its_reservation() {
        let mut arb = WeightedArbiter::new(&specs(&[1, 2, 3, 5, 8]));
        let cap = arb.eligible.capacity();
        assert!(cap >= 5);
        for i in 0..1_000u32 {
            arb.enqueue(TenantId(i % 5), i);
            if let Some((t, _)) = arb.grant() {
                if i % 3 != 0 {
                    arb.complete(t);
                }
            }
        }
        assert!(arb.eligible.len() <= 5);
        assert_eq!(arb.eligible.capacity(), cap);
    }

    #[test]
    fn tenant_config_basics() {
        assert!(!TenantConfig::none().is_active());
        assert!(TenantConfig::none().is_empty());
        let tc: TenantConfig = [TenantSpec::interactive(), TenantSpec::batch()]
            .into_iter()
            .collect();
        assert!(tc.is_active());
        assert_eq!(tc.len(), 2);
        assert_eq!(tc.get(TenantId(0)), Some(&TenantSpec::interactive()));
        assert_eq!(tc.get(TenantId(2)), None);
        assert_eq!(TenantId::DEFAULT.index(), 0);
        assert_eq!(TenantId(3).to_string(), "tenant.3");
    }

    #[test]
    fn stats_violation_helpers() {
        let mut s = TenantStats {
            completed: 1_000,
            violations: 9,
            ..TenantStats::default()
        };
        assert!(!s.sla_violated(), "0.9% is inside a p99 target");
        s.violations = 11;
        assert!(s.sla_violated());
        assert!((s.violation_rate() - 0.011).abs() < 1e-12);
        assert_eq!(TenantStats::default().violation_rate(), 0.0);
    }

    /// The linear-scan arbiter the eligible-lane heap replaced, kept as
    /// the executable specification for [`WeightedArbiter`]: same API,
    /// same discipline, every lane examined on every grant.
    struct ScanArbiter {
        lanes: Vec<Lane>,
        global_vtime: u64,
    }

    impl ScanArbiter {
        fn new(specs: &[TenantSpec]) -> Self {
            ScanArbiter {
                lanes: WeightedArbiter::new(specs).lanes,
                global_vtime: 0,
            }
        }

        fn enqueue(&mut self, t: TenantId, req: u32) {
            let lane = &mut self.lanes[t.index()];
            if lane.waiting.is_empty() {
                lane.vtime = lane.vtime.max(self.global_vtime);
            }
            lane.waiting.push_back(req);
        }

        fn grant(&mut self) -> Option<(TenantId, u32)> {
            let mut best: Option<usize> = None;
            for (i, lane) in self.lanes.iter().enumerate() {
                if lane.waiting.is_empty() || lane.inflight >= lane.qd_limit {
                    continue;
                }
                match best {
                    Some(b) if self.lanes[b].vtime <= lane.vtime => {}
                    _ => best = Some(i),
                }
            }
            let i = best?;
            let lane = &mut self.lanes[i];
            self.global_vtime = lane.vtime;
            lane.vtime += VT_SCALE / lane.weight;
            lane.inflight += 1;
            let req = lane.waiting.pop_front().expect("eligible lane non-empty");
            Some((TenantId(i as u32), req))
        }

        fn complete(&mut self, t: TenantId) {
            let lane = &mut self.lanes[t.index()];
            lane.inflight = lane.inflight.saturating_sub(1);
        }

        fn power_cycle(&mut self) {
            for lane in &mut self.lanes {
                lane.waiting.clear();
                lane.inflight = 0;
                lane.vtime = 0;
            }
            self.global_vtime = 0;
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Every eligible lane is in the heap once, under its current
        /// `(vtime, id)`, and nothing else is.
        fn heap_is_exact(arb: &WeightedArbiter) -> bool {
            let mut keys: Vec<(u64, u32)> = arb.eligible.iter().map(|r| r.0).collect();
            keys.sort_unstable();
            let mut want: Vec<(u64, u32)> = arb
                .lanes
                .iter()
                .enumerate()
                .filter(|(_, l)| l.is_eligible())
                .map(|(i, l)| (l.vtime, i as u32))
                .collect();
            want.sort_unstable();
            keys == want
        }

        fn spec() -> impl Strategy<Value = TenantSpec> {
            (
                prop_oneof![1u32..17, 1u32..1_000_001],
                prop_oneof![1usize..5, 1usize..65],
            )
                .prop_map(|(weight, qd_limit)| TenantSpec {
                    weight,
                    sla_p99_ns: 1,
                    qd_limit,
                })
        }

        proptest! {
            /// Differential test: over random enqueue / grant /
            /// complete / power-cycle sequences on 1–300 lanes of mixed
            /// weights and queue depths, the heap arbiter grants
            /// exactly the sequence the linear scan grants, and its
            /// heap holds exactly the eligible lanes after every call.
            #[test]
            fn matches_the_scan_differentially(
                specs in prop::collection::vec(spec(), 1..300),
                ops in prop::collection::vec((0u8..10, 0u32..u32::MAX), 1..800),
            ) {
                let mut arb = WeightedArbiter::new(&specs);
                let mut scan = ScanArbiter::new(&specs);
                let n = specs.len() as u32;
                // Granted and not yet completed, in grant order.
                let mut inflight: Vec<TenantId> = Vec::new();
                for (step, &(op, arg)) in ops.iter().enumerate() {
                    match op {
                        // Skew toward a few hot lanes so some hit their
                        // limit while others stay idle.
                        0..=4 => {
                            let t = TenantId(if arg & 1 == 0 { arg % n.min(4) } else { arg % n });
                            arb.enqueue(t, step as u32);
                            scan.enqueue(t, step as u32);
                        }
                        5 | 6 => {
                            let g = arb.grant();
                            prop_assert_eq!(g, scan.grant(), "grant at op {}", step);
                            inflight.extend(g.map(|(t, _)| t));
                        }
                        7 | 8 => {
                            if !inflight.is_empty() {
                                let t = inflight.swap_remove(arg as usize % inflight.len());
                                arb.complete(t);
                                scan.complete(t);
                            }
                        }
                        _ if arg % 16 == 0 => {
                            arb.power_cycle();
                            scan.power_cycle();
                            inflight.clear();
                        }
                        _ => loop {
                            // Pump: grant until nothing is eligible.
                            let g = arb.grant();
                            prop_assert_eq!(g, scan.grant(), "pump at op {}", step);
                            let Some((t, _)) = g else { break };
                            inflight.push(t);
                        },
                    }
                    prop_assert!(heap_is_exact(&arb), "heap drifted at op {}", step);
                }
                // Complete everything and pump to the end.
                loop {
                    loop {
                        let g = arb.grant();
                        prop_assert_eq!(g, scan.grant());
                        let Some((t, _)) = g else { break };
                        inflight.push(t);
                    }
                    let Some(t) = inflight.pop() else { break };
                    arb.complete(t);
                    scan.complete(t);
                }
                prop_assert!(arb.eligible.is_empty());
            }
        }
    }
}
