//! The host side of the array: request submission, the multi-tenant
//! front door ahead of the root-complex credit queue, and completion
//! accounting.

use triplea_pcie::Admission;
use triplea_sim::stats::Histogram;
use triplea_sim::trace::{TraceEventKind, TraceScope};
use triplea_sim::{Nanos, SimTime};

use super::{Engine, Ev, Finished};
use crate::config::{ArrayConfig, ESCALATION_COOLDOWN_NS, LAGGARD_COOLDOWN_NS, SLA_NS};
use crate::request::IoOp;
use crate::tenant::{TenantId, WeightedArbiter};

/// One tenant's completion-side accumulators; each latency histogram's
/// count is the matching completion count.
#[derive(Clone, Debug, Default)]
pub(super) struct TenantAccum {
    pub(super) lat: Histogram,
    pub(super) rlat: Histogram,
    pub(super) wlat: Histogram,
    /// Completions whose end-to-end latency exceeded the tenant's
    /// `sla_p99_ns` target.
    pub(super) violations: u64,
}

/// The multi-tenant front door: NVMe-style per-tenant submission lanes
/// feeding the root-complex credit queue through weighted-fair
/// arbitration with per-tenant admission control. Built exactly when
/// the config names at least one tenant; `None` leaves the legacy
/// anonymous path byte-identical to builds without the tenant model.
#[derive(Clone, Debug)]
pub(super) struct FrontDoor {
    pub(super) arbiter: WeightedArbiter,
    pub(super) lanes: Vec<TenantAccum>,
}

impl FrontDoor {
    pub(super) fn new(cfg: &ArrayConfig) -> Option<Self> {
        if !cfg.tenants.is_active() {
            return None;
        }
        Some(FrontDoor {
            arbiter: WeightedArbiter::new(cfg.tenants.specs()),
            lanes: vec![TenantAccum::default(); cfg.tenants.len()],
        })
    }
}

impl Engine {
    pub(super) fn on_submit(&mut self, now: SimTime, r: u32) {
        self.reqs[r].wait_since = now;
        self.emit(TraceScope::array(), || {
            let rs = &self.reqs[r];
            TraceEventKind::Submit {
                req: rs.id,
                read: rs.op == IoOp::Read,
                lpn: rs.lpn.0,
                pages: rs.pages,
            }
        });
        if self.front.is_some() {
            // Tenant mode: park the request on its owner's submission
            // lane; the weighted-fair arbiter decides who occupies the
            // next free root-complex credit.
            let t = self.reqs[r].tenant;
            self.front
                .as_mut()
                .expect("checked above")
                .arbiter
                .enqueue(t, r);
            self.pump_tenants(now);
        } else {
            match self.rc_queue.admit(r as u64) {
                Admission::Admitted => self.queue.push(now, Ev::RcGranted(r)),
                Admission::Queued => {} // woken by on_complete's release
            }
        }
    }

    /// Drains the weighted-fair arbiter into the root-complex credit
    /// queue: while a credit is free and some lane is eligible (waiting
    /// work, in-flight count below its `qd_limit`), admit that lane's
    /// head request. In tenant mode this is the *only* path into the RC
    /// queue and it never overfills it, so the queue's own FIFO stays
    /// empty — scheduling policy lives entirely in the
    /// [`WeightedArbiter`].
    fn pump_tenants(&mut self, now: SimTime) {
        let Some(front) = self.front.as_mut() else {
            return;
        };
        while !self.rc_queue.is_full() {
            let Some((_t, r)) = front.arbiter.grant() else {
                break;
            };
            let admitted = self.rc_queue.admit(r as u64);
            debug_assert!(
                matches!(admitted, Admission::Admitted),
                "pump only admits below capacity"
            );
            self.queue.push(now, Ev::RcGranted(r));
        }
    }

    pub(super) fn on_complete(&mut self, now: SimTime, r: u32) {
        let rs = &self.reqs[r];
        let (id, op, tenant, submit, bd, cluster) =
            (rs.id, rs.op, rs.tenant, rs.submit, rs.bd, rs.cluster);
        let total = now - submit;
        self.free_slot(r);
        if self.stream {
            self.finished.push((id, Finished::Done(now)));
        }
        self.emit(TraceScope::cluster(cluster), || TraceEventKind::Complete {
            req: id,
            latency_ns: total,
        });
        self.lat.record(total);
        // Completions inside a rebuild's degraded window (module death →
        // spare in service) feed the RecoveryStats degraded-mode p99.
        if self.in_degraded_window(now) {
            self.degraded_lat.record(total);
        }
        match op {
            IoOp::Read => self.rlat.record(total),
            IoOp::Write => self.wlat.record(total),
        }
        self.bd_sum.accumulate(&bd);
        // Attribute queueing upstream of the cluster to its root cause,
        // proportionally to this request's own downstream waits — the
        // paper's Table 2 reports exactly this decomposition (its queue
        // stall column equals link-contention + storage-contention).
        let own_link = bd.link_contention();
        let own_storage = bd.storage_contention();
        let own = own_link + own_storage;
        if own > 0 {
            let q = bd.queue_stall() as u128;
            self.attr_link += (q * own_link as u128 / own as u128) as u64;
            self.attr_storage += (q * own_storage as u128 / own as u128) as u64;
        }
        if self.cfg.collect_series {
            self.series.push(submit, total as f64 / 1_000.0);
        }
        self.last_complete = self.last_complete.max(now);
        if self.front.is_some() {
            self.record_tenant_complete(tenant, op, total);
            self.pump_tenants(now);
        } else if let Some(next) = self.rc_queue.release() {
            self.queue.push(now, Ev::RcGranted(next as u32));
        }
    }

    /// Completion-side tenant accounting: record the latency against
    /// the owner's instruments, count an SLA violation when it exceeds
    /// the owner's p99 target, and free the admission slot. The freed
    /// root-complex credit is then re-granted through the arbiter
    /// ([`Engine::pump_tenants`]), never by the queue's own FIFO —
    /// which tenant mode keeps empty.
    fn record_tenant_complete(&mut self, tenant: TenantId, op: IoOp, total: Nanos) {
        let sla = self
            .cfg
            .tenants
            .get(tenant)
            .expect("run_verified validated tenant ids")
            .sla_p99_ns;
        let front = self.front.as_mut().expect("tenant mode");
        let acc = &mut front.lanes[tenant.index()];
        acc.lat.record(total);
        match op {
            IoOp::Read => acc.rlat.record(total),
            IoOp::Write => acc.wlat.record(total),
        }
        if total > sla {
            acc.violations += 1;
        }
        front.arbiter.complete(tenant);
        let handoff = self.rc_queue.release();
        debug_assert!(handoff.is_none(), "tenant mode keeps the RC FIFO empty");
    }

    /// The autonomic detection budget and debounce cooldowns in force
    /// for a stall attributed to `tenant`:
    /// `(sla, laggard_cooldown, escalation_cooldown)`.
    ///
    /// Untenanted arrays use the global [`SLA_NS`],
    /// [`LAGGARD_COOLDOWN_NS`] and [`ESCALATION_COOLDOWN_NS`] unchanged.
    /// With tenants, the budget is the tighter of the global SLA and the
    /// tenant's own p99 target, and the cooldowns scale with
    /// `sla_p99_ns / SLA_NS` (clamped to 1/4x..4x): a laggard
    /// stalling an interactive tenant is re-examined — and therefore
    /// reshaped — sooner than one that only delays batch work. A tenant
    /// currently outside its SLA halves the cooldowns again.
    pub(super) fn tenant_autonomics(&self, tenant: TenantId) -> (Nanos, Nanos, Nanos) {
        let base = (SLA_NS, LAGGARD_COOLDOWN_NS, ESCALATION_COOLDOWN_NS);
        let Some(front) = self.front.as_ref() else {
            return base;
        };
        let Some(spec) = self.cfg.tenants.get(tenant) else {
            return base;
        };
        let scale = |v: Nanos| -> Nanos {
            let scaled = (v as u128 * spec.sla_p99_ns as u128 / SLA_NS as u128) as Nanos;
            scaled.clamp(v / 4, v.saturating_mul(4))
        };
        let acc = &front.lanes[tenant.index()];
        let violating = acc.violations * 100 > acc.lat.count();
        let div = if violating { 2 } else { 1 };
        (
            SLA_NS.min(spec.sla_p99_ns),
            scale(LAGGARD_COOLDOWN_NS) / div,
            scale(ESCALATION_COOLDOWN_NS) / div,
        )
    }

    /// [`Engine::tenant_autonomics`] for a queue-examination event: the
    /// most demanding tenant among the stalled waiters (tightest
    /// `sla_p99_ns`, ties to the lower id) sets the pace.
    pub(super) fn waiters_autonomics(
        &self,
        waiters: impl Iterator<Item = u32>,
    ) -> (Nanos, Nanos, Nanos) {
        let base = (SLA_NS, LAGGARD_COOLDOWN_NS, ESCALATION_COOLDOWN_NS);
        if self.front.is_none() {
            return base;
        }
        let tightest = waiters.map(|w| self.reqs[w].tenant).min_by_key(|t| {
            (
                self.cfg.tenants.get(*t).map_or(u64::MAX, |s| s.sla_p99_ns),
                t.index(),
            )
        });
        match tightest {
            Some(t) => self.tenant_autonomics(t),
            None => base,
        }
    }
}
