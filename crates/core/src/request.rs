//! I/O requests, traces, and per-request latency accounting.

use triplea_ftl::{LogicalPage, PhysLoc};
use triplea_sim::{Nanos, SimTime};

use crate::tenant::TenantId;

/// Direction of an I/O request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Read `pages` pages starting at the logical address.
    Read,
    /// Write `pages` pages starting at the logical address.
    Write,
}

impl std::fmt::Display for IoOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
        })
    }
}

/// One record of an I/O trace.
///
/// Construct these through [`TraceRequest::new`] (anonymous) or
/// [`TraceRequest::for_tenant`] (owned); bare struct literals are
/// discouraged outside this crate — they bypass the tenant model the
/// same way bare `ArrayConfig` literals bypass validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRequest {
    /// Host submission time.
    pub at: SimTime,
    /// Read or write.
    pub op: IoOp,
    /// First logical page.
    pub lpn: LogicalPage,
    /// Number of consecutive pages (≥ 1).
    pub pages: u32,
    /// Owning tenant ([`TenantId::DEFAULT`] on untenanted traces).
    pub tenant: TenantId,
}

impl TraceRequest {
    /// An anonymous request: owned by [`TenantId::DEFAULT`].
    pub fn new(at: SimTime, op: IoOp, lpn: LogicalPage, pages: u32) -> Self {
        TraceRequest::for_tenant(TenantId::DEFAULT, at, op, lpn, pages)
    }

    /// A request submitted on `tenant`'s queue pair.
    pub fn for_tenant(
        tenant: TenantId,
        at: SimTime,
        op: IoOp,
        lpn: LogicalPage,
        pages: u32,
    ) -> Self {
        TraceRequest {
            at,
            op,
            lpn,
            pages,
            tenant,
        }
    }

    /// The same request re-stamped with a new owner — how per-tenant
    /// workload bindings assign a generated stream to its tenant.
    pub fn owned_by(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }
}

/// A complete trace: requests sorted by submission time.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    requests: Vec<TraceRequest>,
}

impl Trace {
    /// Builds a trace, sorting records by submission time.
    pub fn new(mut requests: Vec<TraceRequest>) -> Self {
        requests.sort_by_key(|r| r.at);
        Trace { requests }
    }

    /// The records in submission order.
    pub fn requests(&self) -> &[TraceRequest] {
        &self.requests
    }

    /// Consumes the trace, yielding the records in submission order —
    /// the zero-copy path for re-stamping and blending streams.
    pub fn into_requests(self) -> Vec<TraceRequest> {
        self.requests
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Fraction of records that are reads, in `[0, 1]`.
    pub fn read_ratio(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests.iter().filter(|r| r.op == IoOp::Read).count() as f64
            / self.requests.len() as f64
    }
}

impl FromIterator<TraceRequest> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceRequest>>(iter: T) -> Self {
        Trace::new(iter.into_iter().collect())
    }
}

/// Per-request latency decomposition, in nanoseconds. The buckets map
/// onto the paper's Figure 15 stack and Table 2 columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct Breakdown {
    /// Waiting for a root-complex queue entry (host backlog).
    pub rc_stall: Nanos,
    /// Waiting for a switch buffer credit plus waiting for an endpoint
    /// buffer credit (stalls *at* switch level).
    pub switch_stall: Nanos,
    /// Waiting for a PCI-E link shared with other traffic.
    pub pcie_wait: Nanos,
    /// Waiting for the cluster's shared ONFi bus.
    pub bus_wait: Nanos,
    /// Waiting for a busy NAND die.
    pub die_wait: Nanos,
    /// Waiting for endpoint write-buffer space (writes only).
    pub wbuf_wait: Nanos,
    /// Pure flash service: array time + channel DMA.
    pub fimm_service: Nanos,
}

impl Breakdown {
    /// The paper's **link-contention** time: shared-bus plus shared-link
    /// waits.
    pub fn link_contention(&self) -> Nanos {
        self.bus_wait + self.pcie_wait
    }

    /// The paper's **storage-contention** time: busy-die plus
    /// write-buffer waits.
    pub fn storage_contention(&self) -> Nanos {
        self.die_wait + self.wbuf_wait
    }

    /// Total queue-stall time (RC + switch level).
    pub fn queue_stall(&self) -> Nanos {
        self.rc_stall + self.switch_stall
    }

    /// Adds another breakdown element-wise (for aggregation).
    pub fn accumulate(&mut self, other: &Breakdown) {
        self.rc_stall += other.rc_stall;
        self.switch_stall += other.switch_stall;
        self.pcie_wait += other.pcie_wait;
        self.bus_wait += other.bus_wait;
        self.die_wait += other.die_wait;
        self.wbuf_wait += other.wbuf_wait;
        self.fimm_service += other.fimm_service;
    }
}

/// Internal per-request simulation state.
#[derive(Clone, Debug)]
pub(crate) struct RequestState {
    /// Submission index: the trace position on a one-shot run, the
    /// [`ArrayRunner::submit`](crate::ArrayRunner::submit) id on a
    /// stepped one. Trace events report it, never the table slot.
    pub id: u32,
    pub op: IoOp,
    pub lpn: LogicalPage,
    pub pages: u32,
    pub tenant: TenantId,
    pub submit: SimTime,
    /// Physical locations pinned at routing time (migration keeps old
    /// copies readable for in-flight requests).
    pub locs: Vec<PhysLoc>,
    /// Global index of the cluster the request was routed to.
    pub cluster: u32,
    /// Completed or lost to a power cut: the slot is free for reuse.
    pub free: bool,
    /// When the current wait began (reused across stages).
    pub wait_since: SimTime,
    /// When flash service started at the EP (Eq. 1's observation point).
    pub flash_start: SimTime,
    /// Outstanding flash sub-operations.
    pub pending_parts: u32,
    /// Largest die wait over all parts (Eq. 1 requires the target FIMM
    /// to have been available).
    pub max_die_wait: Nanos,
    /// FIMM flagged as laggard for this request, if any.
    pub laggard_fimm: Option<u32>,
    /// All FIMMs looked like laggards → escalate to migration.
    pub escalate: bool,
    /// Write was parked for endpoint write-buffer space (qualifies it
    /// for §4.2 write redirection).
    pub stalled_wbuf: bool,
    pub bd: Breakdown,
}

impl RequestState {
    pub fn new(id: u32, r: &TraceRequest) -> Self {
        RequestState {
            id,
            op: r.op,
            lpn: r.lpn,
            pages: r.pages,
            tenant: r.tenant,
            submit: r.at,
            locs: Vec::new(),
            cluster: 0,
            free: false,
            wait_since: r.at,
            flash_start: SimTime::ZERO,
            pending_parts: 0,
            max_die_wait: 0,
            laggard_fimm: None,
            escalate: false,
            stalled_wbuf: false,
            bd: Breakdown::default(),
        }
    }
}

/// The engine's request table: one slot per request between arrival
/// and completion (or loss), recycled through a free list, so its size
/// follows what is in flight rather than the trace's length.
#[derive(Debug, Default)]
pub(crate) struct RequestTable {
    slots: Vec<RequestState>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
}

impl RequestTable {
    /// Stores a new request and returns its slot.
    pub fn insert(&mut self, rs: RequestState) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = rs;
                slot
            }
            None => {
                self.slots.push(rs);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Frees `slot` for reuse, handing back its pinned-location buffer.
    pub fn release(&mut self, slot: u32) -> Vec<PhysLoc> {
        let rs = &mut self.slots[slot as usize];
        debug_assert!(!rs.free, "slot freed twice");
        rs.free = true;
        self.free.push(slot);
        std::mem::take(&mut rs.locs)
    }

    /// Slots ever allocated: the most requests held at once.
    pub fn high_water(&self) -> usize {
        self.slots.len()
    }
}

impl std::ops::Index<u32> for RequestTable {
    type Output = RequestState;

    fn index(&self, slot: u32) -> &RequestState {
        &self.slots[slot as usize]
    }
}

impl std::ops::IndexMut<u32> for RequestTable {
    fn index_mut(&mut self, slot: u32) -> &mut RequestState {
        &mut self.slots[slot as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(at_us: u64, op: IoOp) -> TraceRequest {
        TraceRequest::new(SimTime::from_us(at_us), op, LogicalPage(0), 1)
    }

    #[test]
    fn trace_sorts_by_time() {
        let t = Trace::new(vec![
            req(5, IoOp::Read),
            req(1, IoOp::Write),
            req(3, IoOp::Read),
        ]);
        let times: Vec<u64> = t.requests().iter().map(|r| r.at.as_nanos()).collect();
        assert_eq!(times, vec![1_000, 3_000, 5_000]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn read_ratio_counts_reads() {
        let t = Trace::new(vec![
            req(0, IoOp::Read),
            req(1, IoOp::Read),
            req(2, IoOp::Write),
        ]);
        assert!((t.read_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Trace::default().read_ratio(), 0.0);
    }

    #[test]
    fn trace_from_iterator() {
        let t: Trace = (0..4).map(|i| req(i, IoOp::Read)).collect();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn breakdown_buckets() {
        let bd = Breakdown {
            rc_stall: 1,
            switch_stall: 2,
            pcie_wait: 4,
            bus_wait: 8,
            die_wait: 16,
            wbuf_wait: 32,
            fimm_service: 64,
        };
        assert_eq!(bd.link_contention(), 12);
        assert_eq!(bd.storage_contention(), 48);
        assert_eq!(bd.queue_stall(), 3);
        let mut acc = Breakdown::default();
        acc.accumulate(&bd);
        acc.accumulate(&bd);
        assert_eq!(acc.fimm_service, 128);
    }

    #[test]
    fn constructors_stamp_tenants() {
        let anon = req(0, IoOp::Read);
        assert_eq!(anon.tenant, TenantId::DEFAULT);
        let owned =
            TraceRequest::for_tenant(TenantId(3), SimTime::ZERO, IoOp::Write, LogicalPage(9), 2);
        assert_eq!(owned.tenant, TenantId(3));
        assert_eq!((owned.lpn, owned.pages), (LogicalPage(9), 2));
        assert_eq!(anon.owned_by(TenantId(7)).tenant, TenantId(7));
        assert_eq!(RequestState::new(0, &owned).tenant, TenantId(3));
    }

    #[test]
    fn trace_sort_is_stable_across_tenant_blends() {
        // Two tenants' streams merged at identical timestamps must keep
        // insertion order (stable sort) so blended traces stay
        // deterministic.
        let a = TraceRequest::for_tenant(TenantId(0), SimTime::ZERO, IoOp::Read, LogicalPage(1), 1);
        let b = TraceRequest::for_tenant(TenantId(1), SimTime::ZERO, IoOp::Read, LogicalPage(2), 1);
        let t = Trace::new(vec![a, b]);
        assert_eq!(t.requests()[0].tenant, TenantId(0));
        assert_eq!(t.requests()[1].tenant, TenantId(1));
    }

    #[test]
    fn io_op_display() {
        assert_eq!(IoOp::Read.to_string(), "read");
        assert_eq!(IoOp::Write.to_string(), "write");
    }
}
