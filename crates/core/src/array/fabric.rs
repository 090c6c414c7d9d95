//! The PCI-E fabric (paper §2.1, §3.4): the root complex's routing and
//! address translation, the switch's per-port credit queues, the
//! cluster endpoint's downstream buffer, and the four link hops a
//! request makes down to its cluster and back.

use triplea_flash::FlashCommand;
use triplea_ftl::LogicalPage;
use triplea_pcie::Admission;
use triplea_sim::trace::{TraceEventKind, TraceScope};
use triplea_sim::SimTime;

use super::observe::admit;
use super::{Engine, Ev};
use crate::config::ManagementMode;
use crate::request::IoOp;

/// Wire overhead of one transaction-layer packet, charged once per page
/// moved and once per header-only read request or write acknowledgement.
/// PCI-E 3.0 framing: 2 B start + 2 B sequence + 12 B TLP header + 4 B
/// LCRC + 4 B end = 24 B (paper §3.4: the endpoint's device layers strip
/// exactly these header/sequence/CRC fields).
const TLP_OVERHEAD: u64 = 24;

/// The links a request crosses, in pipeline order: down the switch's
/// uplink and the cluster's downlink, then back up both.
#[derive(Clone, Copy)]
enum Hop {
    ToSwitch,
    ToEndpoint,
    FromEndpoint,
    ToRootComplex,
}

impl Engine {
    /// Wire bytes for `pages` pages, one TLP per page plus framing.
    pub(super) fn wire_bytes(&self, pages: u32) -> u64 {
        pages as u64 * (self.page_bytes() + TLP_OVERHEAD)
    }

    /// The switch and downstream port on request `r`'s path.
    fn port_of(&self, r: u32) -> (usize, usize) {
        let cps = self.cfg.shape.topology.clusters_per_switch;
        let cluster = self.reqs[r].cluster;
        ((cluster / cps) as usize, (cluster % cps) as usize)
    }

    /// Serialises request `r`'s packet for `hop` onto its link from `at`
    /// and charges the queueing to the request's `pcie_wait`. Data
    /// travels down for writes and up for reads; the other direction
    /// carries one header-only TLP. Returns when the last bit leaves the
    /// transmitter and when the packet arrives.
    fn hop(&mut self, r: u32, hop: Hop, at: SimTime) -> (SimTime, SimTime) {
        let (op, pages) = {
            let rs = &self.reqs[r];
            (rs.op, rs.pages)
        };
        let down = matches!(hop, Hop::ToSwitch | Hop::ToEndpoint);
        let bytes = if (op == IoOp::Write) == down {
            self.wire_bytes(pages)
        } else {
            TLP_OVERHEAD
        };
        let (s, p) = self.port_of(r);
        let port = match hop {
            Hop::ToSwitch | Hop::ToRootComplex => None,
            Hop::ToEndpoint | Hop::FromEndpoint => Some(p),
        };
        let (res, arrive) = self.transmit(s, port, down, at, bytes);
        self.reqs[r].bd.pcie_wait += res.wait;
        (res.end, arrive)
    }

    pub(super) fn on_rc_granted(&mut self, now: SimTime, r: u32) {
        let (lpn, pages, wait_since) = {
            let rs = &self.reqs[r];
            (rs.lpn, rs.pages, rs.wait_since)
        };
        // Pin physical locations at routing time: migrations that land
        // while this request is in flight keep the old copy readable.
        let mut locs = self.scratch.locs.pop().unwrap_or_default();
        locs.extend((0..pages).map(|i| self.ftl.locate(LogicalPage(lpn.0 + i as u64))));
        let cluster = self.cluster_global(locs[0].cluster);
        {
            let rs = &mut self.reqs[r];
            rs.bd.rc_stall += now - wait_since;
            rs.locs = locs;
            rs.cluster = cluster;
        }
        self.clusters[cluster as usize].served += 1;
        // Address translation happens here, at the management module. A
        // DFTL-style mapping-cache miss costs a flash read of the
        // translation page from the request's home FIMM.
        let mut t = now + self.cfg.pcie.rc_route_ns;
        let map_hit = self.map_access(lpn);
        let id = self.reqs[r].id;
        self.emit(TraceScope::cluster(cluster), || TraceEventKind::Dispatch {
            req: id,
            map_miss: !map_hit,
        });
        if !map_hit {
            let loc = self.reqs[r].locs[0];
            let c = cluster as usize;
            let pb = self.page_bytes();
            let xfer = self.bus_transfer(c, now, pb);
            if let Some((_, rd)) = self.issue_read_op(
                c,
                loc.fimm,
                now,
                loc.addr.package,
                &FlashCommand::read(&loc.addr.page),
            ) {
                t = t.max(rd.end);
                let rs = &mut self.reqs[r];
                rs.bd.fimm_service += rd.end - rd.start;
            }
            t = t.max(xfer.end);
        }
        self.queue.push(t, Ev::SwAdmit(r));
    }

    pub(super) fn on_sw_admit(&mut self, now: SimTime, r: u32) {
        self.reqs[r].wait_since = now;
        let (s, p) = self.port_of(r);
        let scope = TraceScope::cluster(self.reqs[r].cluster);
        match admit(
            &mut self.recorder,
            &mut self.switches[s].port_queues[p],
            scope,
            r,
        ) {
            Admission::Admitted => self.queue.push(now, Ev::SwGranted(r)),
            Admission::Queued => {}
        }
    }

    pub(super) fn on_sw_granted(&mut self, now: SimTime, r: u32) {
        let wait_since = self.reqs[r].wait_since;
        self.reqs[r].bd.switch_stall += now - wait_since;
        let (_, arrive) = self.hop(r, Hop::ToSwitch, now);
        self.queue.push(arrive, Ev::ArriveSw(r));
    }

    pub(super) fn on_arrive_sw(&mut self, now: SimTime, r: u32) {
        let t = now + self.cfg.pcie.switch_route_ns;
        self.queue.push(t, Ev::EpAdmit(r));
    }

    pub(super) fn on_ep_admit(&mut self, now: SimTime, r: u32) {
        self.reqs[r].wait_since = now;
        let c = self.reqs[r].cluster as usize;
        let scope = TraceScope::cluster(c as u32);
        match admit(&mut self.recorder, &mut self.clusters[c].ep_queue, scope, r) {
            Admission::Admitted => self.queue.push(now, Ev::EpGranted(r)),
            Admission::Queued => {
                if self.mode == ManagementMode::Autonomic
                    && self.auto.params().laggard.examines_queue()
                {
                    self.examine_queue(now, c as u32);
                }
            }
        }
    }

    pub(super) fn on_ep_granted(&mut self, now: SimTime, r: u32) {
        let wait_since = self.reqs[r].wait_since;
        self.reqs[r].bd.switch_stall += now - wait_since;
        let (_, arrive) = self.hop(r, Hop::ToEndpoint, now);
        self.queue.push(arrive, Ev::ArriveEp(r));
    }

    pub(super) fn on_arrive_ep(&mut self, now: SimTime, r: u32) {
        let (s, p) = self.port_of(r);
        if let Some(next) = self.switches[s].port_queues[p].release() {
            self.queue.push(now, Ev::SwGranted(next as u32));
        }
        let t = now + self.cfg.pcie.ep_device_ns;
        self.queue.push(t, Ev::EpService(r));
    }

    /// Sends request `r`'s response (read data or write acknowledgement)
    /// from its endpoint back toward the host.
    pub(super) fn respond(&mut self, now: SimTime, r: u32) {
        let cluster = self.reqs[r].cluster;
        let t0 = now + self.cfg.pcie.ep_device_ns;
        let (sent, arrive) = self.hop(r, Hop::FromEndpoint, t0);
        // The EP buffer entry frees once the response is on the wire.
        self.queue.push(sent, Ev::EpFree(cluster));
        self.queue.push(arrive, Ev::RespAtSw(r));
    }

    pub(super) fn on_ep_free(&mut self, now: SimTime, cluster: u32) {
        if let Some(next) = self.clusters[cluster as usize].ep_queue.release() {
            self.queue.push(now, Ev::EpGranted(next as u32));
        }
    }

    pub(super) fn on_resp_at_sw(&mut self, now: SimTime, r: u32) {
        let t0 = now + self.cfg.pcie.switch_route_ns;
        let (_, arrive) = self.hop(r, Hop::ToRootComplex, t0);
        self.queue.push(arrive, Ev::RespAtRc(r));
    }

    pub(super) fn on_resp_at_rc(&mut self, now: SimTime, r: u32) {
        let t = now + self.cfg.pcie.rc_route_ns;
        self.queue.push(t, Ev::Complete(r));
    }
}
