//! Per-cluster simulation state: endpoint, shared bus, FIMMs, and the
//! endpoint write-back buffer.

use std::collections::VecDeque;

use triplea_fimm::{Fimm, OnfiBus};
use triplea_pcie::{ClusterId, CreditQueue};
use triplea_sim::stats::TimeSeries;
use triplea_sim::SimTime;

use crate::config::ArrayConfig;

/// One cluster of the array: a PCI-E endpoint fronting `fimms_per_cluster`
/// FIMMs over a shared ONFi bus (paper §3.2, Figure 5).
#[derive(Clone, Debug)]
pub(crate) struct ClusterState {
    pub id: ClusterId,
    /// The endpoint's downstream buffer: requests admitted into the
    /// cluster whose responses are not yet on the wire (paper §3.4).
    pub ep_queue: CreditQueue,
    pub bus: OnfiBus,
    pub fimms: Vec<Fimm>,
    /// Write-back buffer capacity in pages.
    pub wbuf_cap: usize,
    /// Pages currently buffered awaiting program completion.
    pub wbuf_used: usize,
    /// Write requests parked for buffer space (request ids, FIFO).
    pub wbuf_waiters: VecDeque<u32>,
    /// Read pages issued to each FIMM and not yet back (Eq. 3 input).
    pub pending_read_pages: Vec<u64>,
    /// Per-FIMM read-backlog samples, populated only while a trace
    /// recorder is attached (exported as `cluster.N.fimm.M.queue_depth`).
    pub qdepth: Vec<TimeSeries>,
    /// Program pages outstanding per FIMM (writes, reshaping, GC).
    pub pending_prog_pages: Vec<u64>,
    /// Round-robin cursor for spreading reshaped/migrated pages.
    pub spread_rr: u32,
    /// Requests routed to this cluster (census for Table 1).
    pub served: u64,
    /// Pages relocated *into* this cluster (migration/reshape targets).
    pub relocs_in: u64,
}

impl ClusterState {
    pub fn new(cfg: &ArrayConfig, id: ClusterId) -> Self {
        let n = cfg.shape.fimms_per_cluster as usize;
        ClusterState {
            id,
            ep_queue: CreditQueue::new("ep", cfg.pcie.ep_queue),
            bus: OnfiBus::new(cfg.flash_timing.onfi),
            fimms: (0..n)
                .map(|_| {
                    Fimm::new(
                        cfg.shape.packages_per_fimm,
                        cfg.shape.flash,
                        cfg.flash_timing,
                    )
                })
                .collect(),
            wbuf_cap: cfg.write_buffer_pages,
            wbuf_used: 0,
            wbuf_waiters: VecDeque::new(),
            pending_read_pages: vec![0; n],
            qdepth: vec![TimeSeries::new(); n],
            pending_prog_pages: vec![0; n],
            spread_rr: 0,
            served: 0,
            relocs_in: 0,
        }
    }

    /// Free write-buffer pages.
    pub fn wbuf_free(&self) -> usize {
        self.wbuf_cap - self.wbuf_used
    }

    /// Total outstanding flash pages on one FIMM (reads + programs).
    pub fn fimm_backlog_pages(&self, fimm: u32) -> u64 {
        self.pending_read_pages[fimm as usize] + self.pending_prog_pages[fimm as usize]
    }

    /// Total erase operations performed on this cluster's flash — the
    /// §6.7 global wear view the management module keeps per cluster.
    pub fn total_erases(&self) -> u64 {
        self.fimms.iter().map(Fimm::total_erases).sum()
    }

    /// Outstanding *host read* pages on one FIMM — the "stalled I/O
    /// requests" of the paper's Eq. 3 and queue examination. Background
    /// relocation programs are excluded so the detectors react to host
    /// pressure, not to their own repair traffic.
    pub fn fimm_read_backlog_pages(&self, fimm: u32) -> u64 {
        self.pending_read_pages[fimm as usize]
    }

    /// The FIMM with the smallest outstanding backlog, excluding
    /// `exclude` and any module that is dead at `now` — the destination
    /// for reshaped pages and redirected writes (paper §4.2: "adjacent
    /// FIMMs within the same cluster").
    pub fn least_loaded_fimm(&mut self, now: SimTime, exclude: Option<u32>) -> u32 {
        let n = self.fimms.len() as u32;
        let start = self.spread_rr;
        self.spread_rr = (self.spread_rr + 1) % n;
        let mut best = None;
        for off in 0..n {
            let f = (start + off) % n;
            if Some(f) == exclude || self.fimms[f as usize].is_dead_at(now) {
                continue;
            }
            let load = self.fimm_backlog_pages(f);
            match best {
                None => best = Some((load, f)),
                Some((bl, _)) if load < bl => best = Some((load, f)),
                _ => {}
            }
        }
        best.map(|(_, f)| f).unwrap_or(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterState {
        ClusterState::new(&ArrayConfig::small_test(), ClusterId::default())
    }

    #[test]
    fn construction_matches_config() {
        let c = cluster();
        let cfg = ArrayConfig::small_test();
        assert_eq!(c.fimms.len(), cfg.shape.fimms_per_cluster as usize);
        assert_eq!(c.wbuf_free(), cfg.write_buffer_pages);
        assert_eq!(c.pending_read_pages.len(), c.fimms.len());
        assert_eq!(c.ep_queue.capacity(), cfg.pcie.ep_queue);
    }

    #[test]
    fn least_loaded_prefers_idle_fimm() {
        let mut c = cluster();
        c.pending_read_pages[0] = 10;
        c.pending_prog_pages[1] = 1;
        // fimm 1 has load 1, fimm 0 has 10
        let picked = c.least_loaded_fimm(SimTime::ZERO, None);
        assert_eq!(picked, 1);
    }

    #[test]
    fn least_loaded_respects_exclusion() {
        let mut c = cluster();
        c.pending_read_pages[1] = 100;
        for _ in 0..8 {
            let f = c.least_loaded_fimm(SimTime::ZERO, Some(0));
            assert_ne!(f, 0, "excluded FIMM must not be picked");
        }
    }

    #[test]
    fn round_robin_breaks_ties() {
        let mut c = cluster();
        let a = c.least_loaded_fimm(SimTime::ZERO, None);
        let b = c.least_loaded_fimm(SimTime::ZERO, None);
        assert_ne!(a, b, "equal loads rotate across FIMMs");
    }

    #[test]
    fn least_loaded_skips_dead_fimms() {
        use triplea_fimm::FimmFaultKind;
        let mut c = cluster();
        let dead = 0;
        c.fimms[dead].schedule_fault(SimTime::from_us(1), FimmFaultKind::Dead);
        // Make the dead module the least-loaded on paper.
        for f in 1..c.fimms.len() {
            c.pending_read_pages[f] = 10;
        }
        for _ in 0..8 {
            let f = c.least_loaded_fimm(SimTime::from_us(1), None);
            assert_ne!(f as usize, dead, "picked dead FIMM {f}");
        }
        // Before the fault fires it is still eligible.
        assert_eq!(c.least_loaded_fimm(SimTime::ZERO, None), 0);
    }

    #[test]
    fn read_backlog_excludes_programs() {
        let mut c = cluster();
        c.pending_read_pages[0] = 3;
        c.pending_prog_pages[0] = 9;
        assert_eq!(c.fimm_read_backlog_pages(0), 3);
        assert_eq!(c.fimm_backlog_pages(0), 12);
    }
}
