//! The autonomic management module (paper §4): hot-cluster detection
//! (Eq. 1), laggard detection (Eq. 3 and queue examination), and the
//! relocations they trigger — inter-cluster migration with shadow
//! cloning and intra-cluster reshaping. The detectors' bookkeeping
//! (claims, cooldowns, cold-sibling choice) is
//! [`AutonomicState`](crate::autonomic::AutonomicState).

use triplea_fimm::Fimm;
use triplea_flash::{FlashCommand, FlashError};
use triplea_ftl::{Ftl, FtlError, LogicalPage, PhysLoc};
use triplea_pcie::ClusterId;
use triplea_sim::trace::{TraceEventKind, TraceScope};
use triplea_sim::{Nanos, SimTime};

use super::{Engine, Ev};
use crate::config::{LAGGARD_IMBALANCE, MAX_INFLIGHT_RELOC_PAGES};

#[derive(Clone, Copy, Debug)]
enum RelocKind {
    /// Inter-cluster migration to cluster `dst` (global index).
    Migration {
        dst: u32,
    },
    Reshape,
}

#[derive(Clone, Copy, Debug)]
struct RelocPage {
    lpn: u64,
    /// Where the data lived when the relocation was decided.
    old: PhysLoc,
    /// Destination of the clone, once allocated.
    new: Option<PhysLoc>,
}

/// One relocation in flight: a migration or a reshape of a set of pages.
#[derive(Clone, Debug)]
pub(super) struct Reloc {
    pages: Vec<RelocPage>,
    kind: RelocKind,
    remaining: u32,
}

impl Engine {
    /// Eq. 1 hot-cluster detection on a completed read (paper §4.1),
    /// or the reshape a laggard stall called for.
    pub(super) fn autonomic_read_complete(&mut self, now: SimTime, r: u32) {
        let (laggard, escalate, max_die_wait, flash_start, pages) = {
            let rs = &self.reqs[r];
            (
                rs.laggard_fimm,
                rs.escalate,
                rs.max_die_wait,
                rs.flash_start,
                rs.pages,
            )
        };
        // Throttle: relocation programs are expensive (t_PROG each); cap
        // how much background reshaping can be in flight at once.
        if self.auto.inflight_pages() >= MAX_INFLIGHT_RELOC_PAGES {
            return;
        }
        if let Some(f) = laggard {
            // Act only on requests that really stalled on that FIMM, and
            // only while the stall is not explained by repair programs.
            // The reshape gate uses the owner's budget: an interactive
            // tenant's stall clears a lower bar than a batch tenant's.
            let (sla, _, _) = self.tenant_autonomics(self.reqs[r].tenant);
            let cl = self.reqs[r].cluster as usize;
            if max_die_wait > sla && self.clusters[cl].pending_prog_pages[f as usize] == 0 {
                self.reshape_request_pages(now, r, f);
            }
            return;
        }
        let t_latency = now - flash_start;
        let cluster = self.reqs[r].cluster as usize;
        let bus_util = self.clusters[cluster].bus.windowed_utilization(now);
        let bus_busy = bus_util >= self.cfg.autonomic.hot_bus_threshold;
        // A cluster currently absorbing relocation programs looks busy
        // because of repair traffic; defer judgement until it drains.
        let repairing = self.clusters[cluster]
            .pending_prog_pages
            .iter()
            .any(|&p| p > 0);
        let hot = max_die_wait == 0
            && bus_busy
            && !repairing
            && t_latency >= self.cfg.eq1_threshold_ns(pages);
        self.emit(TraceScope::cluster(cluster as u32), || {
            TraceEventKind::DetectorSample {
                bus_util_milli: (bus_util * 1000.0) as u32,
                latency_ns: t_latency,
                hot,
            }
        });
        if hot {
            self.auto.stats.hot_detections += 1;
        }
        if hot || escalate {
            self.start_migration(now, r);
        }
    }

    /// The smallest host-read backlog among `fimm`'s siblings in cluster
    /// `c`: the baseline both laggard detectors measure imbalance against.
    fn min_sibling_backlog(&self, c: usize, fimm: u32) -> u64 {
        (0..self.cfg.shape.fimms_per_cluster)
            .filter(|&f| f != fimm)
            .map(|f| self.clusters[c].fimm_read_backlog_pages(f))
            .min()
            .unwrap_or(0)
    }

    /// Eq. 3 latency laggard detection (paper §4.2) for one read command
    /// of request `r`, served by `fimm` of cluster `c` after waiting
    /// `die_wait` for its die. `budget` is the owner's
    /// `(sla, laggard_cooldown, escalation_cooldown)` from
    /// [`Engine::tenant_autonomics`].
    pub(super) fn eq3_check(
        &mut self,
        now: SimTime,
        r: u32,
        c: usize,
        fimm: u32,
        die_wait: Nanos,
        (sla, laggard_cd, escalation_cd): (Nanos, Nanos, Nanos),
    ) {
        // The stalled work queued on this FIMM exceeds the SLA budget ->
        // laggard.
        let backlog = self.clusters[c].fimm_read_backlog_pages(fimm);
        // Waits behind background relocation programs are repair
        // traffic, not host storage contention: skip detection while
        // this FIMM has programs in flight.
        let programs_pending = self.clusters[c].pending_prog_pages[fimm as usize] > 0;
        if programs_pending
            || self.cfg.eq3_backlog_ns(backlog.saturating_sub(1)) <= sla
            || die_wait <= sla
        {
            return;
        }
        let cluster = c as u32;
        let min_other = self.min_sibling_backlog(c, fimm);
        if backlog as f64 >= LAGGARD_IMBALANCE * (min_other.max(1) as f64) {
            // One FIMM holds the stalled work: reshape its data onto the
            // quiet siblings (§4.2).
            if self.register_laggard(cluster, fimm, now, laggard_cd) {
                self.reqs[r].laggard_fimm = Some(fimm);
            }
        } else if self.cfg.eq3_backlog_ns(min_other) > sla
            && self.register_escalation(cluster, now, escalation_cd)
        {
            // Every FIMM is equally backlogged: reshaping cannot help,
            // escalate to inter-cluster migration (§4.2, "all the FIMMs
            // are laggards").
            self.reqs[r].escalate = true;
        }
    }

    /// Queue-examination laggard detection (paper §4.2, Figure 8): when
    /// the EP queue has no room, count stalled entries per target FIMM;
    /// the plurality holder is a laggard, and near-uniform stalling means
    /// *all* FIMMs are laggards (escalate to inter-cluster migration).
    pub(super) fn examine_queue(&mut self, now: SimTime, cluster: u32) {
        let n_fimms = self.cfg.shape.fimms_per_cluster as usize;
        let c = cluster as usize;
        let n_waiters = self.clusters[c].ep_queue.waiting();
        if n_waiters < 2 {
            return;
        }
        let counts = &mut self.scratch.per_fimm;
        counts.fill(0);
        for w in self.clusters[c].ep_queue.waiter_ids() {
            if let Some(loc) = self.reqs[w as u32].locs.first() {
                counts[loc.fimm as usize] += 1;
            }
        }
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        if max == 0 {
            return;
        }
        let laggard = counts.iter().position(|&c| c == max).unwrap_or(0) as u32;
        // A full queue only signals *storage* contention when the FIMMs
        // actually hold stalled work beyond the SLA budget (otherwise
        // the pile-up is a link problem, handled by Eq. 1 migration).
        let waiters = self.clusters[c].ep_queue.waiter_ids().map(|w| w as u32);
        let (sla, laggard_cd, escalation_cd) = self.waiters_autonomics(waiters);
        let backlog_of = |f: u32| {
            self.cfg
                .eq3_backlog_ns(self.clusters[c].fimm_read_backlog_pages(f))
        };
        if max - min <= 1 && n_waiters >= n_fimms * 2 {
            // All FIMMs look equally stalled: escalate (§4.2) — but only
            // if every FIMM really holds stalled work, and at most once
            // per cooldown window per cluster.
            if (0..n_fimms as u32).all(|f| backlog_of(f) > sla)
                && self.register_escalation(cluster, now, escalation_cd)
            {
                for w in self.clusters[c].ep_queue.waiter_ids() {
                    self.reqs[w as u32].escalate = true;
                }
            }
            return;
        }
        if backlog_of(laggard) <= sla {
            return;
        }
        let min_other = self.min_sibling_backlog(c, laggard);
        let laggard_backlog = self.clusters[c].fimm_read_backlog_pages(laggard);
        if (laggard_backlog as f64) < LAGGARD_IMBALANCE * (min_other.max(1) as f64) {
            return;
        }
        // Repair traffic in progress on this FIMM: the stall is our own
        // doing, not a layout problem.
        if self.clusters[c].pending_prog_pages[laggard as usize] > 0 {
            return;
        }
        if !self.register_laggard(cluster, laggard, now, laggard_cd) {
            return;
        }
        for w in self.clusters[c].ep_queue.waiter_ids() {
            let rs = &mut self.reqs[w as u32];
            if rs.locs.first().map(|l| l.fimm) == Some(laggard) {
                rs.laggard_fimm = Some(laggard);
            }
        }
    }

    /// Intra-cluster data-layout reshaping (paper §4.2, Figure 8): move
    /// this request's pages off the laggard FIMM onto the least-loaded
    /// sibling, using shadow cloning (the data just arrived at the EP).
    fn reshape_request_pages(&mut self, now: SimTime, r: u32, laggard: u32) {
        let (lpn, pages, cluster) = {
            let rs = &self.reqs[r];
            (rs.lpn, rs.pages, rs.cluster)
        };
        let c = cluster as usize;
        let cluster_id = self.clusters[c].id;
        let on_laggard: Vec<u64> = (0..pages as u64)
            .map(|i| lpn.0 + i)
            .filter(|&l| {
                let loc = self.ftl.locate(LogicalPage(l));
                self.cluster_global(loc.cluster) == cluster && loc.fimm == laggard
            })
            .collect();
        let claimed = self.auto.claim_pages(on_laggard);
        if claimed.is_empty() {
            return;
        }
        let pages: Vec<RelocPage> = claimed
            .iter()
            .map(|&l| RelocPage {
                lpn: l,
                old: self.ftl.locate(LogicalPage(l)),
                new: None,
            })
            .collect();
        let n = pages.len() as u32;
        let reloc_id = self.relocs.len() as u32;
        self.relocs.push(Reloc {
            pages,
            kind: RelocKind::Reshape,
            remaining: n,
        });
        self.auto.stats.pages_reshaped += n as u64;
        let target = self.clusters[c].least_loaded_fimm(now, Some(laggard));
        self.emit(TraceScope::cluster(cluster), || {
            TraceEventKind::ReshapeBegin {
                target_fimm: target,
                pages: n,
            }
        });
        for idx in 0..n {
            self.program_relocated_page(now, reloc_id, idx, cluster, cluster_id, target);
        }
    }

    /// Issues the bus transfer + program that lands one relocated page on
    /// `fimm` of cluster `cluster`. The FTL is *not* remapped yet — the
    /// clone-then-unlink commit happens when the program completes
    /// ([`Engine::on_mig_page_done`]), so readers keep using the original
    /// copy in the meantime.
    fn program_relocated_page(
        &mut self,
        now: SimTime,
        reloc: u32,
        idx: u32,
        cluster: u32,
        cluster_id: ClusterId,
        fimm: u32,
    ) {
        let lpn = self.relocs[reloc as usize].pages[idx as usize].lpn;
        let prepare = |ftl: &mut Ftl| ftl.migrate_prepare(LogicalPage(lpn), cluster_id, fimm);
        let loc = match self.journaled(prepare) {
            Ok(loc) => loc,
            Err(FtlError::OutOfSpace { .. }) => {
                self.run_gc(now, cluster, fimm);
                match self.journaled(prepare) {
                    Ok(loc) => loc,
                    Err(_) => {
                        // Give up on this page; account the reloc slot.
                        self.finish_reloc_page(reloc, idx as usize);
                        return;
                    }
                }
            }
            Err(_) => {
                // Any other allocation failure (e.g. the destination
                // module died between pick and prepare): abandon this
                // page's relocation. The original mapping is untouched,
                // so readers lose nothing.
                self.finish_reloc_page(reloc, idx as usize);
                return;
            }
        };
        self.relocs[reloc as usize].pages[idx as usize].new = Some(loc);
        let c = cluster as usize;
        let pb = self.page_bytes();
        let res = self.bus_transfer(c, now, pb);
        match self.flash_op(
            c,
            fimm as usize,
            Fimm::begin_op,
            res.end,
            loc.addr.package,
            &FlashCommand::program(&loc.addr.page),
        ) {
            Ok(op) => {
                self.clusters[c].relocs_in += 1;
                self.clusters[c].pending_prog_pages[fimm as usize] += 1;
                self.queue.push(op.end, Ev::MigPageDone { reloc, idx });
            }
            Err(e) => {
                // The clone's program failed mid-copy (bad block or dead
                // module): roll the migration of this page back. The
                // original mapping was never touched — clone-then-unlink
                // commits only on program completion — so readers lose
                // nothing; just discard the clone and close accounting.
                if matches!(e, FlashError::ProgramFailed(_)) {
                    self.journaled(|ftl| ftl.quarantine_block(loc));
                }
                self.journaled(|ftl| ftl.migrate_abort(LogicalPage(lpn), loc));
                self.relocs[reloc as usize].pages[idx as usize].new = None;
                self.faults.migration_rollbacks += 1;
                self.emit(TraceScope::fimm(cluster, fimm), || {
                    TraceEventKind::RelocRollback { lpn }
                });
                self.finish_reloc_page(reloc, idx as usize);
            }
        }
    }

    fn finish_reloc_page(&mut self, reloc: u32, idx: usize) {
        let rl = &mut self.relocs[reloc as usize];
        let lpn = rl.pages[idx].lpn;
        if rl.remaining == 0 {
            // The relocation was already torn down (power cut); nothing
            // left to account.
            return;
        }
        rl.remaining -= 1;
        let done = rl.remaining == 0;
        let kind = rl.kind;
        self.auto.release_pages(&[lpn]);
        if done && matches!(kind, RelocKind::Migration { .. }) {
            self.auto.stats.migrations_completed += 1;
        }
    }

    /// Drops the management module's volatile state at a power cut: the
    /// in-flight page claims, and every relocation's outstanding pages
    /// (their programs died with the calendar).
    pub(super) fn forget_inflight_relocs(&mut self) {
        self.auto.forget_inflight();
        for rl in &mut self.relocs {
            rl.remaining = 0;
        }
    }

    /// Inter-cluster autonomic data migration (paper §4.1, Figure 7):
    /// clone the hot extent to a cold sibling cluster under the same
    /// switch, overlapping with the data's journey to the host (shadow
    /// cloning), then unlink the original.
    fn start_migration(&mut self, now: SimTime, r: u32) {
        let (lpn, pages, cluster) = {
            let rs = &self.reqs[r];
            (rs.lpn, rs.pages, rs.cluster)
        };
        let src_id = self.clusters[cluster as usize].id;
        let extent = self.auto.params().migration_extent_pages.max(pages) as u64;
        let base = lpn.0 - lpn.0 % extent;
        let limit = self.cfg.shape.total_pages();

        let candidates: Vec<u64> = (base..(base + extent).min(limit))
            .filter(|&l| {
                let loc = self.ftl.locate(LogicalPage(l));
                self.cluster_global(loc.cluster) == cluster
            })
            .collect();
        let claimed = self.auto.claim_pages(candidates);
        if claimed.is_empty() {
            return;
        }
        let topo = self.cfg.shape.topology;
        let dst = {
            let clusters = &self.clusters;
            self.auto.pick_cold_sibling(
                &topo,
                src_id,
                |g| clusters[g as usize].bus.windowed_utilization(now),
                |g| clusters[g as usize].total_erases(),
            )
        };
        let Some(dst_id) = dst else {
            self.auto.release_pages(&claimed);
            return;
        };
        self.auto.stats.migrations_started += 1;
        self.auto.stats.pages_migrated += claimed.len() as u64;
        let dst_global = topo.global_index(dst_id);
        self.emit(TraceScope::cluster(cluster), || {
            TraceEventKind::MigrationBegin {
                dst_cluster: dst_global,
                pages: claimed.len() as u32,
            }
        });

        // Shadow cloning: the request's own pages already sit in the EP;
        // every other extent page (and, in naive mode, all of them) must
        // be re-read from the hot cluster first, stealing bus and die
        // time from foreground I/O (the Figure 16b vs 16c ablation).
        let naive = self.auto.params().naive_migration;
        let req_range = lpn.0..lpn.0 + pages as u64;
        let c = cluster as usize;
        let mut t_ready = now;
        let pb = self.page_bytes();
        for &l in &claimed {
            let in_ep = !naive && req_range.contains(&l);
            if in_ep {
                continue;
            }
            let loc = self.ftl.locate(LogicalPage(l));
            // Reserve the bus and the die at issue time: busy totals are
            // exact and foreground traffic interleaves FIFO, instead of
            // stalling behind idle-but-reserved busy-until gaps.
            let xfer = self.bus_transfer(c, now, pb);
            if let Some((_, op)) = self.issue_read_op(
                c,
                loc.fimm,
                now,
                loc.addr.package,
                &FlashCommand::read(&loc.addr.page),
            ) {
                t_ready = t_ready.max(op.end);
            }
            t_ready = t_ready.max(xfer.end);
        }

        let reloc_pages: Vec<RelocPage> = claimed
            .iter()
            .map(|&l| RelocPage {
                lpn: l,
                old: self.ftl.locate(LogicalPage(l)),
                new: None,
            })
            .collect();
        let reloc_id = self.relocs.len() as u32;
        self.relocs.push(Reloc {
            pages: reloc_pages,
            kind: RelocKind::Migration { dst: dst_global },
            remaining: claimed.len() as u32,
        });

        // Peer-to-peer hop: source EP -> switch -> destination EP.
        let s = (cluster / topo.clusters_per_switch) as usize;
        let src_port = (cluster % topo.clusters_per_switch) as usize;
        let dst_port = (dst_global % topo.clusters_per_switch) as usize;
        let bytes = self.wire_bytes(claimed.len() as u32);
        let (_, up_arrive) = self.transmit(s, Some(src_port), false, t_ready, bytes);
        let at = up_arrive + self.cfg.pcie.switch_route_ns;
        let (_, arrive) = self.transmit(s, Some(dst_port), true, at, bytes);

        self.queue.push(arrive, Ev::MigArrive(reloc_id));
    }

    /// A migration's pages reach the destination endpoint: program each
    /// onto the destination's least-loaded FIMM.
    pub(super) fn on_mig_arrive(&mut self, now: SimTime, m: u32) {
        let rl = &self.relocs[m as usize];
        let RelocKind::Migration { dst } = rl.kind else {
            unreachable!("only migrations travel the fabric");
        };
        let n = rl.pages.len() as u32;
        let dst_id = self.clusters[dst as usize].id;
        for idx in 0..n {
            let fimm = self.clusters[dst as usize].least_loaded_fimm(now, None);
            self.program_relocated_page(now, m, idx, dst, dst_id, fimm);
        }
    }

    pub(super) fn on_mig_page_done(&mut self, now: SimTime, reloc: u32, idx: u32) {
        // Clone-then-unlink: the copy is durable, switch readers over
        // (`migrate_commit` drops the clone instead if a host write
        // superseded the data mid-clone). `new` is set just before the
        // program's event is pushed, and only a failed program, which
        // pushes none, clears it.
        let page = self.relocs[reloc as usize].pages[idx as usize];
        let new_loc = page
            .new
            .expect("a programmed relocation page has a new home");
        let cluster = self.cluster_global(new_loc.cluster);
        let fimm = new_loc.fimm;
        self.clusters[cluster as usize].pending_prog_pages[fimm as usize] -= 1;
        self.journaled(|ftl| ftl.migrate_commit(LogicalPage(page.lpn), new_loc, page.old));
        self.emit(TraceScope::fimm(cluster, fimm), || {
            TraceEventKind::RelocCommit { lpn: page.lpn }
        });
        self.maybe_gc(now, cluster, fimm);
        self.finish_reloc_page(reloc, idx as usize);
    }
}
