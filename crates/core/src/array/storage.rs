//! The cluster back end (paper §3.2–§3.3): endpoint service, the shared
//! ONFi bus, FIMM reads with failover and ECC retry, the write-back
//! buffer and programs, and garbage collection.

use triplea_fimm::Fimm;
use triplea_flash::{FlashCommand, FlashError, OpKind, OpTiming};
use triplea_ftl::{hal, FtlError, LogicalPage, PhysLoc};
use triplea_sim::trace::{TraceEventKind, TraceScope};
use triplea_sim::SimTime;

use super::{Engine, Ev};
use crate::config::ManagementMode;
use crate::request::IoOp;

/// Transient-read retries before falling back to a fault-immune recovery
/// read. Every failed attempt burns the die slot it reserved, so each
/// retry queues behind the last — the accumulated ECC re-read penalty.
const READ_RETRY_LIMIT: u32 = 8;

/// Redirection attempts for a write whose program hard-fails before the
/// page is dropped as unwritable.
const WRITE_REDIRECT_LIMIT: u32 = 4;

impl Engine {
    pub(super) fn on_ep_service(&mut self, now: SimTime, r: u32) {
        self.reqs[r].flash_start = now;
        match self.reqs[r].op {
            IoOp::Read => self.issue_flash_reads(now, r),
            IoOp::Write => {
                let pages = self.reqs[r].pages as usize;
                let c = self.reqs[r].cluster as usize;
                if self.clusters[c].wbuf_free() >= pages {
                    self.clusters[c].wbuf_used += pages;
                    self.do_write(now, r);
                } else {
                    self.reqs[r].wait_since = now;
                    self.reqs[r].stalled_wbuf = true;
                    self.clusters[c].wbuf_waiters.push_back(r);
                }
            }
        }
    }

    /// Issues one read command, preferring `fimm` but failing over to a
    /// live sibling when that module is dead, and retrying transient ECC
    /// faults (the last attempt is a fault-immune recovery read, so the
    /// loop terminates). Returns the serving FIMM and timing, or `None`
    /// when every module in the cluster is dead.
    pub(super) fn issue_read_op(
        &mut self,
        c: usize,
        fimm: u32,
        at: SimTime,
        package: u32,
        cmd: &FlashCommand,
    ) -> Option<(u32, OpTiming)> {
        let n = self.clusters[c].fimms.len() as u32;
        for off in 0..n {
            let f = ((fimm + off) % n) as usize;
            if self.fimm_refuses(c, f, at) {
                continue;
            }
            if off > 0 {
                self.faults.degraded_reads += 1;
            }
            let mut tries = 0;
            loop {
                let r = if tries < READ_RETRY_LIMIT {
                    self.flash_op(c, f, Fimm::begin_op, at, package, cmd)
                } else {
                    self.flash_op(c, f, Fimm::begin_op_recovery, at, package, cmd)
                };
                match r {
                    Ok(op) => return Some((f as u32, op)),
                    Err(e) if e.is_transient() => tries += 1,
                    Err(_) => break, // module failed under us: next sibling
                }
            }
        }
        self.faults.unserviceable_reads += 1;
        None
    }

    fn issue_flash_reads(&mut self, now: SimTime, r: u32) {
        let cluster = self.reqs[r].cluster;
        let c = cluster as usize;
        let n_fimms = self.cfg.shape.fimms_per_cluster;
        let topo = self.cfg.shape.topology;
        // The FIMM that serves a page (pages that migrated away
        // mid-flight are served locally as a fallback).
        let fimm_of = move |loc: &PhysLoc| {
            if topo.global_index(loc.cluster) == cluster {
                loc.fimm
            } else {
                loc.fimm % n_fimms
            }
        };

        // Eq. 3's budget and the detector debounce follow the owning
        // tenant's contract: a read for an interactive tenant trips (and
        // re-trips) laggard reshaping sooner than one for a batch tenant.
        let monitors =
            self.mode == ManagementMode::Autonomic && self.auto.params().laggard.monitors_latency();
        let budget = monitors.then(|| self.tenant_autonomics(self.reqs[r].tenant));

        // The pinned locations and the scratch buffers leave `self` while
        // the loop issues through `&mut self`; nothing it calls reads them.
        let locs = std::mem::take(&mut self.reqs[r].locs);
        let mut pages = std::mem::take(&mut self.scratch.pages);
        let mut cmds = std::mem::take(&mut self.scratch.cmds);
        // FIMMs in ascending order, each FIMM's pages in request order.
        let mut next = locs.iter().map(fimm_of).min();
        while let Some(home) = next {
            pages.clear();
            pages.extend(locs.iter().filter(|l| fimm_of(l) == home).map(|l| l.addr));
            cmds.clear();
            hal::compose(OpKind::Read, &pages, &mut cmds);
            for cc in cmds.iter() {
                let n = cc.cmd.page_count() as u32;
                let cmd_res = self.bus_transfer(c, now, 0);
                let served = self.issue_read_op(c, home, cmd_res.end, cc.package, &cc.cmd);
                // A dead home module fails over to a live sibling; from
                // here on, account everything against the serving FIMM.
                // When every module in the cluster is dead the data is
                // unreachable: the part completes with no flash time so
                // the request still terminates (issue_read_op counts it
                // unserviceable).
                let fimm = served.map_or(home, |(sf, _)| sf) as usize;
                self.clusters[c].pending_read_pages[fimm] += n as u64;
                self.sample_qdepth(now, c, fimm);
                let rs = &mut self.reqs[r];
                rs.bd.bus_wait += cmd_res.wait;
                rs.pending_parts += 1;
                let mut done = cmd_res.end;
                if let Some((_, op)) = served {
                    rs.bd.die_wait += op.die_wait;
                    rs.max_die_wait = rs.max_die_wait.max(op.die_wait);
                    rs.bd.fimm_service += (cmd_res.end - cmd_res.start) + (op.end - op.start);
                    if let Some(budget) = budget {
                        self.eq3_check(now, r, c, fimm as u32, op.die_wait, budget);
                    }
                    done = op.end;
                }
                self.queue.push(
                    done,
                    Ev::PartFlashDone {
                        req: r,
                        fimm: fimm as u32,
                        pages: n,
                    },
                );
            }
            next = locs.iter().map(fimm_of).filter(|&f| f > home).min();
        }
        self.reqs[r].locs = locs;
        self.scratch.pages = pages;
        self.scratch.cmds = cmds;
    }

    pub(super) fn on_part_flash_done(&mut self, now: SimTime, r: u32, fimm: u32, pages: u32) {
        let c = self.reqs[r].cluster as usize;
        self.clusters[c].pending_read_pages[fimm as usize] -= pages as u64;
        self.sample_qdepth(now, c, fimm as usize);
        let bytes = pages as u64 * self.page_bytes();
        let res = self.bus_transfer(c, now, bytes);
        {
            let rs = &mut self.reqs[r];
            rs.bd.bus_wait += res.wait;
            rs.bd.fimm_service += res.end - res.start;
        }
        self.queue.push(res.end, Ev::PartDataDone(r));
    }

    pub(super) fn on_part_data_done(&mut self, now: SimTime, r: u32) {
        self.reqs[r].pending_parts -= 1;
        if self.reqs[r].pending_parts > 0 {
            return;
        }
        if self.mode == ManagementMode::Autonomic {
            self.autonomic_read_complete(now, r);
        }
        self.respond(now, r);
    }

    fn do_write(&mut self, now: SimTime, r: u32) {
        let (lpn, pages, cluster, stalled) = {
            let rs = &self.reqs[r];
            (rs.lpn, rs.pages, rs.cluster, rs.stalled_wbuf)
        };
        let c = cluster as usize;
        let cluster_id = self.clusters[c].id;
        let redirect = self.mode == ManagementMode::Autonomic && stalled;
        for i in 0..pages as u64 {
            let l = LogicalPage(lpn.0 + i);
            let mut target = if redirect {
                // §4.2: stalled writes are redirected to adjacent FIMMs
                // within the same cluster.
                let f = self.clusters[c].least_loaded_fimm(now, None);
                self.auto.stats.write_redirects += 1;
                self.emit(TraceScope::cluster(cluster), || {
                    TraceEventKind::WriteRedirect { target_fimm: f }
                });
                Some((cluster_id, f))
            } else {
                None
            };
            let mut attempts = 0;
            let programmed = loop {
                let loc = match self.journaled(|ftl| ftl.write_alloc(l, target)) {
                    Ok(loc) => loc,
                    Err(FtlError::OutOfSpace { cluster: cid, fimm }) => {
                        let g = self.cluster_global(cid);
                        self.run_gc(now, g, fimm);
                        match self.journaled(|ftl| ftl.write_alloc(l, target)) {
                            Ok(loc) => loc,
                            // End of life: GC reclaimed nothing (every
                            // block retired or still live).
                            Err(_) => break None,
                        }
                    }
                    // Any other allocation failure means the page cannot
                    // be placed; the write is dropped and counted, not
                    // panicked on — injected faults must surface as
                    // degraded service, never as a crash.
                    Err(_) => break None,
                };
                let tc = self.cluster_global(loc.cluster) as usize;
                let pb = self.page_bytes();
                let res = self.bus_transfer(tc, now, pb);
                match self.flash_op(
                    tc,
                    loc.fimm as usize,
                    Fimm::begin_op,
                    res.end,
                    loc.addr.package,
                    &FlashCommand::program(&loc.addr.page),
                ) {
                    Ok(op) => break Some((loc, tc, op)),
                    Err(e) => {
                        // Hard program failure or dead module: quarantine
                        // the grown bad block and redirect the page to a
                        // live sibling FIMM (retrying write_alloc remaps
                        // and invalidates the failed page, so metadata
                        // stays consistent).
                        if matches!(e, FlashError::ProgramFailed(_)) {
                            self.journaled(|ftl| ftl.quarantine_block(loc));
                        }
                        self.faults.fault_write_redirects += 1;
                        attempts += 1;
                        if attempts > WRITE_REDIRECT_LIMIT {
                            break None;
                        }
                        let f = self.clusters[tc].least_loaded_fimm(now, Some(loc.fimm));
                        target = Some((loc.cluster, f));
                    }
                }
            };
            let Some((loc, tc, op)) = programmed else {
                // A real array fails the write; we count it and release
                // the buffered page.
                self.dropped_writes += 1;
                self.clusters[c].wbuf_used -= 1;
                continue;
            };
            self.clusters[tc].pending_prog_pages[loc.fimm as usize] += 1;
            self.queue.push(
                op.end,
                Ev::WriteProgrammed {
                    cluster: tc as u32,
                    fimm: loc.fimm,
                    buf_cluster: cluster,
                },
            );
        }
        // Writes acknowledge as soon as they are buffered (paper §4.2).
        self.respond(now, r);
    }

    pub(super) fn on_write_programmed(
        &mut self,
        now: SimTime,
        cluster: u32,
        fimm: u32,
        buf_cluster: u32,
    ) {
        // Buffer credit returns to the admitting cluster; the program
        // bookkeeping belongs to the cluster the page landed on.
        let b = buf_cluster as usize;
        let c = cluster as usize;
        self.clusters[b].wbuf_used -= 1;
        self.clusters[c].pending_prog_pages[fimm as usize] -= 1;
        self.maybe_gc(now, cluster, fimm);
        // Admit parked writes that now fit.
        while let Some(&head) = self.clusters[b].wbuf_waiters.front() {
            let need = self.reqs[head].pages as usize;
            if self.clusters[b].wbuf_free() < need {
                break;
            }
            self.clusters[b].wbuf_waiters.pop_front();
            self.clusters[b].wbuf_used += need;
            let wait_since = self.reqs[head].wait_since;
            self.reqs[head].bd.wbuf_wait += now - wait_since;
            self.do_write(now, head);
        }
    }

    pub(super) fn maybe_gc(&mut self, now: SimTime, cluster: u32, fimm: u32) {
        let id = self.clusters[cluster as usize].id;
        if self.ftl.needs_gc(id, fimm, self.cfg.gc_threshold_blocks) {
            self.run_gc(now, cluster, fimm);
        }
    }

    /// Runs one GC unit on a FIMM: metadata immediately, timing as
    /// background bus/die reservations (the paper defers sophisticated
    /// array-level GC scheduling to future work, §6.7).
    pub(super) fn run_gc(&mut self, now: SimTime, cluster: u32, fimm: u32) {
        if self.fimm_refuses(cluster as usize, fimm as usize, now) {
            return; // a dead module can neither be read nor erased
        }
        let Some(work) = self.gc_pick(cluster, fimm) else {
            return;
        };
        let c = cluster as usize;
        let f = fimm as usize;
        let pb = self.page_bytes();
        for &lpn in &work.valid {
            let old = self.ftl.locate(lpn);
            match self.journaled(|ftl| ftl.gc_rewrite(lpn, &work)) {
                Ok(Some(new_loc)) => {
                    // Read the live page out, move it over the bus, and
                    // program its new home. All reservations are made at
                    // issue time (FIFO per resource) — the die queues
                    // naturally serialise the read before the erase below.
                    let rd_end = match self.issue_read_op(
                        c,
                        f as u32,
                        now,
                        old.addr.package,
                        &FlashCommand::read(&old.addr.page),
                    ) {
                        Some((_, rd)) => rd.end,
                        None => now,
                    };
                    let _xfer = self.bus_transfer(c, now, 2 * pb);
                    if let Err(e) = self.flash_op(
                        c,
                        new_loc.fimm as usize,
                        Fimm::begin_op,
                        rd_end,
                        new_loc.addr.package,
                        &FlashCommand::program(&new_loc.addr.page),
                    ) {
                        // The rewrite's target block went bad mid-GC:
                        // retire it so the allocator stops handing out
                        // its remaining pages.
                        if matches!(e, FlashError::ProgramFailed(_)) {
                            self.journaled(|ftl| ftl.quarantine_block(new_loc));
                        }
                    }
                }
                Ok(None) => {}
                Err(_) => break,
            }
        }
        let erase_addr = triplea_flash::PageAddr {
            die: work.die,
            plane: self.cfg.shape.flash.plane_of_block(work.block),
            block: work.block,
            page: 0,
        };
        match self.flash_op(
            c,
            f,
            Fimm::begin_op,
            now,
            work.package,
            &FlashCommand::erase(&erase_addr),
        ) {
            Err(FlashError::EraseFailed(_)) => {
                // Injected erase hard-failure: the victim is a grown bad
                // block. Quarantine it instead of recycling so it never
                // returns to the free pool.
                self.faults.gc_failed_erases += 1;
                self.journaled(|ftl| ftl.gc_finish_failed(&work));
            }
            // A natural worn-out refusal keeps the seed semantics: the
            // allocator retires the block itself on recycle.
            _ => self.journaled(|ftl| ftl.gc_finish(&work)),
        }
    }
}
