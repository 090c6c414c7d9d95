//! Crash recovery and self-healing: the journaled power cut and the
//! hot-spare rebuild of a dead FIMM.

use triplea_fimm::{Fimm, FimmFaultKind};
use triplea_flash::{FlashCommand, PageAddr};
use triplea_ftl::RebuildUnit;
use triplea_sim::trace::{TraceEventKind, TracePort, TraceScope};
use triplea_sim::{Nanos, SimTime};

use super::{Engine, Ev, Finished, GOLDEN};
use crate::config::{REMOUNT_BASE_NS, REPLAY_NS_PER_RECORD};
use crate::request::Stage;

/// Delay between a module death and the first hot-spare rebuild copy:
/// fault detection plus spare spin-up.
const REBUILD_DETECT_NS: Nanos = 100_000;

/// Pacing gap between rebuild units when the cluster is otherwise idle.
const REBUILD_GAP_NS: Nanos = 20_000;

/// Cap on the rebuild throttle's foreground-pressure multiplier.
const REBUILD_THROTTLE_MAX: u64 = 16;

/// A hot-spare rebuild in flight: one dead FIMM being reconstructed,
/// block by block, onto a standby module that replaces it on completion.
#[derive(Clone, Debug)]
pub(super) struct Rebuild {
    cluster: u32,
    fimm: u32,
    /// The instant the module died — start of the degraded window.
    died: SimTime,
    /// Restoration manifest; computed lazily at the first step so it
    /// reflects the FTL metadata at detection time.
    plan: Option<Vec<RebuildUnit>>,
    /// Next manifest unit to restore.
    cursor: usize,
    /// Live pages reconstruction-read from siblings so far.
    copied: u64,
    /// The standby module being programmed; consumed by the final swap,
    /// so `None` once the rebuild is done.
    spare: Option<Fimm>,
}

impl Engine {
    /// Schedules the configured power cut and claims one hot spare for
    /// each scheduled module death, in config order, until the spare
    /// pool runs dry. Runs once, when the array becomes a runner.
    pub(super) fn arm_recovery(&mut self) {
        if let Some(pl) = self.cfg.faults.power_loss {
            self.queue
                .push(SimTime::from_nanos(pl.at_ns), Ev::PowerLoss);
        }
        let mut spares = self.cfg.hot_spares;
        let events = self.cfg.faults.fimm_events;
        for ev in events.iter().flatten() {
            if spares == 0 {
                break;
            }
            if !matches!(ev.kind, FimmFaultKind::Dead) {
                continue;
            }
            let Some(cl) = self.clusters.get(ev.cluster as usize) else {
                continue;
            };
            if ev.fimm as usize >= cl.fimms.len() {
                continue;
            }
            // Two deaths of the same module consume one spare.
            if self
                .rebuilds
                .iter()
                .any(|rb| rb.cluster == ev.cluster && rb.fimm == ev.fimm)
            {
                continue;
            }
            spares -= 1;
            let mut spare = Fimm::new(
                self.cfg.shape.packages_per_fimm,
                self.cfg.shape.flash,
                self.cfg.flash_timing,
            );
            let fc = &self.cfg.faults;
            if !fc.flash.is_quiet() {
                // The spare gets its own RNG stream, disjoint (bit 16)
                // from every original module's `(cluster << 8) | fimm`.
                let k = ((ev.cluster as u64) << 8) | ev.fimm as u64 | 1 << 16;
                spare.set_fault_profile(fc.flash, fc.seed ^ (k + 1).wrapping_mul(GOLDEN));
            }
            if let Some(rec) = &self.recorder {
                spare.attach_trace(TracePort::attached(
                    rec.clone(),
                    TraceScope::fimm(ev.cluster, ev.fimm),
                ));
            }
            let died = SimTime::from_nanos(ev.at_ns);
            let idx = self.rebuilds.len() as u32;
            self.rebuilds.push(Rebuild {
                cluster: ev.cluster,
                fimm: ev.fimm,
                died,
                plan: None,
                cursor: 0,
                copied: 0,
                spare: Some(spare),
            });
            self.queue
                .push(died + REBUILD_DETECT_NS, Ev::RebuildStep(idx));
        }
    }

    /// `true` while some module is dead and its spare not yet in
    /// service: completions now feed the degraded-mode p99.
    pub(super) fn in_degraded_window(&self, now: SimTime) -> bool {
        self.rebuilds
            .iter()
            .any(|rb| rb.spare.is_some() && rb.died <= now)
    }

    /// The configured power cut. Everything volatile dies with it: the
    /// event calendar's in-flight work, every credit-queue occupancy and
    /// waiter, the endpoint write buffers, pending-page accounting, the
    /// management module's in-flight relocation claims, and the FTL's
    /// translation cache. Flash contents and journaled metadata survive;
    /// the mount-time recovery scan replays the journal's flushed tail
    /// onto its checkpoint. Host requests that have not arrived yet,
    /// submitted or not, arrive once the array is back up (latency is
    /// still measured from the original submit time, so the outage shows
    /// in the tail).
    ///
    /// Link and bus busy-until timelines are deliberately left alone:
    /// they are pure timing reservations with no queued state, and any
    /// residual reservation drains during the multi-millisecond remount
    /// window.
    pub(super) fn on_power_loss(&mut self, now: SimTime) {
        while self.queue.pop().is_some() {}
        let mut lost = 0u64;
        for r in 0..self.reqs.high_water() as u32 {
            let rs = &self.reqs[r];
            if rs.stage == Stage::Done {
                continue;
            }
            if self.stream {
                self.finished.push((rs.id, Finished::Lost));
            }
            self.free_slot(r);
            lost += 1;
        }
        self.rc_queue.power_cycle();
        if let Some(front) = self.front.as_mut() {
            // Submission-lane contents are volatile exactly like the RC
            // FIFO; the arrivals after the remount enter through fresh
            // arbitration. (The lane waiters were already counted lost
            // above — they sit at `Stage::AtRc`.)
            front.arbiter.power_cycle();
        }
        for sw in &mut self.switches {
            for q in &mut sw.port_queues {
                q.power_cycle();
            }
        }
        for cl in &mut self.clusters {
            cl.ep_queue.power_cycle();
            cl.wbuf_used = 0;
            cl.wbuf_waiters.clear();
            for p in &mut cl.pending_read_pages {
                *p = 0;
            }
            for p in &mut cl.pending_prog_pages {
                *p = 0;
            }
        }
        self.forget_inflight_relocs();
        let outcome = match self.ftl.power_loss() {
            Ok(o) => o,
            // Replay re-executes our own recorded history; divergence is
            // a simulator defect, never an injectable fault.
            Err(e) => unreachable!("journal recovery diverged: {e}"),
        };
        let remount = REMOUNT_BASE_NS + REPLAY_NS_PER_RECORD * outcome.replayed;
        let back_up = now + remount;
        self.recovery.power_losses += 1;
        self.recovery.journal_replayed += outcome.replayed;
        self.recovery.journal_dropped += outcome.dropped;
        self.recovery.aborted_clones += outcome.aborted_clones;
        self.recovery.lost_inflight_requests += lost;
        // Arrivals still at the cursor wait until the array is back up.
        let requeued = self.cursor.remaining() as u64;
        self.recovery.requeued_requests += requeued;
        self.recovery.remount_ns += remount;
        self.emit(TraceScope::array(), || TraceEventKind::PowerLoss {
            lost_requests: lost,
            requeued,
        });
        self.emit(TraceScope::array(), || TraceEventKind::JournalReplay {
            replayed: outcome.replayed,
            dropped: outcome.dropped,
        });
        self.cursor.not_before = back_up;
        // Rebuild copies in flight were lost with the calendar; every
        // unfinished rebuild resumes at its cursor once the array is up.
        for (i, rb) in self.rebuilds.iter().enumerate() {
            if rb.spare.is_some() {
                let at = (rb.died + REBUILD_DETECT_NS).max(back_up);
                self.queue.push(at, Ev::RebuildStep(i as u32));
            }
        }
    }

    /// One unit of hot-spare rebuild work: restore the programmed prefix
    /// of the next manifest block onto the spare, reconstruction-reading
    /// the live pages from the dead module's surviving siblings. All
    /// timing contends with foreground I/O (sibling dies, the shared
    /// bus); the pacing between units backs off linearly with the
    /// cluster's outstanding host reads so a busy array rebuilds slowly.
    pub(super) fn on_rebuild_step(&mut self, now: SimTime, i: u32) {
        let idx = i as usize;
        if self.rebuilds[idx].spare.is_none() {
            return;
        }
        let (cluster, fimm) = (self.rebuilds[idx].cluster, self.rebuilds[idx].fimm);
        let c = cluster as usize;
        if self.rebuilds[idx].plan.is_none() {
            let id = self.clusters[c].id;
            let plan = self.ftl.rebuild_manifest(id, fimm);
            let pages: u64 = plan.iter().map(|u| u.live.len() as u64).sum();
            self.rebuilds[idx].plan = Some(plan);
            self.emit(TraceScope::fimm(cluster, fimm), || {
                TraceEventKind::RebuildStart { pages }
            });
        }
        let cursor = self.rebuilds[idx].cursor;
        let unit = self.rebuilds[idx]
            .plan
            .as_ref()
            .and_then(|plan| plan.get(cursor).cloned());
        let Some(unit) = unit else {
            self.finish_rebuild(now, idx);
            return;
        };
        self.rebuilds[idx].cursor += 1;
        let plane = self.cfg.shape.flash.plane_of_block(unit.block);
        let pb = self.page_bytes();
        let n = self.clusters[c].fimms.len() as u32;
        let mut t = now;
        for page in 0..unit.programmed {
            let addr = PageAddr {
                die: unit.die,
                plane,
                block: unit.block,
                page,
            };
            if unit.live.binary_search(&page).is_ok() {
                // Reconstruction-read the live page from the first
                // surviving sibling and haul it (in and back out) over
                // the shared bus. Recovery reads are fault-immune — a
                // rebuild must not trip over its own transient ECC.
                let xfer = self.clusters[c].bus.transfer(t, 2 * pb);
                let sib = (1..n)
                    .map(|off| (fimm + off) % n)
                    .find(|&f| !self.clusters[c].fimms[f as usize].is_dead_at(t));
                if let Some(sf) = sib {
                    if let Ok(rd) = self.clusters[c].fimms[sf as usize].begin_op_recovery(
                        t,
                        unit.package,
                        &FlashCommand::read(&addr),
                    ) {
                        t = t.max(rd.end);
                    }
                }
                t = t.max(xfer.end);
                self.rebuilds[idx].copied += 1;
            }
            // Stale pages restore the programmed prefix without a source
            // read: NAND programs are strictly in-order within a block,
            // and the allocator will resume at page `programmed`.
            if let Some(spare) = self.rebuilds[idx].spare.as_mut() {
                if let Ok(op) = spare.begin_op(t, unit.package, &FlashCommand::program(&addr)) {
                    t = op.end;
                }
                // The spare can grow its own bad blocks under its fault
                // profile; the copy is best-effort and the FTL will
                // quarantine the block on first use, like any other.
            }
        }
        let backlog: u64 = self.clusters[c].pending_read_pages.iter().sum();
        let gap = REBUILD_GAP_NS * (1 + backlog.min(REBUILD_THROTTLE_MAX - 1));
        self.queue.push(t + gap, Ev::RebuildStep(i));
    }

    /// Swaps the rebuilt spare into the cluster. The dead module is
    /// retired — its wear and fault history still roll up into the final
    /// report — and the FIMM slot serves from the spare from now on.
    fn finish_rebuild(&mut self, now: SimTime, idx: usize) {
        let (cluster, fimm) = (self.rebuilds[idx].cluster, self.rebuilds[idx].fimm);
        let Some(spare) = self.rebuilds[idx].spare.take() else {
            return;
        };
        let old = std::mem::replace(
            &mut self.clusters[cluster as usize].fimms[fimm as usize],
            spare,
        );
        self.retired_fimms.push(old);
        let dur = now - self.rebuilds[idx].died;
        let copied = self.rebuilds[idx].copied;
        self.recovery.rebuilds_completed += 1;
        self.recovery.rebuild_pages += copied;
        self.recovery.rebuild_ns += dur;
        self.emit(TraceScope::fimm(cluster, fimm), || {
            TraceEventKind::RebuildDone {
                pages: copied,
                dur_ns: dur,
            }
        });
    }
}
