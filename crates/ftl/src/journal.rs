//! Journaled FTL metadata: power-loss consistency for the host-side map.
//!
//! Triple-A keeps the entire translation map in the management module's
//! DRAM (§6.6) — volatile memory. A real array must survive losing that
//! DRAM at an arbitrary instant, so the FTL can run with a *metadata
//! journal*: an ordered log of every logical mutation (writes, clone
//! prepare/commit/abort, quarantines, GC block retirements) since the
//! last durable **checkpoint** of the full translation state.
//!
//! The model mirrors a group-committed journal device:
//!
//! * every mutation appends one [`JournalRecord`];
//! * records become durable in batches — once `flush_every` records
//!   accumulate past the flush watermark, the batch is flushed;
//! * once `checkpoint_every` flushed records accumulate, the FTL takes a
//!   fresh checkpoint and truncates the journal.
//!
//! The checkpoint is a *shadow* FTL with no journal of its own, copied
//! once when journaling is enabled and from then on advanced by
//! *replaying* the flushed records onto it — the same re-drive a
//! recovery scan performs. Taking a checkpoint therefore costs about one
//! page write per record, never a copy of the whole map.
//!
//! On power loss ([`Ftl::power_loss`](crate::Ftl::power_loss)) everything
//! volatile is discarded: un-flushed journal records are lost, and the
//! mapping cache (if any) restarts cold. The mount-time recovery scan
//! replays the flushed records onto the checkpoint in order, and the live
//! state takes the checkpoint's with one copy. Because allocation is
//! fully deterministic, replay reproduces the exact pre-crash metadata;
//! each record carries the physical location the original operation
//! produced, so replay doubles as a self-check — any divergence surfaces
//! as a typed [`RecoveryError`](crate::RecoveryError) instead of silent
//! corruption. A divergence found while taking a checkpoint is kept and
//! returned by the next power loss. Clone-then-unlink migrations caught
//! mid-flight (a prepared clone whose commit/abort never flushed) are
//! rolled back during the scan, exactly like an aborted migration, so
//! `verify_integrity` holds afterwards.

use triplea_pcie::ClusterId;

use crate::error::RecoveryError;
use crate::ftl_impl::{Ftl, WriteClass};
use crate::shape::{LogicalPage, PhysLoc};

/// Durability cadence of the metadata journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalConfig {
    /// Records per group commit: a batch of this many records past the
    /// flush watermark becomes durable at once. Values below 1 are
    /// treated as 1 (flush every record).
    pub flush_every: u32,
    /// Flushed records that trigger a fresh checkpoint (the records are
    /// replayed onto the checkpoint) and journal truncation. Values below
    /// 1 are treated as 1.
    pub checkpoint_every: u32,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            flush_every: 8,
            checkpoint_every: 4_096,
        }
    }
}

/// Counters describing journal activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct JournalStats {
    /// Records appended over the journal's lifetime.
    pub appended: u64,
    /// Group commits performed.
    pub flushes: u64,
    /// Checkpoints taken (excluding the one implicit in enabling the
    /// journal, including the one closing each recovery scan).
    pub checkpoints: u64,
    /// Records replayed by mount-time recovery scans.
    pub replayed: u64,
    /// Un-flushed records lost to power cuts.
    pub dropped: u64,
    /// Power-loss events survived.
    pub power_losses: u64,
}

/// What a mount-time recovery scan did; returned by
/// [`Ftl::power_loss`](crate::Ftl::power_loss).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Flushed journal records replayed onto the checkpoint.
    pub replayed: u64,
    /// Un-flushed records discarded with the volatile state.
    pub dropped: u64,
    /// Mid-flight migration clones rolled back by the scan (prepared but
    /// never committed or aborted before the cut).
    pub aborted_clones: u64,
}

/// One logical metadata mutation, with the physical outcome the original
/// execution produced (replay re-derives and cross-checks it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JournalRecord {
    /// A page write: host write or GC rewrite.
    Write {
        lpn: LogicalPage,
        cluster: ClusterId,
        fimm: u32,
        class: WriteClass,
        loc: PhysLoc,
    },
    /// First half of clone-then-unlink migration.
    Prepare {
        lpn: LogicalPage,
        cluster: ClusterId,
        fimm: u32,
        loc: PhysLoc,
    },
    /// Second half: unlink the original (or discard a stale clone).
    Commit {
        lpn: LogicalPage,
        new_loc: PhysLoc,
        expected_old: PhysLoc,
        committed: bool,
    },
    /// Mid-flight rollback of a prepared clone.
    Abort {
        lpn: LogicalPage,
        new_loc: PhysLoc,
        ok: bool,
    },
    /// Grown-bad-block quarantine after a program/erase failure.
    Quarantine { loc: PhysLoc },
    /// GC victim finalisation: `ok` recycled the block, `!ok` retired it
    /// after a failed erase.
    GcFinish {
        cluster: ClusterId,
        fimm: u32,
        package: u32,
        die: u32,
        block: u32,
        ok: bool,
    },
}

/// The durable translation state the journal's records apply to.
#[derive(Clone, Debug)]
pub(crate) struct Checkpoint {
    /// A shadow FTL with no journal, mapping cache or trace: the state as
    /// of the last checkpoint, advanced only by replay.
    pub(crate) ftl: Ftl,
    /// Migration clones prepared on the shadow but neither committed nor
    /// aborted: replay's outstanding list, carried from one checkpoint to
    /// the next because the `Prepare` records are truncated with the
    /// journal. Recovery rolls back the ones still open.
    pub(crate) clones: Vec<(LogicalPage, PhysLoc)>,
}

/// The journal proper: last checkpoint + ordered records since.
#[derive(Clone, Debug)]
pub(crate) struct Journal {
    pub(crate) cfg: JournalConfig,
    pub(crate) checkpoint: Checkpoint,
    pub(crate) records: Vec<JournalRecord>,
    /// Records `[..flushed]` are durable; the tail is volatile.
    pub(crate) flushed: usize,
    pub(crate) stats: JournalStats,
    /// The first divergence found while replaying onto the checkpoint.
    /// The checkpoint stops advancing once set, and every later power
    /// loss reports it.
    pub(crate) diverged: Option<RecoveryError>,
}

impl Journal {
    /// A journal whose checkpoint is `shadow` (an FTL with no journal).
    pub(crate) fn new(cfg: JournalConfig, shadow: Ftl) -> Self {
        Journal {
            cfg,
            checkpoint: Checkpoint {
                ftl: shadow,
                clones: Vec::new(),
            },
            records: Vec::new(),
            flushed: 0,
            stats: JournalStats::default(),
            diverged: None,
        }
    }

    /// Appends a record and applies the group-commit flush cadence.
    /// Returns `true` when the flushed prefix has grown large enough
    /// that the owner should take a checkpoint.
    pub(crate) fn append(&mut self, rec: JournalRecord) -> bool {
        self.records.push(rec);
        self.stats.appended += 1;
        let flush_every = self.cfg.flush_every.max(1) as usize;
        if self.records.len() - self.flushed >= flush_every {
            self.flushed = self.records.len();
            self.stats.flushes += 1;
        }
        self.flushed >= self.cfg.checkpoint_every.max(1) as usize
    }

    /// Takes a checkpoint: replays the flushed records onto the shadow
    /// and truncates the journal, volatile tail included. Returns the
    /// number of records replayed. A divergence is kept in
    /// [`Self::diverged`] rather than raised.
    pub(crate) fn checkpoint(&mut self) -> u64 {
        if self.diverged.is_none() {
            let cp = &mut self.checkpoint;
            self.diverged = cp
                .ftl
                .replay(&self.records[..self.flushed], &mut cp.clones)
                .err();
        }
        let replayed = self.flushed as u64;
        self.records.clear();
        self.flushed = 0;
        self.stats.checkpoints += 1;
        replayed
    }

    /// The mount-time recovery scan: drops the volatile tail, replays the
    /// durable records onto the checkpoint (closing the scan with a
    /// fresh checkpoint) and rolls back the clones still open there. The
    /// caller then copies the checkpoint's state into the live FTL.
    ///
    /// # Errors
    ///
    /// The divergence found by this or any earlier replay.
    pub(crate) fn recover(&mut self) -> Result<RecoveryOutcome, RecoveryError> {
        let dropped = (self.records.len() - self.flushed) as u64;
        let replayed = self.checkpoint();
        if let Some(e) = self.diverged {
            return Err(e);
        }
        // A prepared clone whose commit/abort never became durable is
        // rolled back, exactly like an aborted migration.
        let cp = &mut self.checkpoint;
        let aborted_clones = cp.clones.len() as u64;
        for (lpn, loc) in cp.clones.drain(..) {
            cp.ftl.migrate_abort(lpn, loc);
        }
        self.stats.replayed += replayed;
        self.stats.dropped += dropped;
        self.stats.power_losses += 1;
        Ok(RecoveryOutcome {
            replayed,
            dropped,
            aborted_clones,
        })
    }
}
