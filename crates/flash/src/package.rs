//! The NAND package state machine: dies as busy-until servers, program
//! order enforcement, wear accounting.

use triplea_sim::{grown, FifoResource, Nanos, SimTime, SplitMix64};

use crate::command::{CmdMode, FlashCommand, OpKind};
use crate::error::FlashError;
use crate::fault::{FlashFaultProfile, PackageFaultStats};
use crate::geometry::{FlashGeometry, PageAddr};
use crate::timing::FlashTiming;
use crate::wear::WearReport;

/// Timing outcome of a flash operation accepted by a package.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpTiming {
    /// When the earliest involved die begins the operation.
    pub start: SimTime,
    /// When the last involved die finishes (for reads: data sits in the
    /// data register, ready for channel transfer).
    pub end: SimTime,
    /// Longest time any involved die was awaited — the package-level
    /// component of the paper's *storage contention*.
    pub die_wait: Nanos,
}

/// The program pointer of a grown bad block. A program or erase failure
/// retires the block, and a retired block is never programmed again, so
/// its next page has no other use.
const GROWN_BAD: u32 = u32::MAX;

/// One block's NAND state.
#[derive(Clone, Copy, Debug, Default)]
struct BlockState {
    /// The next page to program, or [`GROWN_BAD`].
    next_page: u32,
    /// Erases performed: P/E cycles consumed.
    erases: u32,
}

/// Operation counters for one package.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackageStats {
    /// Page reads executed.
    pub reads: u64,
    /// Page programs executed.
    pub programs: u64,
    /// Block erases executed.
    pub erases: u64,
}

/// One bare NAND flash package: dies, planes, registers, embedded
/// controller (paper §2.2). Pure metadata — no data bytes are stored.
///
/// The package enforces the NAND physical invariants that the FTL must
/// respect: in-order programming within a block, erase-before-rewrite,
/// and endurance-based block retirement.
#[derive(Clone, Debug)]
pub struct Package {
    geom: FlashGeometry,
    timing: FlashTiming,
    dies: Vec<FifoResource>,
    /// Per die, the state of each die-local block, up to the highest
    /// block programmed, erased or failed; a block past the end is
    /// erased, unworn and good. Empty until the first program or erase,
    /// so a package that only serves reads allocates none.
    blocks: Vec<Vec<BlockState>>,
    /// Erases across all blocks, kept as they happen for
    /// [`Package::total_erases`].
    total_erases: u64,
    stats: PackageStats,
    faults: FlashFaultProfile,
    fault_rng: SplitMix64,
    fault_stats: PackageFaultStats,
    /// Array-operation latency multiplier; 1 for a healthy package,
    /// raised by a FIMM slowdown fault to turn the module into a laggard.
    latency_scale: u32,
}

impl Package {
    /// Creates an idle, fully-erased package.
    pub fn new(geom: FlashGeometry, timing: FlashTiming) -> Self {
        Package {
            geom,
            timing,
            dies: (0..geom.dies).map(|_| FifoResource::new("die")).collect(),
            blocks: Vec::new(),
            total_erases: 0,
            stats: PackageStats::default(),
            faults: FlashFaultProfile::default(),
            fault_rng: SplitMix64::new(0),
            fault_stats: PackageFaultStats::default(),
            latency_scale: 1,
        }
    }

    /// Arms deterministic fault injection with the given probabilities
    /// and RNG seed. A quiet profile (all zeros) is free: no RNG draw and
    /// no timing change ever happens.
    pub fn set_faults(&mut self, profile: FlashFaultProfile, seed: u64) {
        self.faults = profile;
        self.fault_rng = SplitMix64::new(seed);
    }

    /// Multiplies every array-operation latency by `scale` (>= 1),
    /// modelling a degraded module. A scale of 1 restores full speed.
    pub fn set_latency_scale(&mut self, scale: u32) {
        self.latency_scale = scale.max(1);
    }

    /// The current array-operation latency multiplier.
    pub fn latency_scale(&self) -> u32 {
        self.latency_scale
    }

    /// Fault-event counters.
    pub fn fault_stats(&self) -> PackageFaultStats {
        self.fault_stats
    }

    /// The package geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geom
    }

    /// Operation counters.
    pub fn stats(&self) -> PackageStats {
        self.stats
    }

    /// Erases performed so far: the §6.7 wear figure the management
    /// module compares clusters by.
    pub fn total_erases(&self) -> u64 {
        self.total_erases
    }

    /// Wear snapshot.
    pub fn wear_report(&self) -> WearReport {
        let mut r = WearReport {
            total_erases: self.total_erases,
            endurance: self.geom.endurance,
            ..WearReport::default()
        };
        for &b in self.blocks.iter().flatten() {
            if b.erases > 0 {
                r.touched_blocks += 1;
                r.max_erase_count = r.max_erase_count.max(b.erases);
            }
            r.retired_blocks += u64::from(self.is_retired(b));
        }
        if r.touched_blocks > 0 {
            r.mean_erase_count = r.total_erases as f64 / r.touched_blocks as f64;
        }
        r
    }

    /// The state of the block holding `t`.
    fn block(&self, t: PageAddr) -> BlockState {
        self.blocks
            .get(t.die as usize)
            .and_then(|d| d.get(t.block as usize))
            .copied()
            .unwrap_or_default()
    }

    /// The state of the block holding `t`, grown into the table.
    fn block_mut(&mut self, t: PageAddr) -> &mut BlockState {
        // All dies at once: grown on demand, this level's capacity
        // would round up to four, 0.19 MiB more on `wide_uniform`.
        if self.blocks.is_empty() {
            self.blocks = vec![Vec::new(); self.geom.dies as usize];
        }
        grown(&mut self.blocks[t.die as usize], t.block as usize)
    }

    /// `true` once a block reached its endurance limit or grew bad.
    /// Retirement stops program and erase; the stored charge is still
    /// readable, which is what lets live data be copied off a grown bad
    /// block.
    fn is_retired(&self, b: BlockState) -> bool {
        b.next_page == GROWN_BAD || b.erases >= self.geom.endurance
    }

    /// Retires `t`'s block as a grown bad block after a hardware program
    /// or erase failure, whatever its erase count.
    fn grow_bad(&mut self, t: PageAddr) {
        self.block_mut(t).next_page = GROWN_BAD;
        self.fault_stats.blocks_force_retired += 1;
    }

    /// Validates and accepts a command, reserving die time.
    ///
    /// Returns the operation timing; the caller (the FIMM) layers channel
    /// transfer on top.
    ///
    /// # Errors
    ///
    /// Structural errors from [`FlashCommand::validate`], plus
    /// [`FlashError::ProgramOrder`], [`FlashError::OverwriteWithoutErase`]
    /// and [`FlashError::WornOut`] for violations of NAND physics.
    pub fn begin_op(&mut self, now: SimTime, cmd: &FlashCommand) -> Result<OpTiming, FlashError> {
        self.begin_op_impl(now, cmd, true)
    }

    /// Like [`Package::begin_op`] but immune to injected faults — models
    /// the last-resort read-retry/soft-decode path a controller falls
    /// back to once normal ECC retries are exhausted. NAND-physics errors
    /// (program order, wear-out, …) still apply.
    pub fn begin_op_recovery(
        &mut self,
        now: SimTime,
        cmd: &FlashCommand,
    ) -> Result<OpTiming, FlashError> {
        self.begin_op_impl(now, cmd, false)
    }

    fn begin_op_impl(
        &mut self,
        now: SimTime,
        cmd: &FlashCommand,
        allow_faults: bool,
    ) -> Result<OpTiming, FlashError> {
        cmd.validate(&self.geom)?;
        self.check_state(cmd)?;
        if allow_faults {
            if let Some(fault) = self.roll_fault(now, cmd) {
                return Err(fault);
            }
        }
        self.apply_state(cmd);

        let exe = self.exe_for(cmd);
        let timing = match cmd.mode {
            CmdMode::Normal | CmdMode::MultiPlane => {
                // Multi-plane targets run concurrently in the array: one
                // die reservation covers all planes.
                let die = cmd.targets[0].die as usize;
                let r = self.dies[die].reserve(now, exe);
                OpTiming {
                    start: r.start,
                    end: r.end,
                    die_wait: r.wait,
                }
            }
            CmdMode::Cache => {
                // Cache registers pipeline sequential pages on one die:
                // the die stays busy for n consecutive array operations
                // without waiting for channel transfers in between.
                let die = cmd.targets[0].die as usize;
                let n = cmd.targets.len() as u64;
                let r = self.dies[die].reserve(now, exe * n);
                OpTiming {
                    start: r.start,
                    end: r.end,
                    die_wait: r.wait,
                }
            }
            CmdMode::DieInterleave => {
                let mut start = SimTime::MAX;
                let mut end = SimTime::ZERO;
                let mut wait: Nanos = 0;
                for &t in cmd.targets {
                    let r = self.dies[t.die as usize].reserve(now, exe);
                    start = start.min(r.start);
                    end = end.max(r.end);
                    wait = wait.max(r.wait);
                }
                OpTiming {
                    start,
                    end,
                    die_wait: wait,
                }
            }
        };

        match cmd.kind {
            OpKind::Read => self.stats.reads += cmd.targets.len() as u64,
            OpKind::Program => self.stats.programs += cmd.targets.len() as u64,
            OpKind::Erase => self.stats.erases += cmd.targets.len() as u64,
        }
        Ok(timing)
    }

    /// Array-operation time for one command, including the degraded-mode
    /// latency multiplier.
    fn exe_for(&self, cmd: &FlashCommand) -> Nanos {
        let base = match cmd.kind {
            // MLC fast/slow page pairing: the slowest target governs the
            // array operation.
            OpKind::Program => cmd
                .targets
                .iter()
                .map(|t| self.timing.prog_nanos_for_page(t.page))
                .max()
                .unwrap_or_else(|| self.timing.exe_nanos(cmd.kind)),
            _ => self.timing.exe_nanos(cmd.kind),
        };
        base * self.latency_scale as u64
    }

    /// Draws the fault decision for `cmd`. On a fault the involved die
    /// still burns a full array operation (the failed attempt), hard
    /// failures retire the first target's block (which `check_state`
    /// found in service), and the matching
    /// [`FlashError`] is returned for the caller to classify via
    /// [`FlashError::is_transient`] / [`FlashError::is_device_failure`].
    fn roll_fault(&mut self, now: SimTime, cmd: &FlashCommand) -> Option<FlashError> {
        let prob = match cmd.kind {
            OpKind::Read => self.faults.read_transient_prob,
            OpKind::Program => self.faults.prog_fail_prob,
            OpKind::Erase => self.faults.erase_fail_prob,
        };
        if prob <= 0.0 || !self.fault_rng.chance(prob) {
            return None;
        }
        let target = cmd.targets[0];
        let exe = self.exe_for(cmd);
        self.dies[target.die as usize].reserve(now, exe);
        match cmd.kind {
            OpKind::Read => {
                self.fault_stats.read_transients += 1;
                Some(FlashError::ReadTransient(target))
            }
            OpKind::Program => {
                self.fault_stats.prog_failures += 1;
                self.grow_bad(target);
                Some(FlashError::ProgramFailed(target))
            }
            OpKind::Erase => {
                self.fault_stats.erase_failures += 1;
                self.grow_bad(target);
                Some(FlashError::EraseFailed(target))
            }
        }
    }

    fn check_state(&self, cmd: &FlashCommand) -> Result<(), FlashError> {
        if cmd.kind == OpKind::Read {
            return Ok(());
        }
        for &t in cmd.targets {
            let b = self.block(t);
            if self.is_retired(b) {
                return Err(FlashError::WornOut(t));
            }
            if cmd.kind == OpKind::Program {
                if t.page < b.next_page {
                    return Err(FlashError::OverwriteWithoutErase(t));
                }
                if t.page > b.next_page {
                    return Err(FlashError::ProgramOrder(t));
                }
            }
        }
        Ok(())
    }

    fn apply_state(&mut self, cmd: &FlashCommand) {
        if cmd.kind == OpKind::Read {
            return;
        }
        for &t in cmd.targets {
            let b = self.block_mut(t);
            if cmd.kind == OpKind::Program {
                b.next_page = t.page + 1;
            } else {
                b.next_page = 0;
                b.erases += 1;
                self.total_erases += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::PageAddr;

    fn pkg() -> Package {
        Package::new(FlashGeometry::default(), FlashTiming::default())
    }

    /// `true` when every die is idle at `now`.
    fn idle_at(p: &Package, now: SimTime) -> bool {
        p.dies.iter().all(|d| d.is_free_at(now))
    }

    fn a(die: u32, block: u32, page: u32) -> PageAddr {
        PageAddr {
            die,
            plane: block % 2,
            block,
            page,
        }
    }

    #[test]
    fn read_reserves_die() {
        let mut p = pkg();
        let t1 = p
            .begin_op(SimTime::ZERO, &FlashCommand::read(&a(0, 0, 0)))
            .unwrap();
        let t2 = p
            .begin_op(SimTime::ZERO, &FlashCommand::read(&a(0, 0, 1)))
            .unwrap();
        assert_eq!(t1.die_wait, 0);
        assert_eq!(t2.die_wait, 26_000, "second read waits one t_exe");
        assert_eq!(t2.start, t1.end);
        assert_eq!(p.stats().reads, 2);
    }

    #[test]
    fn dies_are_independent() {
        let mut p = pkg();
        p.begin_op(SimTime::ZERO, &FlashCommand::read(&a(0, 0, 0)))
            .unwrap();
        let other = p
            .begin_op(SimTime::ZERO, &FlashCommand::read(&a(1, 0, 0)))
            .unwrap();
        assert_eq!(other.die_wait, 0);
    }

    #[test]
    fn die_interleave_parallelises() {
        let mut p = pkg();
        let targets = [a(0, 0, 0), a(1, 0, 0)];
        let cmd = FlashCommand::multi(OpKind::Read, &targets, CmdMode::DieInterleave);
        let t = p.begin_op(SimTime::ZERO, &cmd).unwrap();
        assert_eq!(t.end - t.start, 26_000, "both dies in parallel");
    }

    #[test]
    fn multiplane_single_die_reservation() {
        let mut p = pkg();
        let targets = [a(0, 0, 5), a(0, 1, 5)];
        let cmd = FlashCommand::multi(OpKind::Read, &targets, CmdMode::MultiPlane);
        let t = p.begin_op(SimTime::ZERO, &cmd).unwrap();
        assert_eq!(t.end - t.start, 26_000, "planes run concurrently");
        assert!(!idle_at(&p, SimTime::from_nanos(1_000)));
        assert!(idle_at(&p, SimTime::from_nanos(26_000)));
    }

    #[test]
    fn cache_mode_chains_array_ops() {
        let mut p = pkg();
        let targets = [a(0, 0, 0), a(0, 0, 1), a(0, 0, 2)];
        let cmd = FlashCommand::multi(OpKind::Read, &targets, CmdMode::Cache);
        let t = p.begin_op(SimTime::ZERO, &cmd).unwrap();
        assert_eq!(t.end - t.start, 3 * 26_000);
    }

    #[test]
    fn program_order_enforced() {
        let mut p = pkg();
        assert!(p
            .begin_op(SimTime::ZERO, &FlashCommand::program(&a(0, 0, 0)))
            .is_ok());
        assert!(p
            .begin_op(SimTime::ZERO, &FlashCommand::program(&a(0, 0, 1)))
            .is_ok());
        // skipping page 2 -> page 3 is out of order
        assert_eq!(
            p.begin_op(SimTime::ZERO, &FlashCommand::program(&a(0, 0, 3))),
            Err(FlashError::ProgramOrder(a(0, 0, 3)))
        );
        // rewriting page 0 without erase is forbidden
        assert_eq!(
            p.begin_op(SimTime::ZERO, &FlashCommand::program(&a(0, 0, 0))),
            Err(FlashError::OverwriteWithoutErase(a(0, 0, 0)))
        );
    }

    #[test]
    fn erase_resets_program_pointer() {
        let mut p = pkg();
        p.begin_op(SimTime::ZERO, &FlashCommand::program(&a(0, 0, 0)))
            .unwrap();
        p.begin_op(SimTime::ZERO, &FlashCommand::erase(&a(0, 0, 0)))
            .unwrap();
        assert!(p
            .begin_op(SimTime::ZERO, &FlashCommand::program(&a(0, 0, 0)))
            .is_ok());
        assert_eq!(p.wear_report().total_erases, 1);
    }

    #[test]
    fn worn_out_block_rejects_ops() {
        let geom = FlashGeometry {
            endurance: 1,
            ..FlashGeometry::default()
        };
        let mut p = Package::new(geom, FlashTiming::default());
        p.begin_op(SimTime::ZERO, &FlashCommand::erase(&a(0, 0, 0)))
            .unwrap();
        assert_eq!(
            p.begin_op(SimTime::ZERO, &FlashCommand::erase(&a(0, 0, 0))),
            Err(FlashError::WornOut(a(0, 0, 0)))
        );
        assert_eq!(
            p.begin_op(SimTime::ZERO, &FlashCommand::program(&a(0, 0, 0))),
            Err(FlashError::WornOut(a(0, 0, 0)))
        );
        // other blocks unaffected
        assert!(p
            .begin_op(SimTime::ZERO, &FlashCommand::read(&a(0, 2, 0)))
            .is_ok());
    }

    #[test]
    fn mlc_pairing_affects_program_timing() {
        let mut p = Package::new(FlashGeometry::default(), FlashTiming::mlc());
        let fast = p
            .begin_op(SimTime::ZERO, &FlashCommand::program(&a(0, 0, 0)))
            .unwrap();
        let slow = p
            .begin_op(SimTime::ZERO, &FlashCommand::program(&a(0, 0, 1)))
            .unwrap();
        assert_eq!(fast.end - fast.start, 601_000, "LSB page");
        assert_eq!(slow.end - slow.start, 1_201_000, "MSB page 2x slower");
    }

    #[test]
    fn read_transient_consumes_die_and_retry_queues_behind() {
        let mut p = pkg();
        p.set_faults(
            FlashFaultProfile {
                read_transient_prob: 1.0,
                ..FlashFaultProfile::default()
            },
            7,
        );
        let err = p
            .begin_op(SimTime::ZERO, &FlashCommand::read(&a(0, 0, 0)))
            .unwrap_err();
        assert_eq!(err, FlashError::ReadTransient(a(0, 0, 0)));
        assert!(err.is_transient());
        assert!(!idle_at(&p, SimTime::ZERO), "failed attempt burns the die");
        assert_eq!(p.stats().reads, 0, "failed read not counted as served");
        assert_eq!(p.fault_stats().read_transients, 1);
        // The recovery path is immune and queues behind the burned slot:
        // exactly the ECC re-read penalty.
        let t = p
            .begin_op_recovery(SimTime::ZERO, &FlashCommand::read(&a(0, 0, 0)))
            .unwrap();
        assert_eq!(t.die_wait, 26_000);
        assert_eq!(p.stats().reads, 1);
    }

    #[test]
    fn program_failure_grows_bad_block() {
        let mut p = pkg();
        p.set_faults(
            FlashFaultProfile {
                prog_fail_prob: 1.0,
                ..FlashFaultProfile::default()
            },
            7,
        );
        let err = p
            .begin_op(SimTime::ZERO, &FlashCommand::program(&a(0, 0, 0)))
            .unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed(a(0, 0, 0)));
        assert!(err.is_device_failure());
        assert_eq!(p.fault_stats().prog_failures, 1);
        assert_eq!(p.fault_stats().blocks_force_retired, 1);
        assert_eq!(p.blocks[0][0].next_page, GROWN_BAD);
        assert_eq!(p.wear_report().retired_blocks, 1);
        // The grown bad block now rejects everything, faults or not.
        assert_eq!(
            p.begin_op_recovery(SimTime::ZERO, &FlashCommand::program(&a(0, 0, 0))),
            Err(FlashError::WornOut(a(0, 0, 0)))
        );
        // Other blocks are unaffected (and erase faults are off).
        assert!(p
            .begin_op(SimTime::ZERO, &FlashCommand::erase(&a(0, 2, 0)))
            .is_ok());
    }

    #[test]
    fn fault_pattern_is_seed_deterministic() {
        let profile = FlashFaultProfile {
            read_transient_prob: 0.3,
            ..FlashFaultProfile::default()
        };
        let run = |seed: u64| -> Vec<bool> {
            let mut p = pkg();
            p.set_faults(profile, seed);
            (0..64u64)
                .map(|i| {
                    p.begin_op(
                        SimTime::from_us(i * 100),
                        &FlashCommand::read(&a(0, 0, (i % 32) as u32)),
                    )
                    .is_err()
                })
                .collect()
        };
        assert_eq!(run(11), run(11), "equal seeds replay identically");
        assert_ne!(run(11), run(12), "different seeds differ");
        assert!(run(11).iter().any(|&f| f) && !run(11).iter().all(|&f| f));
    }

    #[test]
    fn latency_scale_slows_operations() {
        let mut p = pkg();
        p.set_latency_scale(4);
        let t = p
            .begin_op(SimTime::ZERO, &FlashCommand::read(&a(0, 0, 0)))
            .unwrap();
        assert_eq!(t.end - t.start, 4 * 26_000);
        assert_eq!(p.latency_scale(), 4);
        p.set_latency_scale(0); // clamped back to healthy
        assert_eq!(p.latency_scale(), 1);
    }

    #[test]
    fn quiet_profile_changes_nothing() {
        let mut armed = pkg();
        armed.set_faults(FlashFaultProfile::default(), 99);
        let mut plain = pkg();
        for i in 0..32u32 {
            let addr = a(0, 0, i);
            let cmd = FlashCommand::read(&addr);
            assert_eq!(
                armed.begin_op(SimTime::ZERO, &cmd),
                plain.begin_op(SimTime::ZERO, &cmd)
            );
        }
        assert_eq!(armed.fault_stats(), PackageFaultStats::default());
    }

    #[test]
    fn invalid_command_leaves_state_untouched() {
        let mut p = pkg();
        let targets = [a(0, 0, 0), a(0, 2, 0)];
        let bad = FlashCommand::multi(OpKind::Program, &targets, CmdMode::MultiPlane);
        assert!(p.begin_op(SimTime::ZERO, &bad).is_err());
        assert_eq!(p.stats().programs, 0);
        assert!(idle_at(&p, SimTime::ZERO));
        let pristine = WearReport {
            endurance: FlashGeometry::default().endurance,
            ..WearReport::default()
        };
        assert_eq!(p.wear_report(), pristine);
        assert!(p.blocks.is_empty(), "a rejected command allocates nothing");
    }

    /// Differential test of the block records against the wear tracker
    /// and next-page vectors they replaced.
    mod wear_spec {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        /// The package's wear accounting before it moved into the block
        /// records, kept as their executable specification: erase counts
        /// and a grown-bad set keyed by package-wide block index.
        struct WearTracker {
            endurance: u32,
            erase_counts: BTreeMap<u64, u32>,
            total_erases: u64,
            retired: u64,
            forced: BTreeSet<u64>,
        }

        impl WearTracker {
            fn new(endurance: u32) -> Self {
                WearTracker {
                    endurance,
                    erase_counts: BTreeMap::new(),
                    total_erases: 0,
                    retired: 0,
                    forced: BTreeSet::new(),
                }
            }

            fn record_erase(&mut self, block: u64) -> bool {
                if self.forced.contains(&block) {
                    return false;
                }
                let c = self.erase_counts.entry(block).or_insert(0);
                if *c >= self.endurance {
                    return false;
                }
                *c += 1;
                self.total_erases += 1;
                if *c >= self.endurance {
                    self.retired += 1;
                }
                true
            }

            fn erase_count(&self, block: u64) -> u32 {
                self.erase_counts.get(&block).copied().unwrap_or(0)
            }

            fn force_retire(&mut self, block: u64) -> bool {
                if self.is_retired(block) {
                    return false;
                }
                self.forced.insert(block);
                self.retired += 1;
                true
            }

            fn is_retired(&self, block: u64) -> bool {
                if self.retired == 0 && self.endurance > 0 {
                    return false;
                }
                self.forced.contains(&block) || self.erase_count(block) >= self.endurance
            }

            fn report(&self) -> WearReport {
                let touched = self.erase_counts.len() as u64;
                let max = self.erase_counts.values().copied().max().unwrap_or(0);
                let mean = if touched == 0 {
                    0.0
                } else {
                    self.total_erases as f64 / touched as f64
                };
                WearReport {
                    total_erases: self.total_erases,
                    touched_blocks: touched,
                    max_erase_count: max,
                    mean_erase_count: mean,
                    retired_blocks: self.retired,
                    endurance: self.endurance,
                }
            }
        }

        /// The package's NAND state checks and fault roll around the
        /// tracker, as they were: what every command must return.
        struct Spec {
            geom: FlashGeometry,
            wear: WearTracker,
            next_page: BTreeMap<(u32, u32), u32>,
            faults: FlashFaultProfile,
            rng: SplitMix64,
            forced: u64,
        }

        impl Spec {
            fn index(&self, t: PageAddr) -> u64 {
                let per_die = (self.geom.blocks_per_plane * self.geom.planes) as u64;
                t.die as u64 * per_die + t.block as u64
            }

            fn next(&self, t: PageAddr) -> u32 {
                self.next_page.get(&(t.die, t.block)).copied().unwrap_or(0)
            }

            fn run(&mut self, cmd: &FlashCommand, allow_faults: bool) -> Result<(), FlashError> {
                cmd.validate(&self.geom)?;
                for &t in cmd.targets {
                    if cmd.kind != OpKind::Read && self.wear.is_retired(self.index(t)) {
                        return Err(FlashError::WornOut(t));
                    }
                    if cmd.kind == OpKind::Program {
                        let next = self.next(t);
                        if t.page < next {
                            return Err(FlashError::OverwriteWithoutErase(t));
                        }
                        if t.page > next {
                            return Err(FlashError::ProgramOrder(t));
                        }
                    }
                }
                let prob = match cmd.kind {
                    OpKind::Read => self.faults.read_transient_prob,
                    OpKind::Program => self.faults.prog_fail_prob,
                    OpKind::Erase => self.faults.erase_fail_prob,
                };
                if allow_faults && prob > 0.0 && self.rng.chance(prob) {
                    let t = cmd.targets[0];
                    if cmd.kind == OpKind::Read {
                        return Err(FlashError::ReadTransient(t));
                    }
                    let index = self.index(t);
                    self.forced += u64::from(self.wear.force_retire(index));
                    return Err(if cmd.kind == OpKind::Program {
                        FlashError::ProgramFailed(t)
                    } else {
                        FlashError::EraseFailed(t)
                    });
                }
                for &t in cmd.targets {
                    let next = match cmd.kind {
                        OpKind::Read => continue,
                        OpKind::Program => t.page + 1,
                        OpKind::Erase => {
                            let index = self.index(t);
                            self.wear.record_erase(index);
                            0
                        }
                    };
                    self.next_page.insert((t.die, t.block), next);
                }
                Ok(())
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64 })]

            /// Over random program, erase, read and injected-failure
            /// sequences, with endurances from 0 to 3: every command
            /// returns what the specification returns, and after it the
            /// wear report, every block's erase count and retirement,
            /// and the grown-bad count agree.
            #[test]
            fn block_records_match_the_wear_tracker(
                endurance in 0u32..4,
                fail_permille in 0u32..400,
                seed in 0u64..1_000,
                // `(kind, die, block, pick)`: `pick` mostly programs the
                // block's next page, otherwise a page at random, which
                // NAND order may refuse; 7 runs the fault-immune path.
                ops in prop::collection::vec((0u32..8, 0u32..2, 0u32..8, 0u32..8), 50..300),
            ) {
                let geom = FlashGeometry {
                    dies: 2,
                    planes: 2,
                    blocks_per_plane: 4,
                    pages_per_block: 4,
                    page_size: 4096,
                    endurance,
                };
                let p_fail = fail_permille as f64 / 1_000.0;
                let faults = FlashFaultProfile {
                    read_transient_prob: p_fail,
                    prog_fail_prob: p_fail,
                    erase_fail_prob: p_fail,
                };
                let mut p = Package::new(geom, FlashTiming::default());
                p.set_faults(faults, seed);
                let mut spec = Spec {
                    geom,
                    wear: WearTracker::new(endurance),
                    next_page: BTreeMap::new(),
                    faults,
                    rng: SplitMix64::new(seed),
                    forced: 0,
                };
                for (i, &(kind, die, block, pick)) in ops.iter().enumerate() {
                    let (kind, mode, targets): (OpKind, CmdMode, Vec<PageAddr>) = match kind {
                        0..=3 => {
                            let at = a(die, block, 0);
                            let page = if pick < 6 {
                                spec.next(at).min(geom.pages_per_block - 1)
                            } else {
                                pick % geom.pages_per_block
                            };
                            (OpKind::Program, CmdMode::Normal, vec![a(die, block, page)])
                        }
                        4 | 5 => (OpKind::Erase, CmdMode::Normal, vec![a(die, block, 0)]),
                        6 => (OpKind::Read, CmdMode::Normal, vec![a(die, block, pick % 4)]),
                        // Both planes' blocks of a pair at once.
                        _ => (
                            OpKind::Erase,
                            CmdMode::MultiPlane,
                            vec![a(die, block & !1, 0), a(die, block | 1, 0)],
                        ),
                    };
                    let cmd = FlashCommand::multi(kind, &targets, mode);
                    let now = SimTime::from_us(i as u64);
                    let allow_faults = pick != 7;
                    let got = if allow_faults {
                        p.begin_op(now, &cmd)
                    } else {
                        p.begin_op_recovery(now, &cmd)
                    };
                    let want = spec.run(&cmd, allow_faults);
                    prop_assert_eq!(got.map(|_| ()), want, "command {}: {:?}", i, cmd);
                    prop_assert_eq!(p.wear_report(), spec.wear.report(), "after command {}", i);
                    prop_assert_eq!(p.total_erases(), spec.wear.report().total_erases);
                    prop_assert_eq!(p.fault_stats().blocks_force_retired, spec.forced);
                    for die in 0..geom.dies {
                        for block in 0..geom.blocks_per_plane * geom.planes {
                            let t = a(die, block, 0);
                            let b = p.block(t);
                            let index = spec.index(t);
                            prop_assert_eq!(b.erases, spec.wear.erase_count(index));
                            prop_assert_eq!(p.is_retired(b), spec.wear.is_retired(index));
                        }
                    }
                }
            }
        }
    }
}
