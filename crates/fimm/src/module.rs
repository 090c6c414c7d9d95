//! The FIMM itself: eight packages behind one connector.

use triplea_flash::{
    FlashCommand, FlashError, FlashFaultProfile, FlashGeometry, FlashTiming, OpTiming, Package,
    PackageFaultStats, PageAddr, WearReport,
};
use triplea_sim::SimTime;

/// What happens to a FIMM when its scheduled fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FimmFaultKind {
    /// The module stops answering entirely; every operation returns
    /// [`FlashError::ModuleFailed`].
    Dead,
    /// Every package on the module slows by the given latency multiplier,
    /// turning the FIMM into a laggard (paper §4.2, Eq. 3).
    Slowdown(u32),
}

/// Address of a page within a FIMM: which package (chip-enable) plus the
/// package-internal page address.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FimmAddr {
    /// Package index on the module (selected via its chip-enable pin).
    pub package: u32,
    /// Address within that package.
    pub page: PageAddr,
}

impl std::fmt::Display for FimmAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pkg{}/{}", self.package, self.page)
    }
}

/// Aggregated operation counters for a FIMM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FimmStats {
    /// Page reads across all packages.
    pub reads: u64,
    /// Page programs across all packages.
    pub programs: u64,
    /// Block erases across all packages.
    pub erases: u64,
}

/// A Flash Inline Memory Module (paper §3.3): a passive board of NAND
/// packages with no on-module controller, DRAM, or firmware — those all
/// live host-side in Triple-A.
#[derive(Clone, Debug)]
pub struct Fimm {
    packages: Vec<Package>,
    /// Scheduled whole-module faults, ordered by `(fire time, insertion
    /// order)`. Each fires lazily the first time the simulation clock
    /// passes its instant; faults are permanent.
    faults: Vec<(SimTime, FimmFaultKind)>,
    /// How many leading entries of `faults` have already been applied.
    applied: usize,
    /// Cumulative latency multiplier from every slowdown fired so far.
    latency_scale: u32,
    /// Whether the dead module has refused an operation yet: its first
    /// refusal is when the death becomes visible.
    refused: bool,
}

impl Fimm {
    /// Creates a FIMM with `n_packages` identical packages.
    ///
    /// # Panics
    ///
    /// Panics if `n_packages == 0`.
    pub fn new(n_packages: u32, geom: FlashGeometry, timing: FlashTiming) -> Self {
        assert!(n_packages > 0, "a FIMM needs at least one package");
        Fimm {
            packages: (0..n_packages)
                .map(|_| Package::new(geom, timing))
                .collect(),
            faults: Vec::new(),
            applied: 0,
            latency_scale: 1,
            refused: false,
        }
    }

    /// Schedules a permanent whole-module fault to fire at `at`.
    ///
    /// Any number of faults may be queued, including several at the same
    /// instant (and at `t = 0`). Application order is deterministic and
    /// documented: faults fire sorted by `(fire time, scheduling
    /// order)`. At a shared instant, [`FimmFaultKind::Dead`] dominates —
    /// operations are refused from that instant onward regardless of
    /// what else is queued there — while co-scheduled
    /// [`FimmFaultKind::Slowdown`]s compound multiplicatively (their
    /// mutual order is therefore unobservable). Schedule faults before
    /// the first operation; the queue is consumed as the clock advances.
    pub fn schedule_fault(&mut self, at: SimTime, kind: FimmFaultKind) {
        let pos = self.faults.partition_point(|&(t, _)| t <= at);
        self.faults.insert(pos, (at, kind));
    }

    /// All scheduled module faults, in their deterministic firing order.
    pub fn scheduled_faults(&self) -> &[(SimTime, FimmFaultKind)] {
        &self.faults
    }

    /// `true` once a scheduled [`FimmFaultKind::Dead`] fault has fired:
    /// the module no longer answers and its data must be served (or
    /// redirected) elsewhere. A pure query; a caller that is about to
    /// use the module asks [`Fimm::refuses_at`] instead.
    pub fn is_dead_at(&self, now: SimTime) -> bool {
        self.faults
            .iter()
            .any(|&(at, k)| k == FimmFaultKind::Dead && now >= at)
    }

    /// Whether the module is dead at `now` and so refuses the operation
    /// its caller was about to issue. The first refusal marks the death
    /// as visible (see [`Fimm::faults_fired`]), whether the caller then
    /// skips the module or calls [`Fimm::begin_op`] on it.
    pub fn refuses_at(&mut self, now: SimTime) -> bool {
        let dead = self.is_dead_at(now);
        self.refused |= dead;
        dead
    }

    /// Arms deterministic per-package NAND fault injection, deriving a
    /// distinct RNG seed per package from `seed`.
    pub fn set_fault_profile(&mut self, profile: FlashFaultProfile, seed: u64) {
        for (i, p) in self.packages.iter_mut().enumerate() {
            p.set_faults(
                profile,
                seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
        }
    }

    /// Aggregated NAND fault counters across packages.
    pub fn fault_stats(&self) -> PackageFaultStats {
        let mut acc = PackageFaultStats::default();
        for p in &self.packages {
            acc.merge(&p.fault_stats());
        }
        acc
    }

    /// How many scheduled faults have fired so far: every slowdown
    /// applied, plus one once a dead module first refused an operation.
    /// Faults fire lazily inside [`Fimm::begin_op`] and
    /// [`Fimm::refuses_at`], so a caller that compares this before and
    /// after the call learns which fired: the death when the module
    /// refused, slowdowns otherwise.
    pub fn faults_fired(&self) -> usize {
        self.applied + self.refused as usize
    }

    /// Applies every due, not-yet-applied fault in queue order
    /// (idempotent per entry). Slowdowns compound: each multiplies the
    /// module's cumulative latency scale.
    fn fire_due_faults(&mut self, now: SimTime) {
        while let Some(&(at, kind)) = self.faults.get(self.applied) {
            if now < at {
                break;
            }
            self.applied += 1;
            if let FimmFaultKind::Slowdown(scale) = kind {
                self.latency_scale = self.latency_scale.saturating_mul(scale.max(1));
                let cumulative = self.latency_scale;
                for p in &mut self.packages {
                    p.set_latency_scale(cumulative);
                }
            }
        }
    }

    /// Usable capacity of the module in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.packages
            .iter()
            .map(|p| p.geometry().capacity_bytes())
            .sum()
    }

    /// Total pages across all packages.
    pub fn total_pages(&self) -> u64 {
        self.packages
            .iter()
            .map(|p| p.geometry().total_pages())
            .sum()
    }

    /// Issues a flash command to package `package`, reserving die time.
    ///
    /// # Errors
    ///
    /// Propagates [`FlashError`] from the package (validation, program
    /// order, wear-out).
    ///
    /// # Panics
    ///
    /// Panics if `package` is out of range.
    pub fn begin_op(
        &mut self,
        now: SimTime,
        package: u32,
        cmd: &FlashCommand,
    ) -> Result<OpTiming, FlashError> {
        if self.refuses_at(now) {
            return Err(FlashError::ModuleFailed);
        }
        self.fire_due_faults(now);
        self.packages[package as usize].begin_op(now, cmd)
    }

    /// Fault-immune variant of [`Fimm::begin_op`] for last-resort
    /// recovery reads; a dead module still refuses.
    pub fn begin_op_recovery(
        &mut self,
        now: SimTime,
        package: u32,
        cmd: &FlashCommand,
    ) -> Result<OpTiming, FlashError> {
        if self.refuses_at(now) {
            return Err(FlashError::ModuleFailed);
        }
        self.fire_due_faults(now);
        self.packages[package as usize].begin_op_recovery(now, cmd)
    }

    /// Aggregated operation counters.
    pub fn stats(&self) -> FimmStats {
        let mut s = FimmStats::default();
        for p in &self.packages {
            let ps = p.stats();
            s.reads += ps.reads;
            s.programs += ps.programs;
            s.erases += ps.erases;
        }
        s
    }

    /// Erases performed across packages, summed from each package's
    /// running count.
    pub fn total_erases(&self) -> u64 {
        self.packages.iter().map(Package::total_erases).sum()
    }

    /// Aggregated wear report across packages.
    pub fn wear_report(&self) -> WearReport {
        let mut acc = WearReport::default();
        for p in &self.packages {
            acc.merge(&p.wear_report());
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fimm() -> Fimm {
        Fimm::new(8, FlashGeometry::default(), FlashTiming::default())
    }

    fn addr(pkg: u32, block: u32, page: u32) -> FimmAddr {
        FimmAddr {
            package: pkg,
            page: PageAddr {
                die: 0,
                plane: block % 2,
                block,
                page,
            },
        }
    }

    #[test]
    fn capacity_is_64_gib() {
        // 8 packages x 8 GiB = 64 GiB, the paper's FIMM size
        assert_eq!(fimm().capacity_bytes(), 64 * 1024 * 1024 * 1024);
        assert_eq!(fimm().packages.len(), 8);
    }

    #[test]
    fn packages_operate_independently() {
        let mut f = fimm();
        let a = f
            .begin_op(SimTime::ZERO, 0, &FlashCommand::read(&addr(0, 0, 0).page))
            .unwrap();
        let b = f
            .begin_op(SimTime::ZERO, 1, &FlashCommand::read(&addr(1, 0, 0).page))
            .unwrap();
        assert_eq!(a.die_wait, 0);
        assert_eq!(b.die_wait, 0, "different packages never contend on dies");
    }

    #[test]
    fn same_package_same_die_contends() {
        let mut f = fimm();
        f.begin_op(SimTime::ZERO, 2, &FlashCommand::read(&addr(2, 0, 0).page))
            .unwrap();
        let second = f
            .begin_op(SimTime::ZERO, 2, &FlashCommand::read(&addr(2, 0, 1).page))
            .unwrap();
        assert!(second.die_wait > 0);
    }

    #[test]
    fn stats_aggregate_packages() {
        let mut f = fimm();
        f.begin_op(SimTime::ZERO, 0, &FlashCommand::read(&addr(0, 0, 0).page))
            .unwrap();
        f.begin_op(
            SimTime::ZERO,
            1,
            &FlashCommand::program(&addr(1, 0, 0).page),
        )
        .unwrap();
        f.begin_op(SimTime::ZERO, 2, &FlashCommand::erase(&addr(2, 0, 0).page))
            .unwrap();
        let s = f.stats();
        assert_eq!((s.reads, s.programs, s.erases), (1, 1, 1));
        assert_eq!(f.wear_report().total_erases, 1);
        assert_eq!(f.total_erases(), 1);
    }

    #[test]
    fn dead_fimm_refuses_everything_after_deadline() {
        let mut f = fimm();
        f.schedule_fault(SimTime::from_us(100), FimmFaultKind::Dead);
        assert!(!f.is_dead_at(SimTime::from_us(99)));
        assert!(f
            .begin_op(
                SimTime::from_us(99),
                0,
                &FlashCommand::read(&addr(0, 0, 0).page)
            )
            .is_ok());
        assert!(f.is_dead_at(SimTime::from_us(100)));
        assert_eq!(
            f.begin_op(
                SimTime::from_us(100),
                0,
                &FlashCommand::read(&addr(0, 0, 0).page)
            ),
            Err(FlashError::ModuleFailed)
        );
        assert_eq!(
            f.begin_op_recovery(
                SimTime::from_us(200),
                1,
                &FlashCommand::read(&addr(1, 0, 0).page)
            ),
            Err(FlashError::ModuleFailed),
            "recovery reads cannot resurrect a dead module"
        );
        assert_eq!(f.stats().reads, 1, "only the pre-fault read served");
    }

    #[test]
    fn slowdown_fault_scales_latency_permanently() {
        let mut f = fimm();
        f.schedule_fault(SimTime::from_us(50), FimmFaultKind::Slowdown(8));
        let before = f
            .begin_op(SimTime::ZERO, 0, &FlashCommand::read(&addr(0, 0, 0).page))
            .unwrap();
        assert_eq!(before.end - before.start, 26_000, "healthy before deadline");
        let after = f
            .begin_op(
                SimTime::from_us(50),
                1,
                &FlashCommand::read(&addr(1, 0, 0).page),
            )
            .unwrap();
        assert_eq!(after.end - after.start, 8 * 26_000, "laggard after");
        assert!(!f.is_dead_at(SimTime::from_us(1_000)), "slow, not dead");
        assert_eq!(
            f.scheduled_faults(),
            &[(SimTime::from_us(50), FimmFaultKind::Slowdown(8))]
        );
    }

    #[test]
    fn fault_at_time_zero_applies_to_first_op() {
        let mut slow = fimm();
        slow.schedule_fault(SimTime::ZERO, FimmFaultKind::Slowdown(4));
        let t = slow
            .begin_op(SimTime::ZERO, 0, &FlashCommand::read(&addr(0, 0, 0).page))
            .unwrap();
        assert_eq!(t.end - t.start, 4 * 26_000, "t=0 slowdown hits op at t=0");

        let mut dead = fimm();
        dead.schedule_fault(SimTime::ZERO, FimmFaultKind::Dead);
        assert!(dead.is_dead_at(SimTime::ZERO));
        assert_eq!(
            dead.begin_op(SimTime::ZERO, 0, &FlashCommand::read(&addr(0, 0, 0).page)),
            Err(FlashError::ModuleFailed)
        );
    }

    #[test]
    fn coscheduled_slowdowns_compound() {
        let mut f = fimm();
        f.schedule_fault(SimTime::from_us(10), FimmFaultKind::Slowdown(2));
        f.schedule_fault(SimTime::from_us(10), FimmFaultKind::Slowdown(4));
        let t = f
            .begin_op(
                SimTime::from_us(10),
                0,
                &FlashCommand::read(&addr(0, 0, 0).page),
            )
            .unwrap();
        assert_eq!(t.end - t.start, 8 * 26_000, "2x and 4x compound to 8x");
        assert_eq!(f.scheduled_faults().len(), 2);
    }

    #[test]
    fn faults_fired_counts_slowdowns_then_the_first_refusal() {
        let mut f = fimm();
        f.schedule_fault(SimTime::from_us(10), FimmFaultKind::Slowdown(2));
        f.schedule_fault(SimTime::from_us(10), FimmFaultKind::Slowdown(4));
        f.schedule_fault(SimTime::from_us(50), FimmFaultKind::Dead);
        let read = |f: &mut Fimm, us| {
            f.begin_op(
                SimTime::from_us(us),
                0,
                &FlashCommand::read(&addr(0, 0, 0).page),
            )
        };
        assert!(read(&mut f, 0).is_ok());
        assert_eq!(f.faults_fired(), 0, "nothing due yet");
        assert!(read(&mut f, 20).is_ok());
        assert_eq!(f.faults_fired(), 2, "both slowdowns fire in one call");
        assert_eq!(f.faults_fired(), 2, "reading the count fires nothing");
        assert_eq!(read(&mut f, 60), Err(FlashError::ModuleFailed));
        assert_eq!(f.faults_fired(), 3, "the death fires on its first refusal");
        assert_eq!(read(&mut f, 70), Err(FlashError::ModuleFailed));
        assert_eq!(f.faults_fired(), 3, "later refusals fire nothing");
    }

    #[test]
    fn a_skipped_dead_module_counts_as_a_refusal() {
        let mut f = fimm();
        f.schedule_fault(SimTime::from_us(50), FimmFaultKind::Dead);
        assert!(!f.refuses_at(SimTime::from_us(49)));
        assert!(f.is_dead_at(SimTime::from_us(50)));
        assert_eq!(f.faults_fired(), 0, "a pure query marks nothing");
        assert!(f.refuses_at(SimTime::from_us(50)));
        assert_eq!(f.faults_fired(), 1, "the death fires on its first refusal");
        assert!(f.refuses_at(SimTime::from_us(60)));
        assert_eq!(f.faults_fired(), 1, "later refusals fire nothing");
    }

    #[test]
    fn dead_dominates_coscheduled_slowdown() {
        // Regardless of scheduling order, Dead at the same instant wins:
        // the module refuses operations from that instant.
        for flip in [false, true] {
            let mut f = fimm();
            let (a, b) = (FimmFaultKind::Dead, FimmFaultKind::Slowdown(8));
            let (first, second) = if flip { (b, a) } else { (a, b) };
            f.schedule_fault(SimTime::from_us(10), first);
            f.schedule_fault(SimTime::from_us(10), second);
            assert_eq!(
                f.begin_op(
                    SimTime::from_us(10),
                    0,
                    &FlashCommand::read(&addr(0, 0, 0).page)
                ),
                Err(FlashError::ModuleFailed)
            );
        }
    }

    #[test]
    fn faults_fire_in_timestamp_then_insertion_order() {
        let mut f = fimm();
        // Scheduled out of order; the queue sorts by fire time, keeping
        // insertion order for ties.
        f.schedule_fault(SimTime::from_us(30), FimmFaultKind::Slowdown(3));
        f.schedule_fault(SimTime::from_us(10), FimmFaultKind::Slowdown(2));
        f.schedule_fault(SimTime::from_us(30), FimmFaultKind::Slowdown(5));
        assert_eq!(
            f.scheduled_faults(),
            &[
                (SimTime::from_us(10), FimmFaultKind::Slowdown(2)),
                (SimTime::from_us(30), FimmFaultKind::Slowdown(3)),
                (SimTime::from_us(30), FimmFaultKind::Slowdown(5)),
            ]
        );
        let t = f
            .begin_op(
                SimTime::from_us(20),
                0,
                &FlashCommand::read(&addr(0, 0, 0).page),
            )
            .unwrap();
        assert_eq!(t.end - t.start, 2 * 26_000, "only the first fault is due");
        let t = f
            .begin_op(
                SimTime::from_us(30),
                1,
                &FlashCommand::read(&addr(1, 0, 0).page),
            )
            .unwrap();
        assert_eq!(t.end - t.start, 30 * 26_000, "all three compound: 2*3*5");
    }

    #[test]
    fn fault_profile_reaches_every_package() {
        let mut f = fimm();
        f.set_fault_profile(
            FlashFaultProfile {
                read_transient_prob: 1.0,
                ..FlashFaultProfile::default()
            },
            42,
        );
        for pkg in 0..8 {
            assert!(f
                .begin_op(
                    SimTime::ZERO,
                    pkg,
                    &FlashCommand::read(&addr(pkg, 0, 0).page)
                )
                .unwrap_err()
                .is_transient());
        }
        assert_eq!(f.fault_stats().read_transients, 8);
    }

    #[test]
    fn display_format() {
        assert_eq!(addr(3, 2, 1).to_string(), "pkg3/d0p0b2pg1");
    }

    #[test]
    #[should_panic(expected = "at least one package")]
    fn zero_packages_panics() {
        Fimm::new(0, FlashGeometry::default(), FlashTiming::default());
    }
}
