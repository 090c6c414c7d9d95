//! Per-block wear (P/E cycle) accounting, used for the paper's §6.5
//! migration wear-out analysis and the §6.7 global wear-levelling hooks.

use triplea_sim::{FxHashMap, FxHashSet};

/// Tracks erase counts per block and retires blocks that exceed their
/// endurance.
///
/// # Example
///
/// ```
/// use triplea_flash::WearTracker;
///
/// let mut w = WearTracker::new(3);
/// for _ in 0..3 {
///     assert!(w.record_erase(7));
/// }
/// assert!(!w.record_erase(7)); // retired after 3 P/E cycles
/// assert!(w.is_retired(7));
/// ```
#[derive(Clone, Debug)]
pub struct WearTracker {
    endurance: u32,
    erase_counts: FxHashMap<u64, u32>,
    total_erases: u64,
    retired: u64,
    /// Grown bad blocks: retired by a hardware program/erase failure
    /// before reaching the endurance limit.
    forced: FxHashSet<u64>,
}

impl WearTracker {
    /// Creates a tracker with the given P/E endurance per block.
    pub fn new(endurance: u32) -> Self {
        WearTracker {
            endurance,
            erase_counts: FxHashMap::default(),
            total_erases: 0,
            retired: 0,
            forced: FxHashSet::default(),
        }
    }

    /// Records an erase of `block`. Returns `false` (and records nothing)
    /// if the block is already retired; retires it when the erase brings
    /// it to the endurance limit.
    pub fn record_erase(&mut self, block: u64) -> bool {
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

    /// Erase count of `block` (0 if never erased).
    pub fn erase_count(&self, block: u64) -> u32 {
        self.erase_counts.get(&block).copied().unwrap_or(0)
    }

    /// Retires `block` immediately — a *grown bad block* after a hardware
    /// program or erase failure, independent of its erase count. Returns
    /// `false` if it was already retired.
    pub fn force_retire(&mut self, block: u64) -> bool {
        if self.is_retired(block) {
            return false;
        }
        self.forced.insert(block);
        self.retired += 1;
        true
    }

    /// `true` once the block hit its endurance limit or was force-retired
    /// as a grown bad block.
    pub fn is_retired(&self, block: u64) -> bool {
        self.forced.contains(&block) || self.erase_count(block) >= self.endurance
    }

    /// All retired blocks — worn out *and* grown bad — in ascending
    /// order, so bad-block remapping and reporting stay deterministic.
    pub fn retired_blocks(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .erase_counts
            .iter()
            .filter(|&(_, &c)| c >= self.endurance)
            .map(|(&b, _)| b)
            .chain(self.forced.iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// Endurance limit this tracker enforces.
    pub fn endurance(&self) -> u32 {
        self.endurance
    }

    /// Aggregate wear snapshot.
    pub fn report(&self) -> WearReport {
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

/// Aggregate wear statistics for one package (or, merged, a whole array).
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize)]
pub struct WearReport {
    /// Total erase operations performed.
    pub total_erases: u64,
    /// Number of distinct blocks ever erased.
    pub touched_blocks: u64,
    /// Highest per-block erase count.
    pub max_erase_count: u32,
    /// Mean erase count over touched blocks.
    pub mean_erase_count: f64,
    /// Blocks retired for reaching the endurance limit.
    pub retired_blocks: u64,
    /// Endurance limit in force.
    pub endurance: u32,
}

impl WearReport {
    /// Fraction of worst-case block life consumed, in `[0, 1]`.
    pub fn worst_life_consumed(&self) -> f64 {
        if self.endurance == 0 {
            0.0
        } else {
            (self.max_erase_count as f64 / self.endurance as f64).min(1.0)
        }
    }

    /// Folds another report into this one (blocks are assumed disjoint,
    /// as when merging per-package reports).
    pub fn merge(&mut self, other: &WearReport) {
        let total_touched = self.touched_blocks + other.touched_blocks;
        if total_touched > 0 {
            self.mean_erase_count = (self.mean_erase_count * self.touched_blocks as f64
                + other.mean_erase_count * other.touched_blocks as f64)
                / total_touched as f64;
        }
        self.total_erases += other.total_erases;
        self.touched_blocks = total_touched;
        self.max_erase_count = self.max_erase_count.max(other.max_erase_count);
        self.retired_blocks += other.retired_blocks;
        self.endurance = self.endurance.max(other.endurance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut w = WearTracker::new(100);
        w.record_erase(1);
        w.record_erase(1);
        w.record_erase(2);
        assert_eq!(w.erase_count(1), 2);
        assert_eq!(w.erase_count(2), 1);
        assert_eq!(w.erase_count(3), 0);
        let r = w.report();
        assert_eq!(r.total_erases, 3);
        assert_eq!(r.touched_blocks, 2);
        assert_eq!(r.max_erase_count, 2);
        assert!((r.mean_erase_count - 1.5).abs() < 1e-12);
    }

    #[test]
    fn retirement_at_endurance() {
        let mut w = WearTracker::new(2);
        assert!(w.record_erase(5));
        assert!(!w.is_retired(5));
        assert!(w.record_erase(5));
        assert!(w.is_retired(5));
        assert!(!w.record_erase(5));
        assert_eq!(w.report().retired_blocks, 1);
        assert_eq!(w.erase_count(5), 2);
    }

    #[test]
    fn life_consumed_fraction() {
        let mut w = WearTracker::new(10);
        for _ in 0..4 {
            w.record_erase(0);
        }
        assert!((w.report().worst_life_consumed() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_disjoint_packages() {
        let mut a = WearTracker::new(10);
        let mut b = WearTracker::new(10);
        a.record_erase(0);
        a.record_erase(0);
        b.record_erase(1);
        let mut ra = a.report();
        ra.merge(&b.report());
        assert_eq!(ra.total_erases, 3);
        assert_eq!(ra.touched_blocks, 2);
        assert_eq!(ra.max_erase_count, 2);
        assert!((ra.mean_erase_count - 1.5).abs() < 1e-12);
    }

    #[test]
    fn force_retire_grows_bad_blocks() {
        let mut w = WearTracker::new(100);
        w.record_erase(3);
        assert!(w.force_retire(3));
        assert!(w.is_retired(3));
        assert!(!w.force_retire(3), "second retirement is a no-op");
        assert!(!w.record_erase(3), "bad blocks reject further erases");
        assert_eq!(w.report().retired_blocks, 1);
        assert_eq!(w.erase_count(3), 1, "forced retirement keeps the count");
    }

    #[test]
    fn retired_blocks_lists_worn_and_forced_sorted() {
        let mut w = WearTracker::new(2);
        w.record_erase(9);
        w.record_erase(9); // worn out
        w.force_retire(4); // grown bad
        w.record_erase(1); // healthy
        assert_eq!(w.retired_blocks(), vec![4, 9]);
        assert!(!w.force_retire(9), "worn block already retired");
        assert_eq!(w.report().retired_blocks, 2);
    }

    #[test]
    fn empty_report_is_zeroed() {
        let w = WearTracker::new(10);
        let r = w.report();
        assert_eq!(r.total_erases, 0);
        assert_eq!(r.worst_life_consumed(), 0.0);
    }
}
