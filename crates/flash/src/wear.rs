//! Wear (P/E cycle) statistics, used for the paper's §6.5 migration
//! wear-out analysis and the §6.7 global wear-levelling hooks. Each
//! [`Package`](crate::Package) counts its blocks' erases; this is the
//! summary it reports.

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
    /// Blocks retired: worn to the endurance limit or grown bad.
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

    fn report(total_erases: u64, touched_blocks: u64, max_erase_count: u32) -> WearReport {
        WearReport {
            total_erases,
            touched_blocks,
            max_erase_count,
            mean_erase_count: total_erases as f64 / touched_blocks as f64,
            retired_blocks: 0,
            endurance: 10,
        }
    }

    #[test]
    fn life_consumed_fraction() {
        assert!((report(4, 1, 4).worst_life_consumed() - 0.4).abs() < 1e-12);
        assert_eq!(WearReport::default().worst_life_consumed(), 0.0);
    }

    #[test]
    fn merge_combines_disjoint_packages() {
        let mut a = report(2, 1, 2);
        a.merge(&report(1, 1, 1));
        assert_eq!(a.total_erases, 3);
        assert_eq!(a.touched_blocks, 2);
        assert_eq!(a.max_erase_count, 2);
        assert!((a.mean_erase_count - 1.5).abs() < 1e-12);
    }
}
