//! A FAST-style **hybrid (block-mapped + log) FTL** for one FIMM.
//!
//! The paper's §4 notes the flash control logic "can be implemented in
//! many different ways" and cites both page-level demand mapping (DFTL,
//! ref. [19]) and hybrid log-block schemes (FAST, ref. [29]). The main
//! [`crate::Ftl`] is page-mapped; this module implements the classic
//! alternative so the design space is explorable:
//!
//! * logical space is divided into block-sized extents, mapped
//!   block-to-block (tiny map: one entry per *block*, not per page);
//! * all overwrites append to a small set of shared **log blocks**;
//! * when the logs fill, the oldest log block is reclaimed by **full
//!   merges**: every logical block with live pages in it is rewritten to
//!   a fresh physical block from the newest copies.
//!
//! The well-known trade-off this exposes (see the `ftl_compare` bench):
//! hybrid mapping needs orders-of-magnitude less mapping RAM but pays
//! much higher write amplification on random overwrites.

use triplea_sim::{FxHashMap, FxHashSet};

use triplea_flash::FlashGeometry;

/// Statistics of a [`HybridFtl`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Pages written on behalf of the host (log appends).
    pub host_writes: u64,
    /// Pages rewritten by full merges.
    pub merge_writes: u64,
    /// Full merges performed (one per logical block reclaimed).
    pub merges: u64,
    /// Blocks erased (log blocks + replaced data blocks).
    pub erases: u64,
}

impl HybridStats {
    /// Write amplification: total programs per host write.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            return 1.0;
        }
        (self.host_writes + self.merge_writes) as f64 / self.host_writes as f64
    }
}

#[derive(Clone, Debug, Default)]
struct LogBlock {
    /// Appended lpns in program order.
    entries: Vec<u64>,
}

/// A FAST-style hybrid FTL over the logical page space of one FIMM.
///
/// Accounting-only (like the rest of the FTL layer, it never stores
/// data): it tracks mapping state, log occupancy, and the write/erase
/// work a device would perform.
///
/// # Example
///
/// ```
/// use triplea_ftl::HybridFtl;
/// use triplea_flash::FlashGeometry;
///
/// let mut ftl = HybridFtl::new(FlashGeometry::default(), 8, 8);
/// for i in 0..10_000u64 {
///     ftl.write((i * 7) % 4_096);
/// }
/// assert!(ftl.stats().write_amplification() >= 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct HybridFtl {
    geom: FlashGeometry,
    /// Total logical pages (= physical pages minus log + spare region).
    logical_pages: u64,
    /// Logical block → physical block (dense id); absent = never merged
    /// (all live data still in the logs or never written).
    block_map: FxHashMap<u64, u64>,
    /// lpn → (log block index, slot) of the *newest* copy, if it lives
    /// in a log block.
    log_map: FxHashMap<u64, (usize, u32)>,
    /// The shared log blocks, reclaimed FIFO.
    logs: Vec<LogBlock>,
    /// Log block currently absorbing appends.
    active_log: usize,
    /// Oldest log block (next reclaim victim).
    oldest_log: usize,
    /// Physical data blocks never handed out yet.
    next_free: u64,
    /// Erased data blocks ready for reuse.
    freed: Vec<u64>,
    /// Logical pages ever written (merges only copy real data; empty
    /// slots in a data block cost nothing).
    ever_written: FxHashSet<u64>,
    stats: HybridStats,
}

impl HybridFtl {
    /// Creates a hybrid FTL over a FIMM of `packages` packages of
    /// `geom`, reserving `log_blocks` shared log blocks.
    ///
    /// # Panics
    ///
    /// Panics if `log_blocks == 0` or the geometry is too small to hold
    /// the logs plus one data block.
    pub fn new(geom: FlashGeometry, packages: u32, log_blocks: usize) -> Self {
        assert!(log_blocks > 0, "hybrid FTL needs log blocks");
        let total_blocks = geom.total_blocks() * packages as u64;
        assert!(
            total_blocks > log_blocks as u64 + 1,
            "geometry too small for the log region"
        );
        let data_blocks = total_blocks - log_blocks as u64;
        HybridFtl {
            geom,
            logical_pages: data_blocks * geom.pages_per_block as u64,
            block_map: FxHashMap::default(),
            log_map: FxHashMap::default(),
            logs: vec![LogBlock::default(); log_blocks],
            active_log: 0,
            oldest_log: 0,
            next_free: 0,
            freed: Vec::new(),
            ever_written: FxHashSet::default(),
            stats: HybridStats::default(),
        }
    }

    /// Number of addressable logical pages.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Activity counters.
    pub fn stats(&self) -> HybridStats {
        self.stats
    }

    /// Mapping-table footprint in entries (block map + log map) — the
    /// RAM-economy side of the hybrid trade-off.
    pub fn mapping_entries(&self) -> usize {
        self.block_map.len() + self.log_map.len()
    }

    fn pages_per_block(&self) -> u64 {
        self.geom.pages_per_block as u64
    }

    fn alloc_data_block(&mut self) -> u64 {
        if let Some(b) = self.freed.pop() {
            return b;
        }
        let b = self.next_free;
        self.next_free += 1;
        b
    }

    /// Writes one logical page (appends to the active log block),
    /// triggering log reclamation when the logs are full.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the logical space.
    pub fn write(&mut self, lpn: u64) {
        assert!(lpn < self.logical_pages, "lpn out of range");
        if self.logs[self.active_log].entries.len() as u64 >= self.pages_per_block() {
            // Advance to the next log block, reclaiming the oldest if
            // every log is full.
            let next = (self.active_log + 1) % self.logs.len();
            if next == self.oldest_log && !self.logs[next].entries.is_empty() {
                self.reclaim_oldest_log();
            }
            self.active_log = next;
        }
        let slot = self.logs[self.active_log].entries.len() as u32;
        self.logs[self.active_log].entries.push(lpn);
        self.log_map.insert(lpn, (self.active_log, slot));
        self.ever_written.insert(lpn);
        self.stats.host_writes += 1;
    }

    /// Reclaims the oldest log block with FAST-style full merges.
    fn reclaim_oldest_log(&mut self) {
        let victim = self.oldest_log;
        let entries = std::mem::take(&mut self.logs[victim].entries);

        // Logical blocks whose *newest* copy of some page sits in the
        // victim need a full merge; stale entries are simply dropped.
        let ppb = self.pages_per_block();
        let mut to_merge: Vec<u64> = entries
            .iter()
            .enumerate()
            .filter(|(slot, lpn)| self.log_map.get(lpn) == Some(&(victim, *slot as u32)))
            .map(|(_, lpn)| lpn / ppb)
            .collect();
        to_merge.sort_unstable();
        to_merge.dedup();

        for lbn in to_merge {
            self.full_merge(lbn);
        }
        // Erase the log block itself.
        self.stats.erases += 1;
        self.oldest_log = (victim + 1) % self.logs.len();
    }

    /// Full merge of one logical block: write the newest copy of every
    /// live page to a fresh data block, retire the old one.
    fn full_merge(&mut self, lbn: u64) {
        let ppb = self.pages_per_block();
        let mut merged_pages = 0u64;
        for off in 0..ppb {
            let lpn = lbn * ppb + off;
            // A page participates if it was ever written (its newest
            // copy lives in a log or the data block); empty slots cost
            // nothing.
            self.log_map.remove(&lpn);
            if self.ever_written.contains(&lpn) {
                merged_pages += 1;
            }
        }
        let fresh = self.alloc_data_block();
        if let Some(old) = self.block_map.insert(lbn, fresh) {
            self.freed.push(old);
            self.stats.erases += 1;
        }
        self.stats.merge_writes += merged_pages;
        self.stats.merges += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geom() -> FlashGeometry {
        FlashGeometry {
            dies: 1,
            planes: 1,
            blocks_per_plane: 64,
            pages_per_block: 16,
            page_size: 4096,
            endurance: 10_000,
        }
    }

    #[test]
    fn writes_append_until_logs_fill() {
        let mut f = HybridFtl::new(small_geom(), 1, 4);
        // 4 logs x 16 pages = 64 appends before any merge.
        for i in 0..64 {
            f.write(i);
        }
        assert_eq!(f.stats().merges, 0);
        assert_eq!(f.stats().host_writes, 64);
        assert!(f.log_map.contains_key(&0), "page 0 lives in a log block");
    }

    #[test]
    fn log_exhaustion_triggers_merges() {
        let mut f = HybridFtl::new(small_geom(), 1, 2);
        for i in 0..200 {
            f.write(i % 40);
        }
        let s = f.stats();
        assert!(s.merges > 0, "merges never ran");
        assert!(s.erases > 0);
        assert!(s.write_amplification() > 1.0);
    }

    #[test]
    fn sequential_overwrites_amplify_less_than_random() {
        let geom = small_geom();
        let mut seq = HybridFtl::new(geom, 1, 4);
        let mut rnd = HybridFtl::new(geom, 1, 4);
        let span = 256u64; // 16 logical blocks
        for i in 0..20_000u64 {
            seq.write(i % span);
            // golden-ratio stride scatters across logical blocks
            rnd.write((i * 167) % span);
        }
        let wa_seq = seq.stats().write_amplification();
        let wa_rnd = rnd.stats().write_amplification();
        assert!(
            wa_seq < wa_rnd,
            "sequential WA {wa_seq} should beat random WA {wa_rnd}"
        );
    }

    #[test]
    fn mapping_footprint_is_block_granular() {
        let mut f = HybridFtl::new(small_geom(), 1, 4);
        // Touch every page of 8 logical blocks, then force merges.
        for i in 0..(8 * 16 * 4) {
            f.write(i % 128);
        }
        // Page-mapped would need >=128 entries; hybrid needs ~8 block
        // entries plus the bounded log map (<= 4 blocks x 16 slots).
        assert!(
            f.mapping_entries() <= 8 + 64,
            "footprint {} too large",
            f.mapping_entries()
        );
    }

    #[test]
    fn stale_log_entries_do_not_merge() {
        let mut f = HybridFtl::new(small_geom(), 1, 2);
        // Overwrite ONE page repeatedly: old log entries are stale, so a
        // reclaim merges exactly one logical block.
        for _ in 0..33 {
            f.write(5);
        }
        assert!(f.stats().merges <= 2, "merges {}", f.stats().merges);
    }

    #[test]
    fn never_written_pages_cost_nothing() {
        let mut f = HybridFtl::new(small_geom(), 1, 2);
        // One page per logical block, 40 blocks: merges copy only the
        // single live page of each block, not the whole block.
        for i in 0..200 {
            f.write((i % 40) * 16);
        }
        let s = f.stats();
        assert!(s.merges > 0);
        let pages_per_merge = s.merge_writes as f64 / s.merges as f64;
        assert!(
            pages_per_merge < 3.0,
            "merged {pages_per_merge} pages per block despite 1 live page"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_space_lpn() {
        let mut f = HybridFtl::new(small_geom(), 1, 4);
        let too_big = f.logical_pages();
        f.write(too_big);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64 })]

            /// Any overwrite stream keeps the invariants: WA >= 1, the
            /// log map never exceeds the log capacity, and the mapping
            /// footprint stays block-granular plus bounded log entries.
            #[test]
            fn invariants_under_random_streams(
                ops in prop::collection::vec(0u64..800, 1..2_000),
                log_blocks in 2usize..6,
            ) {
                let geom = small_geom();
                let mut f = HybridFtl::new(geom, 1, log_blocks);
                for lpn in ops {
                    f.write(lpn % f.logical_pages());
                }
                let s = f.stats();
                prop_assert!(s.write_amplification() >= 1.0);
                let log_capacity = log_blocks as u64 * geom.pages_per_block as u64;
                prop_assert!(
                    (f.log_map.len() as u64) <= log_capacity,
                    "log map {} exceeds capacity {}", f.log_map.len(), log_capacity
                );
                // Footprint <= touched logical blocks + live log entries.
                let max_blocks = f.logical_pages() / geom.pages_per_block as u64;
                prop_assert!((f.block_map.len() as u64) <= max_blocks);
            }

            /// Every live log-map entry points at a real slot that holds
            /// the same lpn (no dangling pointers after reclaims).
            #[test]
            fn log_map_pointers_are_consistent(
                ops in prop::collection::vec(0u64..400, 1..1_500),
            ) {
                let geom = small_geom();
                let mut f = HybridFtl::new(geom, 1, 3);
                for lpn in ops {
                    f.write(lpn % f.logical_pages());
                }
                for (&lpn, &(log, slot)) in &f.log_map {
                    let entry = f.logs[log].entries.get(slot as usize).copied();
                    prop_assert_eq!(entry, Some(lpn), "dangling log pointer");
                }
            }
        }
    }

    #[test]
    fn write_amplification_of_fresh_ftl_is_one() {
        let f = HybridFtl::new(small_geom(), 1, 4);
        assert_eq!(f.stats().write_amplification(), 1.0);
        assert_eq!(f.logical_pages(), (64 - 4) * 16);
    }
}
