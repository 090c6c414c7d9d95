//! Log-structured page allocation within one FIMM.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use triplea_sim::FxHashMap;

use triplea_fimm::FimmAddr;
use triplea_flash::{FlashGeometry, PageAddr};

/// Key of a physical block within a FIMM: (package, die, block).
pub(crate) type BlockKey = (u32, u32, u32);

#[derive(Clone, Debug)]
struct Stream {
    package: u32,
    die: u32,
    plane: u32,
    /// Currently open block and its next free page.
    active: Option<(u32, u32)>,
    /// Next never-yet-used block (plane-local index).
    fresh_next: u32,
    /// Erased blocks ready for reuse, min-heap by erase count so the
    /// least-worn block is picked first (wear-levelling).
    recycled: BinaryHeap<Reverse<(u32, u32)>>,
}

impl PartialEq for Stream {
    /// Equal streams hold the same recycled blocks, whatever the heap's
    /// internal order.
    fn eq(&self, other: &Self) -> bool {
        let pool = |s: &Stream| {
            let mut v: Vec<_> = s.recycled.iter().copied().collect();
            v.sort_unstable();
            v
        };
        self.package == other.package
            && self.die == other.die
            && self.plane == other.plane
            && self.active == other.active
            && self.fresh_next == other.fresh_next
            && pool(self) == pool(other)
    }
}

/// Allocates fresh physical pages inside one FIMM, log-structured per
/// (package, die, plane) write stream with round-robin striping across
/// streams.
///
/// Pages within a block are handed out strictly in order, which is the
/// NAND program-order constraint the flash package enforces; blocks are
/// chosen least-worn-first among erased blocks (host-side wear
/// levelling, paper §6.7).
#[derive(Clone, Debug, PartialEq)]
pub struct FimmAllocator {
    geom: FlashGeometry,
    streams: Vec<Stream>,
    rr: usize,
    erase_counts: FxHashMap<BlockKey, u32>,
    retired: u64,
    /// Fresh plus recycled blocks across all streams: what
    /// [`Self::free_blocks`] reports, kept as blocks leave and rejoin
    /// the pool so the write path's GC check does not sum the streams.
    free: u64,
}

impl FimmAllocator {
    /// Creates an allocator for a FIMM of `packages` packages of `geom`.
    pub fn new(packages: u32, geom: FlashGeometry) -> Self {
        let mut streams = Vec::new();
        for package in 0..packages {
            for die in 0..geom.dies {
                for plane in 0..geom.planes {
                    streams.push(Stream {
                        package,
                        die,
                        plane,
                        active: None,
                        fresh_next: 0,
                        recycled: BinaryHeap::new(),
                    });
                }
            }
        }
        let free = streams.len() as u64 * geom.blocks_per_plane as u64;
        FimmAllocator {
            geom,
            streams,
            rr: 0,
            erase_counts: FxHashMap::default(),
            retired: 0,
            free,
        }
    }

    /// Takes a block out of the stream's pool, least-worn recycled block
    /// first; `None` when the pool is empty.
    fn open_block(geom: &FlashGeometry, s: &mut Stream) -> Option<u32> {
        if let Some(Reverse((_, blk))) = s.recycled.pop() {
            return Some(blk);
        }
        if s.fresh_next < geom.blocks_per_plane {
            let b = s.fresh_next;
            s.fresh_next += 1;
            // plane-local index -> die-local block number with the right
            // parity for this plane
            return Some(b * geom.planes + s.plane);
        }
        None
    }

    fn try_alloc_stream(geom: &FlashGeometry, s: &mut Stream, free: &mut u64) -> Option<FimmAddr> {
        if s.active.is_none() {
            let block = Self::open_block(geom, s)?;
            *free -= 1;
            s.active = Some((block, 0));
        }
        let (block, next) = s.active?;
        let addr = FimmAddr {
            package: s.package,
            page: PageAddr {
                die: s.die,
                plane: s.plane,
                block,
                page: next,
            },
        };
        if next + 1 >= geom.pages_per_block {
            s.active = None;
        } else {
            s.active = Some((block, next + 1));
        }
        Some(addr)
    }

    /// Allocates the next fresh page, round-robining across write
    /// streams. Returns `None` when every stream is exhausted (GC
    /// needed).
    pub fn alloc(&mut self) -> Option<FimmAddr> {
        let n = self.streams.len();
        for off in 0..n {
            let idx = (self.rr + off) % n;
            if let Some(addr) =
                Self::try_alloc_stream(&self.geom, &mut self.streams[idx], &mut self.free)
            {
                self.rr = (idx + 1) % n;
                return Some(addr);
            }
        }
        None
    }

    /// The write stream of die-local `block` on (`package`, `die`), if
    /// the FIMM has that die: [`Self::new`] lays the streams out
    /// package-major, then die, then plane.
    fn stream_mut(&mut self, (package, die, block): BlockKey) -> Option<&mut Stream> {
        let g = &self.geom;
        if die >= g.dies {
            return None;
        }
        let idx = (package as usize * g.dies as usize + die as usize) * g.planes as usize
            + g.plane_of_block(block) as usize;
        self.streams.get_mut(idx)
    }

    /// Returns an erased block to the free pool, bumping its erase count.
    ///
    /// A block that has reached the geometry's endurance limit is
    /// **retired** instead of recycled — handing it out again would fail
    /// at the NAND package, which enforces the same limit.
    pub fn recycle(&mut self, key: BlockKey) {
        let count = self.erase_counts.entry(key).or_insert(0);
        *count += 1;
        let c = *count;
        if c >= self.geom.endurance {
            self.retired += 1;
            return;
        }
        self.stream_mut(key)
            .expect("stream exists for every (package, die, plane)")
            .recycled
            .push(Reverse((c, key.2)));
        self.free += 1;
    }

    /// Permanently removes a block from service — a *grown bad block*
    /// after a hardware program/erase failure. Closes it if it is the
    /// stream's active block, drops it from the recycled pool, and pins
    /// its erase count at the endurance limit so [`Self::recycle`] can
    /// never pool it again.
    pub fn quarantine(&mut self, key: BlockKey) {
        let block = key.2;
        if self.erase_count(key) >= self.geom.endurance {
            return; // already retired
        }
        if let Some(s) = self.stream_mut(key) {
            if matches!(s.active, Some((b, _)) if b == block) {
                s.active = None;
            }
            let pooled = s.recycled.len();
            s.recycled.retain(|Reverse((_, b))| *b != block);
            let dropped = (pooled - s.recycled.len()) as u64;
            self.free -= dropped;
        }
        self.erase_counts.insert(key, self.geom.endurance);
        self.retired += 1;
    }

    /// Blocks permanently retired: worn to the endurance limit or
    /// quarantined as grown bad blocks.
    pub fn retired_blocks(&self) -> u64 {
        self.retired
    }

    /// Host-side erase count of a block (0 if never recycled).
    pub fn erase_count(&self, key: BlockKey) -> u32 {
        self.erase_counts.get(&key).copied().unwrap_or(0)
    }

    /// Free blocks remaining across all streams (fresh + recycled,
    /// counting a partially-filled active block as zero).
    pub fn free_blocks(&self) -> u64 {
        self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> FlashGeometry {
        FlashGeometry {
            dies: 2,
            planes: 2,
            blocks_per_plane: 4,
            pages_per_block: 4,
            page_size: 4096,
            endurance: 100,
        }
    }

    #[test]
    fn round_robin_spreads_streams() {
        let mut a = FimmAllocator::new(2, geom());
        let first = a.alloc().unwrap();
        let second = a.alloc().unwrap();
        assert_ne!(
            (first.package, first.page.die, first.page.plane),
            (second.package, second.page.die, second.page.plane),
            "consecutive allocations use different streams"
        );
    }

    #[test]
    fn pages_within_block_in_order() {
        let mut a = FimmAllocator::new(1, geom());
        let mut per_block: std::collections::HashMap<(u32, u32, u32), Vec<u32>> =
            std::collections::HashMap::new();
        for _ in 0..64 {
            let addr = a.alloc().unwrap();
            per_block
                .entry((addr.package, addr.page.die, addr.page.block))
                .or_default()
                .push(addr.page.page);
        }
        for (k, pages) in per_block {
            let expect: Vec<u32> = (0..pages.len() as u32).collect();
            assert_eq!(pages, expect, "block {k:?} programmed out of order");
        }
    }

    #[test]
    fn exhaustion_returns_none() {
        let g = geom();
        let mut a = FimmAllocator::new(1, g);
        let capacity = g.total_pages();
        for i in 0..capacity {
            assert!(a.alloc().is_some(), "failed at page {i}");
        }
        assert!(a.alloc().is_none());
        assert_eq!(a.free_blocks(), 0);
    }

    #[test]
    fn recycle_restores_capacity_and_counts_wear() {
        let g = geom();
        let mut a = FimmAllocator::new(1, g);
        for _ in 0..g.total_pages() {
            a.alloc().unwrap();
        }
        a.recycle((0, 0, 0));
        assert_eq!(a.erase_count((0, 0, 0)), 1);
        assert_eq!(a.free_blocks(), 1);
        let fresh = a.alloc().unwrap();
        assert_eq!((fresh.page.die, fresh.page.block), (0, 0));
    }

    #[test]
    fn wear_levelling_prefers_cold_blocks() {
        let g = geom();
        let mut a = FimmAllocator::new(1, g);
        for _ in 0..g.total_pages() {
            a.alloc().unwrap();
        }
        // block 0 recycled twice (hot), block 2 once (cold); both plane 0 die 0
        a.recycle((0, 0, 0));
        // burn through block 0 again
        for _ in 0..g.pages_per_block {
            a.alloc().unwrap();
        }
        a.recycle((0, 0, 0));
        a.recycle((0, 0, 2));
        let next = a.alloc().unwrap();
        assert_eq!(next.page.block, 2, "least-worn block chosen first");
    }

    #[test]
    fn worn_out_blocks_retire_from_the_pool() {
        let g = FlashGeometry {
            endurance: 2,
            ..geom()
        };
        let mut a = FimmAllocator::new(1, g);
        for _ in 0..g.total_pages() {
            a.alloc().unwrap();
        }
        a.recycle((0, 0, 0)); // erase count 1: reusable
        assert_eq!(a.free_blocks(), 1);
        for _ in 0..g.pages_per_block {
            a.alloc().unwrap();
        }
        a.recycle((0, 0, 0)); // erase count 2 = endurance: retired
        assert_eq!(a.free_blocks(), 0, "retired block must not return");
        assert_eq!(a.retired_blocks(), 1);
        assert_eq!(a.erase_count((0, 0, 0)), 2);
    }

    /// `free_blocks` as it was computed before the running count: fresh
    /// plus recycled blocks, summed over the streams.
    fn recount(a: &FimmAllocator) -> u64 {
        a.streams
            .iter()
            .map(|s| (a.geom.blocks_per_plane - s.fresh_next) as u64 + s.recycled.len() as u64)
            .sum()
    }

    #[test]
    fn running_free_count_matches_the_recount() {
        let g = geom();
        let mut a = FimmAllocator::new(1, g);
        let check = |a: &FimmAllocator, at: &str| assert_eq!(a.free_blocks(), recount(a), "{at}");
        check(&a, "pristine");
        let first = a.alloc().unwrap();
        check(&a, "first block opened");
        // Quarantine the active block mid-fill: it leaves no pool.
        a.quarantine((first.package, first.page.die, first.page.block));
        check(&a, "active block quarantined");
        while a.alloc().is_some() {}
        check(&a, "drained");
        assert_eq!(a.free_blocks(), 0);
        // Recycle two blocks of one stream, then quarantine one of them
        // while it waits in the pool.
        a.recycle((0, 0, 2));
        a.recycle((0, 0, 4));
        check(&a, "two recycled");
        assert_eq!(a.free_blocks(), 2);
        a.quarantine((0, 0, 4));
        check(&a, "recycled block quarantined");
        assert_eq!(a.free_blocks(), 1);
        // A quarantined block is never pooled again; the other one is
        // handed out again.
        a.recycle((0, 0, 4));
        check(&a, "quarantined block recycled");
        let reused = a.alloc().unwrap();
        assert_eq!((reused.page.die, reused.page.block), (0, 2));
        check(&a, "recycled block reopened");
        assert_eq!(a.free_blocks(), 0);
    }

    #[test]
    fn stream_count_is_product() {
        let a = FimmAllocator::new(8, geom());
        assert_eq!(a.streams.len(), 8 * 2 * 2);
    }
}
