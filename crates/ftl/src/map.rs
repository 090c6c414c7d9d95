//! Logical→physical translation with sparse overrides.

use triplea_sim::FxHashMap;

use crate::layout::StripedLayout;
use crate::shape::{ArrayShape, LogicalPage, PhysLoc};

/// Pages per segment (2^9 = 512): the granularity at which override
/// storage switches between the shared sparse table and a dense
/// per-segment array.
const SEG_SHIFT: u32 = 9;
const SEG_PAGES: usize = 1 << SEG_SHIFT;

/// Segments per mid-level node (2^9 = 512), so the root directory has
/// `total_pages / 2^18` slots — 16 K entries for the paper's 16 TB
/// array, one pointer each.
const MID_SHIFT: u32 = 9;
const MID_SEGS: usize = 1 << MID_SHIFT;

/// A segment is promoted from the sparse table to a dense array once
/// this many of its pages hold overrides (1/8 occupancy): hot GC/
/// migration regions become branch-cheap array lookups while isolated
/// relocations stay in the hash table.
const PROMOTE_AT: u16 = 64;

/// Dense override storage for one 512-page segment: a presence bitmap
/// plus a location per page (~16 KB).
#[derive(Clone)]
struct Segment {
    bits: [u64; SEG_PAGES / 64],
    locs: Box<[PhysLoc; SEG_PAGES]>,
}

impl Segment {
    fn new() -> Self {
        Segment {
            bits: [0; SEG_PAGES / 64],
            locs: Box::new([PhysLoc::default(); SEG_PAGES]),
        }
    }

    #[inline]
    fn has(&self, off: usize) -> bool {
        self.bits[off / 64] & (1u64 << (off % 64)) != 0
    }

    #[inline]
    fn set(&mut self, off: usize, loc: PhysLoc) -> bool {
        let fresh = !self.has(off);
        self.bits[off / 64] |= 1u64 << (off % 64);
        self.locs[off] = loc;
        fresh
    }

    #[inline]
    fn clear(&mut self, off: usize) -> bool {
        let had = self.has(off);
        self.bits[off / 64] &= !(1u64 << (off % 64));
        had
    }
}

/// Per-segment override state.
#[derive(Clone, Default)]
enum SegState {
    /// No overrides in this segment — the hot unmapped case.
    #[default]
    Empty,
    /// Overrides live in the shared sparse table; the count drives
    /// promotion.
    Sparse(u16),
    /// Overrides live in a dense bitmap + array.
    Dense(Box<Segment>),
}

/// Mid-level directory node: state for 512 consecutive segments.
struct Mid {
    segs: [SegState; MID_SEGS],
}

impl Clone for Mid {
    fn clone(&self) -> Self {
        Mid {
            segs: self.segs.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.segs.clone_from(&source.segs);
    }
}

impl Mid {
    fn new() -> Self {
        Mid {
            segs: std::array::from_fn(|_| SegState::Empty),
        }
    }
}

/// The array-wide page map: a default [`StripedLayout`] plus an
/// override structure holding every page that writes, garbage
/// collection, data migration or layout reshaping have relocated.
///
/// Keeping the default implicit is what lets the simulator address 16 TB
/// (4 billion pages) while only materialising the trace's footprint.
///
/// Overrides are stored hybrid per 512-page segment: a radix directory
/// (root → mid → segment) answers the dominant "not remapped" case with
/// two null checks and no hashing at all; sparsely remapped segments
/// share one FxHash table; segments with ≥ `PROMOTE_AT` (64) overrides are
/// promoted to dense bitmap+array storage, so `locate` in GC/migration
/// hot regions is an array index. The observable behaviour is identical
/// to the original flat `HashMap` (including "returning home drops the
/// override").
pub struct PageMap {
    layout: StripedLayout,
    /// Root directory; `None` root slots cover 2^18 pages each.
    root: Vec<Option<Box<Mid>>>,
    /// Shared table for sparsely remapped segments.
    sparse: FxHashMap<LogicalPage, PhysLoc>,
    /// Overrides currently live (dense + sparse), maintained
    /// incrementally so [`Self::override_count`] is O(1).
    overrides: usize,
    remaps: u64,
}

#[inline]
fn seg_of(lpn: LogicalPage) -> u64 {
    lpn.0 >> SEG_SHIFT
}

impl PageMap {
    /// Creates an un-remapped page map over `shape`.
    pub fn new(shape: ArrayShape) -> Self {
        let total = shape.total_pages();
        let root_slots = (total >> (SEG_SHIFT + MID_SHIFT)) + 1;
        PageMap {
            layout: StripedLayout::new(shape),
            root: (0..root_slots).map(|_| None).collect(),
            sparse: FxHashMap::default(),
            overrides: 0,
            remaps: 0,
        }
    }

    /// The underlying default layout.
    pub fn layout(&self) -> &StripedLayout {
        &self.layout
    }

    /// The override for `lpn`, if any.
    #[inline]
    fn lookup(&self, lpn: LogicalPage) -> Option<PhysLoc> {
        let seg = seg_of(lpn);
        let mid = self.root.get((seg >> MID_SHIFT) as usize)?.as_ref()?;
        match &mid.segs[(seg as usize) & (MID_SEGS - 1)] {
            SegState::Empty => None,
            SegState::Sparse(_) => self.sparse.get(&lpn).copied(),
            SegState::Dense(d) => {
                let off = (lpn.0 as usize) & (SEG_PAGES - 1);
                d.has(off).then(|| d.locs[off])
            }
        }
    }

    /// Resolves a logical page: override if present, default otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the address space (propagated from
    /// [`StripedLayout::locate`]).
    #[inline]
    pub fn locate(&self, lpn: LogicalPage) -> PhysLoc {
        self.lookup(lpn)
            .unwrap_or_else(|| self.layout.locate(lpn))
    }

    /// `true` if the page has been relocated away from its default spot.
    pub fn is_remapped(&self, lpn: LogicalPage) -> bool {
        self.lookup(lpn).is_some()
    }

    /// Mutable access to the segment state covering `lpn`, materialising
    /// directory nodes on the way down. Free of `self` so callers can
    /// keep borrowing `self.sparse` alongside.
    fn seg_state(root: &mut Vec<Option<Box<Mid>>>, lpn: LogicalPage) -> &mut SegState {
        let seg = seg_of(lpn);
        let slot = (seg >> MID_SHIFT) as usize;
        if slot >= root.len() {
            // Beyond the precomputed space (unreachable for valid lpns,
            // which `layout.locate` has already range-checked).
            root.resize_with(slot + 1, || None);
        }
        let mid = root[slot].get_or_insert_with(|| Box::new(Mid::new()));
        &mut mid.segs[(seg as usize) & (MID_SEGS - 1)]
    }

    /// Promotes a sparse segment to dense storage, pulling its pages out
    /// of the shared table.
    fn promote(sparse: &mut FxHashMap<LogicalPage, PhysLoc>, seg: u64) -> Box<Segment> {
        let mut dense = Box::new(Segment::new());
        let base = seg << SEG_SHIFT;
        for off in 0..SEG_PAGES {
            if let Some(loc) = sparse.remove(&LogicalPage(base + off as u64)) {
                dense.set(off, loc);
            }
        }
        dense
    }

    /// Points `lpn` at a new physical location, returning the previous
    /// one.
    pub fn remap(&mut self, lpn: LogicalPage, to: PhysLoc) -> PhysLoc {
        let old = self.locate(lpn);
        let home = self.layout.locate(lpn);
        self.remaps += 1;
        let off = (lpn.0 as usize) & (SEG_PAGES - 1);
        let seg = seg_of(lpn);
        if to == home {
            // Returning home: drop the override to keep the table sparse.
            let state = Self::seg_state(&mut self.root, lpn);
            let removed = match state {
                SegState::Empty => false,
                SegState::Sparse(n) => {
                    let removed = self.sparse.remove(&lpn).is_some();
                    if removed {
                        *n -= 1;
                        if *n == 0 {
                            *state = SegState::Empty;
                        }
                    }
                    removed
                }
                SegState::Dense(d) => d.clear(off),
            };
            if removed {
                self.overrides -= 1;
            }
        } else {
            let state = Self::seg_state(&mut self.root, lpn);
            let fresh = match state {
                SegState::Empty => {
                    *state = SegState::Sparse(1);
                    self.sparse.insert(lpn, to);
                    true
                }
                SegState::Sparse(n) => {
                    let fresh = self.sparse.insert(lpn, to).is_none();
                    if fresh {
                        *n += 1;
                    }
                    if *n >= PROMOTE_AT {
                        *state = SegState::Dense(Self::promote(&mut self.sparse, seg));
                    }
                    fresh
                }
                SegState::Dense(d) => d.set(off, to),
            };
            if fresh {
                self.overrides += 1;
            }
        }
        old
    }

    /// Number of pages currently living away from their default location.
    pub fn override_count(&self) -> usize {
        self.overrides
    }

    /// Iterates every relocated page with its current physical location
    /// (arbitrary order). Integrity checks walk this to prove no page was
    /// lost or duplicated by migration, GC, or fault recovery.
    pub fn remapped_entries(&self) -> impl Iterator<Item = (LogicalPage, PhysLoc)> + '_ {
        let dense = self
            .root
            .iter()
            .enumerate()
            .filter_map(|(slot, mid)| mid.as_ref().map(|m| (slot, m)))
            .flat_map(|(slot, mid)| {
                mid.segs
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, s)| match s {
                        SegState::Dense(d) => {
                            let seg = ((slot as u64) << MID_SHIFT) | i as u64;
                            Some((seg, d))
                        }
                        _ => None,
                    })
            })
            .flat_map(|(seg, d)| {
                let base = seg << SEG_SHIFT;
                (0..SEG_PAGES)
                    .filter(move |&off| d.has(off))
                    .map(move |off| (LogicalPage(base + off as u64), d.locs[off]))
            });
        self.sparse
            .iter()
            .map(|(&lpn, &loc)| (lpn, loc))
            .chain(dense)
    }

    /// Total remap operations ever performed.
    pub fn total_remaps(&self) -> u64 {
        self.remaps
    }
}

impl Clone for PageMap {
    fn clone(&self) -> Self {
        PageMap {
            layout: self.layout,
            root: self.root.clone(),
            sparse: self.sparse.clone(),
            overrides: self.overrides,
            remaps: self.remaps,
        }
    }

    /// Copies `source` in place, reusing this map's directory nodes
    /// where both maps have one: a power cut restores the live map from
    /// the journal checkpoint this way, and rewriting already-mapped
    /// memory is several times cheaper than allocating a fresh
    /// directory.
    fn clone_from(&mut self, source: &Self) {
        self.layout = source.layout;
        self.root.clone_from(&source.root);
        self.sparse.clone_from(&source.sparse);
        self.overrides = source.overrides;
        self.remaps = source.remaps;
    }
}

impl std::fmt::Debug for PageMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageMap")
            .field("overrides", &self.overrides)
            .field("remaps", &self.remaps)
            .field("sparse_entries", &self.sparse.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triplea_fimm::FimmAddr;
    use triplea_flash::PageAddr;

    fn map() -> PageMap {
        PageMap::new(ArrayShape::small_test())
    }

    fn some_loc(fimm: u32) -> PhysLoc {
        PhysLoc {
            cluster: Default::default(),
            fimm,
            addr: FimmAddr {
                package: 1,
                page: PageAddr {
                    die: 1,
                    plane: 1,
                    block: 5,
                    page: 9,
                },
            },
        }
    }

    #[test]
    fn clone_from_reproduces_the_source_whatever_the_target_held() {
        let entries = |m: &PageMap| {
            let mut v: Vec<_> = m.remapped_entries().collect();
            v.sort_unstable_by_key(|&(lpn, _)| lpn);
            v
        };
        let slot = 1u64 << (SEG_SHIFT + MID_SHIFT);
        let last = (ArrayShape::small_test().total_pages() - 1) / slot;
        assert!(last >= 2, "the test needs three root slots");
        // `a` holds a dense segment in root slot 0 and a sparse page in
        // slot 1; `b` holds sparse pages in slot 1 and the last slot.
        let mut a = map();
        for i in 0..PROMOTE_AT as u64 + 8 {
            a.remap(LogicalPage(i), some_loc(0));
        }
        a.remap(LogicalPage(slot + 3), some_loc(1));
        let mut b = map();
        b.remap(LogicalPage(slot + 3), some_loc(0));
        b.remap(LogicalPage(last * slot + 11), some_loc(1));
        for (src, mut dst) in [(&a, b.clone()), (&b, a.clone())] {
            dst.clone_from(src);
            assert_eq!(entries(&dst), entries(src));
            assert_eq!(dst.override_count(), src.override_count());
            assert_eq!(dst.total_remaps(), src.total_remaps());
            for lpn in [0, 5, slot + 3, last * slot + 11, last * slot] {
                assert_eq!(dst.locate(LogicalPage(lpn)), src.locate(LogicalPage(lpn)));
            }
        }
    }

    #[test]
    fn unmapped_pages_use_default_layout() {
        let m = map();
        let lpn = LogicalPage(12_345);
        assert_eq!(m.locate(lpn), m.layout().locate(lpn));
        assert!(!m.is_remapped(lpn));
    }

    #[test]
    fn remap_redirects_lookup() {
        let mut m = map();
        let lpn = LogicalPage(7);
        let target = some_loc(1);
        let old = m.remap(lpn, target);
        assert_eq!(old, m.layout().locate(lpn));
        assert_eq!(m.locate(lpn), target);
        assert!(m.is_remapped(lpn));
        assert_eq!(m.override_count(), 1);
    }

    #[test]
    fn remap_home_drops_override() {
        let mut m = map();
        let lpn = LogicalPage(7);
        let home = m.layout().locate(lpn);
        m.remap(lpn, some_loc(1));
        m.remap(lpn, home);
        assert_eq!(m.override_count(), 0, "override table stays sparse");
        assert_eq!(m.locate(lpn), home);
        assert_eq!(m.total_remaps(), 2);
    }

    #[test]
    fn remap_returns_previous_location() {
        let mut m = map();
        let lpn = LogicalPage(99);
        let first = some_loc(0);
        let second = some_loc(1);
        m.remap(lpn, first);
        let old = m.remap(lpn, second);
        assert_eq!(old, first);
        assert_eq!(m.locate(lpn), second);
    }

    #[test]
    fn promotion_to_dense_preserves_every_override() {
        let mut m = map();
        // Fill one segment past the promotion threshold, and sprinkle a
        // neighbour segment to prove the shared sparse table survives.
        let n = PROMOTE_AT as u64 + 40;
        for i in 0..n {
            m.remap(LogicalPage(i), some_loc(i as u32));
        }
        let other = LogicalPage(5 * SEG_PAGES as u64 + 3);
        m.remap(other, some_loc(77));
        assert_eq!(m.override_count(), n as usize + 1);
        for i in 0..n {
            assert_eq!(m.locate(LogicalPage(i)), some_loc(i as u32), "lpn {i}");
            assert!(m.is_remapped(LogicalPage(i)));
        }
        assert_eq!(m.locate(other), some_loc(77));
        // Un-touched pages of the promoted segment still resolve home.
        let cold = LogicalPage(n + 100);
        assert_eq!(m.locate(cold), m.layout().locate(cold));
        assert!(!m.is_remapped(cold));
    }

    #[test]
    fn dense_segment_supports_home_return_and_re_remap() {
        let mut m = map();
        for i in 0..(PROMOTE_AT as u64 + 8) {
            m.remap(LogicalPage(i), some_loc(i as u32));
        }
        let lpn = LogicalPage(3);
        let home = m.layout().locate(lpn);
        m.remap(lpn, home);
        assert!(!m.is_remapped(lpn));
        assert_eq!(m.locate(lpn), home);
        assert_eq!(m.override_count(), PROMOTE_AT as usize + 7);
        m.remap(lpn, some_loc(200));
        assert_eq!(m.locate(lpn), some_loc(200));
        assert_eq!(m.override_count(), PROMOTE_AT as usize + 8);
    }

    #[test]
    fn remapped_entries_walks_sparse_and_dense() {
        let mut m = map();
        let n = PROMOTE_AT as u64 + 10; // segment 0 goes dense
        for i in 0..n {
            m.remap(LogicalPage(i), some_loc(i as u32));
        }
        let lone = LogicalPage(7 * SEG_PAGES as u64 + 9); // stays sparse
        m.remap(lone, some_loc(300));
        let mut got: Vec<(u64, u32)> = m
            .remapped_entries()
            .map(|(lpn, loc)| (lpn.0, loc.fimm))
            .collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u32)> = (0..n).map(|i| (i, i as u32)).collect();
        want.push((lone.0, 300));
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn matches_flat_hashmap_reference_under_random_remaps() {
        use triplea_sim::SplitMix64;
        let mut m = map();
        let mut reference = std::collections::HashMap::new();
        let mut rng = SplitMix64::new(0xfeed);
        let span = 4 * SEG_PAGES as u64; // several segments, heavy reuse
        for _ in 0..20_000 {
            let lpn = LogicalPage(rng.next_u64() % span);
            let home = m.layout().locate(lpn);
            let to = if rng.next_u64().is_multiple_of(4) {
                home // force the "return home" path regularly
            } else {
                some_loc((rng.next_u64() % 64) as u32)
            };
            let old = m.remap(lpn, to);
            let ref_old = reference.get(&lpn).copied().unwrap_or(home);
            assert_eq!(old, ref_old);
            if to == home {
                reference.remove(&lpn);
            } else {
                reference.insert(lpn, to);
            }
        }
        assert_eq!(m.override_count(), reference.len());
        for i in 0..span {
            let lpn = LogicalPage(i);
            let want = reference
                .get(&lpn)
                .copied()
                .unwrap_or_else(|| m.layout().locate(lpn));
            assert_eq!(m.locate(lpn), want, "lpn {i}");
            assert_eq!(m.is_remapped(lpn), reference.contains_key(&lpn));
        }
        let mut got: Vec<u64> = m.remapped_entries().map(|(l, _)| l.0).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = reference.keys().map(|l| l.0).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
