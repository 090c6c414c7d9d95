//! Logical→physical translation with sparse overrides.

use std::collections::hash_map::Entry;

use triplea_sim::FxHashMap;

use crate::layout::StripedLayout;
use crate::shape::{ArrayShape, LogicalPage, PhysLoc};

/// Pages per segment (2^9 = 512): the granularity at which override
/// storage switches between the shared sparse table and a dense
/// per-segment array.
const SEG_SHIFT: u32 = 9;
const SEG_PAGES: usize = 1 << SEG_SHIFT;

/// Segments per directory node (2^9 = 512), so the root directory has
/// `total_pages / 2^18` slots — 16 K entries for the paper's 16 TB
/// array.
const MID_SHIFT: u32 = 9;
const MID_SEGS: usize = 1 << MID_SHIFT;

/// A segment is promoted from the sparse table to a dense array once
/// this many of its pages hold overrides (1/8 occupancy): hot GC/
/// migration regions become branch-cheap array lookups while isolated
/// relocations stay in the hash table.
const PROMOTE_AT: u16 = 64;

// A root slot's sparse count fits a `u16`: each of its segments holds
// fewer than `PROMOTE_AT` sparse overrides.
const _: () = assert!(MID_SEGS * (PROMOTE_AT as usize - 1) <= u16::MAX as usize);

/// Dense override storage for one 512-page segment: a presence bitmap
/// plus a location per page (~16 KB).
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
    fn get(&self, off: usize) -> Option<PhysLoc> {
        (self.bits[off / 64] & (1u64 << (off % 64)) != 0).then(|| self.locs[off])
    }

    /// Stores `loc` at `off`, returning the override it replaced.
    #[inline]
    fn replace(&mut self, off: usize, loc: PhysLoc) -> Option<PhysLoc> {
        let prev = self.get(off);
        self.bits[off / 64] |= 1u64 << (off % 64);
        self.locs[off] = loc;
        prev
    }

    /// Drops the override at `off`, returning it.
    #[inline]
    fn take(&mut self, off: usize) -> Option<PhysLoc> {
        let prev = self.get(off);
        self.bits[off / 64] &= !(1u64 << (off % 64));
        prev
    }
}

impl Clone for Segment {
    fn clone(&self) -> Self {
        Segment {
            bits: self.bits,
            locs: self.locs.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.bits = source.bits;
        self.locs.clone_from(&source.locs);
    }
}

/// Directory node: the dense segments of 512 consecutive segments
/// (4 KiB). Allocated when the region's first segment goes dense.
struct Mid {
    segs: [Option<Box<Segment>>; MID_SEGS],
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

/// What a [`PageMap`]'s overrides occupy, for explaining heap reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MapFootprint {
    /// Directory nodes allocated (4 KiB each).
    pub dir_nodes: usize,
    /// Dense segments (~16 KiB each).
    pub dense_segments: usize,
    /// Segments whose overrides live in the sparse table.
    pub sparse_segments: usize,
    /// Overrides in the sparse table.
    pub sparse_entries: usize,
}

/// The array-wide page map: a default [`StripedLayout`] plus an
/// override structure holding every page that writes, garbage
/// collection, data migration or layout reshaping have relocated.
///
/// Keeping the default implicit is what lets the simulator address 16 TB
/// (4 billion pages) while only materialising the trace's footprint.
///
/// Overrides are stored hybrid per 512-page segment. A segment with
/// fewer than `PROMOTE_AT` (64) overrides keeps them in one shared
/// FxHash table, and a side table counts them per segment. At 64 the
/// segment is promoted to dense bitmap+array storage, so `locate` in
/// GC/migration hot regions is an array index. Dense segments hang off
/// a radix directory (root → node → segment) whose nodes are allocated
/// only when a segment of their 2^18-page region goes dense. Each root
/// slot also counts its sparse overrides, so the dominant "not
/// remapped" case in an untouched region is two checks and no hashing.
/// The map's memory thus follows what is mapped: a 40-byte table entry
/// per sparse override, a 16-byte count per sparse segment, ~16 KiB
/// per dense segment plus a 4 KiB node per region holding one, and
/// 10 bytes per root slot.
///
/// The observable behaviour is identical to the original flat
/// `HashMap` (including "returning home drops the override").
pub struct PageMap {
    layout: StripedLayout,
    /// Root directory: one slot per 2^18 pages, `None` until a segment
    /// of the slot's region goes dense.
    root: Vec<Option<Box<Mid>>>,
    /// Sparse overrides per root slot; zero lets lookups skip hashing.
    root_sparse: Vec<u16>,
    /// Override count of every segment that has sparse overrides,
    /// keyed by segment number; drives promotion.
    seg_counts: FxHashMap<u64, u16>,
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

#[inline]
fn slot_of(seg: u64) -> usize {
    (seg >> MID_SHIFT) as usize
}

impl PageMap {
    /// Creates an un-remapped page map over `shape`.
    pub fn new(shape: ArrayShape) -> Self {
        let root_slots = (shape.total_pages() >> (SEG_SHIFT + MID_SHIFT)) as usize + 1;
        PageMap {
            layout: StripedLayout::new(shape),
            root: (0..root_slots).map(|_| None).collect(),
            root_sparse: vec![0; root_slots],
            seg_counts: FxHashMap::default(),
            sparse: FxHashMap::default(),
            overrides: 0,
            remaps: 0,
        }
    }

    /// The underlying default layout.
    pub fn layout(&self) -> &StripedLayout {
        &self.layout
    }

    /// The dense segment `seg`, if it has been promoted.
    #[inline]
    fn dense(&self, seg: u64) -> Option<&Segment> {
        self.root.get(slot_of(seg))?.as_ref()?.segs[(seg as usize) & (MID_SEGS - 1)].as_deref()
    }

    #[inline]
    fn dense_mut(&mut self, seg: u64) -> Option<&mut Segment> {
        self.root[slot_of(seg)].as_mut()?.segs[(seg as usize) & (MID_SEGS - 1)].as_deref_mut()
    }

    /// The override for `lpn`, if any.
    #[inline]
    fn lookup(&self, lpn: LogicalPage) -> Option<PhysLoc> {
        let seg = seg_of(lpn);
        if let Some(d) = self.dense(seg) {
            return d.get((lpn.0 as usize) & (SEG_PAGES - 1));
        }
        if *self.root_sparse.get(slot_of(seg))? == 0 {
            return None;
        }
        self.sparse.get(&lpn).copied()
    }

    /// Resolves a logical page: override if present, default otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the address space (propagated from
    /// [`StripedLayout::locate`]).
    #[inline]
    pub fn locate(&self, lpn: LogicalPage) -> PhysLoc {
        self.lookup(lpn).unwrap_or_else(|| self.layout.locate(lpn))
    }

    /// `true` if the page has been relocated away from its default spot.
    pub fn is_remapped(&self, lpn: LogicalPage) -> bool {
        self.lookup(lpn).is_some()
    }

    /// Adds a sparse override, promoting its segment once it holds
    /// `PROMOTE_AT` of them. Returns the override it replaced.
    fn insert_sparse(&mut self, lpn: LogicalPage, to: PhysLoc) -> Option<PhysLoc> {
        let prev = self.sparse.insert(lpn, to);
        if prev.is_none() {
            let seg = seg_of(lpn);
            self.root_sparse[slot_of(seg)] += 1;
            let n = self.seg_counts.entry(seg).or_insert(0);
            *n += 1;
            if *n == PROMOTE_AT {
                self.promote(seg);
            }
        }
        prev
    }

    /// Drops the sparse override of `lpn`, returning it. A page of a
    /// region with no sparse overrides returns without hashing.
    fn take_sparse(&mut self, lpn: LogicalPage) -> Option<PhysLoc> {
        let seg = seg_of(lpn);
        let slot = slot_of(seg);
        if self.root_sparse[slot] == 0 {
            return None;
        }
        let prev = self.sparse.remove(&lpn)?;
        self.root_sparse[slot] -= 1;
        match self.seg_counts.entry(seg) {
            Entry::Occupied(mut n) => {
                *n.get_mut() -= 1;
                if *n.get() == 0 {
                    n.remove();
                }
            }
            Entry::Vacant(_) => unreachable!("a sparse override's segment is counted"),
        }
        Some(prev)
    }

    /// Promotes a sparse segment to dense storage, pulling its pages out
    /// of the shared table and allocating its directory node if this is
    /// the region's first dense segment.
    fn promote(&mut self, seg: u64) {
        let slot = slot_of(seg);
        let n = self
            .seg_counts
            .remove(&seg)
            .expect("a promoted segment is counted");
        self.root_sparse[slot] -= n;
        let mut dense = Box::new(Segment::new());
        let base = seg << SEG_SHIFT;
        for off in 0..SEG_PAGES {
            if let Some(loc) = self.sparse.remove(&LogicalPage(base + off as u64)) {
                dense.replace(off, loc);
            }
        }
        let mid = self.root[slot].get_or_insert_with(|| {
            Box::new(Mid {
                segs: std::array::from_fn(|_| None),
            })
        });
        mid.segs[(seg as usize) & (MID_SEGS - 1)] = Some(dense);
    }

    /// Points `lpn` at a new physical location, returning the previous
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the address space (propagated from
    /// [`StripedLayout::locate`]).
    pub fn remap(&mut self, lpn: LogicalPage, to: PhysLoc) -> PhysLoc {
        let home = self.layout.locate(lpn);
        self.remaps += 1;
        let off = (lpn.0 as usize) & (SEG_PAGES - 1);
        // Returning home drops the override, so stored overrides are
        // never home and `prev` is exactly the page's previous location.
        let prev = match self.dense_mut(seg_of(lpn)) {
            Some(d) if to == home => d.take(off),
            Some(d) => d.replace(off, to),
            None if to == home => self.take_sparse(lpn),
            None => self.insert_sparse(lpn, to),
        };
        match (prev.is_some(), to == home) {
            (false, false) => self.overrides += 1,
            (true, true) => self.overrides -= 1,
            _ => {}
        }
        prev.unwrap_or(home)
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
                mid.segs.iter().enumerate().filter_map(move |(i, s)| {
                    let seg = ((slot as u64) << MID_SHIFT) | i as u64;
                    s.as_deref().map(|d| (seg, d))
                })
            })
            .flat_map(|(seg, d)| {
                let base = seg << SEG_SHIFT;
                (0..SEG_PAGES).filter_map(move |off| {
                    d.get(off).map(|loc| (LogicalPage(base + off as u64), loc))
                })
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

    /// Counts what the overrides occupy. O(root slots).
    pub(crate) fn footprint(&self) -> MapFootprint {
        let nodes = || self.root.iter().flatten();
        MapFootprint {
            dir_nodes: nodes().count(),
            dense_segments: nodes().map(|m| m.segs.iter().flatten().count()).sum(),
            sparse_segments: self.seg_counts.len(),
            sparse_entries: self.sparse.len(),
        }
    }
}

impl Clone for PageMap {
    fn clone(&self) -> Self {
        PageMap {
            layout: self.layout,
            root: self.root.clone(),
            root_sparse: self.root_sparse.clone(),
            seg_counts: self.seg_counts.clone(),
            sparse: self.sparse.clone(),
            overrides: self.overrides,
            remaps: self.remaps,
        }
    }

    /// Copies `source` in place, reusing this map's directory nodes and
    /// dense segments where both maps have one: a power cut restores
    /// the live map from the journal checkpoint this way, and rewriting
    /// already-mapped memory is several times cheaper than allocating a
    /// fresh directory.
    fn clone_from(&mut self, source: &Self) {
        self.layout = source.layout;
        self.root.clone_from(&source.root);
        self.root_sparse.clone_from(&source.root_sparse);
        self.seg_counts.clone_from(&source.seg_counts);
        self.sparse.clone_from(&source.sparse);
        self.overrides = source.overrides;
        self.remaps = source.remaps;
    }
}

impl std::fmt::Debug for PageMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fp = self.footprint();
        f.debug_struct("PageMap")
            .field("overrides", &self.overrides)
            .field("remaps", &self.remaps)
            .field("sparse_entries", &fp.sparse_entries)
            .field("sparse_segments", &fp.sparse_segments)
            .field("dir_nodes", &fp.dir_nodes)
            .field("dense_segments", &fp.dense_segments)
            .finish()
    }
}

/// The map before its directory was sized to what is mapped, kept as
/// the executable specification the differential test races: every
/// region holding an override owns an 8 KiB node of per-segment states,
/// and sparse counts live in those nodes.
#[cfg(test)]
mod spec {
    use super::*;

    #[derive(Clone)]
    enum SegState {
        Empty,
        Sparse(u16),
        Dense(Box<Segment>),
    }

    #[derive(Clone)]
    struct Mid {
        segs: [SegState; MID_SEGS],
    }

    #[derive(Clone)]
    pub(super) struct PageMap {
        layout: StripedLayout,
        root: Vec<Option<Box<Mid>>>,
        sparse: FxHashMap<LogicalPage, PhysLoc>,
        overrides: usize,
        remaps: u64,
    }

    impl PageMap {
        pub(super) fn new(shape: ArrayShape) -> Self {
            let root_slots = (shape.total_pages() >> (SEG_SHIFT + MID_SHIFT)) + 1;
            PageMap {
                layout: StripedLayout::new(shape),
                root: (0..root_slots).map(|_| None).collect(),
                sparse: FxHashMap::default(),
                overrides: 0,
                remaps: 0,
            }
        }

        fn lookup(&self, lpn: LogicalPage) -> Option<PhysLoc> {
            let seg = seg_of(lpn);
            let mid = self.root.get(slot_of(seg))?.as_ref()?;
            match &mid.segs[(seg as usize) & (MID_SEGS - 1)] {
                SegState::Empty => None,
                SegState::Sparse(_) => self.sparse.get(&lpn).copied(),
                SegState::Dense(d) => d.get((lpn.0 as usize) & (SEG_PAGES - 1)),
            }
        }

        pub(super) fn locate(&self, lpn: LogicalPage) -> PhysLoc {
            self.lookup(lpn).unwrap_or_else(|| self.layout.locate(lpn))
        }

        pub(super) fn is_remapped(&self, lpn: LogicalPage) -> bool {
            self.lookup(lpn).is_some()
        }

        fn seg_state(root: &mut [Option<Box<Mid>>], lpn: LogicalPage) -> &mut SegState {
            let seg = seg_of(lpn);
            let mid = root[slot_of(seg)].get_or_insert_with(|| {
                Box::new(Mid {
                    segs: std::array::from_fn(|_| SegState::Empty),
                })
            });
            &mut mid.segs[(seg as usize) & (MID_SEGS - 1)]
        }

        fn promote(sparse: &mut FxHashMap<LogicalPage, PhysLoc>, seg: u64) -> Box<Segment> {
            let mut dense = Box::new(Segment::new());
            let base = seg << SEG_SHIFT;
            for off in 0..SEG_PAGES {
                if let Some(loc) = sparse.remove(&LogicalPage(base + off as u64)) {
                    dense.replace(off, loc);
                }
            }
            dense
        }

        pub(super) fn remap(&mut self, lpn: LogicalPage, to: PhysLoc) -> PhysLoc {
            let old = self.locate(lpn);
            let home = self.layout.locate(lpn);
            self.remaps += 1;
            let off = (lpn.0 as usize) & (SEG_PAGES - 1);
            let seg = seg_of(lpn);
            let state = Self::seg_state(&mut self.root, lpn);
            if to == home {
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
                    SegState::Dense(d) => d.take(off).is_some(),
                };
                if removed {
                    self.overrides -= 1;
                }
            } else {
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
                    SegState::Dense(d) => d.replace(off, to).is_none(),
                };
                if fresh {
                    self.overrides += 1;
                }
            }
            old
        }

        pub(super) fn override_count(&self) -> usize {
            self.overrides
        }

        pub(super) fn remapped_entries(&self) -> impl Iterator<Item = (LogicalPage, PhysLoc)> + '_ {
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
                                Some((((slot as u64) << MID_SHIFT) | i as u64, d))
                            }
                            _ => None,
                        })
                })
                .flat_map(|(seg, d)| {
                    let base = seg << SEG_SHIFT;
                    (0..SEG_PAGES).filter_map(move |off| {
                        d.get(off).map(|loc| (LogicalPage(base + off as u64), loc))
                    })
                });
            self.sparse
                .iter()
                .map(|(&lpn, &loc)| (lpn, loc))
                .chain(dense)
        }

        pub(super) fn total_remaps(&self) -> u64 {
            self.remaps
        }
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

    /// Pages per root slot.
    const SLOT: u64 = 1 << (SEG_SHIFT + MID_SHIFT);

    fn footprint(
        dir_nodes: usize,
        dense_segments: usize,
        sparse_segments: usize,
        sparse_entries: usize,
    ) -> MapFootprint {
        MapFootprint {
            dir_nodes,
            dense_segments,
            sparse_segments,
            sparse_entries,
        }
    }

    #[test]
    fn clone_from_reproduces_the_source_whatever_the_target_held() {
        let entries = |m: &PageMap| {
            let mut v: Vec<_> = m.remapped_entries().collect();
            v.sort_unstable_by_key(|&(lpn, _)| lpn);
            v
        };
        let last = (ArrayShape::small_test().total_pages() - 1) / SLOT;
        assert!(last >= 2, "the test needs three root slots");
        // `a` holds a dense segment in root slot 0 and a sparse page in
        // slot 1; `b` holds sparse pages in slot 1 and the last slot.
        let mut a = map();
        for i in 0..PROMOTE_AT as u64 + 8 {
            a.remap(LogicalPage(i), some_loc(0));
        }
        a.remap(LogicalPage(SLOT + 3), some_loc(1));
        let mut b = map();
        b.remap(LogicalPage(SLOT + 3), some_loc(0));
        b.remap(LogicalPage(last * SLOT + 11), some_loc(1));
        for (src, mut dst) in [(&a, b.clone()), (&b, a.clone())] {
            dst.clone_from(src);
            assert_eq!(entries(&dst), entries(src));
            assert_eq!(dst.override_count(), src.override_count());
            assert_eq!(dst.total_remaps(), src.total_remaps());
            assert_eq!(dst.footprint(), src.footprint());
            for lpn in [0, 5, SLOT + 3, last * SLOT + 11, last * SLOT] {
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
        assert_eq!(m.footprint(), footprint(0, 0, 0, 0));
    }

    #[test]
    fn returning_an_unmapped_page_home_allocates_nothing() {
        let mut m = map();
        let last = m.layout().total_pages() - 1;
        for lpn in [0, 7, SLOT + 3, last] {
            let lpn = LogicalPage(lpn);
            let home = m.layout().locate(lpn);
            assert_eq!(m.remap(lpn, home), home);
        }
        assert_eq!(m.override_count(), 0);
        assert_eq!(m.total_remaps(), 4);
        assert_eq!(m.footprint(), footprint(0, 0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remap_beyond_the_address_space_panics() {
        let mut m = map();
        let end = LogicalPage(m.layout().total_pages());
        m.remap(end, some_loc(1));
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
    fn directory_nodes_appear_only_when_a_segment_goes_dense() {
        let mut m = map();
        // One sparse page in each of three regions: no directory node.
        for slot in 0..3 {
            m.remap(LogicalPage(slot * SLOT + 1), some_loc(1));
        }
        assert_eq!(m.footprint(), footprint(0, 0, 3, 3));
        // Segment 1 of region 0 reaches `PROMOTE_AT` with its last page.
        let base = SEG_PAGES as u64;
        for i in 0..PROMOTE_AT as u64 - 1 {
            m.remap(LogicalPage(base + i), some_loc(2));
        }
        assert_eq!(
            m.footprint(),
            footprint(0, 0, 4, 3 + PROMOTE_AT as usize - 1)
        );
        m.remap(LogicalPage(base + 100), some_loc(3));
        assert_eq!(m.footprint(), footprint(1, 1, 3, 3));
        assert_eq!(m.override_count(), 3 + PROMOTE_AT as usize);
        // Emptying the dense segment keeps its storage.
        for i in (0..PROMOTE_AT as u64 - 1).chain([100]) {
            let lpn = LogicalPage(base + i);
            m.remap(lpn, m.layout().locate(lpn));
        }
        assert_eq!(m.footprint(), footprint(1, 1, 3, 3));
        assert_eq!(m.override_count(), 3);
        assert!(format!("{m:?}").contains("dir_nodes: 1, dense_segments: 1"));
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

    /// Differential test of the map against [`spec::PageMap`].
    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// A map and its specification, fed the same operations.
        #[derive(Clone)]
        struct Pair {
            map: PageMap,
            spec: spec::PageMap,
        }

        /// Sixty-four root slots: small enough to revisit, wide enough
        /// to scatter.
        fn shape() -> ArrayShape {
            let small = ArrayShape::small_test();
            ArrayShape {
                flash: triplea_flash::FlashGeometry {
                    blocks_per_plane: 1024,
                    ..small.flash
                },
                ..small
            }
        }

        impl Pair {
            fn new() -> Self {
                Pair {
                    map: PageMap::new(shape()),
                    spec: spec::PageMap::new(shape()),
                }
            }

            fn same_page(&self, lpn: LogicalPage) {
                prop_assert_eq!(self.map.locate(lpn), self.spec.locate(lpn));
                prop_assert_eq!(self.map.is_remapped(lpn), self.spec.is_remapped(lpn));
            }

            /// Every whole-map observable matches. Entries match in
            /// iteration order, not only as sets: both maps drive their
            /// shared sparse table through the same inserts and removals
            /// and walk dense segments in address order, so a caller
            /// that iterates sees the same sequence.
            fn same_map(&self) {
                prop_assert_eq!(self.map.override_count(), self.spec.override_count());
                prop_assert_eq!(self.map.total_remaps(), self.spec.total_remaps());
                let got: Vec<_> = self.map.remapped_entries().collect();
                let want: Vec<_> = self.spec.remapped_entries().collect();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(got.len(), self.map.override_count());
            }
        }

        /// A page: mostly in four hot segments, two sharing a region,
        /// which cross `PROMOTE_AT` and then see home returns; otherwise
        /// spread over one region's segments or the whole space.
        fn page(total: u64, sel: u64, a: u64) -> LogicalPage {
            let seg = SEG_PAGES as u64;
            let hot = [0, 2 * seg, SLOT + seg, total - seg];
            LogicalPage(match sel % 4 {
                0 | 1 => hot[(a % 4) as usize] + (a / 4) % 80,
                2 => (a % 64) * SLOT + (a / 64) % SLOT,
                _ => a % total,
            })
        }

        /// One generated operation: `kind` picks it, the other fields
        /// parameterise it.
        type Op = (u32, u64, u64, u32);

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            prop::collection::vec((0u32..100, 0u64..4, 0u64..u64::MAX, 0u32..8), 100..800)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64 })]

            /// Over random sequences of remaps, home returns, lookups and
            /// copies between two maps of different shapes, the map and
            /// its specification agree on every observable.
            #[test]
            fn map_matches_spec(ops in ops()) {
                let total = shape().total_pages();
                let mut pairs = [Pair::new(), Pair::new()];
                for (kind, sel, a, c) in ops {
                    let lpn = page(total, sel, a);
                    let p = &mut pairs[(c % 2) as usize];
                    match kind {
                        // Remap away from home.
                        0..=54 => {
                            let to = some_loc(c);
                            prop_assert_eq!(p.map.remap(lpn, to), p.spec.remap(lpn, to));
                        }
                        // Return home, remapped or not.
                        55..=79 => {
                            let home = p.map.layout().locate(lpn);
                            prop_assert_eq!(p.map.remap(lpn, home), p.spec.remap(lpn, home));
                        }
                        // A run of remaps, which drives segments to
                        // `PROMOTE_AT`.
                        80..=87 => {
                            for lpn in (lpn.0..total).take(32).map(LogicalPage) {
                                let to = some_loc(c);
                                prop_assert_eq!(p.map.remap(lpn, to), p.spec.remap(lpn, to));
                            }
                        }
                        // Copy one map over the other, in place or fresh.
                        88..=93 => {
                            let [x, y] = &mut pairs;
                            let (src, dst) = if c % 2 == 0 { (&*x, y) } else { (&*y, x) };
                            dst.map.clone_from(&src.map);
                            dst.spec.clone_from(&src.spec);
                        }
                        94..=96 => pairs[(c % 2) as usize] = pairs[(c / 2 % 2) as usize].clone(),
                        _ => {}
                    }
                    for p in &pairs {
                        p.same_page(lpn);
                        p.same_map();
                    }
                }
            }
        }
    }
}
