//! Bounds the page map's heap: overrides cost memory in proportion to
//! what is mapped, not to how many 2^18-page regions they touch.
//!
//! The test binary installs [`CountingAllocator`] as its global
//! allocator, so every allocation in a measured region is counted,
//! including ones hidden behind inlined library calls.

use triplea_alloc_counter::{measure, AllocSnapshot, CountingAllocator};
use triplea_ftl::{ArrayShape, LogicalPage, PageMap, PhysLoc};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Pages covered by one slot of the map's root directory.
const REGION: u64 = 1 << 18;

/// Distinct regions the tests touch: a quarter of the paper array's.
const REGIONS: u64 = 4_096;

/// Runs `f` on a fresh map from `setup` up to 16 times and returns the
/// smallest allocation delta. The counters are process-global and the
/// libtest harness's own threads allocate at unpredictable instants, so
/// a single measurement could blame `f` for a neighbour's allocation;
/// the quietest attempt shows what `f` itself costs.
fn least(mut setup: impl FnMut() -> PageMap, mut f: impl FnMut(&mut PageMap)) -> AllocSnapshot {
    (0..16)
        .map(|_| {
            let mut m = setup();
            measure(|| f(&mut m)).1
        })
        .min_by_key(|d| (d.bytes, d.allocations))
        .expect("at least one attempt")
}

/// A location other than `lpn`'s home: the home of its neighbour.
fn away(m: &PageMap, lpn: LogicalPage) -> PhysLoc {
    m.layout().locate(LogicalPage(lpn.0 ^ 1))
}

fn paper_map() -> PageMap {
    let shape = ArrayShape::default();
    assert!(shape.total_pages() >= REGIONS * REGION);
    PageMap::new(shape)
}

#[test]
fn one_override_per_region_costs_table_entries_not_directory_nodes() {
    let remap_one_per_region = |m: &mut PageMap| {
        for r in 0..REGIONS {
            let lpn = LogicalPage(r * REGION + 7);
            m.remap(lpn, away(m, lpn));
        }
    };
    let delta = least(paper_map, remap_one_per_region);
    // Each override is one sparse-table entry plus one per-segment
    // count. A hash table keeps at least 7/16 of its buckets full, and
    // its growth reallocates, so the bytes requested stay within about
    // four entries per override; eight leaves room for control bytes.
    let entry = size_of::<(LogicalPage, PhysLoc)>() + size_of::<(u64, u16)>();
    let bound = 8 * REGIONS * entry as u64;
    assert!(
        delta.bytes <= bound,
        "{REGIONS} overrides in distinct regions requested {} bytes (bound {bound}, \
         an 8 KiB node per region would be {})",
        delta.bytes,
        REGIONS * 8_192
    );
    let mut m = paper_map();
    remap_one_per_region(&mut m);
    assert_eq!(m.override_count(), REGIONS as usize);
    let dump = format!("{m:?}");
    assert!(dump.contains("dir_nodes: 0, dense_segments: 0"), "{dump}");
}

#[test]
fn remaps_within_a_dense_segment_allocate_nothing() {
    let segment = 512u64;
    let promoted = || {
        let mut m = paper_map();
        for lpn in (0..segment).step_by(4).map(LogicalPage) {
            m.remap(lpn, away(&m, lpn));
        }
        assert!(format!("{m:?}").contains("dense_segments: 1"));
        m
    };
    let delta = least(promoted, |m| {
        for lpn in (0..segment).map(LogicalPage) {
            m.remap(lpn, away(m, lpn));
        }
        for lpn in (0..segment).step_by(2).map(LogicalPage) {
            let home = m.layout().locate(lpn);
            m.remap(lpn, home);
        }
        for lpn in (0..segment).map(LogicalPage) {
            m.remap(lpn, away(m, lpn));
            assert!(m.is_remapped(lpn));
        }
    });
    assert_eq!(
        delta.allocations, 0,
        "dense-segment remaps allocated {} bytes",
        delta.bytes
    );
}

#[test]
fn returning_unmapped_pages_home_allocates_nothing() {
    let delta = least(paper_map, |m| {
        for r in 0..REGIONS {
            let lpn = LogicalPage(r * REGION + 7);
            let home = m.layout().locate(lpn);
            assert_eq!(m.remap(lpn, home), home);
        }
    });
    assert_eq!(
        delta.allocations, 0,
        "home returns of unmapped pages allocated {} bytes",
        delta.bytes
    );
}
