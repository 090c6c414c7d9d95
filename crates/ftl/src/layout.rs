//! The default physical data layout.

use triplea_fimm::FimmAddr;
use triplea_flash::PageAddr;
use triplea_pcie::ClusterId;

use crate::shape::{ArrayShape, LogicalPage, PhysLoc};

/// The array's default (pre-reshaping) data layout.
///
/// Logical space is split into one *contiguous region per cluster* — so a
/// workload whose address distribution is skewed produces the paper's
/// **hot clusters** — while inside a cluster consecutive pages stripe
/// across FIMMs, then packages, then dies, then planes, maximising the
/// internal parallelism the HAL can exploit.
#[derive(Clone, Copy, Debug)]
pub struct StripedLayout {
    shape: ArrayShape,
}

impl StripedLayout {
    /// Creates the layout for `shape`.
    pub fn new(shape: ArrayShape) -> Self {
        StripedLayout { shape }
    }

    /// The shape this layout addresses.
    pub fn shape(&self) -> &ArrayShape {
        &self.shape
    }

    /// Number of addressable logical pages.
    pub fn total_pages(&self) -> u64 {
        self.shape.total_pages()
    }

    /// Resolves a logical page to its default physical location.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of the array's address space.
    pub fn locate(&self, lpn: LogicalPage) -> PhysLoc {
        let s = &self.shape;
        assert!(lpn.0 < s.total_pages(), "logical page out of range");

        let per_cluster = s.pages_per_cluster();
        let cluster_global = (lpn.0 / per_cluster) as u32;
        let cluster = s.topology.cluster_from_global(cluster_global);

        let w = lpn.0 % per_cluster;
        let fimm = (w % s.fimms_per_cluster as u64) as u32;
        let w = w / s.fimms_per_cluster as u64;
        let package = (w % s.packages_per_fimm as u64) as u32;
        let w = w / s.packages_per_fimm as u64;

        let g = &s.flash;
        let die = (w % g.dies as u64) as u32;
        let w = w / g.dies as u64;
        let plane = (w % g.planes as u64) as u32;
        let w = w / g.planes as u64;
        let page = (w % g.pages_per_block as u64) as u32;
        let block_in_plane = (w / g.pages_per_block as u64) as u32;
        let block = block_in_plane * g.planes + plane;

        PhysLoc {
            cluster,
            fimm,
            addr: FimmAddr {
                package,
                page: PageAddr {
                    die,
                    plane,
                    block,
                    page,
                },
            },
        }
    }

    /// The first logical page of a cluster's contiguous region.
    pub fn region_start(&self, cluster: ClusterId) -> LogicalPage {
        LogicalPage(
            self.shape.topology.global_index(cluster) as u64 * self.shape.pages_per_cluster(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> StripedLayout {
        StripedLayout::new(ArrayShape::small_test())
    }

    #[test]
    fn every_location_is_in_shape() {
        let l = layout();
        // probe a spread of the space
        let step = l.total_pages() / 997;
        for i in 0..997 {
            let loc = l.locate(LogicalPage(i * step));
            assert!(l.shape().contains(loc), "lpn {} -> {loc}", i * step);
        }
    }

    #[test]
    fn consecutive_pages_stripe_across_fimms() {
        let l = layout();
        let a = l.locate(LogicalPage(0));
        let b = l.locate(LogicalPage(1));
        let c = l.locate(LogicalPage(2));
        assert_eq!(a.cluster, b.cluster);
        assert_ne!(a.fimm, b.fimm, "adjacent pages on different FIMMs");
        assert_eq!(a.fimm, c.fimm, "wraps around two FIMMs");
        assert_ne!(a.addr.package, c.addr.package, "then strips packages");
    }

    #[test]
    fn regions_are_cluster_contiguous() {
        let l = layout();
        let per_cluster = l.shape().pages_per_cluster();
        let first = l.locate(LogicalPage(0));
        let last = l.locate(LogicalPage(per_cluster - 1));
        let next = l.locate(LogicalPage(per_cluster));
        assert_eq!(first.cluster, last.cluster);
        assert_ne!(last.cluster, next.cluster);
    }

    #[test]
    fn region_start_roundtrip() {
        let l = layout();
        for id in l.shape().topology.iter_clusters().collect::<Vec<_>>() {
            let start = l.region_start(id);
            assert_eq!(l.locate(start).cluster, id);
        }
    }

    #[test]
    fn layout_is_injective_within_cluster() {
        let l = layout();
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..l.shape().pages_per_cluster() {
            let loc = l.locate(LogicalPage(lpn));
            assert!(seen.insert((loc.fimm, loc.addr)), "duplicate at lpn {lpn}");
        }
    }

    #[test]
    fn block_parity_matches_plane() {
        let l = layout();
        for lpn in (0..l.total_pages()).step_by(777) {
            let loc = l.locate(LogicalPage(lpn));
            assert_eq!(
                loc.addr.page.block % l.shape().flash.planes,
                loc.addr.page.plane
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let l = layout();
        l.locate(LogicalPage(l.total_pages()));
    }
}
