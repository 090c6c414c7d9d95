//! Physical geometry of a NAND flash package.

use crate::error::FlashError;

/// Shape of one NAND flash package (paper Figure 3).
///
/// The default matches the reproduction's 8 GB package: 2 dies × 2 planes
/// × 4096 blocks × 128 pages × 4 KB.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlashGeometry {
    /// Dies per package; dies execute commands in parallel.
    pub dies: u32,
    /// Planes per die; identified by even/odd block addresses (§2.2).
    pub planes: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block; pages must be programmed in order within a block.
    pub pages_per_block: u32,
    /// Main-area page size in bytes.
    pub page_size: u32,
    /// Erase endurance: P/E cycles before a block is retired.
    pub endurance: u32,
}

impl Default for FlashGeometry {
    fn default() -> Self {
        FlashGeometry {
            dies: 2,
            planes: 2,
            blocks_per_plane: 4096,
            pages_per_block: 128,
            page_size: 4096,
            endurance: 3000,
        }
    }
}

impl FlashGeometry {
    /// Most dies per package a command can address:
    /// [`FlashCommand::validate`](crate::FlashCommand::validate) tracks
    /// the dies a command touches in a 64-bit mask.
    pub const MAX_DIES: u32 = 64;

    /// Most planes per die a command can address, for the same reason
    /// as [`FlashGeometry::MAX_DIES`].
    pub const MAX_PLANES: u32 = 64;

    /// Total number of blocks in the package.
    pub fn total_blocks(&self) -> u64 {
        self.dies as u64 * self.planes as u64 * self.blocks_per_plane as u64
    }

    /// Total number of pages in the package.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Usable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// Which plane a block address belongs to (even/odd identification,
    /// generalised to `block % planes`).
    pub fn plane_of_block(&self, block: u32) -> u32 {
        block % self.planes
    }

    /// Validates a page address against this geometry.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::InvalidAddress`] when any coordinate is out of
    /// range or the block's even/odd parity does not match its plane.
    pub fn check(&self, addr: PageAddr) -> Result<(), FlashError> {
        let per_plane_blocks = self.blocks_per_plane * self.planes;
        if addr.die >= self.dies
            || addr.plane >= self.planes
            || addr.block >= per_plane_blocks
            || addr.page >= self.pages_per_block
            || self.plane_of_block(addr.block) != addr.plane
        {
            return Err(FlashError::InvalidAddress(addr));
        }
        Ok(())
    }

    /// Package-wide block index of an address (for wear bookkeeping).
    pub fn block_index(&self, addr: PageAddr) -> u64 {
        let blocks_per_die = (self.blocks_per_plane * self.planes) as u64;
        addr.die as u64 * blocks_per_die + addr.block as u64
    }
}

/// Physical address of one page inside a package.
///
/// `block` is the die-local block number; its parity (`block % planes`)
/// determines the plane, mirroring the even/odd addressing of §2.2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddr {
    /// Die within the package.
    pub die: u32,
    /// Plane within the die (must equal `block % planes`).
    pub plane: u32,
    /// Block within the die.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

impl std::fmt::Display for PageAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "d{}p{}b{}pg{}",
            self.die, self.plane, self.block, self.page
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_capacity_is_8gib() {
        let g = FlashGeometry::default();
        assert_eq!(g.capacity_bytes(), 8 * 1024 * 1024 * 1024);
        assert_eq!(g.total_blocks(), 2 * 2 * 4096);
    }

    #[test]
    fn plane_parity_enforced() {
        let g = FlashGeometry::default();
        let ok = PageAddr {
            die: 0,
            plane: 1,
            block: 3,
            page: 0,
        };
        assert!(g.check(ok).is_ok());
        let bad = PageAddr {
            die: 0,
            plane: 0,
            block: 3,
            page: 0,
        };
        assert!(matches!(g.check(bad), Err(FlashError::InvalidAddress(_))));
    }

    #[test]
    fn out_of_range_rejected() {
        let g = FlashGeometry::default();
        for bad in [
            PageAddr {
                die: 2,
                plane: 0,
                block: 0,
                page: 0,
            },
            PageAddr {
                die: 0,
                plane: 0,
                block: 2 * 4096,
                page: 0,
            },
            PageAddr {
                die: 0,
                plane: 0,
                block: 0,
                page: 128,
            },
        ] {
            assert!(g.check(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn display_is_compact() {
        let addr = PageAddr {
            die: 1,
            plane: 0,
            block: 2,
            page: 3,
        };
        assert_eq!(addr.to_string(), "d1p0b2pg3");
    }
}
