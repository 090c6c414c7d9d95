//! FTL error types.

use triplea_pcie::ClusterId;

use crate::shape::{LogicalPage, PhysLoc};

/// Errors surfaced by the host-side flash translation layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FtlError {
    /// The target FIMM has no free blocks left; garbage collection must
    /// reclaim space before the write can proceed.
    OutOfSpace {
        /// Cluster of the exhausted FIMM.
        cluster: ClusterId,
        /// FIMM index within the cluster.
        fimm: u32,
    },
    /// A logical page outside the array's address space was used.
    AddressOutOfRange(u64),
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::OutOfSpace { cluster, fimm } => {
                write!(f, "no free blocks on {cluster} fimm {fimm}; gc required")
            }
            FtlError::AddressOutOfRange(lpn) => {
                write!(f, "logical page {lpn} outside the array address space")
            }
        }
    }
}

impl std::error::Error for FtlError {}

/// A mount-time recovery scan failure: the journal replay could not
/// reconstruct the pre-crash metadata. Either the replayed operation
/// itself failed, or it produced a different physical location than the
/// journal recorded — both indicate the journal and the checkpoint have
/// diverged and the metadata cannot be trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// Re-driving a journaled operation failed outright.
    Replay {
        /// Index of the failing record within the flushed journal.
        index: u64,
        /// The underlying FTL error.
        error: FtlError,
    },
    /// Replay succeeded but produced a result different from what the
    /// journal recorded at original execution time.
    Diverged {
        /// Index of the diverging record within the flushed journal.
        index: u64,
        /// The logical page whose replay diverged.
        lpn: LogicalPage,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Replay { index, error } => {
                write!(f, "journal replay failed at record {index}: {error}")
            }
            RecoveryError::Diverged { index, lpn } => {
                write!(
                    f,
                    "journal replay diverged at record {index} (lpn {})",
                    lpn.0
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// A metadata-integrity violation found by
/// [`Ftl::verify_integrity`](crate::Ftl::verify_integrity), identifying
/// exactly which logical page and physical location diverged.
///
/// The [`Display`](std::fmt::Display) rendering matches the prose the
/// checker has always produced, so log scrapers keep working; the typed
/// fields let callers dispatch on the failure class instead of parsing
/// strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrityError {
    /// An LPN's mapped location falls outside the array geometry.
    OutOfRange {
        /// The logical page whose mapping is bad.
        lpn: LogicalPage,
        /// Where the map (incorrectly) points.
        loc: PhysLoc,
    },
    /// Two LPNs map to the same physical page — a duplication introduced
    /// by writes, GC, migration, or fault rollback.
    DoubleMapped {
        /// The physical page claimed twice.
        loc: PhysLoc,
        /// The LPN the block table records at that page.
        first: LogicalPage,
        /// The other LPN the map also points there.
        second: LogicalPage,
    },
    /// The map points at a page the block table does not record as
    /// holding that LPN — the page's data was lost or overwritten.
    LostPage {
        /// The logical page whose data is unreachable.
        lpn: LogicalPage,
        /// Where the map points.
        loc: PhysLoc,
        /// What the block table records at that physical page, if
        /// anything.
        listed: Option<LogicalPage>,
    },
    /// A live block-table entry does not round-trip through the map: the
    /// table lists the LPN at one place while the map points elsewhere.
    StaleBlockEntry {
        /// The logical page with the stale entry.
        lpn: LogicalPage,
        /// Global cluster index of the stale block-table entry.
        cluster: u32,
        /// FIMM index of the stale entry.
        fimm: u32,
        /// Package of the stale entry.
        package: u32,
        /// Die of the stale entry.
        die: u32,
        /// Block of the stale entry.
        block: u32,
        /// Page offset of the stale entry.
        page: u32,
        /// Where the map actually points for this LPN.
        map_loc: PhysLoc,
    },
    /// The GC victim index disagrees with the block table: it lists a
    /// block that is not a GC candidate (absent, unsealed, with no
    /// invalid page, or listed under another FIMM), or omits one that
    /// is.
    VictimIndex {
        /// Global cluster index of the block.
        cluster: u32,
        /// FIMM index of the block.
        fimm: u32,
        /// Package of the block.
        package: u32,
        /// Die of the block.
        die: u32,
        /// Block number.
        block: u32,
        /// `true` when the index lists the block, `false` when it omits it.
        indexed: bool,
    },
    /// A block's own bookkeeping does not add up: its live count differs
    /// from the page slots holding an LPN, or it has more page slots than
    /// programmed pages.
    BlockCounts {
        /// Global cluster index of the block.
        cluster: u32,
        /// FIMM index of the block.
        fimm: u32,
        /// Package of the block.
        package: u32,
        /// Die of the block.
        die: u32,
        /// Block number.
        block: u32,
        /// Length of the programmed prefix the block records.
        programmed: u32,
        /// Live pages the block counts.
        live: u32,
        /// Page slots the block's table holds.
        slots: u32,
        /// Page slots holding an LPN.
        occupied: u32,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::OutOfRange { lpn, loc } => {
                write!(f, "lpn {} maps outside the array: {loc}", lpn.0)
            }
            IntegrityError::DoubleMapped { loc, first, second } => {
                write!(
                    f,
                    "physical page {loc} mapped by both lpn {} and lpn {}",
                    first.0, second.0
                )
            }
            IntegrityError::LostPage { lpn, loc, listed } => {
                write!(
                    f,
                    "lpn {} maps to {loc} but the block table records {listed:?} there",
                    lpn.0
                )
            }
            IntegrityError::StaleBlockEntry {
                lpn,
                cluster,
                fimm,
                package,
                die,
                block,
                page,
                map_loc,
            } => {
                write!(
                    f,
                    "block table lists lpn {} live at ({cluster}, {fimm}, \
                     ({package}, {die}, {block})) page {page} but the map points at {map_loc}",
                    lpn.0
                )
            }
            IntegrityError::VictimIndex {
                cluster,
                fimm,
                package,
                die,
                block,
                indexed,
            } => {
                let (index, table) = if *indexed {
                    ("lists", "not a gc candidate")
                } else {
                    ("omits", "a gc candidate")
                };
                write!(
                    f,
                    "gc victim index {index} block ({cluster}, {fimm}, \
                     ({package}, {die}, {block})) but the block table makes it {table}"
                )
            }
            IntegrityError::BlockCounts {
                cluster,
                fimm,
                package,
                die,
                block,
                programmed,
                live,
                slots,
                occupied,
            } => {
                write!(
                    f,
                    "block ({cluster}, {fimm}, ({package}, {die}, {block})) counts {live} live \
                     of {programmed} programmed pages but {occupied} of its {slots} page slots \
                     hold an lpn"
                )
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let e = FtlError::OutOfSpace {
            cluster: ClusterId::default(),
            fimm: 3,
        };
        assert!(e.to_string().contains("fimm 3"));
        assert!(FtlError::AddressOutOfRange(9).to_string().contains('9'));
    }
}
