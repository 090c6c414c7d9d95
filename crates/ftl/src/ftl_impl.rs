//! The flash translation layer proper.

use std::cmp::Reverse;
use std::collections::VecDeque;

use triplea_pcie::ClusterId;
use triplea_sim::grown;

use crate::alloc::{BlockKey, FimmAllocator};
use crate::error::{FtlError, IntegrityError, RecoveryError};
use crate::journal::{Journal, JournalConfig, JournalRecord, JournalStats, RecoveryOutcome};
use crate::map::PageMap;
use crate::mapcache::MappingCache;
use crate::shape::{ArrayShape, LogicalPage, PhysLoc};

/// Counters describing FTL activity; the §6.5 wear-out analysis compares
/// `migration_writes` against `host_writes`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct FtlStats {
    /// Pages written on behalf of hosts.
    pub host_writes: u64,
    /// Pages written by autonomic data migration / layout reshaping.
    pub migration_writes: u64,
    /// Pages rewritten by garbage collection.
    pub gc_writes: u64,
    /// Physical pages invalidated by overwrite, migration, or GC.
    pub invalidations: u64,
    /// Blocks erased by garbage collection.
    pub gc_erases: u64,
}

/// GC victim-selection policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum GcPolicy {
    /// Most invalid pages first (the classic greedy cleaner; default).
    #[default]
    Greedy,
    /// Benefit/cost cleaning: weigh reclaimed space against copy cost
    /// and favour older (colder) blocks — `invalid/(valid+1) × age`.
    CostBenefit,
    /// Oldest sealed block first, regardless of occupancy.
    Fifo,
}

/// A page slot holding no live LPN: the page was invalidated.
const VACANT: LogicalPage = LogicalPage(u64::MAX);

/// One block's page table.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct BlockUse {
    /// Pages programmed so far: the block's prefix `0..programmed`.
    programmed: u32,
    /// Occupied slots of `lpns`: the prefix's pages still live.
    live: u32,
    /// The LPN programmed at each page offset from the block's first
    /// live page to its last programmed one, [`VACANT`] once
    /// invalidated. Pages program in order, so the slots end at page
    /// `programmed` and slot `i` holds page `programmed - len + i`.
    /// Invalidating the first slot drops it with the vacant slots
    /// behind it, so the table spans the block's live data, not every
    /// page programmed since the erase: a block whose pages are
    /// overwritten soon after they are programmed keeps a short table.
    lpns: VecDeque<LogicalPage>,
    /// Monotonic sequence assigned when the block sealed (filled); used
    /// by age-aware GC policies.
    sealed_seq: u64,
}

impl BlockUse {
    fn invalid(&self) -> u32 {
        self.programmed - self.live
    }

    /// A GC candidate: fully programmed, with reclaimable space.
    fn is_gc_candidate(&self, pages_per_block: u32) -> bool {
        self.programmed == pages_per_block && self.invalid() > 0
    }

    /// The page offset of the first slot.
    fn first_page(&self) -> u32 {
        self.programmed.wrapping_sub(self.lpns.len() as u32)
    }

    /// The LPN live at page offset `page`, if any.
    fn lpn_at(&self, page: u32) -> Option<LogicalPage> {
        let slot = page.checked_sub(self.first_page())?;
        self.lpns
            .get(slot as usize)
            .copied()
            .filter(|&l| l != VACANT)
    }

    /// The live pages as `(page offset, lpn)`, in page order.
    fn live_pages(&self) -> impl Iterator<Item = (u32, LogicalPage)> + '_ {
        (self.first_page()..)
            .zip(self.lpns.iter().copied())
            .filter(|&(_, l)| l != VACANT)
    }

    /// Records `lpn` programmed at the next page.
    fn program(&mut self, lpn: LogicalPage) {
        self.lpns.push_back(lpn);
        self.programmed += 1;
        self.live += 1;
    }

    /// Drops page `page` from the live data if it holds `lpn`; returns
    /// whether it did.
    fn invalidate(&mut self, page: u32, lpn: LogicalPage) -> bool {
        let Some(slot) = page
            .checked_sub(self.first_page())
            .and_then(|i| self.lpns.get_mut(i as usize))
            .filter(|slot| **slot == lpn)
        else {
            return false;
        };
        *slot = VACANT;
        self.live -= 1;
        while self.lpns.front() == Some(&VACANT) {
            self.lpns.pop_front();
        }
        true
    }

    /// Empties the table for an erased block, keeping its buffer for
    /// the block's next fill.
    fn erase(&mut self) {
        self.programmed = 0;
        self.live = 0;
        self.sealed_seq = 0;
        self.lpns.clear();
    }
}

/// A block's place in the [`BlockTable`]: the table's die index and
/// the die-local block number. Within one FIMM, `BlockRef` order is
/// (package, die, block) order.
type BlockRef = (usize, u32);

/// The FTL's block table: for every die, the blocks the allocator has
/// opened there, indexed by die-local block number. Dies are numbered
/// by (global FIMM, package, die), see [`Ftl::die_of`]. Both levels grow
/// on first program, and blocks open in ascending order, so the table
/// holds what the array has written rather than its address space.
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockTable {
    dies: Vec<Vec<BlockUse>>,
}

impl BlockTable {
    fn get(&self, (die, block): BlockRef) -> Option<&BlockUse> {
        self.dies.get(die)?.get(block as usize)
    }

    fn get_mut(&mut self, (die, block): BlockRef) -> Option<&mut BlockUse> {
        self.dies.get_mut(die)?.get_mut(block as usize)
    }

    /// The entry of a block being programmed, grown into the table.
    fn opened(&mut self, (die, block): BlockRef) -> &mut BlockUse {
        grown(grown(&mut self.dies, die), block as usize)
    }

    /// The blocks of dies `dies` with a programmed page, in (die, block)
    /// order.
    fn programmed(
        &self,
        dies: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (BlockRef, &BlockUse)> + '_ {
        let end = dies.end.min(self.dies.len());
        let start = dies.start.min(end);
        (start..end).flat_map(move |die| {
            (0u32..)
                .zip(&self.dies[die])
                .filter(|(_, b)| b.programmed > 0)
                .map(move |(block, b)| ((die, block), b))
        })
    }

    /// Every block with a programmed page, in (die, block) order.
    fn iter(&self) -> impl Iterator<Item = (BlockRef, &BlockUse)> + '_ {
        self.programmed(0..self.dies.len())
    }
}

impl PartialEq for BlockTable {
    /// Equal tables hold the same programmed blocks, however far either
    /// has grown: an entry with nothing programmed is no block.
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// One block of a dead module's rebuild manifest (see
/// [`Ftl::rebuild_manifest`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RebuildUnit {
    /// Package the block lives on.
    pub package: u32,
    /// Die within the package.
    pub die: u32,
    /// Die-local block number.
    pub block: u32,
    /// Length of the programmed prefix to restore: the spare must end up
    /// with pages `0..programmed` programmed, in order.
    pub programmed: u32,
    /// Page offsets (sorted) holding live data — these need
    /// reconstruction reads from sibling modules; the rest of the prefix
    /// is filler.
    pub live: Vec<u32>,
}

/// A unit of garbage-collection work: one victim block and the live pages
/// that must be rewritten before it can be erased.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GcWork {
    /// Cluster owning the victim block.
    pub cluster: ClusterId,
    /// FIMM owning the victim block.
    pub fimm: u32,
    /// Victim package.
    pub package: u32,
    /// Victim die.
    pub die: u32,
    /// Victim (die-local) block number.
    pub block: u32,
    /// Logical pages still live in the victim at pick time.
    pub valid: Vec<LogicalPage>,
}

/// The array-wide flash translation layer (paper §2.3): address
/// translation, erase-before-write management, allocation, GC, and
/// host-side wear accounting, all centralised in the management module
/// rather than inside per-SSD firmware (§3.1, §6.7).
#[derive(Clone, Debug)]
pub struct Ftl {
    shape: ArrayShape,
    map: PageMap,
    /// Per global FIMM (`global cluster × fimms_per_cluster + fimm`),
    /// created on the FIMM's first use; the vector grows to the highest
    /// FIMM used.
    allocs: Vec<Option<FimmAllocator>>,
    blocks: BlockTable,
    /// GC candidates per global FIMM: the blocks of `blocks` that satisfy
    /// [`BlockUse::is_gc_candidate`], ascending, so [`Ftl::gc_pick`]
    /// never scans the whole table. The vector grows to the highest FIMM
    /// with a candidate. A block only gains invalid pages until GC
    /// removes it, so membership changes only when a block seals or
    /// loses a page while sealed (insert) and in `gc_finish` /
    /// `gc_finish_failed` (remove). The journal's checkpoint maintains
    /// its own through replay, and power loss copies it back.
    victims: Vec<Vec<BlockRef>>,
    /// Demand-paged translation cache; `None` models the full in-DRAM
    /// map of Triple-A's relocated-DRAM design (§6.6).
    mapcache: Option<MappingCache>,
    gc_policy: GcPolicy,
    seal_seq: u64,
    stats: FtlStats,
    /// Metadata journal; `None` models battery-backed (durable) map DRAM
    /// where power loss cannot lose translations.
    journal: Option<Box<Journal>>,
}

/// Why a page is being written; selects the stat bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WriteClass {
    Host,
    Gc,
}

impl Ftl {
    /// Creates an FTL over a pristine array with the full map resident
    /// in DRAM (Triple-A's default; translations are free).
    pub fn new(shape: ArrayShape) -> Self {
        Ftl {
            shape,
            map: PageMap::new(shape),
            allocs: Vec::new(),
            blocks: BlockTable::default(),
            victims: Vec::new(),
            mapcache: None,
            gc_policy: GcPolicy::Greedy,
            seal_seq: 0,
            stats: FtlStats::default(),
            journal: None,
        }
    }

    /// Selects the GC victim-selection policy (default: greedy).
    pub fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.gc_policy = policy;
    }

    /// Creates an FTL whose translations go through a DFTL-style demand
    /// cache of `translation_pages` pages; misses must be charged a
    /// flash read by the caller (see [`Ftl::map_access`]).
    pub fn with_mapping_cache(shape: ArrayShape, translation_pages: usize) -> Self {
        Ftl {
            mapcache: Some(MappingCache::new(translation_pages)),
            ..Ftl::new(shape)
        }
    }

    /// Touches the translation path for `lpn`: returns `true` when the
    /// mapping was resident (or the full map is in DRAM), `false` when
    /// the caller must charge a translation-page flash read.
    pub fn map_access(&mut self, lpn: LogicalPage) -> bool {
        match &mut self.mapcache {
            None => true,
            Some(c) => c.access(lpn.0),
        }
    }

    /// The logical→physical map (read-only).
    pub fn page_map(&self) -> &PageMap {
        &self.map
    }

    /// Activity counters.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Resolves a logical page to its current physical location.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range; use [`Ftl::check_lpn`] first for
    /// untrusted input.
    pub fn locate(&self, lpn: LogicalPage) -> PhysLoc {
        self.map.locate(lpn)
    }

    /// Validates a logical page number.
    ///
    /// # Errors
    ///
    /// [`FtlError::AddressOutOfRange`] when `lpn` exceeds the address
    /// space.
    pub fn check_lpn(&self, lpn: LogicalPage) -> Result<(), FtlError> {
        if lpn.0 >= self.shape.total_pages() {
            Err(FtlError::AddressOutOfRange(lpn.0))
        } else {
            Ok(())
        }
    }

    fn allocator(&mut self, cluster: ClusterId, fimm: u32) -> &mut FimmAllocator {
        let g = (self.shape.topology.global_index(cluster) * self.shape.fimms_per_cluster + fimm)
            as usize;
        let packages = self.shape.packages_per_fimm;
        let flash = self.shape.flash;
        grown(&mut self.allocs, g).get_or_insert_with(|| FimmAllocator::new(packages, flash))
    }

    fn write_internal(
        &mut self,
        lpn: LogicalPage,
        target: (ClusterId, u32),
        class: WriteClass,
    ) -> Result<PhysLoc, FtlError> {
        self.check_lpn(lpn)?;
        let (cluster, fimm) = target;
        let addr = self
            .allocator(cluster, fimm)
            .alloc()
            .ok_or(FtlError::OutOfSpace { cluster, fimm })?;
        let new_loc = PhysLoc {
            cluster,
            fimm,
            addr,
        };
        let old = self.map.remap(lpn, new_loc);
        self.invalidate(lpn, old);
        self.record_program(lpn, new_loc);
        match class {
            WriteClass::Host => self.stats.host_writes += 1,
            WriteClass::Gc => self.stats.gc_writes += 1,
        }
        self.journal_append(JournalRecord::Write {
            lpn,
            cluster,
            fimm,
            class,
            loc: new_loc,
        });
        Ok(new_loc)
    }

    /// The block-table die index of (`cluster`, `fimm`, `package`,
    /// `die`), with `cluster` a global index; `None` outside the shape.
    fn die_of(&self, cluster: u32, fimm: u32, package: u32, die: u32) -> Option<usize> {
        let s = &self.shape;
        let inside = cluster < s.topology.total_clusters()
            && fimm < s.fimms_per_cluster
            && package < s.packages_per_fimm
            && die < s.flash.dies;
        let fimm = (cluster * s.fimms_per_cluster + fimm) as usize;
        inside.then(|| {
            (fimm * s.packages_per_fimm as usize + package as usize) * s.flash.dies as usize
                + die as usize
        })
    }

    /// Where the block holding `loc` sits in the block table; `None`
    /// outside the shape.
    fn block_of(&self, loc: PhysLoc) -> Option<BlockRef> {
        if loc.cluster.index >= self.shape.topology.clusters_per_switch {
            return None;
        }
        let cluster = self.shape.topology.global_index(loc.cluster);
        let die = self.die_of(cluster, loc.fimm, loc.addr.package, loc.addr.page.die)?;
        Some((die, loc.addr.page.block))
    }

    /// The block-table reference of block `key` on (global `cluster`,
    /// `fimm`); `None` outside the shape.
    fn block_ref(&self, (cluster, fimm, key): (u32, u32, BlockKey)) -> Option<BlockRef> {
        Some((self.die_of(cluster, fimm, key.0, key.1)?, key.2))
    }

    /// `(global cluster, fimm, block key)` of a block-table reference:
    /// the inverse of [`Self::block_ref`].
    fn block_key(&self, (die, block): BlockRef) -> (u32, u32, BlockKey) {
        let s = &self.shape;
        let (dies, packages) = (s.flash.dies as usize, s.packages_per_fimm as usize);
        let fimm = (die / dies / packages) as u32;
        let package = (die / dies % packages) as u32;
        (
            fimm / s.fimms_per_cluster,
            fimm % s.fimms_per_cluster,
            (package, (die % dies) as u32, block),
        )
    }

    /// The global FIMM of a block-table reference.
    fn fimm_of(&self, (die, _): BlockRef) -> usize {
        die / (self.shape.packages_per_fimm * self.shape.flash.dies) as usize
    }

    /// Lists a block that just became a GC candidate in its FIMM's
    /// victims, keeping them sorted.
    fn add_victim(&mut self, at: BlockRef) {
        let g = self.fimm_of(at);
        let v = grown(&mut self.victims, g);
        if let Err(pos) = v.binary_search(&at) {
            v.insert(pos, at);
        }
    }

    /// Records `lpn` as programmed at the freshly allocated `loc`,
    /// sealing the block when this was its last page.
    fn record_program(&mut self, lpn: LogicalPage, loc: PhysLoc) {
        let at = self
            .block_of(loc)
            .expect("the allocator hands out pages inside the shape");
        let pages = self.shape.flash.pages_per_block;
        let entry = self.blocks.opened(at);
        debug_assert_eq!(
            loc.addr.page.page, entry.programmed,
            "pages program in order"
        );
        entry.program(lpn);
        if entry.programmed == pages {
            self.seal_seq += 1;
            entry.sealed_seq = self.seal_seq;
            if entry.invalid() > 0 {
                self.add_victim(at);
            }
        }
    }

    fn invalidate(&mut self, lpn: LogicalPage, old: PhysLoc) {
        let Some(at) = self.block_of(old) else {
            return;
        };
        let pages = self.shape.flash.pages_per_block;
        if let Some(b) = self.blocks.get_mut(at) {
            // Only drop the entry when it records *this* LPN: a
            // never-written page's default-layout home can coincide with
            // a physical page the log allocator already handed to a
            // different LPN, and that page must stay live.
            if b.invalidate(old.addr.page.page, lpn) {
                self.stats.invalidations += 1;
                // A sealed block joins the index with its first invalid
                // page and stays until GC removes it.
                if b.programmed == pages && b.invalid() == 1 {
                    self.add_victim(at);
                }
            }
        }
        // If the old location was never physically written (default
        // layout, pre-existing data) there is nothing to invalidate.
    }

    /// Services a host write: allocates a fresh page (log-structured) on
    /// the target FIMM — by default the FIMM currently holding the page —
    /// and remaps the LPN.
    ///
    /// A `Some(target)` override is how Triple-A's storage-contention
    /// manager redirects stalled writes to adjacent FIMMs (§4.2).
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] when the target FIMM needs GC first;
    /// [`FtlError::AddressOutOfRange`] for an invalid LPN.
    pub fn write_alloc(
        &mut self,
        lpn: LogicalPage,
        target: Option<(ClusterId, u32)>,
    ) -> Result<PhysLoc, FtlError> {
        self.check_lpn(lpn)?;
        let t = target.unwrap_or_else(|| {
            let cur = self.map.locate(lpn);
            (cur.cluster, cur.fimm)
        });
        self.write_internal(lpn, t, WriteClass::Host)
    }

    /// First half of clone-then-unlink migration (§4.1): allocates and
    /// accounts the clone's destination page *without* remapping the
    /// LPN, so in-flight readers keep using the original copy while the
    /// clone is being programmed.
    ///
    /// Pair with [`Ftl::migrate_commit`] once the program completes.
    ///
    /// # Errors
    ///
    /// Same as [`Ftl::write_alloc`].
    pub fn migrate_prepare(
        &mut self,
        lpn: LogicalPage,
        to_cluster: ClusterId,
        to_fimm: u32,
    ) -> Result<PhysLoc, FtlError> {
        self.check_lpn(lpn)?;
        let addr = self
            .allocator(to_cluster, to_fimm)
            .alloc()
            .ok_or(FtlError::OutOfSpace {
                cluster: to_cluster,
                fimm: to_fimm,
            })?;
        let new_loc = PhysLoc {
            cluster: to_cluster,
            fimm: to_fimm,
            addr,
        };
        self.record_program(lpn, new_loc);
        self.stats.migration_writes += 1;
        self.journal_append(JournalRecord::Prepare {
            lpn,
            cluster: to_cluster,
            fimm: to_fimm,
            loc: new_loc,
        });
        Ok(new_loc)
    }

    /// Second half of clone-then-unlink migration: atomically remaps the
    /// LPN to the clone and invalidates the original — but only if the
    /// mapping still points at `expected_old` (a host write may have
    /// superseded the data mid-clone). On a stale commit the clone is
    /// invalidated instead and `false` is returned.
    pub fn migrate_commit(
        &mut self,
        lpn: LogicalPage,
        new_loc: PhysLoc,
        expected_old: PhysLoc,
    ) -> bool {
        let committed = if self.map.locate(lpn) != expected_old {
            // The data moved under us; discard the clone.
            self.invalidate(lpn, new_loc);
            false
        } else {
            let old = self.map.remap(lpn, new_loc);
            self.invalidate(lpn, old);
            true
        };
        self.journal_append(JournalRecord::Commit {
            lpn,
            new_loc,
            expected_old,
            committed,
        });
        committed
    }

    /// Rolls back a clone-then-unlink migration whose copy failed
    /// mid-flight: the clone at `new_loc` (from [`Ftl::migrate_prepare`])
    /// is discarded and the LPN keeps whatever mapping it has — readers
    /// never saw the clone, so no data is lost. Returns `false` (and
    /// does nothing) in the pathological case where the clone was already
    /// committed as the live mapping.
    pub fn migrate_abort(&mut self, lpn: LogicalPage, new_loc: PhysLoc) -> bool {
        let ok = if self.map.locate(lpn) == new_loc {
            false
        } else {
            self.invalidate(lpn, new_loc);
            true
        };
        self.journal_append(JournalRecord::Abort { lpn, new_loc, ok });
        ok
    }

    /// Quarantines the block holding `loc` after a hardware program/erase
    /// failure: the allocator will never hand out or recycle it again.
    /// Live pages already in the block stay readable and are moved out by
    /// normal overwrite/GC/migration traffic.
    pub fn quarantine_block(&mut self, loc: PhysLoc) {
        self.allocator(loc.cluster, loc.fimm).quarantine((
            loc.addr.package,
            loc.addr.page.die,
            loc.addr.page.block,
        ));
        self.journal_append(JournalRecord::Quarantine { loc });
    }

    /// End-to-end metadata integrity check; `Err` describes the first
    /// violation found.
    ///
    /// Verifies — with no migration in flight — that (1) every relocated
    /// LPN is recorded live at exactly its mapped location in the block
    /// tables, and so (2) no two relocated LPNs share a physical page:
    /// a block-table slot holds one LPN, so a second LPN mapped to the
    /// same page finds the first one listed there. It also checks (3)
    /// that every live block-table entry round-trips through the map.
    /// Together these prove no page was lost or duplicated by writes,
    /// GC, migration, or fault rollback. (4) The GC victim index must
    /// list exactly the table's GC candidates, and (5) each block's own
    /// bookkeeping must add up: its live count is its occupied page
    /// slots, and no occupied slot lies past its programmed prefix.
    pub fn verify_integrity(&self) -> Result<(), IntegrityError> {
        for (lpn, loc) in self.map.remapped_entries() {
            if !self.shape.contains(loc) {
                return Err(IntegrityError::OutOfRange { lpn, loc });
            }
            let listed = self
                .block_of(loc)
                .and_then(|at| self.blocks.get(at))
                .and_then(|b| b.lpn_at(loc.addr.page.page));
            match listed {
                Some(l) if l == lpn => {}
                Some(first) if self.map.locate(first) == loc => {
                    return Err(IntegrityError::DoubleMapped {
                        loc,
                        first,
                        second: lpn,
                    });
                }
                _ => return Err(IntegrityError::LostPage { lpn, loc, listed }),
            }
        }
        self.verify_block_tables()
    }

    /// Checks (3), (4) and (5) of [`Ftl::verify_integrity`]: block-table
    /// entries add up and round-trip through the map, and the victim
    /// index matches the table.
    fn verify_block_tables(&self) -> Result<(), IntegrityError> {
        let pages = self.shape.flash.pages_per_block;
        let index_error =
            |(cluster, fimm, key): (u32, u32, BlockKey), indexed| IntegrityError::VictimIndex {
                cluster,
                fimm,
                package: key.0,
                die: key.1,
                block: key.2,
                indexed,
            };
        for (at, b) in self.blocks.iter() {
            let (c, f, key) = self.block_key(at);
            let slots = b.lpns.len() as u32;
            let occupied = b.lpns.iter().filter(|&&l| l != VACANT).count() as u32;
            if b.live != occupied || slots > b.programmed {
                return Err(IntegrityError::BlockCounts {
                    cluster: c,
                    fimm: f,
                    package: key.0,
                    die: key.1,
                    block: key.2,
                    programmed: b.programmed,
                    live: b.live,
                    slots,
                    occupied,
                });
            }
            // Candidates missing from the index are caught here; listed
            // non-candidates by the walk over the index below.
            if b.is_gc_candidate(pages)
                && self
                    .victims
                    .get(self.fimm_of(at))
                    .is_none_or(|v| v.binary_search(&at).is_err())
            {
                return Err(index_error((c, f, key), false));
            }
            for (pg, lpn) in b.live_pages() {
                let loc = self.map.locate(lpn);
                if self.block_of(loc) != Some(at) || loc.addr.page.page != pg {
                    return Err(IntegrityError::StaleBlockEntry {
                        lpn,
                        cluster: c,
                        fimm: f,
                        package: key.0,
                        die: key.1,
                        block: key.2,
                        page: pg,
                        map_loc: loc,
                    });
                }
            }
        }
        for (g, v) in self.victims.iter().enumerate() {
            for &at in v {
                let candidate = self.fimm_of(at) == g
                    && self
                        .blocks
                        .get(at)
                        .is_some_and(|b| b.is_gc_candidate(pages));
                if !candidate {
                    return Err(index_error(self.block_key(at), true));
                }
            }
        }
        Ok(())
    }

    /// Finalises a GC unit whose erase hard-failed: the victim is dropped
    /// from the block table and quarantined rather than recycled — a
    /// grown bad block permanently costs its capacity. The live pages
    /// were already rewritten before the erase was attempted, so nothing
    /// is lost.
    pub fn gc_finish_failed(&mut self, work: &GcWork) {
        let key = self.forget_victim(work);
        self.allocator(work.cluster, work.fimm).quarantine(key);
        self.journal_append(JournalRecord::GcFinish {
            cluster: work.cluster,
            fimm: work.fimm,
            package: work.package,
            die: work.die,
            block: work.block,
            ok: false,
        });
    }

    /// `true` when the FIMM's free-block pool has shrunk below
    /// `threshold` blocks and GC should run.
    pub fn needs_gc(&mut self, cluster: ClusterId, fimm: u32, threshold: u64) -> bool {
        self.allocator(cluster, fimm).free_blocks() < threshold
    }

    /// Drops a finished GC unit's victim from the block table and the
    /// victim index; returns its block key.
    fn forget_victim(&mut self, work: &GcWork) -> BlockKey {
        let gc = self.shape.topology.global_index(work.cluster);
        let key = (work.package, work.die, work.block);
        if let Some(at) = self.block_ref((gc, work.fimm, key)) {
            if let Some(b) = self.blocks.get_mut(at) {
                b.erase();
            }
            let g = self.fimm_of(at);
            if let Some(v) = self.victims.get_mut(g) {
                if let Ok(pos) = v.binary_search(&at) {
                    v.remove(pos);
                }
            }
        }
        key
    }

    /// The configured [`GcPolicy`]'s score of a candidate block; the
    /// highest score is the victim.
    fn gc_score(&self, b: &BlockUse) -> u64 {
        let invalid = b.invalid() as u64;
        match self.gc_policy {
            GcPolicy::Greedy => invalid,
            GcPolicy::CostBenefit => {
                // benefit/cost x age: reclaimed space per copied page,
                // scaled by how long ago the block sealed (older
                // blocks are colder and safer to clean).
                let valid = b.live as u64;
                let age = self.seal_seq.saturating_sub(b.sealed_seq) + 1;
                invalid * 1_000 / (valid + 1) * age
            }
            GcPolicy::Fifo => u64::MAX - b.sealed_seq,
        }
    }

    /// The GC unit for victim `key`: its live pages in page order.
    fn gc_work(&self, cluster: ClusterId, fimm: u32, key: BlockKey, b: &BlockUse) -> GcWork {
        GcWork {
            cluster,
            fimm,
            package: key.0,
            die: key.1,
            block: key.2,
            valid: b.live_pages().map(|(_, l)| l).collect(),
        }
    }

    /// Picks the best GC victim on a FIMM according to the configured
    /// [`GcPolicy`], among fully-programmed blocks with reclaimable
    /// space. Returns `None` when nothing is reclaimable.
    ///
    /// Reads only the FIMM's victim index, so a FIMM with nothing to
    /// reclaim costs one lookup however large the block table is.
    pub fn gc_pick(&self, cluster: ClusterId, fimm: u32) -> Option<GcWork> {
        // Past the cluster's last FIMM, `g` would name the next
        // cluster's first.
        if fimm >= self.shape.fimms_per_cluster {
            return None;
        }
        let gc = self.shape.topology.global_index(cluster);
        let g = (gc * self.shape.fimms_per_cluster + fimm) as usize;
        let (at, b) = self
            .victims
            .get(g)?
            .iter()
            .map(|&at| {
                let b = self
                    .blocks
                    .get(at)
                    .expect("indexed blocks are in the table");
                (at, b)
            })
            // Among equal scores the lowest `BlockRef`, that is the
            // lowest (package, die, block), wins: the pick depends on
            // the candidates alone.
            .max_by_key(|&(at, b)| (self.gc_score(b), Reverse(at)))?;
        let (_, _, key) = self.block_key(at);
        Some(self.gc_work(cluster, fimm, key, b))
    }

    /// Computes the device-restoration manifest for one FIMM: every
    /// block the FTL believes holds programmed pages, with the length of
    /// its programmed prefix and the page offsets that are still live.
    ///
    /// A hot-spare rebuild replays exactly this onto the replacement
    /// module. The full prefix — stale pages included — must be
    /// re-programmed because NAND programs are strictly in-order within
    /// a block and the allocator will hand out page `programmed` next;
    /// only the live offsets need reconstruction reads from siblings.
    /// Units are sorted by `(package, die, block)` for deterministic
    /// replay.
    pub fn rebuild_manifest(&self, cluster: ClusterId, fimm: u32) -> Vec<RebuildUnit> {
        let g = self.shape.topology.global_index(cluster);
        let Some(first) = self.die_of(g, fimm, 0, 0) else {
            return Vec::new();
        };
        // The FIMM's dies are adjacent in the table, in (package, die)
        // order, so the walk yields the units already sorted.
        let dies = (self.shape.packages_per_fimm * self.shape.flash.dies) as usize;
        self.blocks
            .programmed(first..first + dies)
            .map(|(at, b)| {
                let (_, _, key) = self.block_key(at);
                RebuildUnit {
                    package: key.0,
                    die: key.1,
                    block: key.2,
                    programmed: b.programmed,
                    live: b.live_pages().map(|(pg, _)| pg).collect(),
                }
            })
            .collect()
    }

    /// Rewrites one live page out of a GC victim. Returns `Ok(None)` if
    /// the page has moved since the victim was picked (stale work).
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] if the FIMM cannot absorb the rewrite.
    pub fn gc_rewrite(
        &mut self,
        lpn: LogicalPage,
        work: &GcWork,
    ) -> Result<Option<PhysLoc>, FtlError> {
        let cur = self.map.locate(lpn);
        let still_in_victim = cur.cluster == work.cluster
            && cur.fimm == work.fimm
            && cur.addr.package == work.package
            && cur.addr.page.die == work.die
            && cur.addr.page.block == work.block;
        if !still_in_victim {
            return Ok(None);
        }
        self.write_internal(lpn, (work.cluster, work.fimm), WriteClass::Gc)
            .map(Some)
    }

    /// Finalises a GC unit after its live pages were rewritten: recycles
    /// the erased block into the allocator's free pool.
    pub fn gc_finish(&mut self, work: &GcWork) {
        let key = self.forget_victim(work);
        self.allocator(work.cluster, work.fimm).recycle(key);
        self.stats.gc_erases += 1;
        self.journal_append(JournalRecord::GcFinish {
            cluster: work.cluster,
            fimm: work.fimm,
            package: work.package,
            die: work.die,
            block: work.block,
            ok: true,
        });
    }

    /// A copy of the durable translation state with no journal or
    /// mapping cache: the journal's initial checkpoint.
    fn shadow(&self) -> Ftl {
        Ftl {
            shape: self.shape,
            map: self.map.clone(),
            allocs: self.allocs.clone(),
            blocks: self.blocks.clone(),
            victims: self.victims.clone(),
            mapcache: None,
            gc_policy: self.gc_policy,
            seal_seq: self.seal_seq,
            stats: self.stats,
            journal: None,
        }
    }

    /// Turns on metadata journaling with the given durability cadence,
    /// taking an initial checkpoint of the current state. Without a
    /// journal, [`Ftl::power_loss`] treats the whole map as durable
    /// (battery-backed DRAM).
    pub fn enable_journal(&mut self, cfg: JournalConfig) {
        self.journal = Some(Box::new(Journal::new(cfg, self.shadow())));
    }

    /// Journal activity counters; `None` when journaling is off. Each
    /// metadata mutation appends one record, so a mutation that raised
    /// `checkpoints` took a checkpoint covering `appended` records.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal.as_ref().map(|j| j.stats)
    }

    /// Appends a mutation record (no-op when journaling is off, which
    /// includes the journal's own checkpoint while it replays), flushing
    /// and checkpointing per the configured cadence.
    fn journal_append(&mut self, rec: JournalRecord) {
        let Some(j) = self.journal.as_mut() else {
            return;
        };
        if j.append(rec) {
            j.checkpoint();
        }
    }

    /// Simulates losing power: all volatile metadata is discarded and
    /// the mount-time recovery scan runs.
    ///
    /// The mapping cache (if any) restarts cold. With journaling on,
    /// un-flushed records are dropped, the flushed ones are replayed in
    /// order onto the last checkpoint (each cross-checked against the
    /// physical location the original execution recorded), migration
    /// clones caught mid-flight are rolled back there, and the live
    /// translation state takes the checkpoint's, which is the scan's
    /// closing checkpoint. Without a journal the map is modelled as
    /// durable and nothing is lost. The caller traces the returned
    /// outcome.
    ///
    /// # Errors
    ///
    /// [`RecoveryError`] when replay — in this scan or while taking an
    /// earlier checkpoint — could not reproduce the journaled outcome:
    /// the metadata has diverged and must not be trusted.
    pub fn power_loss(&mut self) -> Result<RecoveryOutcome, RecoveryError> {
        if let Some(c) = &self.mapcache {
            // The translation cache lives in volatile DRAM.
            self.mapcache = Some(MappingCache::new(c.capacity()));
        }
        let Some(j) = self.journal.as_mut() else {
            return Ok(RecoveryOutcome::default());
        };
        let outcome = j.recover()?;
        let durable = &j.checkpoint.ftl;
        self.map.clone_from(&durable.map);
        self.allocs.clone_from(&durable.allocs);
        self.blocks.clone_from(&durable.blocks);
        self.victims.clone_from(&durable.victims);
        self.seal_seq = durable.seal_seq;
        self.stats = durable.stats;
        Ok(outcome)
    }

    /// Re-drives `records` in order against this FTL — the journal's
    /// checkpoint — cross-checking each outcome and tracking the clones
    /// left `outstanding`. Deterministic allocation guarantees replay
    /// lands every page exactly where the original run did.
    pub(crate) fn replay(
        &mut self,
        records: &[JournalRecord],
        outstanding: &mut Vec<(LogicalPage, PhysLoc)>,
    ) -> Result<u64, RecoveryError> {
        for (i, rec) in records.iter().enumerate() {
            let index = i as u64;
            match *rec {
                JournalRecord::Write {
                    lpn,
                    cluster,
                    fimm,
                    class,
                    loc,
                } => {
                    let got = self
                        .write_internal(lpn, (cluster, fimm), class)
                        .map_err(|error| RecoveryError::Replay { index, error })?;
                    if got != loc {
                        return Err(RecoveryError::Diverged { index, lpn });
                    }
                }
                JournalRecord::Prepare {
                    lpn,
                    cluster,
                    fimm,
                    loc,
                } => {
                    let got = self
                        .migrate_prepare(lpn, cluster, fimm)
                        .map_err(|error| RecoveryError::Replay { index, error })?;
                    if got != loc {
                        return Err(RecoveryError::Diverged { index, lpn });
                    }
                    outstanding.push((lpn, loc));
                }
                JournalRecord::Commit {
                    lpn,
                    new_loc,
                    expected_old,
                    committed,
                } => {
                    if self.migrate_commit(lpn, new_loc, expected_old) != committed {
                        return Err(RecoveryError::Diverged { index, lpn });
                    }
                    outstanding.retain(|&(l, loc)| (l, loc) != (lpn, new_loc));
                }
                JournalRecord::Abort { lpn, new_loc, ok } => {
                    if self.migrate_abort(lpn, new_loc) != ok {
                        return Err(RecoveryError::Diverged { index, lpn });
                    }
                    outstanding.retain(|&(l, loc)| (l, loc) != (lpn, new_loc));
                }
                JournalRecord::Quarantine { loc } => self.quarantine_block(loc),
                JournalRecord::GcFinish {
                    cluster,
                    fimm,
                    package,
                    die,
                    block,
                    ok,
                } => {
                    let work = GcWork {
                        cluster,
                        fimm,
                        package,
                        die,
                        block,
                        valid: Vec::new(),
                    };
                    if ok {
                        self.gc_finish(&work);
                    } else {
                        self.gc_finish_failed(&work);
                    }
                }
            }
        }
        Ok(records.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl() -> Ftl {
        Ftl::new(ArrayShape::small_test())
    }

    #[test]
    fn write_stays_on_home_fimm_by_default() {
        let mut f = ftl();
        let lpn = LogicalPage(4242);
        let home = f.locate(lpn);
        let new = f.write_alloc(lpn, None).unwrap();
        assert_eq!(new.cluster, home.cluster);
        assert_eq!(new.fimm, home.fimm);
        assert_eq!(f.locate(lpn), new);
        assert_eq!(f.stats().host_writes, 1);
    }

    #[test]
    fn redirected_write_lands_on_target() {
        let mut f = ftl();
        let lpn = LogicalPage(10);
        let home = f.locate(lpn);
        let other_fimm = (home.fimm + 1) % f.shape.fimms_per_cluster;
        let new = f
            .write_alloc(lpn, Some((home.cluster, other_fimm)))
            .unwrap();
        assert_eq!(new.fimm, other_fimm);
        assert_eq!(f.locate(lpn), new);
    }

    #[test]
    fn overwrite_invalidates_previous_page() {
        let mut f = ftl();
        let lpn = LogicalPage(77);
        f.write_alloc(lpn, None).unwrap();
        f.write_alloc(lpn, None).unwrap();
        assert_eq!(f.stats().invalidations, 1);
        assert_eq!(f.stats().host_writes, 2);
    }

    #[test]
    fn migrate_counts_separately() {
        let mut f = ftl();
        let lpn = LogicalPage(5);
        let home = f.locate(lpn);
        let target = ClusterId {
            switch: home.cluster.switch,
            index: (home.cluster.index + 1) % f.shape.topology.clusters_per_switch,
        };
        let new = f.migrate_prepare(lpn, target, 0).unwrap();
        assert!(f.migrate_commit(lpn, new, home));
        assert_eq!(f.locate(lpn), new);
        assert_eq!(new.cluster, target);
        assert_eq!(f.stats().migration_writes, 1);
        assert_eq!(f.stats().host_writes, 0);
        assert!(f.page_map().is_remapped(lpn));
    }

    #[test]
    fn out_of_range_lpn_rejected() {
        let mut f = ftl();
        let bad = LogicalPage(f.shape.total_pages());
        assert_eq!(
            f.write_alloc(bad, None),
            Err(FtlError::AddressOutOfRange(bad.0))
        );
        assert!(f.check_lpn(LogicalPage(0)).is_ok());
    }

    #[test]
    fn gc_cycle_reclaims_space() {
        let mut f = ftl();
        let home = f.locate(LogicalPage(0));
        // Overwrite one LPN until every write stream has filled (and
        // closed) at least one block full of mostly-invalid pages.
        let g = f.shape.flash;
        let streams = (f.shape.packages_per_fimm * g.dies * g.planes) as u64;
        for _ in 0..(g.pages_per_block as u64 * streams) {
            f.write_alloc(LogicalPage(0), None).unwrap();
        }
        // There must now exist a fully-programmed block with invalid pages
        // on the home fimm of lpn 0.
        let work = f.gc_pick(home.cluster, home.fimm);
        if let Some(work) = work {
            let before = f.allocator(work.cluster, work.fimm).free_blocks();
            let valid = work.valid.clone();
            for lpn in valid {
                f.gc_rewrite(lpn, &work).unwrap();
            }
            f.gc_finish(&work);
            assert_eq!(f.stats().gc_erases, 1);
            assert!(f.allocator(work.cluster, work.fimm).free_blocks() > before);
        } else {
            panic!("expected a GC victim after heavy overwrites");
        }
    }

    #[test]
    fn gc_rewrite_skips_stale_pages() {
        let mut f = ftl();
        let lpn = LogicalPage(0);
        let home = f.locate(lpn);
        let work = GcWork {
            cluster: home.cluster,
            fimm: home.fimm,
            package: 99, // not where the page lives
            die: 0,
            block: 0,
            valid: vec![lpn],
        };
        assert_eq!(f.gc_rewrite(lpn, &work), Ok(None));
    }

    #[test]
    fn migrate_prepare_keeps_old_mapping_until_commit() {
        let mut f = ftl();
        let lpn = LogicalPage(11);
        let old = f.locate(lpn);
        let target = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape.topology.clusters_per_switch,
        };
        let clone = f.migrate_prepare(lpn, target, 1).unwrap();
        assert_eq!(f.locate(lpn), old, "readers still see the original");
        assert_eq!(f.stats().migration_writes, 1);
        assert!(f.migrate_commit(lpn, clone, old));
        assert_eq!(f.locate(lpn), clone, "commit unlinks the original");
    }

    #[test]
    fn stale_migrate_commit_discards_clone() {
        let mut f = ftl();
        let lpn = LogicalPage(3);
        let old = f.locate(lpn);
        let target = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape.topology.clusters_per_switch,
        };
        let clone = f.migrate_prepare(lpn, target, 0).unwrap();
        // A host write supersedes the data mid-clone.
        let newer = f.write_alloc(lpn, None).unwrap();
        assert!(!f.migrate_commit(lpn, clone, old));
        assert_eq!(f.locate(lpn), newer, "newer data wins");
        // The discarded clone counts as an invalidation.
        assert!(f.stats().invalidations >= 1);
    }

    #[test]
    fn migrate_abort_discards_clone_and_keeps_original() {
        let mut f = ftl();
        let lpn = LogicalPage(11);
        let old = f.locate(lpn);
        let target = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape.topology.clusters_per_switch,
        };
        let clone = f.migrate_prepare(lpn, target, 1).unwrap();
        assert!(f.migrate_abort(lpn, clone), "abort succeeds mid-flight");
        assert_eq!(f.locate(lpn), old, "original mapping survives");
        assert_eq!(f.stats().invalidations, 1, "clone page invalidated");
        f.verify_integrity()
            .expect("abort leaves metadata consistent");
        // A later write works normally.
        f.write_alloc(lpn, None).unwrap();
        f.verify_integrity().unwrap();
    }

    #[test]
    fn migrate_abort_refuses_after_commit() {
        let mut f = ftl();
        let lpn = LogicalPage(8);
        let old = f.locate(lpn);
        let target = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape.topology.clusters_per_switch,
        };
        let clone = f.migrate_prepare(lpn, target, 0).unwrap();
        assert!(f.migrate_commit(lpn, clone, old));
        assert!(!f.migrate_abort(lpn, clone), "committed clone is the data");
        assert_eq!(f.locate(lpn), clone);
        f.verify_integrity().unwrap();
    }

    #[test]
    fn verify_integrity_detects_lost_page() {
        let mut f = ftl();
        let lpn = LogicalPage(21);
        let loc = f.write_alloc(lpn, None).unwrap();
        f.verify_integrity().unwrap();
        // Simulate a buggy rollback that invalidates the live mapping.
        f.invalidate(lpn, loc);
        let err = f.verify_integrity().unwrap_err();
        assert!(
            matches!(err, IntegrityError::LostPage { lpn: l, .. } if l == lpn),
            "{err}"
        );
        assert!(err.to_string().contains("block table records"), "{err}");
    }

    #[test]
    fn verify_integrity_detects_double_mapping() {
        let mut f = ftl();
        let (a, b) = (LogicalPage(21), LogicalPage(22));
        let loc = f.write_alloc(a, None).unwrap();
        f.write_alloc(b, None).unwrap();
        f.verify_integrity().unwrap();
        // Simulate a buggy remap that points a second LPN at a live page.
        f.map.remap(b, loc);
        let err = f.verify_integrity().unwrap_err();
        assert_eq!(
            err,
            IntegrityError::DoubleMapped {
                loc,
                first: a,
                second: b
            }
        );
        assert!(err.to_string().contains("mapped by both"), "{err}");
    }

    #[test]
    fn verify_integrity_detects_victim_index_drift() {
        let mut f = ftl();
        let home = f.locate(LogicalPage(0));
        let g = f.shape.flash;
        let streams = (f.shape.packages_per_fimm * g.dies * g.planes) as u64;
        for _ in 0..(g.pages_per_block as u64 * streams) {
            f.write_alloc(LogicalPage(0), None).unwrap();
        }
        f.verify_integrity().unwrap();
        let victim = f.gc_pick(home.cluster, home.fimm).expect("victim exists");
        let gc = f.shape.topology.global_index(victim.cluster);
        let key = (victim.package, victim.die, victim.block);
        let at = f.block_ref((gc, victim.fimm, key)).unwrap();
        let g = f.fimm_of(at);
        // Simulate a maintenance site that forgot to index a candidate.
        f.victims[g].retain(|&x| x != at);
        let err = f.verify_integrity().unwrap_err();
        assert!(
            matches!(
                err,
                IntegrityError::VictimIndex { indexed: false, block, .. } if block == victim.block
            ),
            "{err}"
        );
        assert!(err.to_string().contains("index omits"), "{err}");
        // ... and one that left a block behind that is no candidate.
        f.add_victim(at);
        f.verify_integrity().unwrap();
        f.add_victim((at.0, 99));
        let err = f.verify_integrity().unwrap_err();
        assert!(
            matches!(
                err,
                IntegrityError::VictimIndex {
                    indexed: true,
                    block: 99,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("index lists"), "{err}");
    }

    #[test]
    fn verify_integrity_detects_block_count_drift() {
        let mut f = ftl();
        let lpn = LogicalPage(21);
        let first = f.write_alloc(lpn, None).unwrap();
        f.write_alloc(lpn, None).unwrap();
        f.verify_integrity().unwrap();
        let at = f.block_of(first).unwrap();
        let counts = |f: &Ftl| {
            matches!(
                f.verify_integrity(),
                Err(IntegrityError::BlockCounts { block, .. }) if block == first.addr.page.block
            )
        };
        // Simulate an invalidation that forgot to count the page out...
        let mut bad = f.clone();
        bad.blocks.get_mut(at).unwrap().live += 1;
        assert!(counts(&bad), "{:?}", bad.verify_integrity());
        let msg = bad.verify_integrity().unwrap_err().to_string();
        assert!(msg.contains("page slots hold an lpn"), "{msg}");
        // ... and a table longer than the block's programmed prefix,
        // though no slot holds an LPN.
        let mut bad = f.clone();
        let b = bad.blocks.get_mut(at).unwrap();
        b.lpns.extend((0..=b.programmed).map(|_| VACANT));
        assert!(counts(&bad), "{:?}", bad.verify_integrity());
    }

    #[test]
    fn gc_finish_failed_quarantines_instead_of_recycling() {
        let mut f = ftl();
        let home = f.locate(LogicalPage(0));
        let g = f.shape.flash;
        let streams = (f.shape.packages_per_fimm * g.dies * g.planes) as u64;
        for _ in 0..(g.pages_per_block as u64 * streams) {
            f.write_alloc(LogicalPage(0), None).unwrap();
        }
        let work = f.gc_pick(home.cluster, home.fimm).expect("victim exists");
        for lpn in work.valid.clone() {
            f.gc_rewrite(lpn, &work).unwrap();
        }
        let before = f.allocator(work.cluster, work.fimm).free_blocks();
        f.gc_finish_failed(&work);
        assert_eq!(
            f.allocator(work.cluster, work.fimm).free_blocks(),
            before,
            "failed erase returns nothing to the pool"
        );
        assert_eq!(f.stats().gc_erases, 0);
        assert_eq!(f.allocator(work.cluster, work.fimm).retired, 1);
        f.verify_integrity().unwrap();
        // The quarantined block is never handed out again: drain the
        // FIMM and check the bad block's pages never reappear.
        let bad = (work.package, work.die, work.block);
        while let Ok(loc) = f.write_alloc(LogicalPage(1), Some((work.cluster, work.fimm))) {
            assert_ne!(
                (loc.addr.package, loc.addr.page.die, loc.addr.page.block),
                bad,
                "quarantined block re-issued"
            );
        }
    }

    #[test]
    fn full_dram_map_never_misses() {
        let mut f = ftl();
        for i in 0..100 {
            assert!(f.map_access(LogicalPage(i * 9_999)));
        }
        assert!(f.mapcache.is_none());
    }

    #[test]
    fn mapping_cache_misses_on_cold_pages() {
        let mut f = Ftl::with_mapping_cache(ArrayShape::small_test(), 2);
        assert!(!f.map_access(LogicalPage(0)), "cold miss");
        assert!(f.map_access(LogicalPage(1)), "same translation page");
        let c = f.mapcache.as_ref().unwrap();
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn gc_policies_pick_sensible_victims() {
        // Build two sealed blocks: one old with few invalid pages, one
        // fresh with many. Greedy prefers the fresh/most-invalid block;
        // FIFO prefers the oldest.
        let mut f = ftl();
        let g = f.shape.flash;
        let streams = (f.shape.packages_per_fimm * g.dies * g.planes) as u64;
        // Round 1: seal one block per stream by writing a working set.
        for i in 0..(g.pages_per_block as u64 * streams) {
            f.write_alloc(LogicalPage(i * 2 % 512), None).unwrap();
        }
        let home = f.locate(LogicalPage(0));
        let greedy = {
            f.set_gc_policy(GcPolicy::Greedy);
            f.gc_pick(home.cluster, home.fimm).expect("victim exists")
        };
        f.set_gc_policy(GcPolicy::Fifo);
        let fifo = f.gc_pick(home.cluster, home.fimm).expect("victim exists");
        f.set_gc_policy(GcPolicy::CostBenefit);
        let cb = f.gc_pick(home.cluster, home.fimm).expect("victim exists");
        // All valid picks; FIFO picks the earliest-sealed block.
        for w in [&greedy, &fifo, &cb] {
            assert_eq!(w.cluster, home.cluster);
        }
        assert_eq!(f.gc_policy, GcPolicy::CostBenefit);
    }

    #[test]
    fn needs_gc_threshold() {
        let mut f = ftl();
        let c = ClusterId::default();
        assert!(!f.needs_gc(c, 0, 1));
        let total = f.allocator(c, 0).free_blocks();
        assert!(f.needs_gc(c, 0, total + 1));
    }

    use crate::journal::JournalConfig;

    /// flush_every=1 makes every record durable immediately.
    fn eager_journal() -> JournalConfig {
        JournalConfig {
            flush_every: 1,
            checkpoint_every: 1_000_000,
        }
    }

    #[test]
    fn power_loss_without_journal_is_durable() {
        let mut f = ftl();
        let lpn = LogicalPage(9);
        let loc = f.write_alloc(lpn, None).unwrap();
        let out = f.power_loss().unwrap();
        assert_eq!(out, crate::journal::RecoveryOutcome::default());
        assert_eq!(f.locate(lpn), loc, "battery-backed map survives");
        f.verify_integrity().unwrap();
    }

    #[test]
    fn journal_replay_reconstructs_flushed_state() {
        let mut f = ftl();
        f.enable_journal(eager_journal());
        let lpns: Vec<LogicalPage> = (0..40).map(|i| LogicalPage(i * 13)).collect();
        for &l in &lpns {
            f.write_alloc(l, None).unwrap();
        }
        // A committed clone-then-unlink migration, too.
        let mover = lpns[3];
        let old = f.locate(mover);
        let dst = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape.topology.clusters_per_switch,
        };
        let clone = f.migrate_prepare(mover, dst, 0).unwrap();
        assert!(f.migrate_commit(mover, clone, old));
        let before: Vec<PhysLoc> = lpns.iter().map(|&l| f.locate(l)).collect();
        let stats_before = f.stats();

        let out = f.power_loss().unwrap();
        assert!(out.replayed > 0);
        assert_eq!(out.dropped, 0, "eager flush loses nothing");
        assert_eq!(out.aborted_clones, 0);
        for (l, want) in lpns.iter().zip(&before) {
            assert_eq!(f.locate(*l), *want, "lpn {} survives the cut", l.0);
        }
        assert_eq!(f.stats(), stats_before);
        f.verify_integrity().unwrap();
        let js = f.journal_stats().unwrap();
        assert_eq!(js.power_losses, 1);
        assert_eq!(js.replayed, out.replayed);
    }

    #[test]
    fn power_loss_drops_unflushed_tail() {
        let mut f = ftl();
        f.enable_journal(JournalConfig {
            flush_every: 1_000_000, // nothing ever group-commits
            checkpoint_every: 1_000_000,
        });
        let lpn = LogicalPage(123);
        let home = f.locate(lpn);
        f.write_alloc(lpn, None).unwrap();
        let journal = f.journal.as_ref().unwrap();
        assert_eq!(journal.records.len() - journal.flushed, 1);
        let out = f.power_loss().unwrap();
        assert_eq!(out.dropped, 1);
        assert_eq!(out.replayed, 0);
        assert_eq!(f.locate(lpn), home, "un-flushed write rewound");
        assert_eq!(f.stats().host_writes, 0, "stats rewound with the state");
        f.verify_integrity().unwrap();
    }

    #[test]
    fn dangling_prepared_clone_rolled_back_on_recovery() {
        let mut f = ftl();
        f.enable_journal(eager_journal());
        let lpn = LogicalPage(5);
        let old = f.locate(lpn);
        let dst = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape.topology.clusters_per_switch,
        };
        let clone = f.migrate_prepare(lpn, dst, 0).unwrap();
        // Power cut lands between prepare and commit.
        let out = f.power_loss().unwrap();
        assert_eq!(out.aborted_clones, 1);
        assert_eq!(f.locate(lpn), old, "readers never saw the clone");
        assert_ne!(f.locate(lpn), clone);
        f.verify_integrity()
            .expect("recovery scan aborts mid-flight clones");
    }

    #[test]
    fn clone_caught_by_a_checkpoint_is_rolled_back_on_recovery() {
        let mut f = ftl();
        f.enable_journal(JournalConfig {
            flush_every: 1,
            checkpoint_every: 1,
        });
        let lpn = LogicalPage(5);
        let old = f.locate(lpn);
        let dst = ClusterId {
            switch: old.cluster.switch,
            index: (old.cluster.index + 1) % f.shape.topology.clusters_per_switch,
        };
        // The checkpoint right after the prepare truncates its record...
        let clone = f.migrate_prepare(lpn, dst, 0).unwrap();
        // ... and the commit never becomes durable.
        f.journal.as_mut().unwrap().cfg.flush_every = u32::MAX;
        assert!(f.migrate_commit(lpn, clone, old));
        let out = f.power_loss().unwrap();
        assert_eq!(out.aborted_clones, 1);
        assert_eq!(f.locate(lpn), old, "readers never saw the clone");
        f.verify_integrity()
            .expect("recovery rolls back clones the checkpoint caught");
    }

    #[test]
    fn checkpoint_cadence_truncates_journal() {
        let mut f = ftl();
        f.enable_journal(JournalConfig {
            flush_every: 1,
            checkpoint_every: 8,
        });
        for i in 0..50 {
            f.write_alloc(LogicalPage(i), None).unwrap();
        }
        let js = f.journal_stats().unwrap();
        assert!(js.checkpoints >= 5, "checkpoints: {}", js.checkpoints);
        let before: Vec<PhysLoc> = (0..50).map(|i| f.locate(LogicalPage(i))).collect();
        let out = f.power_loss().unwrap();
        assert!(
            out.replayed < 50,
            "checkpoints bound the replay: {}",
            out.replayed
        );
        for (i, want) in before.iter().enumerate() {
            assert_eq!(f.locate(LogicalPage(i as u64)), *want);
        }
        f.verify_integrity().unwrap();
    }

    #[test]
    fn recovery_survives_gc_and_quarantine_records() {
        let mut f = ftl();
        f.enable_journal(eager_journal());
        let home = f.locate(LogicalPage(0));
        let g = f.shape.flash;
        let streams = (f.shape.packages_per_fimm * g.dies * g.planes) as u64;
        for _ in 0..(g.pages_per_block as u64 * streams) {
            f.write_alloc(LogicalPage(0), None).unwrap();
        }
        let work = f.gc_pick(home.cluster, home.fimm).expect("victim exists");
        for lpn in work.valid.clone() {
            f.gc_rewrite(lpn, &work).unwrap();
        }
        f.gc_finish(&work);
        f.quarantine_block(f.locate(LogicalPage(0)));
        let want = f.locate(LogicalPage(0));
        let erases = f.stats().gc_erases;
        f.power_loss().unwrap();
        assert_eq!(f.locate(LogicalPage(0)), want);
        assert_eq!(f.stats().gc_erases, erases);
        f.verify_integrity().unwrap();
    }

    #[test]
    fn journal_divergence_is_returned_by_the_next_power_loss() {
        let cfg = JournalConfig {
            flush_every: 1,
            checkpoint_every: 4,
        };
        let corrupt = |f: &mut Ftl, index: usize| {
            let j = f.journal.as_mut().unwrap();
            let JournalRecord::Write { loc, .. } = &mut j.records[index] else {
                panic!("record {index} is a write");
            };
            loc.addr.page.page += 1;
        };
        // Found while advancing the checkpoint: kept, not raised.
        let mut f = ftl();
        f.enable_journal(cfg);
        for i in 0..3 {
            f.write_alloc(LogicalPage(i), None).unwrap();
        }
        corrupt(&mut f, 1);
        f.write_alloc(LogicalPage(3), None).unwrap();
        assert_eq!(f.journal_stats().unwrap().checkpoints, 1);
        f.write_alloc(LogicalPage(4), None).unwrap();
        let want = RecoveryError::Diverged {
            index: 1,
            lpn: LogicalPage(1),
        };
        assert_eq!(f.power_loss(), Err(want));
        assert_eq!(
            f.power_loss(),
            Err(want),
            "a diverged journal stays untrusted"
        );
        // Found by the recovery scan's own replay.
        let mut f = ftl();
        f.enable_journal(cfg);
        for i in 0..3 {
            f.write_alloc(LogicalPage(i), None).unwrap();
        }
        corrupt(&mut f, 2);
        assert_eq!(
            f.power_loss(),
            Err(RecoveryError::Diverged {
                index: 2,
                lpn: LogicalPage(2),
            })
        );
        // A record the checkpoint cannot even re-drive.
        let mut f = ftl();
        f.enable_journal(cfg);
        f.write_alloc(LogicalPage(0), None).unwrap();
        let bad = f.shape.total_pages();
        let JournalRecord::Write { lpn, .. } = &mut f.journal.as_mut().unwrap().records[0] else {
            panic!("record 0 is a write");
        };
        lpn.0 = bad;
        for i in 1..4 {
            f.write_alloc(LogicalPage(i), None).unwrap();
        }
        assert_eq!(
            f.power_loss(),
            Err(RecoveryError::Replay {
                index: 0,
                error: FtlError::AddressOutOfRange(bad),
            })
        );
    }

    /// Differential test of the GC victim index against the full
    /// block-table scan it replaces.
    mod victim_index {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;
        use triplea_flash::FlashGeometry;
        use triplea_pcie::Topology;

        /// Derives the victim index from a block table: what the index
        /// maintained incrementally must equal.
        fn victims_of(f: &Ftl) -> Vec<Vec<BlockRef>> {
            let mut victims: Vec<Vec<BlockRef>> = Vec::new();
            for (at, b) in f.blocks.iter() {
                if b.is_gc_candidate(f.shape.flash.pages_per_block) {
                    grown(&mut victims, f.fimm_of(at)).push(at);
                }
            }
            victims
        }

        /// The full-table scan `gc_pick` used before the victim index,
        /// kept as its executable specification: the best
        /// `(score, Reverse(key))` among the FIMM's sealed blocks with an
        /// invalid page.
        fn gc_pick_scan(f: &Ftl, cluster: ClusterId, fimm: u32) -> Option<GcWork> {
            let gc = f.shape.topology.global_index(cluster);
            let pages = f.shape.flash.pages_per_block;
            f.blocks
                .iter()
                .map(|(at, b)| (f.block_key(at), b))
                .filter(|((c, fi, _), b)| *c == gc && *fi == fimm && b.programmed == pages)
                .filter(|(_, b)| b.invalid() > 0)
                .max_by_key(|((_, _, key), b)| (f.gc_score(b), Reverse(*key)))
                .map(|((_, _, key), b)| f.gc_work(cluster, fimm, key, b))
        }

        /// Every `(global FIMM, block)` an index lists, however far its
        /// vector grew.
        pub(super) fn flatten(v: &[Vec<BlockRef>]) -> BTreeSet<(usize, BlockRef)> {
            (0..)
                .zip(v)
                .flat_map(|(g, refs)| refs.iter().map(move |&at| (g, at)))
                .collect()
        }

        /// 2 clusters × 2 FIMMs of 8 four-page blocks: a few dozen
        /// writes exhaust a FIMM, so GC has work almost at once.
        pub(super) fn tiny_shape() -> ArrayShape {
            ArrayShape {
                topology: Topology {
                    switches: 1,
                    clusters_per_switch: 2,
                },
                fimms_per_cluster: 2,
                packages_per_fimm: 1,
                flash: FlashGeometry {
                    dies: 1,
                    planes: 2,
                    blocks_per_plane: 4,
                    pages_per_block: 4,
                    page_size: 4096,
                    endurance: 1000,
                },
            }
        }

        /// Hot logical pages the sequences overwrite.
        const WORKING_SET: u64 = 24;

        pub(super) fn fimm_at(f: &Ftl, i: u32) -> (ClusterId, u32) {
            let per = f.shape.fimms_per_cluster;
            let t = f.shape.topology;
            let n = t.total_clusters() * per;
            (t.cluster_from_global(i % n / per), i % n % per)
        }

        fn check(f: &Ftl) {
            let n = f.shape.topology.total_clusters() * f.shape.fimms_per_cluster;
            for i in 0..n {
                let (c, fimm) = fimm_at(f, i);
                prop_assert_eq!(f.gc_pick(c, fimm), gc_pick_scan(f, c, fimm));
            }
            let rebuilt = victims_of(f);
            prop_assert_eq!(flatten(&f.victims), flatten(&rebuilt));
            prop_assert_eq!(f.verify_integrity(), Ok(()));
        }

        /// One generated operation: `kind` picks it, the other fields
        /// parameterise it.
        pub(super) type Op = (u32, u64, u32, u32);

        pub(super) fn ops() -> impl Strategy<Value = Vec<Op>> {
            prop::collection::vec((0u32..100, 0u64..1_000, 0u32..60, 0u32..60), 100..400)
        }

        /// What a test observes of a generated sequence.
        pub(super) trait Harness {
            /// Runs after every mutating FTL call.
            fn settle(&mut self, _f: &Ftl) {}

            /// Cuts the power.
            fn cut(&mut self, f: &mut Ftl) {
                f.power_loss().expect("journal replay reproduces the state");
            }
        }

        impl Harness for () {}

        /// Applies one generated operation.
        pub(super) fn apply(f: &mut Ftl, (kind, a, b, c): Op, h: &mut impl Harness) {
            let lpn = LogicalPage(a % WORKING_SET);
            let (to_cluster, to_fimm) = fimm_at(f, c);
            match kind {
                // Host write, every fourth one redirected.
                0..=49 => {
                    let target = (b % 4 == 0).then_some((to_cluster, to_fimm));
                    let _ = f.write_alloc(lpn, target);
                    h.settle(f);
                }
                // Clone-then-unlink migration: commit, abort, or a
                // commit made stale by a host write mid-clone.
                50..=61 => {
                    let old = f.locate(lpn);
                    let prepared = f.migrate_prepare(lpn, to_cluster, to_fimm);
                    h.settle(f);
                    if let Ok(clone) = prepared {
                        match b % 3 {
                            0 => {
                                f.migrate_commit(lpn, clone, old);
                            }
                            1 => {
                                f.migrate_abort(lpn, clone);
                            }
                            _ => {
                                let _ = f.write_alloc(lpn, None);
                                h.settle(f);
                                f.migrate_commit(lpn, clone, old);
                            }
                        }
                        h.settle(f);
                    }
                }
                // One GC cycle; every fifth erase hard-fails. A cycle
                // that runs out of space mid-rewrite is abandoned.
                62..=91 => {
                    if let Some(work) = f.gc_pick(to_cluster, to_fimm) {
                        let rewrote = work.valid.iter().all(|&l| {
                            let ok = f.gc_rewrite(l, &work).is_ok();
                            h.settle(f);
                            ok
                        });
                        if rewrote && b % 5 == 0 {
                            f.gc_finish_failed(&work);
                        } else if rewrote {
                            f.gc_finish(&work);
                        }
                        h.settle(f);
                    }
                }
                92..=94 => {
                    f.quarantine_block(f.locate(lpn));
                    h.settle(f);
                }
                _ => {
                    h.cut(f);
                    h.settle(f);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48 })]

            /// After every operation of a random sequence, under every
            /// policy: the indexed pick equals the scan on every FIMM,
            /// the index equals a rebuild from the block table, and the
            /// metadata audit passes.
            #[test]
            fn indexed_pick_matches_full_scan(
                ops in ops(),
                flush_every in 1u32..8,
                checkpoint_every in 1u32..64,
            ) {
                for policy in [GcPolicy::Greedy, GcPolicy::CostBenefit, GcPolicy::Fifo] {
                    let mut f = Ftl::new(tiny_shape());
                    f.set_gc_policy(policy);
                    f.enable_journal(JournalConfig { flush_every, checkpoint_every });
                    for &op in &ops {
                        apply(&mut f, op, &mut ());
                        check(&f);
                    }
                }
            }
        }
    }

    /// Differential test of the shadow checkpoint, advanced by replay,
    /// against the deep copy of the live state it replaces.
    mod journal_checkpoint {
        use super::victim_index::{apply, flatten, ops, tiny_shape, Harness};
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;
        use triplea_fimm::FimmAddr;
        use triplea_flash::PageAddr;
        use triplea_sim::FxHashMap;

        /// A clone as a sortable key: `(lpn, block, page)`.
        type CloneKey = (u64, (u32, u32, BlockKey), u32);

        fn clone_keys(f: &Ftl, clones: &[(LogicalPage, PhysLoc)]) -> BTreeSet<CloneKey> {
            clones
                .iter()
                .map(|&(lpn, loc)| {
                    let at = f.block_of(loc).expect("clones lie in the shape");
                    (lpn.0, f.block_key(at), loc.addr.page.page)
                })
                .collect()
        }

        /// The migration clones open in `f`: block-table entries whose
        /// LPN maps elsewhere. Between operations there are none
        /// (`verify_integrity`), so mid-operation these are exactly the
        /// prepared clones not yet committed or aborted.
        fn open_clones(f: &Ftl) -> Vec<(LogicalPage, PhysLoc)> {
            let mut open = Vec::new();
            for (at, b) in f.blocks.iter() {
                let (c, fimm, (package, die, block)) = f.block_key(at);
                for (page, lpn) in b.live_pages() {
                    let loc = PhysLoc {
                        cluster: f.shape.topology.cluster_from_global(c),
                        fimm,
                        addr: FimmAddr {
                            package,
                            page: PageAddr {
                                die,
                                plane: f.shape.flash.plane_of_block(block),
                                block,
                                page,
                            },
                        },
                    };
                    if f.map.locate(lpn) != loc {
                        open.push((lpn, loc));
                    }
                }
            }
            open
        }

        /// `a` and `b` hold the same durable translation state. An
        /// allocator missing from one side is pristine: read-only calls
        /// create allocators on demand, and those are never journaled.
        fn same_state(a: &Ftl, b: &Ftl) {
            let entries = |f: &Ftl| f.map.remapped_entries().collect::<FxHashMap<_, _>>();
            prop_assert!(entries(a) == entries(b), "page maps differ");
            prop_assert_eq!(a.map.total_remaps(), b.map.total_remaps());
            prop_assert!(a.blocks == b.blocks, "block tables differ");
            let pristine = FimmAllocator::new(a.shape.packages_per_fimm, a.shape.flash);
            for g in 0..a.allocs.len().max(b.allocs.len()) {
                let side = |f: &Ftl| {
                    f.allocs
                        .get(g)
                        .cloned()
                        .flatten()
                        .unwrap_or(pristine.clone())
                };
                prop_assert!(side(a) == side(b), "allocators of global fimm {} differ", g);
            }
            prop_assert_eq!(flatten(&a.victims), flatten(&b.victims));
            prop_assert_eq!(a.seal_seq, b.seal_seq);
            prop_assert_eq!(a.stats, b.stats);
        }

        /// The checkpoint before the shadow, kept as its executable
        /// specification: a deep copy of the live state taken at each
        /// checkpoint, with the clones open then. A power cut rewinds a
        /// copy of it, replays the durable journal and rolls back the
        /// clones left open.
        struct DeepCopySpec {
            state: Ftl,
            clones: Vec<(LogicalPage, PhysLoc)>,
            checkpoints: u64,
        }

        impl DeepCopySpec {
            fn new(f: &Ftl) -> Self {
                DeepCopySpec {
                    state: f.shadow(),
                    clones: Vec::new(),
                    checkpoints: 0,
                }
            }

            /// The rewind-and-replay recovery of `f`'s journal.
            fn rewind(&self, f: &Ftl) -> (Ftl, Result<RecoveryOutcome, RecoveryError>) {
                let j = f.journal.as_ref().unwrap();
                let mut state = self.state.clone();
                let mut outstanding = self.clones.clone();
                let replayed = state.replay(&j.records[..j.flushed], &mut outstanding);
                let aborted_clones = outstanding.len() as u64;
                for (lpn, loc) in outstanding {
                    state.migrate_abort(lpn, loc);
                }
                let outcome = replayed.map(|replayed| RecoveryOutcome {
                    replayed,
                    dropped: (j.records.len() - j.flushed) as u64,
                    aborted_clones,
                });
                (state, outcome)
            }
        }

        impl Harness for DeepCopySpec {
            fn settle(&mut self, f: &Ftl) {
                let checkpoints = f.journal_stats().unwrap().checkpoints;
                if checkpoints != self.checkpoints {
                    self.checkpoints = checkpoints;
                    self.state = f.shadow();
                    self.clones = open_clones(f);
                    let j = f.journal.as_ref().unwrap();
                    same_state(&j.checkpoint.ftl, &self.state);
                    prop_assert_eq!(
                        clone_keys(f, &j.checkpoint.clones),
                        clone_keys(f, &self.clones)
                    );
                    prop_assert_eq!(j.diverged, None);
                }
            }

            fn cut(&mut self, f: &mut Ftl) {
                let (want, outcome) = self.rewind(f);
                prop_assert_eq!(f.power_loss(), outcome);
                same_state(f, &want);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48 })]

            /// Over random journaled sequences: after every checkpoint
            /// the shadow equals a deep copy of the live FTL, and every
            /// power cut recovers the state and outcome the deep-copy
            /// rewind-and-replay path produces.
            #[test]
            fn shadow_checkpoint_matches_deep_copy(
                ops in ops(),
                flush_every in 1u32..8,
                checkpoint_every in 1u32..64,
            ) {
                let mut f = Ftl::new(tiny_shape());
                f.enable_journal(JournalConfig { flush_every, checkpoint_every });
                let mut spec = DeepCopySpec::new(&f);
                for &op in &ops {
                    apply(&mut f, op, &mut spec);
                }
            }
        }
    }

    /// Differential test of the metadata audit against the hash-map
    /// audit it replaces, on corrupted states.
    mod integrity_audit {
        use super::victim_index::{apply, flatten, ops, tiny_shape};
        use super::*;
        use crate::layout::StripedLayout;
        use proptest::prelude::*;
        use std::collections::BTreeSet;
        use triplea_sim::FxHashMap;

        /// The audit before the block-slot check, kept as its executable
        /// specification: a hash map of every remapped page catches two
        /// LPNs on one page.
        fn verify_integrity_spec(f: &Ftl) -> Result<(), IntegrityError> {
            let mut seen: FxHashMap<PhysLoc, LogicalPage> = FxHashMap::default();
            for (lpn, loc) in f.map.remapped_entries() {
                if !f.shape.contains(loc) {
                    return Err(IntegrityError::OutOfRange { lpn, loc });
                }
                if let Some(prev) = seen.insert(loc, lpn) {
                    return Err(IntegrityError::DoubleMapped {
                        loc,
                        first: prev,
                        second: lpn,
                    });
                }
                let listed = f
                    .block_of(loc)
                    .and_then(|at| f.blocks.get(at))
                    .and_then(|b| b.lpn_at(loc.addr.page.page));
                if listed != Some(lpn) {
                    return Err(IntegrityError::LostPage { lpn, loc, listed });
                }
            }
            f.verify_block_tables()
        }

        /// Corruption kinds [`corrupt`] knows.
        const KINDS: u32 = 8;

        /// Breaks one piece of `f`'s metadata the way a buggy
        /// maintenance site would, addressing LPNs `a` and `b`.
        fn corrupt(f: &mut Ftl, kind: u32, a: LogicalPage, b: LogicalPage) {
            let loc = f.locate(a);
            match kind {
                // A second LPN pointed at `a`'s page.
                0 if a != b => {
                    f.map.remap(b, loc);
                }
                // `a`'s live entry dropped from its block.
                1 => f.invalidate(a, loc),
                // `a` sent home while its block still lists it.
                2 => {
                    f.map.remap(a, StripedLayout::new(f.shape).locate(a));
                }
                // The index forgets its first candidate.
                3 => {
                    if let Some(&(g, at)) = flatten(&f.victims).first() {
                        f.victims[g].retain(|&x| x != at);
                    }
                }
                // The index lists a block that is no candidate.
                4 => f.add_victim((0, 99)),
                // `a` mapped past the last FIMM.
                5 => {
                    let fimm = f.shape.fimms_per_cluster;
                    f.map.remap(a, PhysLoc { fimm, ..loc });
                }
                // `a`'s block miscounts its live pages.
                6 => {
                    if let Some(blk) = f.block_of(loc).and_then(|at| f.blocks.get_mut(at)) {
                        blk.live ^= 1;
                    }
                }
                // `a`'s block holds more slots than it programmed pages.
                7 => {
                    if let Some(blk) = f.block_of(loc).and_then(|at| f.blocks.get_mut(at)) {
                        blk.lpns.push_front(b);
                        blk.live += 1;
                        blk.programmed = blk.lpns.len() as u32 - 1;
                    }
                }
                _ => {}
            }
        }

        /// Both audits agree, except that where the specification found
        /// a page listing another LPN that also maps there, it blamed the
        /// LPN it met first as lost; the block-slot check names the
        /// double mapping.
        fn agree(f: &Ftl) {
            let (spec, new) = (verify_integrity_spec(f), f.verify_integrity());
            match (&spec, &new) {
                (
                    Err(IntegrityError::LostPage {
                        lpn,
                        loc,
                        listed: Some(other),
                    }),
                    Err(IntegrityError::DoubleMapped {
                        loc: l,
                        first,
                        second,
                    }),
                ) => {
                    prop_assert_eq!((l, first, second), (loc, other, lpn));
                    prop_assert_eq!(f.map.locate(*other), *loc);
                }
                _ => prop_assert_eq!(spec, new),
            }
        }

        fn variant(e: &IntegrityError) -> &'static str {
            match e {
                IntegrityError::OutOfRange { .. } => "OutOfRange",
                IntegrityError::DoubleMapped { .. } => "DoubleMapped",
                IntegrityError::LostPage { .. } => "LostPage",
                IntegrityError::StaleBlockEntry { .. } => "StaleBlockEntry",
                IntegrityError::VictimIndex { .. } => "VictimIndex",
                IntegrityError::BlockCounts { .. } => "BlockCounts",
            }
        }

        #[test]
        fn every_integrity_error_stays_reachable() {
            let mut base = Ftl::new(tiny_shape());
            // Two full rounds of one LPN's overwrites seal blocks with
            // invalid pages, so the victim index has candidates.
            for i in 0..64 {
                base.write_alloc(LogicalPage(i % 4), None).unwrap();
            }
            base.verify_integrity().unwrap();
            let reached: BTreeSet<&str> = (0..KINDS)
                .map(|kind| {
                    let mut f = base.clone();
                    corrupt(&mut f, kind, LogicalPage(1), LogicalPage(2));
                    agree(&f);
                    variant(&f.verify_integrity().unwrap_err())
                })
                .collect();
            assert_eq!(reached.len(), 6, "{reached:?}");
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48 })]

            /// After a random journaled sequence and one corruption, the
            /// block-slot audit returns what the hash-map audit returns
            /// (up to the documented double-mapping diagnosis).
            #[test]
            fn block_slot_audit_matches_hash_map_audit(
                ops in ops(),
                kind in 0u32..KINDS,
                a in 0u64..24,
                b in 0u64..24,
            ) {
                let mut f = Ftl::new(tiny_shape());
                f.enable_journal(JournalConfig { flush_every: 4, checkpoint_every: 16 });
                for &op in &ops {
                    apply(&mut f, op, &mut ());
                }
                agree(&f);
                corrupt(&mut f, kind, LogicalPage(a), LogicalPage(b));
                agree(&f);
            }
        }
    }

    /// The dense block table's walks come out in the order the sorts
    /// they replaced produced, and its equality ignores how far its
    /// vectors grew.
    mod dense_tables {
        use super::victim_index::{apply, fimm_at, ops, tiny_shape, Harness};
        use super::*;
        use proptest::prelude::*;

        /// A GC unit lists its victim's live pages in ascending page
        /// order: each LPN sits at a later slot than the one before, and
        /// there is one per live page.
        fn check_gc_work(f: &Ftl, work: &GcWork) {
            let gc = f.shape.topology.global_index(work.cluster);
            let key = (work.package, work.die, work.block);
            let b = f
                .block_ref((gc, work.fimm, key))
                .and_then(|at| f.blocks.get(at))
                .expect("the victim is in the table");
            let mut from = 0;
            for &lpn in &work.valid {
                let at = (from..b.programmed).find(|&pg| b.lpn_at(pg) == Some(lpn));
                prop_assert!(at.is_some(), "lpn {} out of page order", lpn.0);
                from = at.unwrap() + 1;
            }
            prop_assert_eq!(work.valid.len() as u32, b.live);
        }

        /// A rebuild manifest lists every programmed block of the FIMM
        /// once, sorted by (package, die, block), each with its live
        /// offsets ascending inside its programmed prefix.
        fn check_manifest(f: &Ftl, cluster: ClusterId, fimm: u32) {
            let units = f.rebuild_manifest(cluster, fimm);
            let keys: Vec<BlockKey> = units.iter().map(|u| (u.package, u.die, u.block)).collect();
            prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "{:?}", keys);
            let gc = f.shape.topology.global_index(cluster);
            let programmed = f
                .blocks
                .iter()
                .filter(|&(at, _)| {
                    let (c, fi, _) = f.block_key(at);
                    (c, fi) == (gc, fimm)
                })
                .count();
            prop_assert_eq!(units.len(), programmed);
            for u in &units {
                prop_assert!(u.live.windows(2).all(|w| w[0] < w[1]), "{:?}", u);
                prop_assert!(u.live.last().is_none_or(|&pg| pg < u.programmed), "{:?}", u);
            }
        }

        struct Walks;

        impl Harness for Walks {
            fn settle(&mut self, f: &Ftl) {
                let n = f.shape.topology.total_clusters() * f.shape.fimms_per_cluster;
                for i in 0..n {
                    let (c, fimm) = fimm_at(f, i);
                    if let Some(work) = f.gc_pick(c, fimm) {
                        check_gc_work(f, &work);
                    }
                    check_manifest(f, c, fimm);
                }
            }

            /// The recovered table equals its checkpoint's, and still
            /// does once a copy has grown past every programmed block.
            fn cut(&mut self, f: &mut Ftl) {
                f.power_loss().expect("journal replay reproduces the state");
                let durable = &f.journal.as_ref().unwrap().checkpoint.ftl.blocks;
                prop_assert!(f.blocks == *durable, "recovered table differs");
                let mut grown = durable.clone();
                let dies = grown.dies.len();
                grown.opened((dies + 2, 3));
                grown.opened((0, f.shape.flash.blocks_per_plane * 2));
                prop_assert!(f.blocks == grown, "growth alone changed the table");
            }
        }

        #[test]
        fn block_table_equality_counts_only_programmed_blocks() {
            let mut f = Ftl::new(tiny_shape());
            for i in 0..12 {
                f.write_alloc(LogicalPage(i % 5), None).unwrap();
            }
            let mut grown = f.blocks.clone();
            grown.opened((grown.dies.len() + 1, 0));
            assert!(grown == f.blocks, "an unprogrammed entry is no block");
            let (at, _) = f.blocks.iter().next().expect("a programmed block");
            let mut changed = f.blocks.clone();
            changed.get_mut(at).unwrap().sealed_seq += 1;
            assert!(changed != f.blocks, "a programmed block's fields count");
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48 })]

            /// Over random write, overwrite, GC, aborted-migration and
            /// power-loss sequences: GC units and rebuild manifests come
            /// out in page and block order after every FTL call, and
            /// every recovered table equals its checkpoint's.
            #[test]
            fn walks_stay_ordered_and_recovery_matches_the_checkpoint(
                ops in ops(),
                flush_every in 1u32..8,
                checkpoint_every in 1u32..64,
            ) {
                let mut f = Ftl::new(tiny_shape());
                f.enable_journal(JournalConfig { flush_every, checkpoint_every });
                for &op in &ops {
                    apply(&mut f, op, &mut Walks);
                }
            }
        }
    }
}
