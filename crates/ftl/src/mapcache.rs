//! Demand-paged mapping cache (DFTL-style, the paper's ref. [19]).
//!
//! Triple-A's default keeps the entire logical→physical map in the
//! management module's relocated DRAM (§6.6), so translations are free.
//! This module models the alternative the FTL literature studies: only a
//! bounded number of *translation pages* (each covering a run of
//! consecutive LPNs) are cached, and a miss costs a flash read of the
//! map page. The array layer charges that read to the request.

use triplea_sim::FxHashMap;

/// Mapping entries covered by one cached translation page: a 4 KB page
/// of 8-byte entries.
pub const ENTRIES_PER_TRANSLATION_PAGE: u64 = 512;

/// An LRU cache of translation pages.
///
/// # Example
///
/// ```
/// use triplea_ftl::MappingCache;
///
/// let mut c = MappingCache::new(2);
/// assert!(!c.access(0));        // cold miss
/// assert!(c.access(1));         // same translation page
/// assert!(!c.access(10_000));   // different page
/// assert_eq!(c.stats(), (1, 2));
/// ```
#[derive(Clone, Debug)]
pub struct MappingCache {
    capacity: usize,
    /// translation-page id → last-use tick
    resident: FxHashMap<u64, u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl MappingCache {
    /// Creates a cache holding `capacity` translation pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (use `Option<MappingCache>` to model a
    /// full in-DRAM map).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mapping cache needs capacity");
        MappingCache {
            capacity,
            resident: FxHashMap::default(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Touches the translation page covering `lpn`; returns `true` on a
    /// hit. On a miss the LRU resident page is evicted and the new page
    /// installed (the caller charges the flash read).
    pub fn access(&mut self, lpn: u64) -> bool {
        let tpage = lpn / ENTRIES_PER_TRANSLATION_PAGE;
        self.tick += 1;
        if let Some(last) = self.resident.get_mut(&tpage) {
            *last = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.resident.len() >= self.capacity {
            if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, &t)| t) {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(tpage, self.tick);
        false
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Configured capacity in translation pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_locality_hits() {
        let mut c = MappingCache::new(4);
        assert!(!c.access(0));
        for lpn in 1..ENTRIES_PER_TRANSLATION_PAGE {
            assert!(c.access(lpn), "lpn {lpn} shares the translation page");
        }
        assert_eq!(c.stats().1, 1, "exactly one miss");
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut c = MappingCache::new(2);
        let page = |i: u64| i * ENTRIES_PER_TRANSLATION_PAGE;
        c.access(page(0));
        c.access(page(1));
        c.access(page(0)); // page 0 now warmer than page 1
        c.access(page(2)); // evicts page 1
        assert!(c.access(page(0)), "warm page survived");
        assert!(!c.access(page(1)), "cold page was evicted");
        assert_eq!(c.resident.len(), 2);
    }

    #[test]
    fn capacity_bounds_residency() {
        let mut c = MappingCache::new(3);
        for i in 0..100 {
            c.access(i * ENTRIES_PER_TRANSLATION_PAGE);
        }
        assert_eq!(c.resident.len(), 3);
        assert_eq!(c.capacity(), 3);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_panics() {
        MappingCache::new(0);
    }
}
