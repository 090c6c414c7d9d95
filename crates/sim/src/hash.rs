//! A deterministic, DoS-hardening-free hasher for simulator hot paths.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3) burns ~1 ns/byte to
//! resist hash-flooding attacks — protection a closed, deterministic
//! simulator does not need. This module provides the multiply-xor
//! scheme popularised by rustc (`FxHasher`): a handful of cycles per
//! word, identical results on every platform and every run.
//!
//! Determinism note: swapping the hasher changes *iteration order* of
//! maps. Every map in the workspace that uses these aliases was audited
//! before adopting them — each is either never iterated, or its
//! consumers sort/tie-break before order can leak into simulated
//! outcomes (see `DESIGN.md`, "Hot-path architecture"). Tables keyed by
//! a dense position (the FTL's block and allocator tables, a package's
//! next-page pointers) are vectors indexed by that position instead,
//! so no hash order reaches their walks at all.
//!
//! # Example
//!
//! ```
//! use triplea_sim::hash::FxHashMap;
//!
//! let mut m: FxHashMap<u64, &str> = FxHashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx multiplier: a large odd constant with well-mixed bits
/// (derived from the golden ratio, as in rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-style multiply-xor hasher.
///
/// Not cryptographic and not flood-resistant — use only for keys an
/// adversary cannot choose, which in this workspace means simulator
/// state keyed by page numbers, block keys, and component ids.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]; zero-sized, `Default`-constructible.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`]. Drop-in for `std::HashMap` on
/// hot paths; see the module docs for the iteration-order caveat.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"page"), hash_of(&"page"));
        assert_eq!(hash_of(&(3u32, 7u32, 11u32)), hash_of(&(3u32, 7u32, 11u32)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a statistical test — just a guard against a degenerate
        // implementation that ignores its input.
        let hashes: std::collections::HashSet<u64> = (0u64..1_000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 1_000);
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        m.insert((1, 2), 3);
        assert_eq!(m[&(1, 2)], 3);
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }

    #[test]
    fn partial_tail_bytes_hash() {
        let mut h = FxHasher::default();
        h.write(b"hello world"); // 11 bytes: one full word + 3-byte tail
        let a = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(b"hello worle");
        assert_ne!(a, h2.finish());
    }
}
