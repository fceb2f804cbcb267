use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative (Fx-style) hasher for maps keyed by bounded integer ids:
/// one full 64 × 64 → 128-bit multiply per word, whose two halves are folded
/// together so that every output bit, the low ones a table picks its bucket
/// by included, depends on every key bit.
///
/// The indexes key their maps by vertex ids, which the engine checks
/// against the graph before they reach an index, and by cell or node indices
/// of a fixed geometry.  Every key therefore lies in a range the program
/// fixes (below the vertex count or the node count), and the keys a map
/// holds are the users located or the cells occupied, not values a client
/// can mint at will, so the flooding resistance of the standard library's
/// SipHash buys little here for its cost on every bound and update.  The
/// fold keeps strided keys (a column of cells, ids with a common factor)
/// from sharing their low bits, which a plain `x · K` would pass on to the
/// bucket index.  The hash is fixed, so iteration order repeats from run to
/// run; no caller depends on it.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// An odd multiplier with well-spread bits (the one `rustc-hash` 2 uses).
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(MULTIPLIER);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by integer ids under [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn strided_keys_spread_over_the_low_bits() {
        // A column of a 256-cell-wide grid: every key is 3 modulo 256, so a
        // plain `x · K` puts all 1,024 of them in at most 4 of 1,024 buckets.
        let build = BuildHasherDefault::<IdHasher>::default();
        let buckets: HashSet<u64> = (0..1_024u64)
            .map(|row| build.hash_one(row * 256 + 3) & 1_023)
            .collect();
        assert!(
            buckets.len() > 256,
            "only {} of 1,024 buckets",
            buckets.len()
        );
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut map: IdMap<u32, u32> = IdMap::default();
        for id in 0..1_000u32 {
            map.insert(id * 7, id);
        }
        assert_eq!(map.len(), 1_000);
        assert!((0..1_000u32).all(|id| map[&(id * 7)] == id));
        assert!(!map.contains_key(&1));
    }
}
