//! Hash maps for identifiers the simulator assigns itself.
//!
//! Command ids, inode numbers, descriptors and logical block addresses
//! are small integers handed out by the program, not by a caller, so
//! the standard library's DoS-resistant SipHash buys nothing on them
//! and costs tens of nanoseconds per lookup on the per-command paths.
//! [`IdMap`] and [`IdSet`] hash with one multiply instead.
//!
//! The hasher is fixed (no per-process random state), so it is
//! deterministic, but the simulation must still never let a map's
//! iteration order reach its output. Keys supplied from outside the
//! program keep the default hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for integer identifiers.
///
/// Multiplying by an odd constant is a bijection whose low bits depend
/// only on the key's low bits (so dense ids fill buckets evenly) and
/// whose high bits mix the whole key (so the table's tag bits differ).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// `2^64 / φ`, the Fibonacci-hashing multiplier.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` keyed by program-assigned identifiers.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of program-assigned identifiers.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(v: u64) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_injective_on_dense_ids() {
        assert_eq!(hash(42), hash(42));
        let mut seen: Vec<u64> = (0..4096).map(hash).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4096);
    }

    #[test]
    fn dense_ids_spread_over_low_and_high_bits() {
        // The table indexes buckets with the low bits and tags them
        // with the top seven: both must vary across consecutive ids.
        let low: std::collections::BTreeSet<u64> = (0..64).map(|v| hash(v) & 63).collect();
        let top: std::collections::BTreeSet<u64> = (0..64).map(|v| hash(v) >> 57).collect();
        assert_eq!(low.len(), 64);
        assert!(top.len() > 32, "{} distinct tags", top.len());
    }

    #[test]
    fn map_and_set_behave_like_std() {
        let mut m: IdMap<u64, u32> = IdMap::default();
        let mut s: IdSet<u32> = IdSet::default();
        for i in 0..1000u64 {
            m.insert(i * 7, i as u32);
            s.insert(i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(999 * 7)), Some(&999));
        assert_eq!(m.remove(&0), Some(0));
        assert!(s.contains(&500) && !s.contains(&1000));
    }
}
