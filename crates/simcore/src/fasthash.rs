//! A small, fast, non-cryptographic hasher for the simulator's integer keys.
//!
//! `std`'s default SipHash-1-3 is built to resist hash flooding from
//! untrusted input. The simulator's keys are its own function ids, object
//! ids and sizes, so it pays for a guarantee it does not need on every
//! dispatch. (Trace-file function ids are hashes of the file's names; a
//! file crafted to collide could slow a run down, never change its output.)
//! [`FastHasher`] folds each written word in with one multiply-rotate step
//! and finishes with a 64-bit avalanche mix.
//!
//! The finalizer matters. `std`'s map picks a bucket from the *low* bits of
//! the hash and a control tag from the *top* seven. A multiply carries bits
//! only upward, so without the mix some of those bits of a packed
//! `function << 32 | object` key would ignore most of `function`, and keys
//! that share an object id would crowd a few buckets or tags.
//!
//! Iteration order of a [`FastMap`] is deterministic (no per-process random
//! seed) but arbitrary: code that folds floats over a map must still sort
//! the keys first.
//!
//! ```
//! use dscs_simcore::fasthash::FastMap;
//!
//! let mut homes: FastMap<u64, u32> = FastMap::default();
//! homes.insert(3 << 32 | 7, 2);
//! assert_eq!(homes.get(&(3 << 32 | 7)), Some(&2));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the per-word step (from `rustc-hash`'s FxHasher).
const SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiply-rotate hasher with an avalanche finalizer; see the module
/// docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(SEED).rotate_left(26);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The state through the 64-bit finalizer of MurmurHash3 (`fmix64`):
    /// every input bit flips each output bit with probability about 1/2.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// A `HashMap` hashed with [`FastHasher`]. Construct with
/// `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed with [`FastHasher`]. Construct with
/// `FastSet::default()`.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    #[test]
    fn packed_keys_sharing_their_low_word_spread_over_buckets_and_tags() {
        let hashes: Vec<u64> = (0..4096u64).map(|f| hash(f << 32 | 7)).collect();
        let buckets: FastSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
        assert!(
            buckets.len() >= 2048,
            "only {} of 4096 low-12-bit buckets used",
            buckets.len()
        );
        let tags: FastSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert_eq!(tags.len(), 128, "every top-7-bit tag appears");
    }

    #[test]
    fn hashing_is_deterministic_and_separates_nearby_keys() {
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(0), hash(1));
        assert_ne!(hash(1 << 32), hash(1));
        let mut set: FastSet<(u32, u32)> = FastSet::default();
        for f in 0..64 {
            for o in 0..64 {
                assert!(set.insert((f, o)));
            }
        }
        assert_eq!(set.len(), 64 * 64);
        assert!(set.contains(&(63, 0)));
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut map: FastMap<String, usize> = FastMap::default();
        for i in 0..100 {
            map.insert(format!("f{i}/o{}", i * 7), i);
        }
        for i in 0..100 {
            assert_eq!(map[&format!("f{i}/o{}", i * 7)], i);
        }
    }
}
