//! A fast, non-cryptographic hasher for the per-call operation caches
//! (quantification, composition, minimal elements) and for callers'
//! maps keyed by handles.
//!
//! BDD packages are dominated by hash-table traffic on small fixed-size
//! integer keys; the default SipHash is measurably slower than a
//! multiply-xor scheme for this workload. This is the same construction as
//! the widely used `FxHash` (rustc's internal hasher), re-implemented here
//! so the crate stays dependency-free.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher specialised for small integer keys.
#[derive(Default, Clone, Copy, Debug)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_buckets_mostly() {
        let mut set = FxHashSet::default();
        for i in 0..10_000u64 {
            set.insert(i);
        }
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn map_roundtrip() {
        let mut map: FxHashMap<(u32, u32, u32), u32> = FxHashMap::default();
        for i in 0..1000 {
            map.insert((i, i + 1, i + 2), i);
        }
        for i in 0..1000 {
            assert_eq!(map.get(&(i, i + 1, i + 2)), Some(&i));
        }
    }
}
