//! # xrta-rng — deterministic pseudo-randomness without dependencies
//!
//! A [SplitMix64](https://prng.di.unimi.it/splitmix64.c)-seeded
//! xoshiro256** generator plus the handful of sampling helpers the
//! workspace needs (ranges, booleans, shuffles, weighted picks). The
//! workspace is built offline, so the usual `rand` crate is not
//! available; everything random in circuit generation and in the
//! randomized tests goes through this crate instead, which also makes
//! every "random" artifact reproducible from its seed alone.
//!
//! It is also home to the workspace's one hash family ([`hash`]):
//! streaming FNV-1a and the SplitMix64 finaliser [`mix64`].
//!
//! ## Example
//!
//! ```
//! use xrta_rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let a = rng.range(0, 10);
//! assert!((0..10).contains(&a));
//! assert_eq!(Rng::seed_from_u64(42).range(0, 10), a); // deterministic
//! ```

pub mod hash;

pub use hash::{fnv1a128, fnv1a64, mix64, Fnv128, Fnv64};

/// A small, fast, deterministic PRNG (xoshiro256**, SplitMix64-seeded).
///
/// Not cryptographically secure; statistical quality is more than
/// sufficient for test-case generation and benchmark circuits.
#[derive(Clone, Debug)]
pub struct Rng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

impl Rng {
    /// Creates a generator whose whole stream is a function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { state }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi - lo) as u64;
        // Debiased multiply-shift (Lemire); span is tiny relative to
        // 2^64 in all our uses, so the rejection loop almost never runs.
        let mut m = (self.next_u64() as u128) * (span as u128);
        let mut low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            while low < threshold {
                m = (self.next_u64() as u128) * (span as u128);
                low = m as u64;
            }
        }
        lo + (m >> 64) as usize
    }

    /// Uniform value in `[lo, hi]` over `i64` (both bounds finite).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// A uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// True with probability `percent`/100.
    pub fn percent(&mut self, percent: u32) -> bool {
        (self.next_u64() % 100) < u64::from(percent)
    }

    /// Picks a uniform element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_stays_in_bounds_and_covers() {
        let mut rng = Rng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.range(3, 13);
            assert!((3..13).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit in 1000 draws");
    }

    #[test]
    fn range_i64_bounds() {
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.range_i64(-5, 5);
            assert!((-5..=5).contains(&v));
        }
    }

    #[test]
    fn percent_extremes() {
        let mut rng = Rng::seed_from_u64(3);
        assert!((0..100).all(|_| !rng.percent(0)));
        assert!((0..100).all(|_| rng.percent(100)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(4);
        let mut v: Vec<usize> = (0..20).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn bool_is_roughly_balanced() {
        let mut rng = Rng::seed_from_u64(5);
        let trues = (0..10_000).filter(|_| rng.bool()).count();
        assert!((4_000..6_000).contains(&trues), "got {trues}");
    }
}
