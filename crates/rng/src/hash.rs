//! The workspace's one non-cryptographic hash family: streaming FNV-1a
//! (64- and 128-bit) and the SplitMix64 finaliser.
//!
//! Several of these values are persisted or shared between processes
//! (serve's disk cache names files by a 128-bit FNV-1a key, router
//! instances must agree on FNV-placed ring points, seeded failpoint
//! rolls replay by hash), so none of them may ever change. The tests
//! pin the published FNV-1a vectors.

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Stamps out one FNV-1a width: a streaming hasher (feeding the bytes
/// in pieces gives the same value as feeding them at once) and its
/// one-shot form.
macro_rules! fnv1a {
    ($hasher:ident, $one_shot:ident, $word:ty, $offset:expr, $prime:expr, $bits:literal) => {
        #[doc = concat!("Streaming ", $bits, "-bit FNV-1a.")]
        #[derive(Clone, Copy, Debug)]
        pub struct $hasher($word);

        impl Default for $hasher {
            fn default() -> Self {
                $hasher($offset)
            }
        }

        impl $hasher {
            /// Folds `bytes` into the hash.
            pub fn write(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 ^= <$word>::from(b);
                    self.0 = self.0.wrapping_mul($prime);
                }
            }

            /// The hash of everything written so far.
            pub fn finish(self) -> $word {
                self.0
            }
        }

        #[doc = concat!($bits, "-bit FNV-1a of `bytes`.")]
        pub fn $one_shot(bytes: &[u8]) -> $word {
            let mut h = $hasher::default();
            h.write(bytes);
            h.finish()
        }
    };
}

fnv1a!(Fnv64, fnv1a64, u64, FNV64_OFFSET, FNV64_PRIME, "64");
fnv1a!(Fnv128, fnv1a128, u128, FNV128_OFFSET, FNV128_PRIME, "128");

/// SplitMix64 finaliser: one step of the SplitMix64 generator from
/// state `z`. A bijection that decorrelates nearby seeds.
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), FNV64_OFFSET);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a128(b""), FNV128_OFFSET);
        assert_eq!(fnv1a128(b"a"), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h64 = Fnv64::default();
        let mut h128 = Fnv128::default();
        for piece in [&b"foo"[..], b"", b"b", b"ar"] {
            h64.write(piece);
            h128.write(piece);
        }
        assert_eq!(h64.finish(), fnv1a64(b"foobar"));
        assert_eq!(h128.finish(), fnv1a128(b"foobar"));
    }

    #[test]
    fn mix64_is_splitmix64() {
        // The first SplitMix64 outputs from seed 0.
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(0x9E37_79B9_7F4A_7C15), 0x6e78_9e6a_a1b9_65f4);
    }
}
