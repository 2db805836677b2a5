//! Consistent-hash ring with virtual nodes.
//!
//! Each shard contributes [`VNODES`] points on a 64-bit ring, placed
//! by FNV-1a over `"{addr}#{vnode}"`. A request's point (the folded
//! content-addressed cache key) routes to the first shard clockwise
//! from it; [`Ring::order_for`] returns *all* shards in that clockwise
//! preference order, which is exactly the failover sequence — removing
//! one shard only reassigns the keys that mapped to it, everything else
//! keeps its owner and therefore its cache locality.

/// Virtual nodes per shard. 64 keeps the per-shard load spread within
/// a few percent for the cluster sizes this tier targets (2–32).
pub const VNODES: usize = 64;

/// FNV-1a over raw bytes, then MurmurHash3's 64-bit finalizer. Plain FNV
/// avalanches too weakly for near-identical short labels like
/// `"host:port#0" … "host:port#63"` — without the finalizer the vnode
/// points cluster and shard loads skew several-fold.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = xrta_rng::fnv1a64(bytes);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
    h ^ (h >> 33)
}

/// The ring: sorted `(point, shard index)` pairs.
pub struct Ring {
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// Builds the ring for `shards` backend addresses. The layout
    /// depends only on the address strings, so every router instance
    /// configured with the same shard list routes identically.
    pub fn new(shards: &[String]) -> Ring {
        let mut points = Vec::with_capacity(shards.len() * VNODES);
        for (idx, addr) in shards.iter().enumerate() {
            for vnode in 0..VNODES {
                let label = format!("{addr}#{vnode}");
                points.push((fnv64(label.as_bytes()), idx));
            }
        }
        // Ties are broken by shard index so the order is total and
        // deterministic even if two labels ever collide.
        points.sort_unstable();
        Ring {
            points,
            shards: shards.len(),
        }
    }

    /// Number of distinct shards on the ring.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// All shards in clockwise preference order from `point`: the
    /// primary first, then each next *distinct* shard met walking the
    /// ring. Every shard appears exactly once.
    pub fn order_for(&self, point: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.shards);
        if self.points.is_empty() {
            return order;
        }
        let start = self.points.partition_point(|&(p, _)| p < point) % self.points.len();
        let mut seen = vec![false; self.shards];
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !seen[shard] {
                seen[shard] = true;
                order.push(shard);
                if order.len() == self.shards {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn order_covers_every_shard_exactly_once() {
        let ring = Ring::new(&addrs(5));
        for point in [0u64, 1, u64::MAX, 0xdeadbeef, 1 << 63] {
            let mut order = ring.order_for(point);
            assert_eq!(order.len(), 5);
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn placement_is_deterministic_and_reasonably_balanced() {
        let ring = Ring::new(&addrs(4));
        let mut counts = [0usize; 4];
        let mut x = 0x12345678u64;
        for _ in 0..4000 {
            // Cheap xorshift walk over points.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            counts[ring.order_for(x)[0]] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 4000 / 4 / 3 && c < 4000 * 3 / 4,
                "shard {i} owns {c}/4000 points — ring badly unbalanced: {counts:?}"
            );
        }
        // Same inputs, same ring.
        let again = Ring::new(&addrs(4));
        assert_eq!(ring.order_for(42), again.order_for(42));
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_keys() {
        let four = Ring::new(&addrs(4));
        // Drop the last shard; the first three keep their labels and
        // hence their vnode positions.
        let three = Ring::new(&addrs(3));
        let mut moved = 0;
        let mut kept = 0;
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let before = four.order_for(x)[0];
            let after = three.order_for(x)[0];
            if before == 3 {
                moved += 1;
            } else {
                assert_eq!(before, after, "a surviving shard's key moved");
                kept += 1;
            }
        }
        assert!(moved > 0, "shard 3 owned nothing");
        assert!(kept > 0);
    }

    #[test]
    fn single_shard_ring_routes_everything_to_it() {
        let ring = Ring::new(&addrs(1));
        assert_eq!(ring.order_for(7), vec![0]);
        assert_eq!(ring.order_for(u64::MAX), vec![0]);
    }

    /// Router instances agree on placement only while these stay fixed.
    #[test]
    fn ring_placement_is_pinned() {
        assert_eq!(fnv64(b"127.0.0.1:9000#0"), 0xc2de_76ee_c28c_394f);
        let ring = Ring::new(&addrs(5));
        let orders: Vec<Vec<usize>> = [
            0x2000_0000_0000_0000,
            0x5555_5555_5555_5555,
            1 << 63,
            0xc000_0000_0000_0000,
        ]
        .iter()
        .map(|&p| ring.order_for(p))
        .collect();
        assert_eq!(
            orders,
            vec![
                vec![3, 0, 4, 2, 1],
                vec![1, 2, 3, 4, 0],
                vec![2, 0, 3, 4, 1],
                vec![2, 0, 4, 1, 3],
            ]
        );
    }
}
