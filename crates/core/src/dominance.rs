//! Dominance (monotone-lattice) verdict cache for the §4.3 safety
//! oracle.
//!
//! Safety of a required-time vector is monotone *decreasing* in the
//! pointwise order: loosening any coordinate can only turn a safe
//! vector unsafe, never the reverse. Two consequences drive this cache:
//!
//! - `r ≤ s` pointwise and `s` known safe ⇒ `r` safe;
//! - `r ≥ u` pointwise and `u` known unsafe ⇒ `r` unsafe.
//!
//! The cache therefore stores two antichains — the maximal known-safe
//! points and the minimal known-unsafe points — and answers any
//! dominated/dominating query without touching a χ engine. Incomparable
//! queries miss. On rotated lattice climbs, where restarts re-traverse
//! the region below an already-discovered maximal point, dominance
//! converts nearly the whole re-climb into cache hits.

use xrta_timing::Time;

/// Soft cap per frontier; beyond it the oldest entries are dropped.
/// Dropping is always sound — a lost entry is just a future cache miss
/// — and keeps the linear frontier scans bounded.
const MAX_FRONTIER: usize = 1024;

/// A two-antichain verdict cache over `Vec<Time>` points ordered
/// pointwise (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct DominanceCache {
    /// Maximal known-safe points (an antichain).
    safe: Vec<Vec<Time>>,
    /// Minimal known-unsafe points (an antichain).
    unsafe_: Vec<Vec<Time>>,
    hits: usize,
    misses: usize,
}

fn le(a: &[Time], b: &[Time]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

impl DominanceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Answers `r` by dominance, or `None` when `r` is incomparable to
    /// every stored point. Updates hit/miss statistics.
    pub fn query(&mut self, r: &[Time]) -> Option<bool> {
        let verdict = self.peek(r);
        match verdict {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        verdict
    }

    /// Like [`DominanceCache::query`] without touching the statistics.
    pub fn peek(&self, r: &[Time]) -> Option<bool> {
        if self.safe.iter().any(|s| le(r, s)) {
            return Some(true);
        }
        if self.unsafe_.iter().any(|u| le(u, r)) {
            return Some(false);
        }
        None
    }

    /// Records an oracle verdict, keeping both frontiers antichains:
    /// a new safe point evicts safe points it dominates; a new unsafe
    /// point evicts unsafe points dominating it. Points already implied
    /// by the frontier are not stored. Returns the net change in stored
    /// points (added minus evicted), so a caller can meter what the
    /// frontiers hold rather than what was offered to them.
    pub fn insert(&mut self, r: &[Time], safe: bool) -> isize {
        let frontier = if safe {
            &mut self.safe
        } else {
            &mut self.unsafe_
        };
        // `implied(a, b)`: a verdict at `b` already answers `a`.
        let implied = |a: &[Time], b: &[Time]| if safe { le(a, b) } else { le(b, a) };
        if frontier.iter().any(|p| implied(r, p)) {
            return 0;
        }
        let before = frontier.len() as isize;
        frontier.retain(|p| !implied(p, r));
        if frontier.len() >= MAX_FRONTIER {
            frontier.remove(0);
        }
        frontier.push(r.to_vec());
        frontier.len() as isize - before
    }

    /// Queries answered by dominance.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Queries that fell through to the oracle.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Stored frontier sizes `(safe, unsafe)`.
    pub fn frontier_sizes(&self) -> (usize, usize) {
        (self.safe.len(), self.unsafe_.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[i64]) -> Vec<Time> {
        v.iter().map(|&x| Time::new(x)).collect()
    }

    #[test]
    fn dominated_by_safe_point_answers_without_oracle() {
        let mut c = DominanceCache::new();
        c.insert(&t(&[3, 5, 2]), true);
        // The point itself, and anything pointwise below it.
        assert_eq!(c.query(&t(&[3, 5, 2])), Some(true));
        assert_eq!(c.query(&t(&[0, 0, 0])), Some(true));
        assert_eq!(c.query(&t(&[3, 4, 2])), Some(true));
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn dominating_an_unsafe_point_answers_without_oracle() {
        let mut c = DominanceCache::new();
        c.insert(&t(&[2, 2]), false);
        assert_eq!(c.query(&t(&[2, 2])), Some(false));
        assert_eq!(c.query(&t(&[5, 2])), Some(false));
        assert_eq!(c.query(&t(&[2, 9])), Some(false));
        assert_eq!(c.hits(), 3);
    }

    #[test]
    fn incomparable_points_are_never_answered() {
        let mut c = DominanceCache::new();
        c.insert(&t(&[3, 0]), true);
        c.insert(&t(&[0, 4]), false);
        // Above the safe point in one coordinate, below the unsafe point
        // in the other: incomparable to both ⇒ must go to the oracle.
        assert_eq!(c.query(&t(&[4, 0])), None);
        assert_eq!(c.query(&t(&[1, 1])), None);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn infinity_participates_in_the_order() {
        let mut c = DominanceCache::new();
        c.insert(&t(&[1]).iter().map(|_| Time::INF).collect::<Vec<_>>(), true);
        assert_eq!(c.query(&t(&[1_000_000])), Some(true));
    }

    #[test]
    fn frontiers_stay_antichains() {
        // `insert` returns the net change in stored points.
        let mut c = DominanceCache::new();
        assert_eq!(c.insert(&t(&[1, 1]), true), 1);
        assert_eq!(c.insert(&t(&[2, 2]), true), 0); // dominates the first → evicts it
        assert_eq!(c.frontier_sizes().0, 1);
        assert_eq!(c.insert(&t(&[1, 3]), true), 1); // incomparable → kept
        assert_eq!(c.frontier_sizes().0, 2);
        assert_eq!(c.insert(&t(&[0, 0]), true), 0); // implied → not stored
        assert_eq!(c.frontier_sizes().0, 2);
        assert_eq!(c.insert(&t(&[3, 3]), true), -1); // evicts both
        assert_eq!(c.frontier_sizes().0, 1);

        assert_eq!(c.insert(&t(&[9, 9]), false), 1);
        assert_eq!(c.insert(&t(&[8, 8]), false), 0); // (8,8) ≤ (9,9) evicts it
        assert_eq!(c.frontier_sizes().1, 1);
        assert_eq!(c.insert(&t(&[10, 10]), false), 0); // implied → not stored
        assert_eq!(c.frontier_sizes().1, 1);
    }

    #[test]
    fn conflicting_reinsert_prefers_first_verdict_region() {
        // Not a supported state (the oracle is deterministic), but the
        // cache must at least not panic and keep answering.
        let mut c = DominanceCache::new();
        c.insert(&t(&[1, 1]), true);
        c.insert(&t(&[1, 1]), false);
        assert!(c.peek(&t(&[1, 1])).is_some());
    }
}
