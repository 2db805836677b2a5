//! Dominance (monotone-lattice) verdict caches for the §4.3 safety
//! oracle.
//!
//! Safety of a required-time vector is monotone *decreasing* in the
//! pointwise order: loosening any coordinate can only turn a safe
//! vector unsafe, never the reverse. Two consequences drive this cache:
//!
//! - `r ≤ s` pointwise and `s` known safe ⇒ `r` safe;
//! - `r ≥ u` pointwise and `u` known unsafe ⇒ `r` unsafe.
//!
//! A [`DominanceCache`] therefore stores two antichains — the maximal
//! known-safe points and the minimal known-unsafe points — and answers
//! any dominated/dominating query without touching a χ engine.
//! Incomparable queries miss.
//!
//! The §4.3 oracle keeps one such frontier per output cone, over that
//! cone's projection ([`ConeFrontiers`]), and answers every
//! whole-vector question from them: a rung is unsafe once one cone's
//! projection is, safe once every cone's is. Rotated lattice climbs,
//! whose restarts re-traverse the region below an already-discovered
//! maximal point, become nearly all per-cone hits. [`ConeFrontiers`]
//! counts the hits, charges the stored points to the memory meter's
//! `Stripes` account and sheds them under soft memory pressure
//! ([`ConeFrontiers::reclaim`]).

use xrta_robust::mem::Subsystem;
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
    /// every stored point.
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

    /// Stored frontier sizes `(safe, unsafe)`.
    pub fn frontier_sizes(&self) -> (usize, usize) {
        (self.safe.len(), self.unsafe_.len())
    }
}

/// The per-cone verdict frontiers of one §4.3 search: one
/// [`DominanceCache`] per cone, by cone index, plus a hit count and the
/// bytes charged to the memory meter. See the module docs.
pub struct ConeFrontiers {
    cones: Vec<DominanceCache>,
    hits: usize,
    /// Bytes charged to the process meter's `Stripes` account for the
    /// stored points (estimate: per-point base plus the projection
    /// payload).
    bytes: u64,
}

/// Estimated per-point overhead beyond the projection payload: the
/// frontier's `Vec` header and allocation bookkeeping.
const ENTRY_BASE_BYTES: u64 = 64;

/// Reclamation is skipped while the frontiers hold less than this — a
/// soft-pressure sweep that frees a few kilobytes only costs refills.
const RECLAIM_FLOOR_BYTES: u64 = 1 << 20;

impl ConeFrontiers {
    /// Creates empty frontiers for `cones` cones.
    pub fn new(cones: usize) -> Self {
        ConeFrontiers {
            cones: vec![DominanceCache::default(); cones],
            hits: 0,
            bytes: 0,
        }
    }

    /// Answers `(cone, proj)` from the cone's frontier, if it can,
    /// counting a hit when it does.
    pub fn query(&mut self, cone: usize, proj: &[Time]) -> Option<bool> {
        let verdict = self.cones[cone].peek(proj);
        self.hits += usize::from(verdict.is_some());
        verdict
    }

    /// Records an oracle verdict for `(cone, proj)`. Only the net
    /// change in stored points is charged to the meter: implied
    /// verdicts add nothing and evicted points are released.
    pub fn insert(&mut self, cone: usize, proj: &[Time], safe: bool) {
        let point_bytes = ENTRY_BASE_BYTES + std::mem::size_of_val(proj) as u64;
        let stored = self.cones[cone].insert(proj, safe);
        let delta = point_bytes * stored.unsigned_abs() as u64;
        let meter = xrta_robust::mem::global();
        if stored > 0 {
            self.bytes += delta;
            meter.charge(Subsystem::Stripes, delta);
        } else if stored < 0 {
            self.bytes = self.bytes.saturating_sub(delta);
            meter.release(Subsystem::Stripes, delta);
        }
    }

    /// Queries answered from the frontiers.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Drops every stored verdict and releases its meter charge,
    /// returning the bytes freed. Sound under memory pressure: verdicts
    /// are pure facts the oracle can re-derive. A sweep below
    /// `RECLAIM_FLOOR_BYTES` (1 MiB) is skipped — it would trade refill
    /// work for negligible relief.
    pub fn reclaim(&mut self) -> u64 {
        if self.bytes < RECLAIM_FLOOR_BYTES {
            return 0;
        }
        self.cones.fill(DominanceCache::default());
        let freed = std::mem::take(&mut self.bytes);
        xrta_robust::mem::global().release(Subsystem::Stripes, freed);
        freed
    }
}

impl Drop for ConeFrontiers {
    fn drop(&mut self) {
        xrta_robust::mem::global().release(Subsystem::Stripes, self.bytes);
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
        assert_eq!(c.peek(&t(&[3, 5, 2])), Some(true));
        assert_eq!(c.peek(&t(&[0, 0, 0])), Some(true));
        assert_eq!(c.peek(&t(&[3, 4, 2])), Some(true));
    }

    #[test]
    fn dominating_an_unsafe_point_answers_without_oracle() {
        let mut c = DominanceCache::new();
        c.insert(&t(&[2, 2]), false);
        assert_eq!(c.peek(&t(&[2, 2])), Some(false));
        assert_eq!(c.peek(&t(&[5, 2])), Some(false));
        assert_eq!(c.peek(&t(&[2, 9])), Some(false));
    }

    #[test]
    fn incomparable_points_are_never_answered() {
        let mut c = DominanceCache::new();
        c.insert(&t(&[3, 0]), true);
        c.insert(&t(&[0, 4]), false);
        // Above the safe point in one coordinate, below the unsafe point
        // in the other: incomparable to both ⇒ must go to the oracle.
        assert_eq!(c.peek(&t(&[4, 0])), None);
        assert_eq!(c.peek(&t(&[1, 1])), None);
    }

    #[test]
    fn infinity_participates_in_the_order() {
        let mut c = DominanceCache::new();
        c.insert(&t(&[1]).iter().map(|_| Time::INF).collect::<Vec<_>>(), true);
        assert_eq!(c.peek(&t(&[1_000_000])), Some(true));
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

    #[test]
    fn verdicts_generalize_within_a_cone_only() {
        let mut f = ConeFrontiers::new(2);
        f.insert(0, &t(&[3, 3]), true);
        assert_eq!(f.query(0, &t(&[1, 2])), Some(true));
        assert_eq!(f.query(1, &t(&[1, 2])), None, "cones are independent");
        f.insert(0, &t(&[5, 5]), false);
        assert_eq!(f.query(0, &t(&[9, 5])), Some(false));
        assert_eq!(f.query(0, &t(&[4, 1])), None, "incomparable");
        assert_eq!(f.hits(), 2);
    }

    #[test]
    fn meter_charges_the_stored_frontier_not_every_insert() {
        let mut f = ConeFrontiers::new(1);
        // A rising safe chain: each point evicts its predecessor, and
        // the falling replay is implied, so one point stays stored.
        for i in (0..1000).chain((0..1000).rev()) {
            f.insert(0, &t(&[i, i]), true);
        }
        let point = ENTRY_BASE_BYTES + 2 * std::mem::size_of::<Time>() as u64;
        assert_eq!(f.bytes, point);
        // A falling unsafe chain does the same on the other frontier.
        for i in (0..1000).rev() {
            f.insert(0, &t(&[i + 2000, i + 2000]), false);
        }
        assert_eq!(f.bytes, 2 * point);
    }

    #[test]
    fn reclaim_frees_verdicts_but_respects_the_floor() {
        const CONES: i64 = 16;
        let mut f = ConeFrontiers::new(CONES as usize);
        f.insert(0, &t(&[1, 2]), true);
        // Below the floor: the sweep is a no-op and verdicts survive.
        assert_eq!(f.reclaim(), 0);
        assert_eq!(f.query(0, &t(&[1, 2])), Some(true));
        // Push past the floor with an antichain per cone (every point
        // is stored), then the sweep really clears.
        let point = ENTRY_BASE_BYTES + 2 * std::mem::size_of::<Time>() as u64;
        let per_cone = (RECLAIM_FLOOR_BYTES / point) as i64 / CONES + 1;
        for c in 0..CONES {
            for i in 0..per_cone {
                f.insert(c as usize, &t(&[i, per_cone - i]), true);
            }
        }
        assert!(f.bytes >= RECLAIM_FLOOR_BYTES);
        assert!(f.reclaim() >= RECLAIM_FLOOR_BYTES);
        assert_eq!(f.bytes, 0);
        assert_eq!(f.query(0, &t(&[1, 2])), None, "verdicts were swept");
    }

    /// Seeded point streams against a ground-truth monotone predicate:
    /// interleaved inserts and lookups must lose no verdict and must
    /// never answer against the ground truth (no false dominance hits).
    #[test]
    fn frontiers_lose_no_verdict_and_answer_no_false_one() {
        const STREAMS: u64 = 8;
        const POINTS: usize = 120;
        const CONES: usize = 5;
        // Ground truth: a point is "safe" iff its coordinate sum stays
        // under the cone's threshold — monotone decreasing, like the
        // real oracle.
        let threshold = |cone: usize| 10 + 3 * cone as i64;
        let safe =
            |cone: usize, p: &[Time]| p.iter().map(|x| x.ticks()).sum::<i64>() <= threshold(cone);
        // Deterministic point streams (xorshift).
        let points_for = |seed: u64| -> Vec<(usize, Vec<Time>)> {
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            (0..POINTS)
                .map(|_| {
                    let cone = (next() % CONES as u64) as usize;
                    let p: Vec<Time> = (0..3).map(|_| Time::new((next() % 8) as i64)).collect();
                    (cone, p)
                })
                .collect()
        };
        let mut f = ConeFrontiers::new(CONES);
        for seed in 1..=STREAMS {
            for (cone, p) in points_for(seed) {
                let truth = safe(cone, &p);
                if let Some(v) = f.query(cone, &p) {
                    assert_eq!(v, truth, "false hit for cone {cone} at {p:?}");
                }
                f.insert(cone, &p, truth);
            }
        }
        // No lost verdicts: every inserted point must now answer, and
        // answer the ground truth.
        for seed in 1..=STREAMS {
            for (cone, p) in points_for(seed) {
                assert_eq!(
                    f.query(cone, &p),
                    Some(safe(cone, &p)),
                    "lost or wrong verdict for cone {cone} at {p:?}"
                );
            }
        }
        assert!(f.hits() > 0);
    }
}
