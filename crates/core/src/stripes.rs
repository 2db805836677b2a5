//! The verdict store shared by every §4.3 oracle thread: one dominance
//! frontier ([`DominanceCache`]) per output cone, each behind its own
//! lock.
//!
//! Cone verdicts are pure facts about `(cone, projection)`, so the
//! coordinator and the helper threads share one store:
//!
//! - a verdict proven on any thread prunes every later probe of that
//!   cone, wherever it runs;
//! - each cone is its own stripe, so threads validating different
//!   cones never take the same lock, and a round holds at most one
//!   batch per cone, so two threads never probe one
//!   `(cone, projection)` at once;
//! - sharing verdicts across threads can change *how many* oracle calls
//!   a search makes, never *what* it concludes.
//!
//! The stored points are charged to the memory meter's `Stripes`
//! account, and [`StripedVerdictCache::reclaim`] sheds them under soft
//! memory pressure. Locking is poison-tolerant: a panicking worker
//! (already contained by `catch_unwind` in the oracle) must not wedge
//! the cache for everyone else, and every stored verdict is
//! individually sound, so recovering the inner value of a poisoned
//! mutex is safe.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use xrta_robust::mem::Subsystem;
use xrta_timing::Time;

use crate::dominance::DominanceCache;

/// One cone's stored frontier.
#[derive(Default)]
struct Stripe {
    dom: DominanceCache,
    /// Bytes charged to the process meter's `Stripes` account for the
    /// points `dom` holds (estimate: per-point base plus the projection
    /// payload).
    bytes: u64,
}

/// The per-cone verdict frontiers of the §4.3 oracle, shared by every
/// thread of one search. See the module docs.
pub struct StripedVerdictCache {
    /// One stripe per cone, by cone index.
    stripes: Vec<Mutex<Stripe>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Estimated per-point overhead beyond the projection payload: the
/// frontier's `Vec` header and allocation bookkeeping.
const ENTRY_BASE_BYTES: u64 = 64;

/// Reclamation is skipped while the cache holds less than this — a
/// soft-pressure sweep that frees a few kilobytes only costs refills.
const RECLAIM_FLOOR_BYTES: u64 = 1 << 20;

/// Poison-tolerant lock for the oracle's shared state: a worker panic
/// is already contained, and every update to that state (a verdict
/// insert, a round-queue push or pop) leaves it valid, so keep serving.
pub(crate) fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl StripedVerdictCache {
    /// Creates an empty cache for `cones` cones.
    pub fn new(cones: usize) -> Self {
        StripedVerdictCache {
            stripes: (0..cones).map(|_| Mutex::default()).collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Answers `(cone, proj)` from the cone's frontier, if it can.
    /// Counts one hit or miss.
    pub fn query(&self, cone: usize, proj: &[Time]) -> Option<bool> {
        let verdict = plock(&self.stripes[cone]).dom.peek(proj);
        match verdict {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        verdict
    }

    /// Records an oracle verdict for `(cone, proj)`. Only the net
    /// change in stored points is charged to the meter: implied
    /// verdicts add nothing and evicted points are released.
    pub fn insert(&self, cone: usize, proj: &[Time], safe: bool) {
        let point_bytes = ENTRY_BASE_BYTES + std::mem::size_of_val(proj) as u64;
        let mut stripe = plock(&self.stripes[cone]);
        let stored = stripe.dom.insert(proj, safe);
        let delta = point_bytes * stored.unsigned_abs() as u64;
        let meter = xrta_robust::mem::global();
        if stored > 0 {
            stripe.bytes += delta;
            meter.charge(Subsystem::Stripes, delta);
        } else if stored < 0 {
            stripe.bytes = stripe.bytes.saturating_sub(delta);
            meter.release(Subsystem::Stripes, delta);
        }
    }

    /// Queries answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that fell through to the oracle.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Bytes currently charged to the meter for the stored frontiers.
    fn charged_bytes(&self) -> u64 {
        self.stripes.iter().map(|s| plock(s).bytes).sum()
    }

    /// Drops every cached verdict and releases its meter charge,
    /// returning the bytes freed. Sound under memory pressure: verdicts
    /// are pure facts the oracle can re-derive. A sweep below
    /// [`RECLAIM_FLOOR_BYTES`] is skipped — it would trade refill work
    /// for negligible relief.
    pub fn reclaim(&self) -> u64 {
        if self.charged_bytes() < RECLAIM_FLOOR_BYTES {
            return 0;
        }
        let mut freed = 0;
        for stripe in &self.stripes {
            let mut s = plock(stripe);
            s.dom = DominanceCache::default();
            freed += std::mem::take(&mut s.bytes);
        }
        xrta_robust::mem::global().release(Subsystem::Stripes, freed);
        freed
    }
}

impl Drop for StripedVerdictCache {
    fn drop(&mut self) {
        let charged = self.charged_bytes();
        xrta_robust::mem::global().release(Subsystem::Stripes, charged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[i64]) -> Vec<Time> {
        v.iter().map(|&x| Time::new(x)).collect()
    }

    #[test]
    fn verdicts_generalize_within_a_cone_only() {
        let cache = StripedVerdictCache::new(2);
        cache.insert(0, &t(&[3, 3]), true);
        assert_eq!(cache.query(0, &t(&[1, 2])), Some(true));
        assert_eq!(cache.query(1, &t(&[1, 2])), None, "cones are independent");
        cache.insert(0, &t(&[5, 5]), false);
        assert_eq!(cache.query(0, &t(&[9, 5])), Some(false));
        assert_eq!(cache.query(0, &t(&[4, 1])), None, "incomparable");
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn meter_charges_the_stored_frontier_not_every_insert() {
        let cache = StripedVerdictCache::new(1);
        // A rising safe chain: each point evicts its predecessor, and
        // the falling replay is implied, so one point stays stored.
        for i in (0..1000).chain((0..1000).rev()) {
            cache.insert(0, &t(&[i, i]), true);
        }
        let point = ENTRY_BASE_BYTES + 2 * std::mem::size_of::<Time>() as u64;
        assert_eq!(cache.charged_bytes(), point);
        // A falling unsafe chain does the same on the other frontier.
        for i in (0..1000).rev() {
            cache.insert(0, &t(&[i + 2000, i + 2000]), false);
        }
        assert_eq!(cache.charged_bytes(), 2 * point);
    }

    #[test]
    fn reclaim_frees_verdicts_but_respects_the_floor() {
        const CONES: i64 = 16;
        let cache = StripedVerdictCache::new(CONES as usize);
        cache.insert(0, &t(&[1, 2]), true);
        // Below the floor: the sweep is a no-op and verdicts survive.
        assert_eq!(cache.reclaim(), 0);
        assert_eq!(cache.query(0, &t(&[1, 2])), Some(true));
        // Push past the floor with an antichain per cone (every point
        // is stored), then the sweep really clears.
        let point = ENTRY_BASE_BYTES + 2 * std::mem::size_of::<Time>() as u64;
        let per_cone = (RECLAIM_FLOOR_BYTES / point) as i64 / CONES + 1;
        for c in 0..CONES {
            for i in 0..per_cone {
                cache.insert(c as usize, &t(&[i, per_cone - i]), true);
            }
        }
        assert!(cache.charged_bytes() >= RECLAIM_FLOOR_BYTES);
        assert!(cache.reclaim() >= RECLAIM_FLOOR_BYTES);
        assert_eq!(cache.charged_bytes(), 0);
        assert_eq!(cache.query(0, &t(&[1, 2])), None, "verdicts were swept");
    }

    /// Seeded thread fuzz against a ground-truth monotone predicate:
    /// concurrent inserts and lookups must lose no verdict and must
    /// never answer against the ground truth (no false dominance hits).
    #[test]
    fn concurrent_stress_no_lost_or_false_verdicts() {
        const THREADS: usize = 8;
        const POINTS: usize = 120;
        const CONES: usize = 5;
        // Ground truth: a point is "safe" iff its coordinate sum stays
        // under the cone's threshold — monotone decreasing, like the
        // real oracle.
        let threshold = |cone: usize| 10 + 3 * cone as i64;
        let safe =
            |cone: usize, p: &[Time]| p.iter().map(|x| x.ticks()).sum::<i64>() <= threshold(cone);
        let cache = StripedVerdictCache::new(CONES);
        // Deterministic per-thread point streams (xorshift).
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
        std::thread::scope(|scope| {
            for w in 0..THREADS {
                let cache = &cache;
                scope.spawn(move || {
                    for (cone, p) in points_for(w as u64 + 1) {
                        let truth = safe(cone, &p);
                        if let Some(v) = cache.query(cone, &p) {
                            assert_eq!(v, truth, "false hit for cone {cone} at {p:?}");
                        }
                        cache.insert(cone, &p, truth);
                    }
                });
            }
        });
        // No lost verdicts: every point any thread inserted must now
        // answer, and answer the ground truth.
        for w in 0..THREADS {
            for (cone, p) in points_for(w as u64 + 1) {
                assert_eq!(
                    cache.query(cone, &p),
                    Some(safe(cone, &p)),
                    "lost or wrong verdict for cone {cone} at {p:?}"
                );
            }
        }
        assert!(cache.hits() > 0);
    }
}
