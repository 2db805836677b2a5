//! Lock-striped verdict cache shared by every §4.3 oracle worker.
//!
//! The per-cone verdict caches used to live on the coordinating thread:
//! workers computed verdicts, the coordinator cached them, and a fact
//! proven by one worker only became visible to the others at the next
//! round boundary. This wrapper shards the per-cone dominance frontiers
//! ([`DominanceCache`]) across `N` mutex-striped shards keyed by a
//! fingerprint of each cone's input-support mask, so any worker can
//! consult and extend the cache mid-round:
//!
//! - different cones hash to different stripes, so workers validating
//!   different cones never contend;
//! - a dominance verdict inserted by one worker immediately prunes
//!   every other worker's pending probes for that cone (the
//!   `oracle_calls@N ≈ oracle_calls@1` property);
//! - all stored verdicts are pure facts about `(cone, projection)`, so
//!   sharing them across threads can change *how many* oracle calls a
//!   search makes, never *what* it concludes.
//!
//! Locking is poison-tolerant: a panicking worker (already contained by
//! `catch_unwind` in the oracle) must not wedge the cache for everyone
//! else, and every stored verdict is individually sound, so recovering
//! the inner value of a poisoned mutex is safe.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, TryLockError};
use std::time::Duration;

use xrta_bdd::{FxHashMap, FxHashSet};
use xrta_timing::Time;

use crate::dominance::DominanceCache;

/// Number of lock stripes. More than any realistic worker count, so
/// contention is dominated by genuine same-cone sharing, not by hash
/// collisions between unrelated cones.
const STRIPES: usize = 16;

/// FNV-1a over a cone's support-mask words plus its index; used to pick
/// the cone's stripe. The index is mixed in so cones with identical
/// supports (common in replicated output blocks) still spread out.
pub fn support_fingerprint(cone: usize, mask: &[u64]) -> u64 {
    let mut h = xrta_rng::Fnv64::default();
    h.write(&(cone as u64).to_le_bytes());
    for &w in mask {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

/// One stripe's storage.
#[derive(Default)]
struct Shard {
    /// Dominance frontiers per cone.
    dom: FxHashMap<usize, DominanceCache>,
    /// Keys some thread is currently solving (single-flight dedup):
    /// a second thread asking for the same verdict waits for the
    /// owner's [`StripedVerdictCache::insert`] / `abandon` instead of
    /// running a duplicate χ engine.
    pending: FxHashSet<(usize, Vec<Time>)>,
    /// Bytes charged to the process meter's `Stripes` account for the
    /// points this stripe's frontiers hold (estimate: per-point base
    /// plus the projection payload).
    bytes: u64,
}

/// Outcome of [`StripedVerdictCache::claim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Claim {
    /// The verdict was already cached (possibly after waiting for
    /// another thread's in-flight solve).
    Hit(bool),
    /// The caller owns this key: it must solve and then either
    /// [`StripedVerdictCache::insert`] the verdict or
    /// [`StripedVerdictCache::abandon`] the claim — every exit path,
    /// or waiters stall until their timeout.
    Owner,
    /// Another thread has held the key longer than the patience cap;
    /// the caller may solve redundantly (sound — verdicts are pure).
    TimedOut,
}

/// A striped, thread-shared wrapper over the per-cone verdict caches of
/// the §4.3 oracle. See the module docs.
pub struct StripedVerdictCache {
    shards: Vec<Mutex<Shard>>,
    /// One condvar per stripe, signalled whenever an in-flight key
    /// resolves (insert) or is abandoned.
    resolved: Vec<Condvar>,
    /// Precomputed stripe per cone (`support_fingerprint % STRIPES`).
    stripe_of: Vec<usize>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Lock acquisitions that found the stripe held by another thread
    /// (`try_lock` failed and the caller had to wait).
    contention: AtomicUsize,
}

/// Estimated per-point overhead beyond the projection payload: the
/// frontier's `Vec` header and allocation bookkeeping.
const ENTRY_BASE_BYTES: u64 = 64;

/// Reclamation is skipped while the cache holds less than this — a
/// soft-pressure sweep that frees a few kilobytes only costs refills.
const RECLAIM_FLOOR_BYTES: u64 = 1 << 20;

/// Poison-tolerant lock: a worker panic is already contained and its
/// partial verdicts are individually sound, so keep serving.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl StripedVerdictCache {
    /// Creates a cache for `fingerprints.len()` cones; `fingerprints`
    /// come from [`support_fingerprint`].
    pub fn new(fingerprints: &[u64]) -> Self {
        StripedVerdictCache {
            shards: (0..STRIPES).map(|_| Mutex::new(Shard::default())).collect(),
            resolved: (0..STRIPES).map(|_| Condvar::new()).collect(),
            stripe_of: fingerprints
                .iter()
                .map(|&f| (f % STRIPES as u64) as usize)
                .collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            contention: AtomicUsize::new(0),
        }
    }

    fn lock_stripe(&self, cone: usize) -> MutexGuard<'_, Shard> {
        let m = &self.shards[self.stripe_of[cone]];
        match m.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                plock(m)
            }
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
        }
    }

    /// Answers `(cone, proj)` from the cache, if it can. Counts one hit
    /// or miss.
    pub fn query(&self, cone: usize, proj: &[Time]) -> Option<bool> {
        let verdict = self
            .lock_stripe(cone)
            .dom
            .get(&cone)
            .and_then(|c| c.peek(proj));
        match verdict {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        verdict
    }

    /// Records an oracle verdict for `(cone, proj)`, releasing any
    /// single-flight claim on the key and waking its waiters.
    /// Only the net change in stored points is charged to the meter:
    /// implied verdicts add nothing and evicted points are released.
    pub fn insert(&self, cone: usize, proj: &[Time], safe: bool) {
        let point_bytes = ENTRY_BASE_BYTES + std::mem::size_of_val(proj) as u64;
        let stripe = self.stripe_of[cone];
        let mut shard = self.lock_stripe(cone);
        let stored = shard.dom.entry(cone).or_default().insert(proj, safe);
        let delta = point_bytes * stored.unsigned_abs() as u64;
        let meter = xrta_robust::mem::global();
        if stored > 0 {
            shard.bytes += delta;
            meter.charge(xrta_robust::mem::Subsystem::Stripes, delta);
        } else if stored < 0 {
            shard.bytes = shard.bytes.saturating_sub(delta);
            meter.release(xrta_robust::mem::Subsystem::Stripes, delta);
        }
        if shard.pending.remove(&(cone, proj.to_vec())) {
            drop(shard);
            self.resolved[stripe].notify_all();
        }
    }

    /// Single-flight lookup: a cached verdict answers immediately; an
    /// unclaimed key makes the caller the owner (it must solve, then
    /// [`StripedVerdictCache::insert`] or
    /// [`StripedVerdictCache::abandon`]); a key claimed by another
    /// thread blocks until that thread resolves it. Counts one hit or
    /// miss, like [`StripedVerdictCache::query`].
    pub fn claim(&self, cone: usize, proj: &[Time]) -> Claim {
        let stripe = self.stripe_of[cone];
        let mut shard = self.lock_stripe(cone);
        // Patience cap: claims are only held across one bounded solve
        // and every exit path resolves them, so this is a belt against
        // bugs, not an expected path.
        for _ in 0..40 {
            if let Some(v) = shard.dom.get(&cone).and_then(|c| c.peek(proj)) {
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Claim::Hit(v);
            }
            if shard.pending.insert((cone, proj.to_vec())) {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Claim::Owner;
            }
            let (guard, _) = self.resolved[stripe]
                .wait_timeout(shard, Duration::from_millis(50))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            shard = guard;
        }
        drop(shard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Claim::TimedOut
    }

    /// Releases a [`Claim::Owner`] without a verdict (interrupt, budget
    /// cut): wakes waiters so one of them claims ownership instead.
    pub fn abandon(&self, cone: usize, proj: &[Time]) {
        let stripe = self.stripe_of[cone];
        let mut shard = self.lock_stripe(cone);
        if shard.pending.remove(&(cone, proj.to_vec())) {
            drop(shard);
            self.resolved[stripe].notify_all();
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

    /// Lock acquisitions that had to wait for another thread.
    pub fn contention(&self) -> usize {
        self.contention.load(Ordering::Relaxed)
    }

    /// Bytes currently charged to the meter for the stored frontiers.
    fn charged_bytes(&self) -> u64 {
        self.shards.iter().map(|s| plock(s).bytes).sum()
    }

    /// Drops every cached verdict and releases its meter charge,
    /// returning the bytes freed. Sound under memory pressure: verdicts
    /// are pure facts the oracle can re-derive, and in-flight
    /// single-flight claims (`pending`) are left untouched so no waiter
    /// stalls. A sweep below [`RECLAIM_FLOOR_BYTES`] is skipped — it
    /// would trade refill work for negligible relief.
    pub fn reclaim(&self) -> u64 {
        if self.charged_bytes() < RECLAIM_FLOOR_BYTES {
            return 0;
        }
        let mut freed = 0;
        for shard in &self.shards {
            let mut s = plock(shard);
            s.dom.clear();
            s.dom.shrink_to_fit();
            freed += std::mem::take(&mut s.bytes);
        }
        xrta_robust::mem::global().release(xrta_robust::mem::Subsystem::Stripes, freed);
        freed
    }
}

impl Drop for StripedVerdictCache {
    fn drop(&mut self) {
        let charged = self.charged_bytes();
        xrta_robust::mem::global().release(xrta_robust::mem::Subsystem::Stripes, charged);
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
        let fps: Vec<u64> = (0..2).map(|c| support_fingerprint(c, &[0b11])).collect();
        let cache = StripedVerdictCache::new(&fps);
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
        let fps = [support_fingerprint(0, &[0b11])];
        let cache = StripedVerdictCache::new(&fps);
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
    fn identical_supports_still_spread_by_cone_index() {
        let mask = [0xdead_beefu64, 0x1234];
        let a = support_fingerprint(0, &mask);
        let b = support_fingerprint(1, &mask);
        assert_ne!(a, b);
    }

    #[test]
    fn single_flight_waiter_gets_owners_verdict() {
        let fps = [support_fingerprint(0, &[0b1])];
        let cache = StripedVerdictCache::new(&fps);
        assert_eq!(cache.claim(0, &t(&[7])), Claim::Owner);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.claim(0, &t(&[7])));
            // Give the waiter time to park, then resolve.
            std::thread::sleep(std::time::Duration::from_millis(30));
            cache.insert(0, &t(&[7]), true);
            assert_eq!(waiter.join().unwrap(), Claim::Hit(true));
        });
        // The key is resolved: later claims hit immediately.
        assert_eq!(cache.claim(0, &t(&[7])), Claim::Hit(true));
    }

    #[test]
    fn abandon_promotes_a_waiter_to_owner() {
        let fps = [support_fingerprint(0, &[0b1])];
        let cache = StripedVerdictCache::new(&fps);
        assert_eq!(cache.claim(0, &t(&[3])), Claim::Owner);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.claim(0, &t(&[3])));
            std::thread::sleep(std::time::Duration::from_millis(30));
            cache.abandon(0, &t(&[3]));
            // The waiter inherits ownership (no verdict was stored).
            assert_eq!(waiter.join().unwrap(), Claim::Owner);
        });
    }

    #[test]
    fn reclaim_frees_verdicts_but_respects_the_floor() {
        const CONES: i64 = 16;
        let fps: Vec<u64> = (0..CONES as usize)
            .map(|c| support_fingerprint(c, &[c as u64]))
            .collect();
        let cache = StripedVerdictCache::new(&fps);
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
        let fps: Vec<u64> = (0..CONES)
            .map(|c| support_fingerprint(c, &[0b111]))
            .collect();
        let cache = StripedVerdictCache::new(&fps);
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

    /// Only the low bits choose a stripe, so only they are pinned.
    #[test]
    fn support_fingerprint_is_pinned() {
        let fp = support_fingerprint(3, &[0xdead_beef, 1 << 40]);
        assert_eq!(fp & 0xff_ffff_ffff, 0x08_13ae_5b33);
        assert_eq!(fp % STRIPES as u64, 3);
    }
}
