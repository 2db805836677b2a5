//! The dominance-pruned §4.3 search against the independent BDD oracle,
//! and against itself: on random circuits every maximal point must be
//! safe and unraisable, and two runs of one search must agree on
//! everything they count. (Cone verdicts are pure functions of the
//! query, so dominance pruning may change how many oracle calls a
//! search makes, never what it finds.) The small circuits fit one
//! support-mask word and two cones; [`WIDE`] spans two words and eight
//! cones.

use xrta::circuits::{random_circuit, RandomCircuitSpec};
use xrta::prelude::*;

fn spec(seed: u64) -> RandomCircuitSpec {
    RandomCircuitSpec {
        inputs: 5,
        gates: 12,
        outputs: 2,
        max_fanin: 3,
        locality: 50,
        seed,
    }
}

fn seeds() -> impl Iterator<Item = u64> {
    (0..10u64).map(|i| 0x9E37u64.wrapping_mul(2654435761).wrapping_add(i * 487))
}

/// A circuit wider than one 64-input support-mask word (some of its
/// cones read inputs past the 64th), with enough cones that rounds
/// carry several batches. Its climb runs well past the 48 oracle calls
/// after which rounds go largest cone first, and reaches a non-trivial
/// point.
const WIDE: RandomCircuitSpec = RandomCircuitSpec {
    inputs: 72,
    gates: 90,
    outputs: 8,
    max_fanin: 3,
    locality: 50,
    seed: 6,
};

/// The circuits both checks below run over.
fn cases() -> impl Iterator<Item = RandomCircuitSpec> {
    seeds().map(spec).chain(std::iter::once(WIDE))
}

fn opts() -> Approx2Options {
    Approx2Options {
        max_solutions: 3,
        max_oracle_calls: 2_000,
        ..Approx2Options::default()
    }
}

#[test]
fn repeated_searches_are_identical() {
    for case in cases() {
        let seed = case.seed;
        let net = random_circuit(case).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let a = approx2_required_times(&net, &UnitDelay, &req, opts());
        let b = approx2_required_times(&net, &UnitDelay, &req, opts());
        assert_eq!(a.maximal, b.maximal, "maximal sets (seed {seed})");
        assert_eq!(a.oracle_calls, b.oracle_calls, "oracle calls (seed {seed})");
        assert_eq!(a.cache_hits, b.cache_hits, "cache hits (seed {seed})");
        assert_eq!(a.batches, b.batches, "batches (seed {seed})");
        assert_eq!(
            a.batched_probes, b.batched_probes,
            "batched probes (seed {seed})"
        );
    }
}

#[test]
fn maximal_points_are_safe_and_unraisable() {
    for case in cases() {
        let seed = case.seed;
        let wide = case.inputs == WIDE.inputs;
        let net = random_circuit(case).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let r = approx2_required_times(&net, &UnitDelay, &req, opts());
        assert!(r.completed, "oracle-call budget hit (seed {seed})");
        assert!(
            !wide || (r.oracle_calls > 48 && r.has_nontrivial_requirement()),
            "WIDE no longer runs past the warm-up to a non-trivial point ({} calls)",
            r.oracle_calls
        );
        for m in &r.maximal {
            let ft = FunctionalTiming::new(&net, &UnitDelay, m.clone(), EngineKind::Bdd);
            assert!(ft.meets(&req), "point {m:?} unsafe (seed {seed})");
            // Unraisable: bumping any coordinate to its next candidate
            // rung breaks safety per the independent BDD oracle.
            for (i, cands) in r.candidates.iter().enumerate() {
                let pos = cands
                    .iter()
                    .position(|&c| c == m[i])
                    .expect("maximal point lies on the candidate lattice");
                if pos + 1 < cands.len() {
                    let mut up = m.clone();
                    up[i] = cands[pos + 1];
                    let ft = FunctionalTiming::new(&net, &UnitDelay, up.clone(), EngineKind::Bdd);
                    assert!(
                        !ft.meets(&req),
                        "raising coord {i} of {m:?} to {:?} stays safe (seed {seed})",
                        up[i]
                    );
                }
            }
        }
    }
}
