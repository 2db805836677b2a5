//! Equivalence of the parallel, dominance-pruned §4.3 oracle with the
//! sequential baseline: on random circuits the lattice climb must
//! return *identical* maximal sets for every thread count, and every
//! maximal point must be safe and unraisable under the independent BDD
//! oracle. (Cone verdicts are pure functions of the query, so neither
//! the fan-out across worker threads nor dominance pruning may change
//! what the search finds — only how fast it finds it.) The small
//! circuits fit one support-mask word and two cones; [`WIDE`] spans
//! two words and eight cones.
//!
//! Every test sets `XRTA_OVERSUBSCRIBE`, which lifts the worker-slot
//! clamp, so the multi-worker path runs on a one-core host too. No
//! test removes it: each equality here holds at any worker count, and
//! a removal would race with the other tests of this binary.

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
/// carry several batches for the helpers to take. Its climb takes 728
/// oracle calls at one thread and reaches a non-trivial point.
const WIDE: RandomCircuitSpec = RandomCircuitSpec {
    inputs: 72,
    gates: 90,
    outputs: 8,
    max_fanin: 3,
    locality: 50,
    seed: 6,
};

/// The circuits both differentials below run over.
fn cases() -> impl Iterator<Item = RandomCircuitSpec> {
    seeds().map(spec).chain(std::iter::once(WIDE))
}

fn opts(threads: usize) -> Approx2Options {
    Approx2Options {
        max_solutions: 3,
        max_oracle_calls: 2_000,
        threads,
        ..Approx2Options::default()
    }
}

#[test]
fn parallel_and_sequential_find_identical_maximal_sets() {
    std::env::set_var("XRTA_OVERSUBSCRIBE", "1");
    for case in cases() {
        let seed = case.seed;
        let wide = case.inputs == WIDE.inputs;
        let net = random_circuit(case).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let seq = approx2_required_times(&net, &UnitDelay, &req, opts(1));
        for threads in [2usize, 4] {
            let par = approx2_required_times(&net, &UnitDelay, &req, opts(threads));
            assert_eq!(
                seq.maximal, par.maximal,
                "threads {threads} diverged (seed {seed})"
            );
            assert_eq!(seq.r_bottom, par.r_bottom, "seed {seed}");
            // Past the warm-up, so the comparison is serial against
            // helpers, not serial against serial.
            assert!(
                !wide || par.steals > 0,
                "no batch ran on a helper at {threads} threads (seed {seed})"
            );
        }
    }
}

/// Thread count must not leak into the *analysis content* at all: the
/// rendered latest conditions — the user-visible report — must be
/// byte-identical at 1, 2, 4 and 8 threads.
#[test]
fn rendered_report_is_byte_identical_across_thread_counts() {
    std::env::set_var("XRTA_OVERSUBSCRIBE", "1");
    for seed in seeds().take(4) {
        let net = random_circuit(spec(seed)).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let render = |threads: usize| {
            let r = approx2_required_times(&net, &UnitDelay, &req, opts(threads));
            xrta::core::report::render_conditions(&net, &r.maximal_conditions())
        };
        let baseline = render(1);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                baseline,
                render(threads),
                "report diverged at {threads} threads (seed {seed})"
            );
        }
    }
}

#[test]
fn parallel_maximal_points_are_safe_and_unraisable() {
    std::env::set_var("XRTA_OVERSUBSCRIBE", "1");
    for threads in [1usize, 4] {
        for case in cases() {
            let seed = case.seed;
            let net = random_circuit(case).expect("valid spec");
            let req = vec![Time::ZERO; net.outputs().len()];
            let r = approx2_required_times(&net, &UnitDelay, &req, opts(threads));
            assert!(r.completed, "oracle-call budget hit (seed {seed})");
            for m in &r.maximal {
                let ft = FunctionalTiming::new(&net, &UnitDelay, m.clone(), EngineKind::Bdd);
                assert!(
                    ft.meets(&req),
                    "point {m:?} unsafe (seed {seed}, {threads} threads)"
                );
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
                        let ft =
                            FunctionalTiming::new(&net, &UnitDelay, up.clone(), EngineKind::Bdd);
                        assert!(
                            !ft.meets(&req),
                            "raising coord {i} of {m:?} to {:?} stays safe (seed {seed}, \
                             {threads} threads)",
                            up[i]
                        );
                    }
                }
            }
        }
    }
}
