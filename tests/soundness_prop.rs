//! Randomized soundness: on random circuits, every result of the
//! three required-time algorithms is validated against independent
//! oracles. Driven by a deterministic seeded generator (the workspace
//! builds offline, so `proptest` is replaced by explicit seed loops).

use xrta::circuits::{random_circuit, RandomCircuitSpec};
use xrta::prelude::*;

fn small_spec(seed: u64) -> RandomCircuitSpec {
    RandomCircuitSpec {
        inputs: 5,
        gates: 10,
        outputs: 2,
        max_fanin: 3,
        locality: 50,
        seed,
    }
}

/// Seeds per property: debug builds keep the loops snappy, release
/// builds (CI's `cargo test --release`) widen the net.
#[cfg(debug_assertions)]
const SEEDS_PER_PROPERTY: u64 = 10;
#[cfg(not(debug_assertions))]
const SEEDS_PER_PROPERTY: u64 = 25;

/// Deterministic circuit seeds per property. The salt/index pair is
/// packed into disjoint ranges and pushed through the SplitMix64
/// bijection, so distinct salts provably yield disjoint seed sets (the
/// old linear formula let salts collide) while the mixing decorrelates
/// consecutive indices.
fn seeds(salt: u64) -> impl Iterator<Item = u64> {
    (0..SEEDS_PER_PROPERTY).map(move |i| xrta_rng::mix64((salt << 32) | i))
}

/// Tight search options so the randomized tests stay fast: a couple of
/// maximal points and a few hundred oracle calls is plenty to validate
/// soundness on 5-input circuits.
fn fast_a2() -> Approx2Options {
    Approx2Options {
        max_solutions: 2,
        max_oracle_calls: 400,
        ..Approx2Options::default()
    }
}

#[test]
fn chi_engines_agree_on_true_arrivals() {
    for seed in seeds(1) {
        let net = random_circuit(small_spec(seed)).expect("valid spec");
        let zeros = vec![Time::ZERO; net.inputs().len()];
        let ft_bdd = FunctionalTiming::new(&net, &UnitDelay, zeros.clone(), EngineKind::Bdd);
        let ft_sat = FunctionalTiming::new(&net, &UnitDelay, zeros, EngineKind::Sat);
        assert_eq!(
            ft_bdd.true_arrivals(),
            ft_sat.true_arrivals(),
            "seed {seed}"
        );
    }
}

#[test]
fn approx2_maximal_points_are_safe_and_dominating() {
    for seed in seeds(2) {
        let net = random_circuit(small_spec(seed)).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let r = approx2_required_times(&net, &UnitDelay, &req, fast_a2());
        for m in &r.maximal {
            // Safe per the independent BDD oracle.
            let ft = FunctionalTiming::new(&net, &UnitDelay, m.clone(), EngineKind::Bdd);
            assert!(ft.meets(&req), "point {m:?} unsafe (seed {seed})");
            // Dominates the topological bottom.
            assert!(m.iter().zip(&r.r_bottom).all(|(a, b)| a >= b));
            // Maximal: any single raise within the candidate lattice is
            // unsafe (checked by re-running the climb from the point).
        }
    }
}

#[test]
fn approx1_conditions_are_safe() {
    for seed in seeds(3) {
        let net = random_circuit(small_spec(seed)).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let Ok(a) = approx1_required_times(&net, &UnitDelay, &req, Approx1Options::default())
        else {
            continue;
        };
        for cond in &a.conditions {
            let arrivals: Vec<Time> = cond.per_input.iter().map(|vt| vt.earliest()).collect();
            let ft = FunctionalTiming::new(&net, &UnitDelay, arrivals, EngineKind::Bdd);
            assert!(ft.meets(&req), "condition {cond} unsafe (seed {seed})");
        }
    }
}

#[test]
fn exact_relation_contains_topological_point() {
    for seed in seeds(4) {
        let net = random_circuit(small_spec(seed)).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        // Deeply reconvergent random circuits can legitimately exhaust
        // the exact algorithm's node limit (the paper's `memory out`);
        // skip those draws.
        let Ok(exact) = exact_required_times(&net, &UnitDelay, &req, ExactOptions::default())
        else {
            continue;
        };
        // For every input minterm, the all-stable (topological) leaf
        // vector must be permissible (Lemma 3). Checked by direct BDD
        // evaluation of the relation — O(depth) per minterm.
        let n = net.inputs().len();
        for m in 0..(1usize << n) {
            let x: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            let mut assignment = vec![false; exact.bdd.var_count()];
            for (pos, &v) in exact.x_vars.iter().enumerate() {
                assignment[v.index()] = x[pos];
            }
            for (k, v) in &exact.leaf_vars {
                assignment[v.index()] = if k.value {
                    x[k.input_pos]
                } else {
                    !x[k.input_pos]
                };
            }
            assert!(
                exact.bdd.eval(exact.relation, &assignment),
                "topological vector rejected for minterm {x:?} (seed {seed})"
            );
        }
    }
}

#[test]
fn nontriviality_hierarchy() {
    // approx2-loose ⇒ approx1-loose ⇒ exact-loose.
    for seed in seeds(5) {
        let net = random_circuit(small_spec(seed)).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let a2 = approx2_required_times(&net, &UnitDelay, &req, fast_a2());
        let Ok(a1) = approx1_required_times(&net, &UnitDelay, &req, Approx1Options::default())
        else {
            continue;
        };
        if a2.has_nontrivial_requirement() {
            assert!(
                a1.has_nontrivial_requirement(),
                "a2 loose but a1 trivial (seed {seed})"
            );
        }
        let Ok(mut ex) = exact_required_times(&net, &UnitDelay, &req, ExactOptions::default())
        else {
            continue;
        };
        if a1.has_nontrivial_requirement() {
            assert!(
                ex.has_nontrivial_requirement(),
                "a1 loose but exact trivial (seed {seed})"
            );
        }
    }
}

#[test]
fn value_independent_approx1_never_beats_dependent() {
    for seed in seeds(6) {
        let net = random_circuit(small_spec(seed)).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let (Ok(dep), Ok(indep)) = (
            approx1_required_times(&net, &UnitDelay, &req, Approx1Options::default()),
            approx1_required_times(
                &net,
                &UnitDelay,
                &req,
                Approx1Options {
                    value_independent: true,
                    ..Approx1Options::default()
                },
            ),
        ) else {
            continue;
        };
        if indep.has_nontrivial_requirement() {
            assert!(dep.has_nontrivial_requirement(), "seed {seed}");
        }
    }
}
