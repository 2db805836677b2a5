//! The dominance-pruned §4.3 search against the independent BDD oracle,
//! and against itself: on random circuits every maximal point must be
//! safe and unraisable, and two runs of one search must agree on
//! everything they count. (Cone verdicts are pure functions of the
//! query, so dominance pruning may change how many oracle calls a
//! search makes, never what it finds.) The small circuits have two
//! cones; [`WIDE`] has eight over 72 inputs. A block circuit, whose
//! isomorphic outputs share verdict frontiers, runs against a twin
//! whose outputs share none.

use xrta::circuits::{block_circuit, random_circuit, BlockStyle, RandomCircuitSpec};
use xrta::network::NodeFunc;
use xrta::prelude::*;
use xrta::timing::TableDelay;

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

/// A circuit of 72 inputs (some of its cones read inputs past the
/// 64th), with enough cones that rounds carry several batches. Its climb runs well past the 48 oracle calls
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

/// `net` with output `k` driven through `k` extra buffers, each of
/// delay 0 in the returned table (every other gate keeps delay 1).
fn padded_twin(net: &Network) -> (Network, TableDelay) {
    let mut twin = Network::new("twin");
    for id in net.node_ids() {
        let n = net.node(id);
        match &n.func {
            NodeFunc::Input => twin.add_input(n.name.clone()),
            NodeFunc::Gate {
                kind: Some(kind), ..
            } => twin.add_gate(n.name.clone(), *kind, &n.fanins),
            NodeFunc::Gate { table, kind: None } => {
                twin.add_table(n.name.clone(), table.clone(), &n.fanins)
            }
        }
        .expect("copy of a valid network");
    }
    let mut pads = Vec::new();
    for (k, &out) in net.outputs().iter().enumerate() {
        let mut last = out;
        for j in 0..k {
            last = twin
                .add_gate(format!("pad{k}_{j}"), GateKind::Buf, &[last])
                .expect("fresh name");
            pads.push(last);
        }
        twin.mark_output(last);
    }
    let mut delays = TableDelay::with_default(&twin, 1);
    for pad in pads {
        delays.set(pad, 0);
    }
    (twin, delays)
}

/// The padding buffers change no χ function, leaf time or topological
/// bound, but they make every cone's canonical descriptor distinct, so
/// the twin's search shares no verdict between outputs while the
/// original's isomorphic outputs share one frontier per class. Both
/// must find the same maximal points, the original with fewer oracle
/// calls.
#[test]
fn isomorphic_cones_share_verdicts_without_changing_the_maxima() {
    let net = block_circuit("t", 12, 6, BlockStyle::Bypass);
    let req = vec![Time::ZERO; net.outputs().len()];
    let shared = approx2_required_times(&net, &UnitDelay, &req, opts());
    let (twin, delays) = padded_twin(&net);
    let apart = approx2_required_times(&twin, &delays, &req, opts());
    assert!(
        shared.completed && apart.completed,
        "oracle-call budget hit"
    );
    assert!(
        shared.has_nontrivial_requirement(),
        "no bypass was loosened"
    );
    assert_eq!(shared.r_bottom, apart.r_bottom, "topological bottoms");
    assert_eq!(shared.candidates, apart.candidates, "candidate lattices");
    let sorted = |mut m: Vec<Vec<Time>>| {
        m.sort();
        m
    };
    assert_eq!(
        sorted(shared.maximal),
        sorted(apart.maximal),
        "maximal sets"
    );
    assert!(
        shared.oracle_calls < apart.oracle_calls,
        "sharing made {} oracle calls, the twin {}",
        shared.oracle_calls,
        apart.oracle_calls
    );
}
