//! Pins the BDD node counts the exact analysis (§4.1) and the
//! parametric approximation (§4.2) leave on the Table 1 surrogates the
//! paper ran them on.
//!
//! The BDD tables may change how often a result is recomputed, never
//! which nodes exist or in what order they are created: a lossy computed
//! table only recomputes, and `mk` finds every node again. A table change
//! that adds or reorders node creations moves these counts, and with them
//! the point where Table 1's capped rows run out of nodes.

use xrta::circuits::mcnc_rows;
use xrta::core::{approx1_required_times, exact_required_times, Approx1Options, ExactOptions};
use xrta::network::Network;
use xrta::timing::{Time, UnitDelay};

/// The named Table 1 row's network and the paper's required times:
/// zero at every output.
fn row(name: &str) -> (Network, Vec<Time>) {
    let net = mcnc_rows()
        .into_iter()
        .find(|r| r.name == name)
        .expect("a Table 1 row")
        .build();
    let req = vec![Time::ZERO; net.outputs().len()];
    (net, req)
}

#[test]
fn exact_rungs_create_the_pinned_node_sequence() {
    // Per row: `node_count()`, which includes the two terminals (i1
    // creates 319,735 decision nodes, i2 137,255 and i3 90,450), and the
    // arena indices of the relation and of its latest sub-relation. A
    // root is the last node its operation creates, so the indices pin
    // how the creations split between building the relation and
    // extracting its minimal elements.
    let pinned = [
        ("i1", 319_737, 311_992, 319_736),
        ("i2", 137_257, 133_245, 137_256),
        ("i3", 90_452, 86_192, 90_451),
    ];
    for (name, nodes, relation, latest) in pinned {
        let (net, req) = row(name);
        let analysis = exact_required_times(&net, &UnitDelay, &req, ExactOptions::default())
            .expect("fits under the default node limit");
        let read = (
            analysis.bdd.node_count(),
            analysis.relation.raw(),
            analysis.latest.raw(),
        );
        assert_eq!(read, (nodes, relation, latest), "{name}");
    }
}

#[test]
fn approx1_rungs_create_the_pinned_node_sequence() {
    // Per row: `node_count()` and the arena index of `F(α, β)`, the
    // output constraints with the inputs universally quantified
    // (`try_forall`). The nodes after it are those `monotone_primes`
    // creates while extracting the minimal elements of `F`.
    let pinned = [
        ("i1", 15_244, 15_047),
        ("i2", 8_522, 8_118),
        ("i3", 9_703, 9_702),
    ];
    for (name, nodes, f) in pinned {
        let (net, req) = row(name);
        let analysis = approx1_required_times(&net, &UnitDelay, &req, Approx1Options::default())
            .expect("fits under the default node limit");
        let read = (analysis.bdd.node_count(), analysis.f.raw());
        assert_eq!(read, (nodes, f), "{name}");
    }
}
