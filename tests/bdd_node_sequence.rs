//! Pins the BDD node counts the exact analysis (§4.1) leaves on the
//! Table 1 surrogates the paper ran it on.
//!
//! The BDD tables may change how often a result is recomputed, never
//! which nodes exist or in what order they are created: a lossy computed
//! table only recomputes, and `mk` finds every node again. A table change
//! that adds or reorders node creations moves these counts, and with them
//! the point where Table 1's capped rows run out of nodes.

use xrta::circuits::mcnc_rows;
use xrta::core::{exact_required_times, ExactOptions};
use xrta::timing::{Time, UnitDelay};

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
        let row = mcnc_rows()
            .into_iter()
            .find(|r| r.name == name)
            .expect("a Table 1 row");
        let net = row.build();
        let req = vec![Time::ZERO; net.outputs().len()];
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
