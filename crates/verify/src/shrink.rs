//! Greedy test-case minimisation.
//!
//! `minimise` is the one greedy loop every shrinker in the crate runs:
//! take the first candidate reduction that still fails, and repeat
//! until none does. [`shrink`] drives it over failing netlists, and
//! [`crate::edits::shrink_edits`] over failing edit scripts.
//!
//! Given a failing [`TestCase`] (one on which some differential check
//! fires), [`shrink`] tries structural reductions and keeps any that
//! still fail, until no reduction applies:
//!
//! 1. **Drop a primary output** — re-check on the cone of the
//!    remaining outputs with the matching required-time slice.
//! 2. **Bypass a gate** — replace every use of a gate by one of its
//!    fanins, then prune nodes no longer feeding an output.
//! 3. **Ground a primary input** — replace an input by a constant,
//!    shrinking the minterm space.
//!
//! Every accepted step strictly decreases `outputs + inputs + nodes`,
//! so the loop terminates; the result is a local minimum, which in
//! practice is a handful of gates — small enough to read, and to store
//! in `netlists/corpus/`.

use std::collections::HashMap;

use xrta_network::{GateKind, Network, NodeFunc, NodeId};
use xrta_timing::Time;

/// A netlist plus the per-output required times a check runs against.
#[derive(Clone, Debug)]
pub struct TestCase {
    /// The circuit.
    pub net: Network,
    /// Required time per primary output, aligned with `net.outputs()`.
    pub req: Vec<Time>,
}

impl TestCase {
    /// Reduction-progress metric (strictly decreases per accepted step).
    fn size(&self) -> usize {
        self.net.outputs().len() + self.net.inputs().len() + self.net.node_count()
    }
}

/// How a node is rewritten during a bypass/grounding rebuild.
enum Rewrite {
    /// Replace the node by (the image of) another, earlier node.
    Alias(NodeId),
    /// Replace the node by a constant gate.
    Ground(bool),
}

/// Rebuilds `net` with one node rewritten, then prunes everything that
/// no longer feeds an output. Returns `None` when the rewrite would
/// merge two primary outputs (the required-time vector could no longer
/// be kept aligned).
fn rebuild(net: &Network, victim: NodeId, rewrite: &Rewrite) -> Option<Network> {
    let mut out = Network::new(net.name().to_string());
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for id in net.node_ids() {
        let n = net.node(id);
        if id == victim {
            let new = match rewrite {
                Rewrite::Alias(r) => *map.get(r)?,
                Rewrite::Ground(v) => {
                    let kind = if *v {
                        GateKind::Const1
                    } else {
                        GateKind::Const0
                    };
                    out.add_gate(n.name.clone(), kind, &[]).ok()?
                }
            };
            map.insert(id, new);
            continue;
        }
        let new = match &n.func {
            NodeFunc::Input => out.add_input(n.name.clone()).ok()?,
            NodeFunc::Gate { table, kind } => {
                let fanins: Vec<NodeId> = n
                    .fanins
                    .iter()
                    .map(|f| map.get(f).copied())
                    .collect::<Option<_>>()?;
                match kind {
                    Some(k) => out.add_gate(n.name.clone(), *k, &fanins).ok()?,
                    None => out.add_table(n.name.clone(), table.clone(), &fanins).ok()?,
                }
            }
        };
        map.insert(id, new);
    }
    let new_outputs: Vec<NodeId> = net
        .outputs()
        .iter()
        .map(|o| map.get(o).copied())
        .collect::<Option<_>>()?;
    let mut seen = new_outputs.clone();
    seen.sort();
    seen.dedup();
    if seen.len() != new_outputs.len() {
        return None; // outputs would merge
    }
    for &o in &new_outputs {
        out.mark_output(o);
    }
    // Prune gates and inputs that no longer feed any output.
    let (pruned, _) = out.extract_cone(&new_outputs);
    Some(pruned)
}

/// One round of candidate reductions, lazily materialised.
fn candidates(case: &TestCase) -> Vec<TestCase> {
    let net = &case.net;
    let mut out = Vec::new();
    // 1. Drop one primary output (keeping at least one).
    if net.outputs().len() > 1 {
        for k in 0..net.outputs().len() {
            let keep: Vec<NodeId> = net
                .outputs()
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != k)
                .map(|(_, &o)| o)
                .collect();
            let (cone, _) = net.extract_cone(&keep);
            let req: Vec<Time> = case
                .req
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != k)
                .map(|(_, &t)| t)
                .collect();
            out.push(TestCase { net: cone, req });
        }
    }
    // 2. Bypass one gate by one of its (distinct) fanins.
    for id in net.node_ids() {
        let n = net.node(id);
        if n.is_input() {
            continue;
        }
        let mut tried: Vec<NodeId> = Vec::new();
        for &f in &n.fanins {
            if tried.contains(&f) {
                continue;
            }
            tried.push(f);
            if let Some(reduced) = rebuild(net, id, &Rewrite::Alias(f)) {
                out.push(TestCase {
                    net: reduced,
                    req: case.req.clone(),
                });
            }
        }
    }
    // 3. Ground one primary input.
    for &pi in net.inputs() {
        for v in [false, true] {
            if let Some(reduced) = rebuild(net, pi, &Rewrite::Ground(v)) {
                out.push(TestCase {
                    net: reduced,
                    req: case.req.clone(),
                });
            }
        }
    }
    out
}

/// The greedy minimisation loop: replaces `start` by the first of its
/// `reductions` on which `fails` reports a failure, and repeats until
/// no reduction fails. `fails` returns a witness of the failure (such as
/// the step it was seen at); the result pairs the final case with the
/// witness of the last accepted reduction, or with `witness` when none
/// was accepted. `reductions` must yield strictly smaller cases, so the
/// loop terminates.
pub(crate) fn minimise<T, W>(
    start: T,
    witness: W,
    reductions: impl Fn(&T) -> Vec<T>,
    mut fails: impl FnMut(&T) -> Option<W>,
) -> (T, W) {
    let (mut current, mut witness) = (start, witness);
    'outer: loop {
        for cand in reductions(&current) {
            if let Some(w) = fails(&cand) {
                (current, witness) = (cand, w);
                continue 'outer;
            }
        }
        return (current, witness);
    }
}

/// Greedily minimises a failing test case.
///
/// `fails` must return `true` on `case` itself (the shrinker asserts
/// this); the returned case also fails and admits no further one-step
/// reduction.
pub fn shrink(case: &TestCase, mut fails: impl FnMut(&TestCase) -> bool) -> TestCase {
    assert!(fails(case), "shrink needs a failing starting point");
    let smaller = |c: &TestCase| {
        let mut cands = candidates(c);
        cands.retain(|cand| cand.size() < c.size());
        cands
    };
    minimise(case.clone(), (), smaller, |c| fails(c).then_some(())).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_circuits::c17;
    use xrta_timing::{topological_delays, UnitDelay};

    #[test]
    fn shrinks_to_single_gate_under_trivial_predicate() {
        // "Fails whenever any gate remains": minimum is one gate.
        let net = c17();
        let req = topological_delays(&net, &UnitDelay);
        let case = TestCase { net, req };
        let small = shrink(&case, |c| c.net.gate_count() >= 1);
        assert_eq!(small.net.gate_count(), 1);
        assert_eq!(small.net.outputs().len(), 1);
        assert_eq!(small.req.len(), 1);
    }

    #[test]
    fn preserves_a_semantic_property_while_shrinking() {
        // Shrink while "some output evaluates to 1 on the all-ones
        // minterm" holds; the reduced case still satisfies it.
        let net = c17();
        let req = topological_delays(&net, &UnitDelay);
        let case = TestCase { net, req };
        let holds = |c: &TestCase| {
            let ones = vec![true; c.net.inputs().len()];
            c.net.eval(&ones).iter().any(|&v| v)
        };
        if !holds(&case) {
            return; // property must hold initially for this exercise
        }
        let small = shrink(&case, holds);
        assert!(holds(&small));
        assert!(small.net.node_count() <= case.net.node_count());
    }

    #[test]
    fn rebuild_refuses_to_merge_outputs() {
        // Two outputs that collapse onto the same node after a bypass.
        let mut net = Network::new("m");
        let a = net.add_input("a").unwrap();
        let b1 = net.add_gate("b1", GateKind::Buf, &[a]).unwrap();
        let b2 = net.add_gate("b2", GateKind::Buf, &[b1]).unwrap();
        net.mark_output(b1);
        net.mark_output(b2);
        assert!(rebuild(&net, b2, &Rewrite::Alias(b1)).is_none());
        // But bypassing a non-output-merging gate works.
        assert!(rebuild(&net, b1, &Rewrite::Alias(a)).is_some());
    }
}
