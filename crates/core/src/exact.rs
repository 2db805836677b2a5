//! The exact required-time relation (§4.1).
//!
//! χ functions of every primary output are built with *unknown leaf
//! variables* at the primary inputs; the Boolean relation
//!
//! ```text
//! F(X, χ_X) = Π_z (χ_{z,1}^{req(z)} ≡ z(X)) · (χ_{z,0}^{req(z)} ≡ ¬z(X)) · ordering(χ_X)
//! ```
//!
//! captures **every** permissible temporal behaviour of the inputs. Its
//! minimal elements per input minterm (w.r.t. the leaf variables) are the
//! *latest* required-time conditions.

use xrta_bdd::{Bdd, Ref, Var};
use xrta_chi::ChiBddEngine;
use xrta_network::{GlobalBdds, Network};
use xrta_timing::{required_times, DelayModel, Time};

use crate::governor::{AnalysisError, Budget};
use crate::leaves::{LeafMode, LeafVarKey, PlannedLeaves};
use crate::plan::plan_leaves;
use crate::types::RequiredTimeTuple;

/// Options for the exact analysis.
#[derive(Clone, Copy, Debug)]
pub struct ExactOptions {
    /// BDD node limit; exceeding it aborts with
    /// [`AnalysisError::Capacity`] (the paper's `memory out` rows).
    pub node_limit: usize,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            node_limit: 1 << 22,
        }
    }
}

/// Output of the exact analysis: the full relation and its latest
/// (minimal) sub-relation, plus everything needed to interpret them.
pub struct ExactAnalysis {
    /// The BDD manager holding all functions.
    pub bdd: Bdd,
    /// Input variables `X`, aligned with `net.inputs()`.
    pub x_vars: Vec<Var>,
    /// Unknown leaf variables with their identities.
    pub leaf_vars: Vec<(LeafVarKey, Var)>,
    /// The full permissible relation `F(X, χ_X)`.
    pub relation: Ref,
    /// The latest-required-time sub-relation (minimal elements).
    pub latest: Ref,
    /// Topological required times at the inputs (`r⊥`), for reference.
    pub topo_required: Vec<Time>,
    leaves: PlannedLeaves,
}

/// Runs the exact analysis of §4.1.
///
/// # Errors
///
/// Returns [`AnalysisError::Capacity`] when the BDD node limit is
/// exceeded — the behaviour the paper reports as `memory out` on larger
/// MCNC circuits.
///
/// # Panics
///
/// Panics if `output_required.len() != net.outputs().len()`.
pub fn exact_required_times<D: DelayModel>(
    net: &Network,
    model: &D,
    output_required: &[Time],
    options: ExactOptions,
) -> Result<ExactAnalysis, AnalysisError> {
    exact_required_times_governed(net, model, output_required, options, &Budget::unlimited())
}

/// Budget-governed form of [`exact_required_times`]: the BDD manager
/// additionally honours the budget's deadline, cancel flag and (the
/// tighter of the two) node limits, failing with the matching
/// [`AnalysisError`] instead of running away.
///
/// # Panics
///
/// Panics if `output_required.len() != net.outputs().len()`.
pub fn exact_required_times_governed<D: DelayModel>(
    net: &Network,
    model: &D,
    output_required: &[Time],
    options: ExactOptions,
    budget: &Budget,
) -> Result<ExactAnalysis, AnalysisError> {
    assert_eq!(output_required.len(), net.outputs().len());
    let mut bdd = Bdd::with_node_limit(budget.effective_node_limit(options.node_limit));
    bdd.set_deadline(budget.deadline());
    bdd.set_cancel_flag(Some(budget.cancel_flag()));
    bdd.set_mem_limit(budget.mem_limit());
    let plan = plan_leaves(net, model, output_required, |_| true);
    let leaves = PlannedLeaves::new(&mut bdd, plan, vec![LeafMode::Unknown; net.inputs().len()]);
    let x_vars = leaves.x_vars.clone();
    let globals = GlobalBdds::build_with_vars(&mut bdd, net, &x_vars)?;

    let mut engine = ChiBddEngine::new(net, model, leaves);
    let mut relation = Ref::TRUE;
    for (i, &z) in net.outputs().iter().enumerate() {
        let t = output_required[i];
        let chi1 = engine.chi(&mut bdd, net, z, true, t)?;
        let chi0 = engine.chi(&mut bdd, net, z, false, t)?;
        let gz = globals.of(z);
        let ngz = bdd.try_not(gz)?;
        let c1 = {
            let x = bdd.try_xor(chi1, gz)?;
            bdd.try_not(x)?
        };
        let c0 = {
            let x = bdd.try_xor(chi0, ngz)?;
            bdd.try_not(x)?
        };
        relation = bdd.try_and(relation, c1)?;
        relation = bdd.try_and(relation, c0)?;
    }
    let leaves = engine.leaves;
    let ord = leaves.ordering_constraint(&mut bdd)?;
    relation = bdd.try_and(relation, ord)?;

    let leaf_list = leaves.leaf_var_list();
    let latest = bdd.try_minimal_wrt(relation, &leaf_list)?;

    let topo_net_required = required_times(net, model, output_required);
    let topo_required = net
        .inputs()
        .iter()
        .map(|i| topo_net_required[i.index()])
        .collect();

    // Construction is done: disarm the governor so post-hoc accessors
    // (which use the panicking BDD operations) cannot trip over a
    // deadline that passes after the answer already exists.
    bdd.set_deadline(None);
    bdd.set_cancel_flag(None);
    bdd.set_mem_limit(None);

    Ok(ExactAnalysis {
        x_vars,
        leaf_vars: leaves.leaf_vars.clone(),
        relation,
        latest,
        topo_required,
        leaves,
        bdd,
    })
}

impl ExactAnalysis {
    /// Number of leaf variables.
    pub fn leaf_count(&self) -> usize {
        self.leaf_vars.len()
    }

    fn restrict_to_minterm(&mut self, f: Ref, x: &[bool]) -> Ref {
        assert_eq!(x.len(), self.x_vars.len());
        let cube: Vec<(Var, bool)> = self.x_vars.iter().copied().zip(x.iter().copied()).collect();
        self.bdd.restrict_cube(f, &cube)
    }

    /// All permissible leaf vectors for one input minterm, as bit
    /// vectors aligned with [`ExactAnalysis::leaf_vars`].
    ///
    /// Intended for small leaf counts (worked examples); cost is
    /// exponential in the number of leaves.
    ///
    /// # Panics
    ///
    /// Panics beyond 20 leaf variables — use the symbolic accessors
    /// ([`ExactAnalysis::relation`], [`ExactAnalysis::latest`]) instead.
    pub fn permissible_vectors(&mut self, x: &[bool]) -> Vec<Vec<bool>> {
        assert!(
            self.leaf_vars.len() <= 20,
            "explicit enumeration limited to 20 leaf variables ({} present)",
            self.leaf_vars.len()
        );
        let f = self.restrict_to_minterm(self.relation, x);
        let vars = self.leaves.leaf_var_list();
        self.bdd.minterms(f, &vars)
    }

    /// The latest (minimal) leaf vectors for one input minterm.
    ///
    /// # Panics
    ///
    /// Panics beyond 20 leaf variables (see
    /// [`ExactAnalysis::permissible_vectors`]).
    pub fn latest_vectors(&mut self, x: &[bool]) -> Vec<Vec<bool>> {
        assert!(
            self.leaf_vars.len() <= 20,
            "explicit enumeration limited to 20 leaf variables ({} present)",
            self.leaf_vars.len()
        );
        let f = self.restrict_to_minterm(self.latest, x);
        let vars = self.leaves.leaf_var_list();
        self.bdd.minterms(f, &vars)
    }

    /// The latest required-time tuples for one input minterm — the
    /// right-hand table of the paper's §4.1 example.
    pub fn latest_tuples(&mut self, x: &[bool]) -> Vec<RequiredTimeTuple> {
        let vars = self.leaves.leaf_var_list();
        let vecs = self.latest_vectors(x);
        let mut tuples: Vec<RequiredTimeTuple> = vecs
            .iter()
            .map(|bits| {
                self.leaves.interpret_leaf_assignment(|v| {
                    let idx = vars.iter().position(|&lv| lv == v).expect("known var");
                    bits[idx]
                })
            })
            .collect();
        tuples.dedup();
        tuples
    }

    /// Does the relation admit, for some input minterm, a latest
    /// condition strictly looser than topological analysis? (The `*`
    /// marker of the paper's Table 1.)
    ///
    /// Only the deadline of the value each input actually settles to
    /// under the minterm is compared (the other value's deadline is
    /// vacuous for that minterm). The check is fully symbolic: an
    /// input's active deadline exceeds `r⊥` exactly when every leaf bit
    /// at times `≤ r⊥` is 0, so one BDD intersection decides the
    /// question for all minterms at once.
    pub fn has_nontrivial_requirement(&mut self) -> bool {
        let mut interesting = Ref::FALSE;
        for pos in 0..self.x_vars.len() {
            let rbot = self.topo_required[pos];
            for value in [true, false] {
                let times: Vec<Time> = self.leaves.plan().per_input[pos].for_value(value).to_vec();
                let xlit = if value {
                    self.bdd.var(self.x_vars[pos])
                } else {
                    self.bdd.nvar(self.x_vars[pos])
                };
                let cond = match times.first() {
                    // Never referenced for this polarity: deadline ∞,
                    // looser than any finite topological requirement.
                    None => {
                        if rbot.is_inf() {
                            continue;
                        }
                        xlit
                    }
                    Some(&t1) if t1 > rbot => xlit,
                    Some(&t1) => {
                        // Deadline > r⊥ ⟺ the (unique) bit at t₁ = r⊥
                        // is 0.
                        let leaf = self
                            .leaf_vars
                            .iter()
                            .find(|(k, _)| k.input_pos == pos && k.value == value && k.time == t1)
                            .map(|&(_, v)| v)
                            .expect("planned leaf exists");
                        let nleaf = self.bdd.nvar(leaf);
                        self.bdd.and(xlit, nleaf)
                    }
                };
                interesting = self.bdd.or(interesting, cond);
            }
        }
        !self.bdd.and(self.latest, interesting).is_false()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_network::GateKind;
    use xrta_timing::UnitDelay;

    /// The paper's Figure 4 circuit.
    fn fig4() -> Network {
        let mut net = Network::new("fig4");
        let x1 = net.add_input("x1").unwrap();
        let x2 = net.add_input("x2").unwrap();
        let y1 = net.add_gate("y1", GateKind::Buf, &[x1]).unwrap();
        let y2 = net.add_gate("y2", GateKind::Buf, &[x2]).unwrap();
        let z = net.add_gate("z", GateKind::And, &[y1, x2, y2]).unwrap();
        net.mark_output(z);
        net
    }

    fn analysis() -> ExactAnalysis {
        exact_required_times(
            &fig4(),
            &UnitDelay,
            &[Time::new(2)],
            ExactOptions::default(),
        )
        .unwrap()
    }

    /// Leaf vector bits in the paper's column order:
    /// χ⁰_{x1,1} χ⁰_{x2,1} χ¹_{x2,1} χ⁰_{x1,0} χ⁰_{x2,0} χ¹_{x2,0}.
    fn paper_order(a: &ExactAnalysis) -> Vec<usize> {
        let want = [
            (0, true, 0),
            (1, true, 0),
            (1, true, 1),
            (0, false, 0),
            (1, false, 0),
            (1, false, 1),
        ];
        want.iter()
            .map(|&(pos, val, t)| {
                a.leaf_vars
                    .iter()
                    .position(|(k, _)| {
                        k.input_pos == pos && k.value == val && k.time == Time::new(t)
                    })
                    .expect("leaf present")
            })
            .collect()
    }

    fn reorder_bits(bits: &[bool], order: &[usize]) -> String {
        order
            .iter()
            .map(|&i| if bits[i] { '1' } else { '0' })
            .collect()
    }

    #[test]
    fn fig4_full_relation_matches_paper_table() {
        let mut a = analysis();
        let order = paper_order(&a);
        let expect: [(usize, &[&str]); 4] = [
            (0b00, &["000100", "000101", "000001", "000011", "000111"]),
            (0b10, &["000100", "001100", "011100"]), // x1=0, x2=1
            (0b01, &["000001", "000011", "100001", "100011"]), // x1=1, x2=0
            (0b11, &["111000"]),
        ];
        for (minterm, rows) in expect {
            let x = [(minterm & 1) != 0, (minterm & 2) != 0];
            let mut got: Vec<String> = a
                .permissible_vectors(&x)
                .iter()
                .map(|bits| reorder_bits(bits, &order))
                .collect();
            got.sort();
            let mut want: Vec<String> = rows.iter().map(|s| s.to_string()).collect();
            want.sort();
            assert_eq!(got, want, "relation rows for x1x2={:b}", minterm);
        }
    }

    #[test]
    fn fig4_latest_subrelation_matches_paper() {
        let mut a = analysis();
        let order = paper_order(&a);
        let expect: [(usize, &[&str]); 4] = [
            (0b00, &["000100", "000001"]),
            (0b10, &["000100"]),
            (0b01, &["000001"]),
            (0b11, &["111000"]),
        ];
        for (minterm, rows) in expect {
            let x = [(minterm & 1) != 0, (minterm & 2) != 0];
            let mut got: Vec<String> = a
                .latest_vectors(&x)
                .iter()
                .map(|bits| reorder_bits(bits, &order))
                .collect();
            got.sort();
            let mut want: Vec<String> = rows.iter().map(|s| s.to_string()).collect();
            want.sort();
            assert_eq!(got, want, "latest rows for x1x2={:b}", minterm);
        }
    }

    #[test]
    fn fig4_required_time_tuples_match_paper() {
        let mut a = analysis();
        // Paper: 00 → {(0,∞),(∞,1)}, 01 → {(0,∞)}, 10 → {(∞,1)}, 11 → {(0,0)}.
        let tuples_at = |a: &mut ExactAnalysis, x1: bool, x2: bool| -> Vec<(Time, Time)> {
            let mut v: Vec<(Time, Time)> = a
                .latest_tuples(&[x1, x2])
                .iter()
                .map(|t| {
                    // Active-value deadline per input.
                    let r1 = if x1 {
                        t.per_input[0].value1
                    } else {
                        t.per_input[0].value0
                    };
                    let r2 = if x2 {
                        t.per_input[1].value1
                    } else {
                        t.per_input[1].value0
                    };
                    (r1, r2)
                })
                .collect();
            v.sort();
            v.dedup();
            v
        };
        assert_eq!(
            tuples_at(&mut a, false, false),
            vec![(Time::new(0), Time::INF), (Time::INF, Time::new(1))]
        );
        assert_eq!(
            tuples_at(&mut a, false, true),
            vec![(Time::new(0), Time::INF)]
        );
        assert_eq!(
            tuples_at(&mut a, true, false),
            vec![(Time::INF, Time::new(1))]
        );
        assert_eq!(
            tuples_at(&mut a, true, true),
            vec![(Time::new(0), Time::new(0))]
        );
    }

    #[test]
    fn fig4_is_nontrivial() {
        let mut a = analysis();
        assert!(a.has_nontrivial_requirement());
    }

    #[test]
    fn parity_is_trivial() {
        // XOR chain: every input always controls the output; no
        // flexibility beyond topological required times.
        let mut net = Network::new("parity");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let z = net.add_gate("z", GateKind::Xor, &[a, b]).unwrap();
        net.mark_output(z);
        let mut an =
            exact_required_times(&net, &UnitDelay, &[Time::new(1)], ExactOptions::default())
                .unwrap();
        assert!(!an.has_nontrivial_requirement());
    }

    #[test]
    fn memory_out_reported() {
        let net = fig4();
        let r = exact_required_times(
            &net,
            &UnitDelay,
            &[Time::new(2)],
            ExactOptions { node_limit: 12 },
        );
        assert!(r.is_err());
    }

    #[test]
    fn topological_point_always_permissible() {
        // The all-allowed-bits-on vector (χ_{x,v} = lit(x,v) at every
        // planned time) must satisfy the relation for every minterm
        // (Lemma 3 of the paper).
        let mut a = analysis();
        for m in 0..4usize {
            let x = [(m & 1) != 0, (m & 2) != 0];
            let vectors = a.permissible_vectors(&x);
            let topo: Vec<bool> = a
                .leaf_vars
                .iter()
                .map(|(k, _)| {
                    if k.value {
                        x[k.input_pos]
                    } else {
                        !x[k.input_pos]
                    }
                })
                .collect();
            assert!(
                vectors.contains(&topo),
                "topological vector missing for minterm {m}"
            );
        }
    }
}
