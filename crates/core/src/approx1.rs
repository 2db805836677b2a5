//! Approximate approach 1 (§4.2): the parametric α/β formulation.
//!
//! Ordering chains are encoded structurally with fresh 0-1 parameters
//! (`χ_{x,1}^{t_p} = x·α_1`, …); universally quantifying the inputs
//! yields `F(α, β)`, a **monotone increasing** function whose primes are
//! exactly the latest required-time conditions (Theorem 1).

use xrta_bdd::{Bdd, Ref, Var};
use xrta_chi::ChiBddEngine;
use xrta_network::{GlobalBdds, Network};
use xrta_timing::{required_times, DelayModel, Time};

use crate::governor::{AnalysisError, Budget};
use crate::leaves::{LeafMode, ParamVarKey, PlannedLeaves};
use crate::plan::plan_leaves;
use crate::types::RequiredTimeTuple;

/// Options for the parametric analysis.
#[derive(Clone, Copy, Debug)]
pub struct Approx1Options {
    /// BDD node limit (`memory out` when exceeded).
    pub node_limit: usize,
    /// Merge the α and β chains per input (footnote 6: a more aggressive
    /// approximation that halves the parameter count but cannot
    /// distinguish rise from fall requirements).
    pub value_independent: bool,
    /// Cap on the number of primes enumerated.
    pub max_conditions: usize,
}

impl Default for Approx1Options {
    fn default() -> Self {
        Approx1Options {
            node_limit: 1 << 22,
            value_independent: false,
            max_conditions: 64,
        }
    }
}

/// Output of the parametric analysis.
pub struct Approx1Analysis {
    /// The BDD manager.
    pub bdd: Bdd,
    /// `F(α, β)`: every satisfying assignment is a safe required-time
    /// condition; monotone increasing.
    pub f: Ref,
    /// Parameter variables with their identities.
    pub param_vars: Vec<(ParamVarKey, Var)>,
    /// The primes of `F` (each a set of parameters forced to 1).
    pub primes: Vec<Vec<Var>>,
    /// The latest required-time conditions, one per prime.
    pub conditions: Vec<RequiredTimeTuple>,
    /// Topological required times at the inputs (`r⊥`).
    pub topo_required: Vec<Time>,
}

impl Approx1Analysis {
    /// Is some condition strictly looser than topological analysis?
    /// A prime that omits any parameter leaves some leaf at a later (or
    /// never) deadline — the `*` of the paper's Table 1.
    pub fn has_nontrivial_requirement(&self) -> bool {
        let total = self.param_vars.len();
        self.primes.iter().any(|p| p.len() < total)
    }
}

/// Runs the parametric analysis of §4.2.
///
/// # Errors
///
/// Returns [`AnalysisError::Capacity`] when the BDD node limit is
/// exceeded.
///
/// # Panics
///
/// Panics if `output_required.len() != net.outputs().len()`.
pub fn approx1_required_times<D: DelayModel>(
    net: &Network,
    model: &D,
    output_required: &[Time],
    options: Approx1Options,
) -> Result<Approx1Analysis, AnalysisError> {
    approx1_required_times_governed(net, model, output_required, options, &Budget::unlimited())
}

/// Budget-governed form of [`approx1_required_times`]: honours the
/// budget's deadline, cancel flag and node limit on top of the options.
///
/// # Panics
///
/// Panics if `output_required.len() != net.outputs().len()`.
pub fn approx1_required_times_governed<D: DelayModel>(
    net: &Network,
    model: &D,
    output_required: &[Time],
    options: Approx1Options,
    budget: &Budget,
) -> Result<Approx1Analysis, AnalysisError> {
    assert_eq!(output_required.len(), net.outputs().len());
    let mut bdd = Bdd::with_node_limit(budget.effective_node_limit(options.node_limit));
    bdd.set_deadline(budget.deadline());
    bdd.set_cancel_flag(Some(budget.cancel_flag()));
    bdd.set_mem_limit(budget.mem_limit());
    let plan = plan_leaves(net, model, output_required, |_| true);
    let mode = LeafMode::Parametric {
        value_independent: options.value_independent,
    };
    let leaves = PlannedLeaves::new(&mut bdd, plan, vec![mode; net.inputs().len()]);
    let x_vars = leaves.x_vars.clone();
    let globals = GlobalBdds::build_with_vars(&mut bdd, net, &x_vars)?;

    let mut engine = ChiBddEngine::new(net, model, leaves);
    let mut constraint = Ref::TRUE;
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
        constraint = bdd.try_and(constraint, c1)?;
        constraint = bdd.try_and(constraint, c0)?;
    }
    let leaves = engine.leaves;
    let f = bdd.try_forall(constraint, &x_vars)?;

    // `F(α,β)` exists: disarm the governor so prime enumeration (which
    // uses the panicking BDD operations) runs to completion instead of
    // tripping over a deadline that passes after the hard work is done.
    bdd.set_deadline(None);
    bdd.set_cancel_flag(None);
    bdd.set_mem_limit(None);

    let params = leaves.param_var_list();
    let mut primes = bdd.monotone_primes(f, &params);
    primes.truncate(options.max_conditions);
    let conditions: Vec<RequiredTimeTuple> =
        primes.iter().map(|p| leaves.interpret_prime(p)).collect();

    let topo_net_required = required_times(net, model, output_required);
    let topo_required = net
        .inputs()
        .iter()
        .map(|i| topo_net_required[i.index()])
        .collect();

    Ok(Approx1Analysis {
        bdd,
        f,
        param_vars: leaves.param_vars.clone(),
        primes,
        conditions,
        topo_required,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_network::GateKind;
    use xrta_timing::UnitDelay;

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

    /// The paper computes F = α₁^{x1}·α₁^{x2}·α₂^{x2}·β₁^{x1}·β₁^{x2}
    /// — a single prime omitting β₂^{x2}: x1 required at 0 for both
    /// values; x2 required at 0 when settling to 1, at 1 when settling
    /// to 0.
    #[test]
    fn fig4_prime_matches_paper() {
        let a = approx1_required_times(
            &fig4(),
            &UnitDelay,
            &[Time::new(2)],
            Approx1Options::default(),
        )
        .unwrap();
        assert_eq!(a.param_vars.len(), 6);
        assert_eq!(a.primes.len(), 1, "unique prime");
        assert_eq!(a.primes[0].len(), 5, "β₂^{{x2}} omitted");
        let c = &a.conditions[0];
        assert_eq!(c.per_input[0].value1, Time::new(0));
        assert_eq!(c.per_input[0].value0, Time::new(0));
        assert_eq!(c.per_input[1].value1, Time::new(0));
        assert_eq!(c.per_input[1].value0, Time::new(1));
        assert!(a.has_nontrivial_requirement());
    }

    #[test]
    fn fig4_value_independent_loses_precision() {
        let a = approx1_required_times(
            &fig4(),
            &UnitDelay,
            &[Time::new(2)],
            Approx1Options {
                value_independent: true,
                ..Approx1Options::default()
            },
        )
        .unwrap();
        // Merged chains: x1 has 1 parameter, x2 has 2 → 3 total.
        assert_eq!(a.param_vars.len(), 3);
        // The value-0-only looseness of x2 vanishes: all parameters are
        // needed, i.e. topological times (trivial).
        assert!(!a.has_nontrivial_requirement());
        assert_eq!(a.conditions.len(), 1);
        let c = &a.conditions[0];
        assert_eq!(c.per_input[1].value1, Time::new(0));
        assert_eq!(c.per_input[1].value0, Time::new(0));
    }

    #[test]
    fn parity_is_trivial() {
        let mut net = Network::new("parity");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let t = net.add_gate("t", GateKind::Xor, &[a, b]).unwrap();
        let z = net.add_gate("z", GateKind::Xor, &[t, c]).unwrap();
        net.mark_output(z);
        let an =
            approx1_required_times(&net, &UnitDelay, &[Time::new(2)], Approx1Options::default())
                .unwrap();
        assert_eq!(an.primes.len(), 1);
        assert!(!an.has_nontrivial_requirement());
    }

    #[test]
    fn conditions_are_safe_and_sound() {
        // Every reported condition, used as arrival times, must keep the
        // outputs stable by their required times (validated with the
        // independent functional-timing oracle).
        use xrta_chi::{EngineKind, FunctionalTiming};
        let net = fig4();
        let a =
            approx1_required_times(&net, &UnitDelay, &[Time::new(2)], Approx1Options::default())
                .unwrap();
        for cond in &a.conditions {
            // Use the stricter of the two value deadlines as a plain
            // arrival time (a conservative reading of the condition).
            let arrivals: Vec<Time> = cond.per_input.iter().map(|vt| vt.earliest()).collect();
            let ft = FunctionalTiming::new(&net, &UnitDelay, arrivals, EngineKind::Bdd);
            assert!(ft.meets(&[Time::new(2)]), "condition {cond} unsafe");
        }
    }

    #[test]
    fn memory_out_reported() {
        let r = approx1_required_times(
            &fig4(),
            &UnitDelay,
            &[Time::new(2)],
            Approx1Options {
                node_limit: 12,
                ..Approx1Options::default()
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn multi_output_conjunction() {
        // Two outputs share an input; conditions must respect both.
        let mut net = Network::new("mo");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let z1 = net.add_gate("z1", GateKind::And, &[a, b]).unwrap();
        let z2 = net.add_gate("z2", GateKind::Or, &[a, b]).unwrap();
        net.mark_output(z1);
        net.mark_output(z2);
        let an = approx1_required_times(
            &net,
            &UnitDelay,
            &[Time::new(1), Time::new(1)],
            Approx1Options::default(),
        )
        .unwrap();
        // AND forces value-1 stability of both inputs by 0; OR forces
        // value-0 stability of both by 0: everything needed → trivial.
        assert!(!an.has_nontrivial_requirement());
    }
}
