//! SAT-based χ analysis (the engine of reference [9] in the paper).
//!
//! Instead of building χ functions as BDDs, each `χ_{n,v}^t` becomes one
//! literal of an incrementally grown CNF ("the χ network"); the question
//! *"is output `z` stable by `t` for every input vector?"* becomes the
//! unsatisfiability of `¬χ̃_z^t`. One [`Solver`] instance persists across
//! queries, so later queries reuse both the encoded χ nodes and the
//! learnt clauses.
//!
//! ## The topological clamp
//!
//! Construction computes every node's topological arrival `arr(n)` once,
//! under the engine's input arrivals ([`xrta_timing::arrival_times`]).
//! At any `t ≥ arr(n)` the timed recursion is not expanded: `χ_{n,1}^t`
//! is one memoised Tseitin literal `f_n` of the node's static function,
//! `χ_{n,0}^t` is `¬f_n`, and "settled by `t`" is the constant true.
//!
//! The clamp is exact. By induction, every fanin `m` of `n` has
//! `t − d_n ≥ arr(m)`, so its χ pair is `(f_m, ¬f_m)`. The primes of `n`
//! cover its onset and the primes of its complement cover its offset,
//! so the recursion's sums of products are `f_n` and `¬f_n`. Verdicts
//! cannot change; only the CNF a query needs shrinks. Only what is
//! still in flight at `t` stays timed, such as the fanout cone of a
//! late input, and "settled by the topological arrival" is a constant
//! instead of a χ¹ ∨ χ⁰ miter over the whole cone.
//!
//! A [`ChiSatEngine::new_varying`] engine counts its varying input at
//! the **latest** of its values: the clamp must hold under every
//! variant, and below that time the selector-guarded leaf stays.
//!
//! The AND/OR gate encoders fold constant operands, so the false
//! literal of a not-yet-arrived leaf drops its product term instead of
//! minting a variable and clauses for it.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use xrta_bdd::FxHashMap;
use xrta_network::{Network, NodeId};
use xrta_sat::{Lit, SolveResult, Solver, StopReason};
use xrta_timing::{arrival_times, DelayModel, Time};

/// Incremental SAT-based stability checker for one network under fixed
/// input arrival times — optionally with **one input's arrival varying**
/// over a set of candidate values (see [`ChiSatEngine::new_varying`]),
/// which lets a batch of lattice-climb probes share a single CNF and
/// its learnt clauses instead of rebuilding the χ network per probe.
pub struct ChiSatEngine {
    solver: Solver,
    /// One free variable per primary input (the input vector).
    input_lits: Vec<Lit>,
    /// Topological arrival per node, the clamp threshold.
    topo: Vec<Time>,
    delays: Vec<i64>,
    input_pos: Vec<Option<usize>>,
    chi_lit: FxHashMap<(u32, bool, Time), Lit>,
    /// Memoized static-function literals `f_n`, per node.
    static_lit: Vec<Option<Lit>>,
    /// Memoized "settled by t" literals, keyed by `(node, t)`.
    settled: FxHashMap<(u32, Time), Lit>,
    /// Bytes currently restated on the process meter's `ChiMemo`
    /// account for the two memo tables (the CNF itself is accounted by
    /// the solver).
    mem_charged: u64,
    const_true: Lit,
    varying: Option<Varying>,
}

/// Batch configuration: input `pos`'s arrival time takes `values[k]`
/// under variant `k`, selected by assuming `selectors[k]` (and the
/// negation of every other selector).
struct Varying {
    pos: usize,
    values: Vec<Time>,
    selectors: Vec<Lit>,
}

/// Outcome of a budgeted stability query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stability {
    /// Provably settled by the queried time for every input vector.
    Stable,
    /// A witness input vector keeps the node unsettled.
    Unstable,
    /// The conflict budget ran out before a verdict.
    Unknown,
}

impl ChiSatEngine {
    /// Creates an engine for `net` with the given per-input arrival
    /// times (aligned with `net.inputs()`).
    ///
    /// # Panics
    ///
    /// Panics if `arrivals.len() != net.inputs().len()`.
    pub fn new<D: DelayModel>(net: &Network, model: &D, arrivals: Vec<Time>) -> Self {
        assert_eq!(arrivals.len(), net.inputs().len());
        let mut solver = Solver::new();
        let input_lits: Vec<Lit> = net
            .inputs()
            .iter()
            .map(|_| solver.new_var().positive())
            .collect();
        let const_true = solver.new_var().positive();
        solver.add_clause([const_true]);
        let delays = net
            .node_ids()
            .map(|id| {
                if net.node(id).is_input() {
                    0
                } else {
                    model.delay(net, id)
                }
            })
            .collect();
        let mut input_pos = vec![None; net.node_count()];
        for (i, &id) in net.inputs().iter().enumerate() {
            input_pos[id.index()] = Some(i);
        }
        ChiSatEngine {
            solver,
            input_lits,
            topo: arrival_times(net, model, &arrivals),
            delays,
            input_pos,
            chi_lit: FxHashMap::default(),
            static_lit: vec![None; net.node_count()],
            settled: FxHashMap::default(),
            mem_charged: 0,
            const_true,
            varying: None,
        }
    }

    /// Restates the memo tables' capacity-based footprint on the
    /// process-wide meter's `ChiMemo` account; called amortized from
    /// the insert paths.
    fn restate_memo(&mut self) {
        const CHI_ENTRY: usize = std::mem::size_of::<((u32, bool, Time), Lit)>() + 1;
        const SETTLED_ENTRY: usize = std::mem::size_of::<((u32, Time), Lit)>() + 1;
        let now =
            (self.chi_lit.capacity() * CHI_ENTRY + self.settled.capacity() * SETTLED_ENTRY) as u64;
        xrta_robust::mem::global().restate(
            xrta_robust::mem::Subsystem::ChiMemo,
            &mut self.mem_charged,
            now,
        );
    }

    /// Creates a **batch** engine: like [`ChiSatEngine::new`], but input
    /// position `pos`'s arrival time is left open over `values` — one
    /// selector literal per candidate value guards the leaf clauses, so
    /// variant `k` (arrival = `values[k]`) is chosen per query by
    /// assumptions in [`ChiSatEngine::check_stable_variant`]. The
    /// `arrivals[pos]` entry is ignored: the clamp counts the input at
    /// the latest of `values`. Everything the solver encodes
    /// or learns is shared across all variants: guarded clauses are
    /// satisfied outright when their selector is negated, so learnt
    /// clauses remain implied by the CNF and stay sound for every
    /// variant.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals.len() != net.inputs().len()`, `pos` is out of
    /// range, or `values` is empty.
    pub fn new_varying<D: DelayModel>(
        net: &Network,
        model: &D,
        mut arrivals: Vec<Time>,
        pos: usize,
        values: Vec<Time>,
    ) -> Self {
        assert!(pos < net.inputs().len(), "varying input out of range");
        let latest = values.iter().copied().max();
        arrivals[pos] = latest.expect("need at least one arrival variant");
        let mut eng = ChiSatEngine::new(net, model, arrivals);
        let selectors = values
            .iter()
            .map(|_| eng.solver.new_var().positive())
            .collect();
        eng.varying = Some(Varying {
            pos,
            values,
            selectors,
        });
        eng
    }

    /// The literal encoding `χ_{node,value}^t`, building clauses on
    /// demand. From the node's topological arrival on, this is its
    /// static-function literal (negated for value 0).
    pub fn chi_lit(&mut self, net: &Network, node: NodeId, value: bool, t: Time) -> Lit {
        if t >= self.topo[node.index()] {
            let f = self.static_lit(net, node);
            return if value { f } else { !f };
        }
        let key = (node.index() as u32, value, t);
        if let Some(&l) = self.chi_lit.get(&key) {
            return l;
        }
        let lit = match self.input_pos[node.index()] {
            Some(pos) if self.varying.as_ref().is_some_and(|v| v.pos == pos) => {
                self.varying_leaf(pos, value, t)
            }
            // A fixed input before its arrival: settled at neither value.
            Some(_) => !self.const_true,
            None => {
                let t_in = t - self.delays[node.index()];
                self.cover_lit(net, node, value, t_in)
            }
        };
        self.chi_lit.insert(key, lit);
        if self.chi_lit.len().is_multiple_of(1024) {
            self.restate_memo();
        }
        lit
    }

    /// The memoized Tseitin literal `f_n` of `node`'s static function:
    /// the input variable at a primary input, else the gate's onset
    /// cover at its topological arrival, where every fanin has clamped
    /// to its own static literal.
    fn static_lit(&mut self, net: &Network, node: NodeId) -> Lit {
        if let Some(l) = self.static_lit[node.index()] {
            return l;
        }
        let l = match self.input_pos[node.index()] {
            Some(pos) => self.input_lits[pos],
            None => {
                let t_in = self.topo[node.index()] - self.delays[node.index()];
                self.cover_lit(net, node, true, t_in)
            }
        };
        self.static_lit[node.index()] = Some(l);
        l
    }

    /// The gate at `node` as a sum over its primes for `value` (its
    /// complement's primes for 0), each a product of fanin χ literals
    /// at `t_in`.
    fn cover_lit(&mut self, net: &Network, node: NodeId, value: bool, t_in: Time) -> Lit {
        let n = net.node(node);
        let primes = if value {
            n.primes()
        } else {
            n.primes_of_complement()
        };
        let mut terms: Vec<Lit> = Vec::with_capacity(primes.len());
        for cube in primes {
            let mut conj: Vec<Lit> = Vec::new();
            for (i, &fanin) in n.fanins.iter().enumerate() {
                let bit = 1u32 << i;
                if cube.pos & bit != 0 {
                    conj.push(self.chi_lit(net, fanin, true, t_in));
                } else if cube.neg & bit != 0 {
                    conj.push(self.chi_lit(net, fanin, false, t_in));
                }
            }
            terms.push(self.and_lit(&conj));
        }
        self.or_lit(&terms)
    }

    /// The leaf literal for the varying input under selector guards:
    /// under variant `k`, if `t ≥ values[k]` the leaf equals the input
    /// variable (with `value`'s sign), otherwise it is forced false
    /// ("not yet arrived"). Each clause carries `¬selectorₖ`, so a
    /// variant's clauses are inert unless that variant is assumed.
    fn varying_leaf(&mut self, pos: usize, value: bool, t: Time) -> Lit {
        let v = self.varying.as_ref().expect("varying engine");
        let selectors = v.selectors.clone();
        let values = v.values.clone();
        let base = self.input_lits[pos];
        let signal = if value { base } else { !base };
        let leaf = self.solver.new_var().positive();
        for (&sel, &arrival) in selectors.iter().zip(&values) {
            if t >= arrival {
                self.solver.add_clause([!sel, !leaf, signal]);
                self.solver.add_clause([!sel, leaf, !signal]);
            } else {
                self.solver.add_clause([!sel, !leaf]);
            }
        }
        leaf
    }

    /// The memoized "`node` settled by `t`" literal (`χ¹ ∨ χ⁰`),
    /// constant true from the node's topological arrival on.
    fn settled_lit(&mut self, net: &Network, node: NodeId, t: Time) -> Lit {
        if t >= self.topo[node.index()] {
            return self.const_true;
        }
        let key = (node.index() as u32, t);
        if let Some(&l) = self.settled.get(&key) {
            return l;
        }
        let one = self.chi_lit(net, node, true, t);
        let zero = self.chi_lit(net, node, false, t);
        let l = self.or_lit(&[one, zero]);
        self.settled.insert(key, l);
        if self.settled.len().is_multiple_of(1024) {
            self.restate_memo();
        }
        l
    }

    /// Tseitin AND of `lits`, folding constant operands.
    fn and_lit(&mut self, lits: &[Lit]) -> Lit {
        let Some(lits) = fold(lits, self.const_true) else {
            return !self.const_true;
        };
        match lits.len() {
            0 => self.const_true,
            1 => lits[0],
            _ => {
                let out = self.solver.new_var().positive();
                for &l in &lits {
                    self.solver.add_clause([!out, l]);
                }
                let mut clause: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                clause.push(out);
                self.solver.add_clause(clause);
                out
            }
        }
    }

    /// Tseitin OR of `lits`, folding constant operands.
    fn or_lit(&mut self, lits: &[Lit]) -> Lit {
        let Some(mut lits) = fold(lits, !self.const_true) else {
            return self.const_true;
        };
        match lits.len() {
            0 => !self.const_true,
            1 => lits[0],
            _ => {
                let out = self.solver.new_var().positive();
                for &l in &lits {
                    self.solver.add_clause([!l, out]);
                }
                lits.push(!out);
                self.solver.add_clause(lits);
                out
            }
        }
    }

    /// Limits the solver's conflicts per stability query; queries that
    /// exhaust the budget report [`Stability::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.solver.set_conflict_budget(budget);
    }

    /// Limits unit propagations per stability query (a hard wall-clock
    /// bound on huge χ networks); exhausted queries report
    /// [`Stability::Unknown`].
    pub fn set_propagation_budget(&mut self, budget: Option<u64>) {
        self.solver.set_propagation_budget(budget);
    }

    /// Sets a wall-clock deadline for stability queries (`None` for
    /// unlimited); queries interrupted mid-search report
    /// [`Stability::Unknown`] with [`StopReason::Deadline`].
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.solver.set_deadline(deadline);
    }

    /// Installs a cooperative cancel flag polled during stability
    /// queries; raised flags yield [`Stability::Unknown`] with
    /// [`StopReason::Cancelled`].
    pub fn set_cancel_flag(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.solver.set_cancel_flag(cancel);
    }

    /// Arms a byte-accurate memory limit on the underlying solver
    /// (`None` to disarm); hard pressure mid-query reads as
    /// [`Stability::Unknown`] with [`xrta_sat::StopReason::MemoryOut`].
    pub fn set_mem_limit(&mut self, limit: Option<u64>) {
        self.solver.set_mem_limit(limit);
    }

    /// Why the most recent query reported [`Stability::Unknown`];
    /// `None` after a conclusive answer.
    pub fn last_stop_reason(&self) -> Option<StopReason> {
        self.solver.last_stop_reason()
    }

    /// Is `node` stable (settled to its final value) by `t` for **every**
    /// input vector? One UNSAT query on `¬χ̃`.
    pub fn stable_by(&mut self, net: &Network, node: NodeId, t: Time) -> bool {
        self.check_stable(net, node, t) == Stability::Stable
    }

    /// Budget-aware form of [`ChiSatEngine::stable_by`].
    pub fn check_stable(&mut self, net: &Network, node: NodeId, t: Time) -> Stability {
        let settled = self.settled_lit(net, node, t);
        match self.solver.solve_with_assumptions(&[!settled]) {
            SolveResult::Unsat => Stability::Stable,
            SolveResult::Sat => Stability::Unstable,
            SolveResult::Unknown => Stability::Unknown,
        }
    }

    /// Stability of `node` by `t` under arrival variant `k` of a
    /// [`ChiSatEngine::new_varying`] engine. The query assumes `k`'s
    /// selector **and the negation of every other selector** — leaving
    /// a foreign selector free would let the solver activate another
    /// variant's clauses and wrongly prove instability unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if the engine was not built with
    /// [`ChiSatEngine::new_varying`] or `k` is out of range.
    pub fn check_stable_variant(
        &mut self,
        net: &Network,
        node: NodeId,
        t: Time,
        k: usize,
    ) -> Stability {
        let settled = self.settled_lit(net, node, t);
        let selectors = self
            .varying
            .as_ref()
            .expect("engine built with new_varying")
            .selectors
            .clone();
        assert!(k < selectors.len(), "variant out of range");
        let mut assumptions: Vec<Lit> = selectors
            .iter()
            .enumerate()
            .map(|(j, &s)| if j == k { s } else { !s })
            .collect();
        assumptions.push(!settled);
        match self.solver.solve_with_assumptions(&assumptions) {
            SolveResult::Unsat => Stability::Stable,
            SolveResult::Sat => Stability::Unstable,
            SolveResult::Unknown => Stability::Unknown,
        }
    }

    /// A witness input vector for which `node` is *not* settled by `t`,
    /// if any. An inconclusive search (conflict/propagation budget,
    /// deadline, or cancellation) reports the exhausted resource as
    /// `Err` rather than wrongly claiming stability.
    pub fn instability_witness(
        &mut self,
        net: &Network,
        node: NodeId,
        t: Time,
    ) -> Result<Option<Vec<bool>>, StopReason> {
        let settled = self.settled_lit(net, node, t);
        match self.solver.solve_with_assumptions(&[!settled]) {
            SolveResult::Unsat => Ok(None),
            SolveResult::Sat => Ok(Some(
                self.input_lits
                    .iter()
                    .map(|&l| self.solver.model_lit(l).unwrap_or(false))
                    .collect(),
            )),
            SolveResult::Unknown => Err(self
                .solver
                .last_stop_reason()
                .unwrap_or(StopReason::Conflicts)),
        }
    }

    /// Accumulated solver statistics.
    pub fn stats(&self) -> xrta_sat::SolverStats {
        self.solver.stats()
    }
}

/// `lits` without the constant `unit` operands, or `None` when one is
/// the absorbing constant `¬unit`.
fn fold(lits: &[Lit], unit: Lit) -> Option<Vec<Lit>> {
    if lits.contains(&!unit) {
        return None;
    }
    Some(lits.iter().copied().filter(|&l| l != unit).collect())
}

impl Drop for ChiSatEngine {
    fn drop(&mut self) {
        xrta_robust::mem::global().release(xrta_robust::mem::Subsystem::ChiMemo, self.mem_charged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineKind, FunctionalTiming};
    use xrta_circuits::{random_circuit, RandomCircuitSpec};
    use xrta_network::GateKind;
    use xrta_rng::Rng;
    use xrta_timing::{topological_delays, TableDelay, UnitDelay};

    #[test]
    fn stability_thresholds_match_topology_without_false_paths() {
        // A balanced XOR tree has no false paths: stable exactly at depth.
        let mut net = Network::new("t");
        let ins: Vec<_> = (0..4)
            .map(|i| net.add_input(format!("i{i}")).unwrap())
            .collect();
        let a = net.add_gate("a", GateKind::Xor, &[ins[0], ins[1]]).unwrap();
        let b = net.add_gate("b", GateKind::Xor, &[ins[2], ins[3]]).unwrap();
        let z = net.add_gate("z", GateKind::Xor, &[a, b]).unwrap();
        net.mark_output(z);
        let mut eng = ChiSatEngine::new(&net, &UnitDelay, vec![Time::ZERO; 4]);
        assert!(!eng.stable_by(&net, z, Time::new(1)));
        assert!(!eng.stable_by(&net, z, Time::new(1)));
        assert!(eng.stable_by(&net, z, Time::new(2)));
        assert!(eng.stable_by(&net, z, Time::new(7)));
    }

    #[test]
    fn witness_is_actually_unstable() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let g = net.add_gate("g", GateKind::And, &[a, b]).unwrap();
        net.mark_output(g);
        let mut eng = ChiSatEngine::new(&net, &UnitDelay, vec![Time::ZERO; 2]);
        // At t=0 nothing has propagated; any vector is a witness.
        assert!(eng
            .instability_witness(&net, g, Time::ZERO)
            .unwrap()
            .is_some());
        assert!(eng
            .instability_witness(&net, g, Time::new(1))
            .unwrap()
            .is_none());
    }

    #[test]
    fn exhausted_witness_budget_reports_stop_reason_not_panic() {
        // A circuit hard enough that zero propagations settle nothing.
        let mut net = Network::new("t");
        let ins: Vec<_> = (0..6)
            .map(|i| net.add_input(format!("i{i}")).unwrap())
            .collect();
        let mut acc = ins[0];
        for (k, &i) in ins.iter().enumerate().skip(1) {
            acc = net
                .add_gate(format!("x{k}"), GateKind::Xor, &[acc, i])
                .unwrap();
        }
        net.mark_output(acc);
        let mut eng = ChiSatEngine::new(&net, &UnitDelay, vec![Time::ZERO; 6]);
        eng.set_propagation_budget(Some(0));
        let r = eng.instability_witness(&net, acc, Time::new(3));
        assert_eq!(r, Err(xrta_sat::StopReason::Propagations));
    }

    #[test]
    fn varying_variants_match_fresh_engines() {
        // OR(a, b) with b's arrival varying: the engine must reproduce,
        // per variant, exactly what a fresh fixed-arrival engine says.
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let g = net.add_gate("g", GateKind::Or, &[a, b]).unwrap();
        net.mark_output(g);
        let values: Vec<Time> = [0i64, 3, 5].into_iter().map(Time::new).collect();
        let mut batch =
            ChiSatEngine::new_varying(&net, &UnitDelay, vec![Time::ZERO; 2], 1, values.clone());
        // Interleave variants and times so learnt clauses from one
        // variant's queries are live during every other variant's — the
        // selector guards must keep them from leaking verdicts.
        for t in 0..8i64 {
            for (k, &arr) in values.iter().enumerate() {
                let mut fresh = ChiSatEngine::new(&net, &UnitDelay, vec![Time::ZERO, arr]);
                let want = fresh.check_stable(&net, g, Time::new(t));
                let got = batch.check_stable_variant(&net, g, Time::new(t), k);
                assert_eq!(got, want, "variant {k} (arrival {arr}) at t={t}");
            }
        }
    }

    #[test]
    fn varying_engine_repeated_queries_are_stable() {
        // Re-asking the same variant must not be perturbed by solver
        // state accumulated in between (idempotence of verdicts).
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let x = net.add_gate("x", GateKind::Xor, &[a, b]).unwrap();
        net.mark_output(x);
        let values: Vec<Time> = [0i64, 2].into_iter().map(Time::new).collect();
        let mut eng = ChiSatEngine::new_varying(&net, &UnitDelay, vec![Time::ZERO; 2], 0, values);
        let first = eng.check_stable_variant(&net, x, Time::new(1), 0);
        let _ = eng.check_stable_variant(&net, x, Time::new(1), 1);
        let _ = eng.check_stable_variant(&net, x, Time::new(3), 1);
        assert_eq!(eng.check_stable_variant(&net, x, Time::new(1), 0), first);
    }

    #[test]
    fn respects_late_arrivals() {
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let g = net.add_gate("g", GateKind::Or, &[a, b]).unwrap();
        net.mark_output(g);
        // b arrives at 3: the OR can still settle to 1 early via a=1,
        // but full stability needs t ≥ 4.
        let mut eng = ChiSatEngine::new(&net, &UnitDelay, vec![Time::ZERO, Time::new(3)]);
        assert!(!eng.stable_by(&net, g, Time::new(1)));
        assert!(!eng.stable_by(&net, g, Time::new(3)));
        assert!(eng.stable_by(&net, g, Time::new(4)));
    }

    #[test]
    fn clamp_proves_every_c6288_output_settled_at_its_topological_arrival() {
        // At its topological arrival an output is settled for every
        // input vector. Unclamped, that query is a χ¹ ∨ χ⁰ miter over
        // the whole 16×16 multiplier; clamped, it is a constant, so
        // even zero conflict and propagation budgets prove it.
        let row = xrta_circuits::iscas_rows()
            .into_iter()
            .find(|r| r.name == "C6288")
            .expect("Table 2 has a C6288 row");
        let net = row.build();
        let mut eng = ChiSatEngine::new(&net, &UnitDelay, vec![Time::ZERO; net.inputs().len()]);
        eng.set_conflict_budget(Some(0));
        eng.set_propagation_budget(Some(0));
        let topo = topological_delays(&net, &UnitDelay);
        for (&out, &arrival) in net.outputs().iter().zip(&topo) {
            assert_eq!(
                eng.check_stable(&net, out, arrival),
                Stability::Stable,
                "output {out:?} at its topological arrival {arrival}"
            );
        }
    }

    /// A seeded random circuit plus a constant node feeding one extra
    /// output, 0–2 tick gate delays, and input arrivals drawn from
    /// −2…2 and ∞.
    fn differential_case(seed: u64) -> (Network, TableDelay, Vec<Time>) {
        let mut net = random_circuit(RandomCircuitSpec {
            inputs: 5,
            gates: 18,
            outputs: 3,
            seed,
            ..RandomCircuitSpec::default()
        })
        .expect("valid random circuit");
        let mut rng = Rng::seed_from_u64(seed);
        let kind = if rng.bool() {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        let k = net.add_gate("k", kind, &[]).unwrap();
        let gate = *rng.pick(&[GateKind::And, GateKind::Or, GateKind::Xor]);
        let z = net.add_gate("kz", gate, &[k, net.outputs()[0]]).unwrap();
        net.mark_output(z);
        let mut delays = TableDelay::with_default(&net, 1);
        for id in net.node_ids() {
            delays.set(id, rng.range_i64(0, 2));
        }
        let arrivals = net
            .inputs()
            .iter()
            .map(|_| match rng.range_i64(-2, 3) {
                3 => Time::INF,
                t => Time::new(t),
            })
            .collect();
        (net, delays, arrivals)
    }

    /// Query times from below the earliest arrival (−2) to one past the
    /// latest finite topological arrival any arrivals of a case allow
    /// (every input at 2), then ∞.
    fn query_times(net: &Network, delays: &TableDelay) -> Vec<Time> {
        let latest = arrival_times(net, delays, &vec![Time::new(2); net.inputs().len()])
            .into_iter()
            .filter(|t| t.is_finite())
            .max()
            .map_or(0, Time::ticks);
        (-3..=latest + 1)
            .map(Time::new)
            .chain([Time::INF])
            .collect()
    }

    #[test]
    fn clamped_verdicts_match_the_unclamped_bdd_reference() {
        // The BDD engine expands the χ recursion at every time with no
        // clamp, so it is the reference: one clamped SAT engine per
        // circuit (learnt clauses carried across queries) must give
        // its verdict for every node at every time.
        let verdict = |stable: bool| {
            if stable {
                Stability::Stable
            } else {
                Stability::Unstable
            }
        };
        let mut queries = [0usize; 2];
        for seed in 0..32u64 {
            let (net, delays, arrivals) = differential_case(seed);
            let times = query_times(&net, &delays);
            let reference = FunctionalTiming::new(&net, &delays, arrivals.clone(), EngineKind::Bdd);
            let mut eng = ChiSatEngine::new(&net, &delays, arrivals.clone());
            for id in net.node_ids() {
                for &t in &times {
                    let want = verdict(reference.stable_by(id, t));
                    let got = eng.check_stable(&net, id, t);
                    assert_eq!(got, want, "seed {seed}, {id:?} at {t}");
                    queries[0] += 1;
                }
            }
            // A varying engine clamps with its input at the latest
            // value, so each variant must still match a fresh reference
            // built with that variant's arrival. Only the input's
            // fanout depends on the variant.
            let pos = seed as usize % net.inputs().len();
            let mut fanout = vec![false; net.node_count()];
            for id in net.node_ids() {
                fanout[id.index()] = id == net.inputs()[pos]
                    || net.node(id).fanins.iter().any(|f| fanout[f.index()]);
            }
            let values = vec![Time::new(-1), Time::new(1), Time::INF];
            let references: Vec<_> = values
                .iter()
                .map(|&v| {
                    let mut arr = arrivals.clone();
                    arr[pos] = v;
                    FunctionalTiming::new(&net, &delays, arr, EngineKind::Bdd)
                })
                .collect();
            let mut batch = ChiSatEngine::new_varying(&net, &delays, arrivals, pos, values);
            for id in net.node_ids().filter(|id| fanout[id.index()]) {
                for &t in &times {
                    for (k, reference) in references.iter().enumerate() {
                        let want = verdict(reference.stable_by(id, t));
                        let got = batch.check_stable_variant(&net, id, t, k);
                        assert_eq!(got, want, "seed {seed}, {id:?} at {t}, variant {k}");
                        queries[1] += 1;
                    }
                }
            }
        }
        assert!(queries[0] > 5_000 && queries[1] > 10_000, "{queries:?}");
    }
}
