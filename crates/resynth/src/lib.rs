//! # xrta-resynth — required-time-driven AND-OR path restructuring
//!
//! The analyses in `xrta-core` prove that some deadlines are looser
//! than topology suggests; this crate *spends* that slack. Given a
//! network and a delay model it:
//!
//! 1. ranks primary outputs by **true slack** (false-path-aware
//!    required time minus true arrival),
//! 2. extracts the critical AND-OR chain feeding each near-critical
//!    output ([`chain`]),
//! 3. rebuilds the chain with the Brenner–Hermann dynamic program over
//!    prescribed leaf arrival times ([`restructure`]) — the carry-bit
//!    construction of arXiv:1710.08267 generalized to arbitrary
//!    generate/propagate segment chains,
//! 4. splices the result back ([`splice`]) and **proves** it: function
//!    preserved (exhaustive oracle ≤ 16 inputs, governed SAT miter
//!    beyond) and per-output true delay not regressed ([`verify`]).
//!
//! Every rewrite is governed by the session [`Budget`] and carries
//! provenance: `improved`, `no-gain` (validated but reverted), or
//! `reverted(reason)`. A rewrite that cannot be *proven* is never
//! kept, and a run that exhausts its budget reverts to the original
//! network wholesale — the output netlist is never silently wrong and
//! never half-optimized.

use std::collections::{BTreeMap, HashSet};

use xrta_chi::{EngineKind, FunctionalTiming};
use xrta_core::{cone, AnalysisError, Budget};
use xrta_network::{Network, NodeId};
use xrta_timing::{arrival_times, topological_delays, TableDelay, Time};

pub mod chain;
pub mod restructure;
pub mod splice;
pub mod verify;

pub use verify::{prove_equivalent, true_output_arrivals, EquivOutcome, MAX_EXHAUSTIVE_INPUTS};

/// A name-keyed delay assignment: `default` ticks for every node not
/// listed in `overrides`. Name-keyed so it survives the rebuilds a
/// rewrite performs (node ids change; names don't). Fresh gates
/// introduced by restructuring take the default delay.
#[derive(Clone, Debug)]
pub struct DelaySpec {
    /// Ticks for nodes without an override (and for fresh gates).
    pub default: i64,
    /// Per-node overrides by name.
    pub overrides: BTreeMap<String, i64>,
}

impl DelaySpec {
    /// The unit-delay model of the paper's experiments.
    pub fn unit() -> Self {
        DelaySpec {
            default: 1,
            overrides: BTreeMap::new(),
        }
    }

    /// Materializes the spec for a concrete network. Overrides naming
    /// nodes absent from `net` are ignored.
    pub fn model_for(&self, net: &Network) -> TableDelay {
        let mut model = TableDelay::with_default(net, self.default);
        for (name, &ticks) in &self.overrides {
            if let Some(id) = net.find(name) {
                model.set(id, ticks);
            }
        }
        model
    }
}

/// Tuning and governance for a resynthesis run.
#[derive(Clone)]
pub struct ResynthOptions {
    /// χ oracle engine for the functional-timing runs.
    pub engine: EngineKind,
    /// Resource budget; exhaustion reverts the whole run.
    pub budget: Budget,
    /// Required times at the primary outputs; `None` = topological
    /// delays (the paper's protocol).
    pub required: Option<Vec<Time>>,
    /// Outputs within this margin of the worst true slack are
    /// rewrite candidates.
    pub slack_margin: Time,
    /// Cap on candidate chains examined per pass.
    pub max_chains: usize,
    /// Cap on improvement passes (each pass re-ranks outputs).
    pub max_passes: usize,
    /// Cap on spine gates collapsed per chain.
    pub max_chain_len: usize,
}

impl Default for ResynthOptions {
    fn default() -> Self {
        ResynthOptions {
            engine: EngineKind::Sat,
            budget: Budget::unlimited(),
            required: None,
            slack_margin: Time::ZERO,
            max_chains: 64,
            max_passes: 8,
            max_chain_len: 256,
        }
    }
}

/// What happened to one candidate chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Rewrite kept: some output's true arrival strictly improved and
    /// none regressed.
    Improved {
        /// True arrival of the targeted output before the rewrite.
        before: Time,
        /// True arrival of the targeted output after the rewrite.
        after: Time,
    },
    /// Rewrite proven equivalent but no strict improvement; reverted.
    NoGain,
    /// Rewrite dropped without proof (or with a disproof); the reason.
    Reverted(String),
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Provenance::Improved { before, after } => write!(f, "improved {before} -> {after}"),
            Provenance::NoGain => write!(f, "no-gain"),
            Provenance::Reverted(reason) => write!(f, "reverted({reason})"),
        }
    }
}

/// One candidate chain's outcome, for the provenance report.
#[derive(Clone, Debug)]
pub struct ChainOutcome {
    /// Primary output the chain feeds.
    pub output: String,
    /// Chain root gate.
    pub root: String,
    /// What happened.
    pub provenance: Provenance,
}

/// Result of a resynthesis run.
#[derive(Clone, Debug)]
pub struct ResynthReport {
    /// The resulting network: rewritten when `changed`, otherwise a
    /// copy of the input (also on degradation — all or nothing).
    pub net: Network,
    /// Whether any rewrite was kept.
    pub changed: bool,
    /// Improvement passes run.
    pub passes: usize,
    /// Per-chain provenance, in attempt order.
    pub outcomes: Vec<ChainOutcome>,
    /// Worst per-output true arrival before.
    pub worst_before: Time,
    /// Worst per-output true arrival after (equals `worst_before` when
    /// unchanged or degraded).
    pub worst_after: Time,
    /// Equivalence proofs completed.
    pub equivalence_checks: usize,
    /// `Some(reason)` when the budget ran out: the run reverted to the
    /// original network wholesale.
    pub degraded: Option<AnalysisError>,
}

impl ResynthReport {
    /// Count of kept rewrites.
    pub fn improved(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.provenance, Provenance::Improved { .. }))
            .count()
    }

    /// Human-readable provenance table.
    pub fn render(&self) -> String {
        let mut out = String::from("output | root | provenance\n");
        for o in &self.outcomes {
            out.push_str(&format!(
                "{:<12} | {:<12} | {}\n",
                o.output, o.root, o.provenance
            ));
        }
        out.push_str(&format!(
            "worst true delay: {} -> {} | {} rewrite(s) kept | {} equivalence proof(s) | {} pass(es)\n",
            self.worst_before,
            self.worst_after,
            self.improved(),
            self.equivalence_checks,
            self.passes
        ));
        if let Some(e) = &self.degraded {
            out.push_str(&format!("degraded: {e}; original network preserved\n"));
        }
        out
    }
}

/// Internal: a budget error either aborts the whole run (deadline,
/// cancel, memory, capacity) or just this candidate (SAT conflicts).
fn is_fatal(e: &AnalysisError) -> bool {
    !matches!(e, AnalysisError::SatBudget)
}

/// Rewrites the critical AND-OR chains of `net` under `delays`,
/// keeping only proven, strictly-improving transformations. See the
/// crate docs for the discipline; see [`ResynthReport`] for what comes
/// back.
pub fn resynthesize(net: &Network, delays: &DelaySpec, opts: &ResynthOptions) -> ResynthReport {
    let mut outcomes: Vec<ChainOutcome> = Vec::new();
    let mut equivalence_checks = 0usize;
    let model0 = delays.model_for(net);
    let required: Vec<Time> = match &opts.required {
        Some(r) => {
            assert_eq!(r.len(), net.outputs().len(), "required-time length");
            r.clone()
        }
        None => topological_delays(net, &model0),
    };
    let degraded_report = |e: AnalysisError, outcomes: Vec<ChainOutcome>, checks: usize| {
        let worst = Time::NEG_INF;
        ResynthReport {
            net: net.clone(),
            changed: false,
            passes: 0,
            outcomes,
            worst_before: worst,
            worst_after: worst,
            equivalence_checks: checks,
            degraded: Some(e),
        }
    };

    let base_arr = match verify::true_output_arrivals(net, &model0, opts.engine, &opts.budget) {
        Ok(a) => a,
        Err(e) => return degraded_report(e, outcomes, equivalence_checks),
    };
    let worst_before = base_arr
        .iter()
        .copied()
        .fold(Time::NEG_INF, |a, b| a.max(b));

    let mut cur = net.clone();
    let mut cur_arr = base_arr.clone();
    let mut changed = false;
    let mut passes = 0usize;
    // Cone fingerprints already attempted without a kept rewrite:
    // identical cones yield identical decisions, so skip them.
    let mut attempted: HashSet<u128> = HashSet::new();
    let mut degraded: Option<AnalysisError> = None;

    'passes: for _ in 0..opts.max_passes {
        passes += 1;
        let model = delays.model_for(&cur);
        // Rank outputs by true slack; candidates sit within the margin
        // of the worst finite slack.
        let slacks: Vec<Time> = required
            .iter()
            .zip(&cur_arr)
            .map(|(&r, &a)| slack_of(r, a))
            .collect();
        let min_slack = match slacks.iter().copied().filter(|s| !s.is_inf()).min() {
            Some(s) => s,
            None => break,
        };
        let cutoff = if min_slack.is_finite() && opts.slack_margin.is_finite() {
            Time::new(min_slack.ticks().saturating_add(opts.slack_margin.ticks()))
        } else {
            min_slack
        };
        let mut candidates: Vec<usize> = (0..slacks.len())
            .filter(|&i| !slacks[i].is_inf() && slacks[i] <= cutoff)
            .collect();
        candidates.sort_by_key(|&i| (slacks[i], i));
        let slices = cone::slice_cones(&cur, &model, &required);
        let mut changed_this_pass = false;

        for (examined, &oi) in candidates.iter().enumerate() {
            if let Err(e) = opts.budget.check() {
                degraded = Some(e);
                break 'passes;
            }
            if examined >= opts.max_chains {
                break;
            }
            let fp = slices.get(oi).map(|s| s.fingerprint);
            if fp.is_some_and(|f| attempted.contains(&f)) {
                continue;
            }
            let mark = |attempted: &mut HashSet<u128>| {
                if let Some(f) = fp {
                    attempted.insert(f);
                }
            };
            let out_node = cur.outputs()[oi];
            let out_name = cur.node(out_node).name.clone();
            let zeros = vec![Time::ZERO; cur.inputs().len()];
            let topo_arr = arrival_times(&cur, &model, &zeros);
            let root = match chain::find_root(&cur, out_node, &topo_arr) {
                Some(r) => r,
                None => {
                    mark(&mut attempted);
                    continue;
                }
            };
            let root_name = cur.node(root).name.clone();
            let ch = match chain::extract(&cur, root, &topo_arr, opts.max_chain_len) {
                Some(c) => c,
                None => {
                    mark(&mut attempted);
                    continue;
                }
            };
            if ch.interior < 2 {
                // A single gate has no bracketing freedom.
                mark(&mut attempted);
                continue;
            }
            // Prescribed leaf times: true arrivals (the false-path-aware
            // values this whole exercise is about), topological when the
            // leaf's function is constant, and 0 for a constant node,
            // -INF both ways: inputs arrive at 0, so no leaf is earlier.
            let ft = FunctionalTiming::new(&cur, &model, zeros.clone(), opts.engine)
                .with_conflict_budget(opts.budget.sat_conflicts())
                .with_node_limit(opts.budget.node_limit())
                .with_mem_limit(opts.budget.mem_limit())
                .with_deadline(opts.budget.deadline())
                .with_cancel_flag(Some(opts.budget.cancel_flag()));
            let leaf_time = |id: NodeId| -> Result<i64, AnalysisError> {
                let t = ft.try_true_arrival(id).map_err(AnalysisError::from)?;
                Ok([t, topo_arr[id.index()]]
                    .into_iter()
                    .find(|t| t.is_finite())
                    .map_or(0, Time::ticks))
            };
            let mut failed: Option<AnalysisError> = None;
            let mut seg_leaves = Vec::with_capacity(ch.segments.len());
            for seg in &ch.segments {
                let mut g = Vec::with_capacity(seg.g.len());
                let mut p = Vec::with_capacity(seg.p.len());
                for &l in &seg.g {
                    match leaf_time(l) {
                        Ok(t) => g.push((l, t)),
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                for &l in &seg.p {
                    match leaf_time(l) {
                        Ok(t) => p.push((l, t)),
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                if failed.is_some() {
                    break;
                }
                seg_leaves.push(restructure::SegmentLeaves { g, p });
            }
            let tail_time = match failed {
                None => match leaf_time(ch.tail) {
                    Ok(t) => t,
                    Err(e) => {
                        failed = Some(e);
                        0
                    }
                },
                Some(_) => 0,
            };
            let root_true = match failed {
                None => match ft.try_true_arrival(root).map_err(AnalysisError::from) {
                    Ok(t) => t,
                    Err(e) => {
                        failed = Some(e);
                        Time::ZERO
                    }
                },
                Some(_) => Time::ZERO,
            };
            if let Some(e) = failed {
                if is_fatal(&e) {
                    degraded = Some(e);
                    break 'passes;
                }
                outcomes.push(ChainOutcome {
                    output: out_name,
                    root: root_name,
                    provenance: Provenance::Reverted(format!("leaf timing: {e}")),
                });
                mark(&mut attempted);
                continue;
            }
            drop(ft);
            let rebuilt =
                match restructure::restructure(&seg_leaves, (ch.tail, tail_time), delays.default) {
                    Some(r) => r,
                    None => {
                        mark(&mut attempted);
                        continue;
                    }
                };
            // Cheap pre-filter: the estimate must beat the root's
            // current true arrival before we pay for splice + proof.
            if !root_true.is_finite() || rebuilt.est_arrival >= root_true.ticks() {
                outcomes.push(ChainOutcome {
                    output: out_name,
                    root: root_name,
                    provenance: Provenance::NoGain,
                });
                mark(&mut attempted);
                continue;
            }
            let candidate = splice::splice_root(&cur, root, &rebuilt.expr);
            let cand_model = delays.model_for(&candidate);
            // Proof obligation 1: function preserved.
            equivalence_checks += 1;
            match verify::prove_equivalent(&cur, &candidate, &opts.budget) {
                EquivOutcome::Proven(_) => {}
                EquivOutcome::Refuted => {
                    outcomes.push(ChainOutcome {
                        output: out_name,
                        root: root_name,
                        provenance: Provenance::Reverted("equivalence refuted".to_string()),
                    });
                    mark(&mut attempted);
                    continue;
                }
                EquivOutcome::Unknown(e) => {
                    if is_fatal(&e) {
                        degraded = Some(e);
                        break 'passes;
                    }
                    outcomes.push(ChainOutcome {
                        output: out_name,
                        root: root_name,
                        provenance: Provenance::Reverted(format!("equivalence unproven: {e}")),
                    });
                    mark(&mut attempted);
                    continue;
                }
            }
            // Proof obligation 2: no output's true delay regresses.
            let cand_arr = match verify::true_output_arrivals(
                &candidate,
                &cand_model,
                opts.engine,
                &opts.budget,
            ) {
                Ok(a) => a,
                Err(e) => {
                    if is_fatal(&e) {
                        degraded = Some(e);
                        break 'passes;
                    }
                    outcomes.push(ChainOutcome {
                        output: out_name,
                        root: root_name,
                        provenance: Provenance::Reverted(format!("timing re-run: {e}")),
                    });
                    mark(&mut attempted);
                    continue;
                }
            };
            if cand_arr.iter().zip(&cur_arr).any(|(&a, &b)| a > b) {
                outcomes.push(ChainOutcome {
                    output: out_name,
                    root: root_name,
                    provenance: Provenance::Reverted("true delay regressed".to_string()),
                });
                mark(&mut attempted);
                continue;
            }
            if !cand_arr.iter().zip(&cur_arr).any(|(&a, &b)| a < b) {
                outcomes.push(ChainOutcome {
                    output: out_name,
                    root: root_name,
                    provenance: Provenance::NoGain,
                });
                mark(&mut attempted);
                continue;
            }
            outcomes.push(ChainOutcome {
                output: out_name,
                root: root_name,
                provenance: Provenance::Improved {
                    before: cur_arr[oi],
                    after: cand_arr[oi],
                },
            });
            cur = candidate;
            cur_arr = cand_arr;
            changed = true;
            changed_this_pass = true;
        }
        if !changed_this_pass {
            break;
        }
    }

    if let Some(e) = degraded {
        let mut report = degraded_report(e, outcomes, equivalence_checks);
        report.worst_before = worst_before;
        report.worst_after = worst_before;
        report.passes = passes;
        return report;
    }
    let worst_after = cur_arr.iter().copied().fold(Time::NEG_INF, |a, b| a.max(b));
    ResynthReport {
        net: if changed { cur } else { net.clone() },
        changed,
        passes,
        outcomes,
        worst_before,
        worst_after,
        equivalence_checks,
        degraded: None,
    }
}

fn slack_of(required: Time, arrival: Time) -> Time {
    if required.is_inf() || arrival.is_neg_inf() {
        Time::INF
    } else if required.is_neg_inf() || arrival.is_inf() {
        Time::NEG_INF
    } else {
        Time::new(required.ticks() - arrival.ticks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_circuits::{carry_skip_adder, ripple_carry_adder};
    use xrta_network::{check_equivalence, Equivalence};

    #[test]
    fn ripple_carry_chain_gets_strictly_faster() {
        let net = ripple_carry_adder(8).unwrap();
        let r = resynthesize(&net, &DelaySpec::unit(), &ResynthOptions::default());
        assert!(r.degraded.is_none());
        assert!(r.changed, "{}", r.render());
        assert!(
            r.worst_after < r.worst_before,
            "worst {} -> {}\n{}",
            r.worst_before,
            r.worst_after,
            r.render()
        );
        assert_eq!(check_equivalence(&net, &r.net), Equivalence::Equivalent);
    }

    #[test]
    fn carry_skip_adder_improves_without_regressing() {
        let net = carry_skip_adder(8, 4).unwrap();
        let model = DelaySpec::unit().model_for(&net);
        let before =
            verify::true_output_arrivals(&net, &model, EngineKind::Sat, &Budget::unlimited())
                .unwrap();
        let r = resynthesize(&net, &DelaySpec::unit(), &ResynthOptions::default());
        assert!(r.degraded.is_none());
        let after_model = DelaySpec::unit().model_for(&r.net);
        let after = verify::true_output_arrivals(
            &r.net,
            &after_model,
            EngineKind::Sat,
            &Budget::unlimited(),
        )
        .unwrap();
        for (b, a) in before.iter().zip(&after) {
            assert!(a <= b, "output regressed: {b} -> {a}\n{}", r.render());
        }
        assert_eq!(check_equivalence(&net, &r.net), Equivalence::Equivalent);
    }

    /// A constant leaf has no finite arrival, true or topological; the
    /// chain through it must still be rebuilt rather than panic.
    #[test]
    fn chain_with_a_constant_leaf_is_rebuilt() {
        use xrta_network::{GateKind, TruthTable};
        let mut net = Network::new("const_leaf");
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| net.add_input(n).unwrap());
        let k = net
            .add_table("k", TruthTable::constant(0, true), &[])
            .unwrap();
        let mut gate = |name, kind, fanins: &[NodeId]| net.add_gate(name, kind, fanins).unwrap();
        let x1 = gate("x1", GateKind::And, &[a, b]);
        let x2 = gate("x2", GateKind::Or, &[x1, c]);
        let x3 = gate("x3", GateKind::And, &[x2, k]);
        let x4 = gate("x4", GateKind::Or, &[x3, d]);
        net.mark_output(x4);
        let r = resynthesize(&net, &DelaySpec::unit(), &ResynthOptions::default());
        assert!(r.degraded.is_none());
        assert!(r.changed, "{}", r.render());
        assert_eq!(
            (r.worst_before, r.worst_after, r.equivalence_checks),
            (Time::new(4), Time::new(3), 1),
            "{}",
            r.render()
        );
        assert_eq!(check_equivalence(&net, &r.net), Equivalence::Equivalent);
    }

    #[test]
    fn second_run_is_a_fixpoint() {
        let net = ripple_carry_adder(6).unwrap();
        let opts = ResynthOptions::default();
        let r1 = resynthesize(&net, &DelaySpec::unit(), &opts);
        assert!(r1.changed);
        let r2 = resynthesize(&r1.net, &DelaySpec::unit(), &opts);
        assert!(!r2.changed, "{}", r2.render());
        assert_eq!(
            xrta_network::write_bench(&r1.net),
            xrta_network::write_bench(&r2.net)
        );
    }

    #[test]
    fn cancelled_budget_reverts_wholesale() {
        let net = ripple_carry_adder(8).unwrap();
        let budget = Budget::unlimited();
        budget.cancel();
        let opts = ResynthOptions {
            budget,
            ..ResynthOptions::default()
        };
        let r = resynthesize(&net, &DelaySpec::unit(), &opts);
        assert!(matches!(r.degraded, Some(AnalysisError::Interrupted)));
        assert!(!r.changed);
        assert_eq!(
            xrta_network::write_bench(&net),
            xrta_network::write_bench(&r.net)
        );
    }

    #[test]
    fn delay_scaling_commutes_with_resynthesis() {
        let net = ripple_carry_adder(6).unwrap();
        let unit = resynthesize(&net, &DelaySpec::unit(), &ResynthOptions::default());
        let scaled_spec = DelaySpec {
            default: 3,
            overrides: BTreeMap::new(),
        };
        let scaled = resynthesize(&net, &scaled_spec, &ResynthOptions::default());
        assert_eq!(
            xrta_network::write_bench(&unit.net),
            xrta_network::write_bench(&scaled.net),
            "uniform scaling must not change the chosen structure"
        );
        assert_eq!(scaled.worst_after.ticks(), unit.worst_after.ticks() * 3);
    }
}
