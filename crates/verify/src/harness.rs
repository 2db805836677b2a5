//! Differential harness: every engine against the exhaustive oracle.
//!
//! [`check_case`] runs one netlist through the whole analysis matrix —
//! functional timing (BDD and SAT χ-backends), `approx2` (both
//! backends, governed and ungoverned), `approx1`
//! and `exact` — and validates each answer against the brute-force
//! oracle of [`crate::oracle`], plus the paper's ordering lattice
//!
//! ```text
//! exact ⊒ approx1 ⊒ approx2 ⊒ topological
//! ```
//!
//! Cross-rung dominance is compared *semantically*: deadlines are first
//! rounded to the planned χ time grid ([`crate::oracle::canon`]), since
//! two numerically different deadlines with no χ time point between
//! them constrain nothing differently.
//!
//! [`fuzz`] is the per-case step that `fuzz::drive` runs over
//! seeded random DAGs: check, shrink any failure with
//! [`mod@crate::shrink`], and name the reduction's corpus entry.

use std::time::Duration;

use xrta_chi::{EngineKind, FunctionalTiming};
use xrta_circuits::{random_circuit, RandomCircuitSpec};
use xrta_core::{
    approx1_required_times_governed, approx2_required_times_governed,
    exact_required_times_governed, plan_leaves, Approx1Options, Approx2Options, Budget,
    ExactOptions, LeafPlan, RequiredTimeTuple,
};
use xrta_network::Network;
use xrta_rng::{mix64, Rng};
use xrta_timing::{required_times, Time, UnitDelay};

use crate::corpus::{load_dir, CorpusEntry};
use crate::fuzz::{drive, Case, FuzzOptions, FuzzReport};
use crate::oracle::{
    condition_safe, condition_safe_at, exhaustive_true_arrivals, maximal_safe_at, minterm,
    point_safe, semantically_ge, MAX_ORACLE_INPUTS,
};
use crate::shrink::{shrink, TestCase};

/// An injected defect, applied to an engine's answer *before* the
/// checks run — used to prove the harness actually catches unsound
/// results (and to exercise the shrinker on demand).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Add the all-`∞` point to `approx2`'s maximal set, as if a
    /// dominance-cache verdict had flipped an unsafe point to safe.
    LoosenApprox2,
    /// Loosen `approx1`'s first condition to all-`∞`.
    LoosenApprox1,
}

/// Knobs for [`check_case`].
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Run the full engine matrix (BDD backend, governed variants)
    /// rather than just the SAT baseline.
    pub matrix: bool,
    /// BDD node budget for the exact rung (capacity overruns skip the
    /// exact checks rather than failing them).
    pub exact_node_limit: usize,
    /// BDD node budget for the approx1 rung.
    pub approx1_node_limit: usize,
    /// Per-minterm grid ceiling for the ground-truth comparison.
    pub grid_limit: usize,
    /// Extra random arrival vectors for the true-arrival differential.
    pub probes: usize,
    /// Seed for the probe vectors.
    pub probe_seed: u64,
    /// Memory budget applied to the governed matrix config. A generous
    /// limit exercises the meter plumbing without changing answers; a
    /// tight one steers the governed run into `MemoryOut`, which the
    /// harness reports as a run failure, not a soundness bug.
    pub mem_limit: Option<u64>,
    /// Injected defect, if any.
    pub fault: Option<Fault>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            matrix: true,
            exact_node_limit: 1 << 20,
            approx1_node_limit: 1 << 20,
            grid_limit: 2048,
            probes: 2,
            probe_seed: 0x5EED,
            mem_limit: None,
            fault: None,
        }
    }
}

/// One violated invariant.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which check fired (stable, kebab-case).
    pub check: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.check, self.detail)
    }
}

fn fail(out: &mut Vec<Failure>, check: &'static str, detail: String) {
    out.push(Failure { check, detail });
}

fn fmt_times(ts: &[Time]) -> String {
    let body: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
    format!("({})", body.join(", "))
}

/// Runs the full differential check matrix on one test case.
///
/// Returns every violated invariant (empty = all checks passed).
/// Cases with more than [`MAX_ORACLE_INPUTS`] inputs, or with no
/// inputs or outputs, are vacuously clean — the oracle cannot weigh in.
pub fn check_case(case: &TestCase, opts: &CheckOptions) -> Vec<Failure> {
    let net = &case.net;
    let req = &case.req;
    let mut out = Vec::new();
    let n = net.inputs().len();
    if n == 0 || n > MAX_ORACLE_INPUTS || net.outputs().is_empty() {
        return out;
    }
    assert_eq!(req.len(), net.outputs().len(), "required-time width");
    let model = UnitDelay;
    let plan = plan_leaves(net, &model, req, |_| true);
    let all_req = required_times(net, &model, req);
    let r_bottom: Vec<Time> = net.inputs().iter().map(|i| all_req[i.index()]).collect();

    // §3 rung: the classical topological requirement must be safe.
    if !point_safe(net, &model, req, &r_bottom) {
        fail(
            &mut out,
            "topological-soundness",
            format!("r⊥ {} violates the oracle", fmt_times(&r_bottom)),
        );
    }

    check_true_arrivals(&mut out, net, opts);
    let points = check_approx2(&mut out, net, req, &r_bottom, opts);
    let conditions = check_approx1(&mut out, net, req, &plan, &r_bottom, &points, opts);
    check_exact(&mut out, net, req, &plan, &conditions, opts);
    out
}

/// Functional timing (both χ-backends) vs the exhaustive oracle, on
/// zero arrivals plus a few random probe vectors.
fn check_true_arrivals(out: &mut Vec<Failure>, net: &Network, opts: &CheckOptions) {
    let n = net.inputs().len();
    let mut rng = Rng::seed_from_u64(opts.probe_seed);
    let mut probes: Vec<Vec<Time>> = vec![vec![Time::ZERO; n]];
    for _ in 0..opts.probes {
        probes.push(
            (0..n)
                .map(|_| {
                    if rng.percent(10) {
                        Time::INF
                    } else {
                        Time::new(rng.range_i64(0, 4))
                    }
                })
                .collect(),
        );
    }
    let engines: &[EngineKind] = if opts.matrix {
        &[EngineKind::Sat, EngineKind::Bdd]
    } else {
        &[EngineKind::Sat]
    };
    for arr in &probes {
        let want = exhaustive_true_arrivals(net, &UnitDelay, arr);
        for &engine in engines {
            let ft = FunctionalTiming::new(net, &UnitDelay, arr.clone(), engine);
            let got = ft.true_arrivals();
            if got != want {
                fail(
                    out,
                    "true-arrival",
                    format!(
                        "{engine:?} arrivals {} -> {} but oracle says {}",
                        fmt_times(arr),
                        fmt_times(&got),
                        fmt_times(&want)
                    ),
                );
            }
        }
    }
}

/// The approx2 configuration matrix: agreement across configurations,
/// soundness and maximality against the oracle, dominance over r⊥.
/// Returns the (possibly fault-perturbed) maximal points for the
/// cross-rung checks.
fn check_approx2(
    out: &mut Vec<Failure>,
    net: &Network,
    req: &[Time],
    r_bottom: &[Time],
    opts: &CheckOptions,
) -> Vec<Vec<Time>> {
    let base_opts = Approx2Options {
        engine: EngineKind::Sat,
        ..Approx2Options::default()
    };
    let mut configs: Vec<(&'static str, Approx2Options, Budget)> =
        vec![("sat", base_opts, Budget::unlimited())];
    if opts.matrix {
        configs.push((
            "bdd",
            Approx2Options {
                engine: EngineKind::Bdd,
                ..base_opts
            },
            Budget::unlimited(),
        ));
        // Governed with generous limits: the governor plumbing itself
        // must not change the answer.
        configs.push((
            "sat-governed",
            base_opts,
            Budget::unlimited()
                .with_node_limit(Some(1 << 22))
                .with_sat_conflicts(Some(1 << 30))
                .with_mem_limit(opts.mem_limit)
                .with_timeout(Duration::from_secs(600)),
        ));
    }
    let mut results = Vec::new();
    for (label, a2, budget) in &configs {
        match approx2_required_times_governed(net, &UnitDelay, req, *a2, budget) {
            Ok(r) => results.push((*label, r)),
            Err(e) => fail(out, "approx2-run", format!("{label}: {e}")),
        }
    }
    let Some((_, base)) = results.first() else {
        return Vec::new();
    };
    let complete = |r: &xrta_core::Approx2Result| r.completed && r.stopped_by.is_none();
    let mut base_sorted = base.maximal.clone();
    base_sorted.sort();
    for (label, r) in &results {
        if r.r_bottom != *r_bottom {
            fail(
                out,
                "approx2-bottom",
                format!(
                    "{label}: r_bottom {} != topological {}",
                    fmt_times(&r.r_bottom),
                    fmt_times(r_bottom)
                ),
            );
        }
        // Truncated climbs are still sound but may differ in coverage.
        if complete(base) && complete(r) {
            let mut m = r.maximal.clone();
            m.sort();
            if m != base_sorted {
                fail(
                    out,
                    "approx2-agreement",
                    format!("{label} disagrees with sat on the maximal set"),
                );
            }
        }
    }
    let (_, base) = results.swap_remove(0);
    let mut points = base.maximal.clone();
    if opts.fault == Some(Fault::LoosenApprox2) {
        points.push(vec![Time::INF; net.inputs().len()]);
    }
    for m in &points {
        if !point_safe(net, &UnitDelay, req, m) {
            fail(
                out,
                "approx2-soundness",
                format!("maximal point {} violates the oracle", fmt_times(m)),
            );
        }
        if !m.iter().zip(r_bottom).all(|(a, b)| a >= b) {
            fail(
                out,
                "approx2-dominates-topological",
                format!("{} below r⊥ {}", fmt_times(m), fmt_times(r_bottom)),
            );
        }
    }
    // Maximality: raising any coordinate to the next candidate must be
    // unsafe (only meaningful for complete, unfaulted climbs).
    if complete(&base) && opts.fault.is_none() {
        for m in &base.maximal {
            for (i, &mi) in m.iter().enumerate() {
                if mi.is_inf() {
                    continue;
                }
                let next = base.candidates[i]
                    .iter()
                    .copied()
                    .find(|&c| c > mi)
                    .unwrap_or(Time::INF);
                let mut raised = m.clone();
                raised[i] = next;
                if point_safe(net, &UnitDelay, req, &raised) {
                    fail(
                        out,
                        "approx2-maximality",
                        format!(
                            "{} can be raised at input {i} to {next} and stay safe",
                            fmt_times(m)
                        ),
                    );
                }
            }
        }
    }
    points
}

/// The approx1 rung: soundness of every condition, coverage of the
/// topological point, and approx1 ⊒ approx2 (every maximal point is
/// covered by some condition). Returns the (possibly fault-perturbed)
/// conditions for the exact-rung comparison, or `None` when the rung
/// exhausted its budget.
fn check_approx1(
    out: &mut Vec<Failure>,
    net: &Network,
    req: &[Time],
    plan: &LeafPlan,
    r_bottom: &[Time],
    approx2_points: &[Vec<Time>],
    opts: &CheckOptions,
) -> Option<Vec<RequiredTimeTuple>> {
    let a1_opts = Approx1Options {
        node_limit: opts.approx1_node_limit,
        ..Approx1Options::default()
    };
    let budget = Budget::unlimited();
    let analysis = match approx1_required_times_governed(net, &UnitDelay, req, a1_opts, &budget) {
        Ok(a) => a,
        // Capacity overruns are a budget statement, not a soundness bug.
        Err(_) => return None,
    };
    let mut conditions = analysis.conditions.clone();
    if opts.fault == Some(Fault::LoosenApprox1) {
        if let Some(c) = conditions.first_mut() {
            *c = RequiredTimeTuple::uniform(&vec![Time::INF; net.inputs().len()]);
        }
    }
    for c in &conditions {
        if !condition_safe(net, &UnitDelay, req, c) {
            fail(
                out,
                "approx1-soundness",
                format!("condition {c} violates the oracle"),
            );
        }
    }
    // approx1 ⊒ topological: some condition covers the uniform r⊥.
    let covers_point = |c: &RequiredTimeTuple, m: &[Time]| {
        c.per_input.iter().enumerate().zip(m).all(|((i, vt), &t)| {
            semantically_ge(vt.value1, t, &plan.per_input[i].value1)
                && semantically_ge(vt.value0, t, &plan.per_input[i].value0)
        })
    };
    if !conditions.iter().any(|c| covers_point(c, r_bottom)) {
        fail(
            out,
            "approx1-covers-topological",
            format!("no condition covers r⊥ {}", fmt_times(r_bottom)),
        );
    }
    // approx1 ⊒ approx2.
    for m in approx2_points {
        if !conditions.iter().any(|c| covers_point(c, m)) {
            fail(
                out,
                "approx1-covers-approx2",
                format!("no condition covers maximal point {}", fmt_times(m)),
            );
        }
    }
    Some(conditions)
}

/// The exact rung, per input minterm: soundness of every latest tuple,
/// exact ⊒ approx1, and — when the candidate grid is small enough —
/// set equality with the oracle's ground-truth maximal antichain.
fn check_exact(
    out: &mut Vec<Failure>,
    net: &Network,
    req: &[Time],
    plan: &LeafPlan,
    conditions: &Option<Vec<RequiredTimeTuple>>,
    opts: &CheckOptions,
) {
    let budget = Budget::unlimited();
    let e_opts = ExactOptions {
        node_limit: opts.exact_node_limit,
    };
    let mut exact = match exact_required_times_governed(net, &UnitDelay, req, e_opts, &budget) {
        Ok(a) => a,
        Err(_) => return, // capacity: skip, don't fail
    };
    if exact.leaf_count() > 20 {
        return; // explicit per-minterm enumeration is capped at 20 leaves
    }
    let n = net.inputs().len();
    for m in 0..(1usize << n) {
        let x = minterm(n, m);
        let tuples = exact.latest_tuples(&x);
        let active_lists: Vec<Vec<Time>> = (0..n)
            .map(|i| plan.per_input[i].for_value(x[i]).to_vec())
            .collect();
        for t in &tuples {
            if !condition_safe_at(net, &UnitDelay, req, &x, t) {
                fail(
                    out,
                    "exact-soundness",
                    format!("minterm {x:?}: latest tuple {t} violates the oracle"),
                );
            }
        }
        let mut projections: Vec<Vec<Time>> = tuples
            .iter()
            .map(|t| {
                t.active_projection(&x)
                    .iter()
                    .zip(&active_lists)
                    .map(|(&t, l)| crate::oracle::canon(t, l))
                    .collect()
            })
            .collect();
        projections.sort();
        projections.dedup();
        // exact ⊒ approx1: each condition's active projection lies
        // under some latest tuple.
        if let Some(conds) = conditions {
            for c in conds {
                let cp: Vec<Time> = c
                    .active_projection(&x)
                    .iter()
                    .zip(&active_lists)
                    .map(|(&t, l)| crate::oracle::canon(t, l))
                    .collect();
                if !projections
                    .iter()
                    .any(|p| p.iter().zip(&cp).all(|(a, b)| a >= b))
                {
                    fail(
                        out,
                        "exact-covers-approx1",
                        format!("minterm {x:?}: condition {c} not under any latest tuple"),
                    );
                }
            }
        }
        // Ground truth, when the grid is affordable.
        if let Some(mut truth) =
            maximal_safe_at(net, &UnitDelay, req, &x, &active_lists, opts.grid_limit)
        {
            truth.sort();
            truth.dedup();
            if projections != truth {
                fail(
                    out,
                    "exact-ground-truth",
                    format!(
                        "minterm {x:?}: exact gives {:?}, oracle says {:?}",
                        projections.iter().map(|p| fmt_times(p)).collect::<Vec<_>>(),
                        truth.iter().map(|p| fmt_times(p)).collect::<Vec<_>>()
                    ),
                );
            }
        }
    }
}

/// Convenience wrapper over [`check_case`] for a bare netlist.
pub fn check_network(net: &Network, req: &[Time], opts: &CheckOptions) -> Vec<Failure> {
    check_case(
        &TestCase {
            net: net.clone(),
            req: req.to_vec(),
        },
        opts,
    )
}

/// Deterministic circuit spec for fuzz iteration `index`.
pub fn spec_for_seed(base_seed: u64, index: u64, max_inputs: usize) -> RandomCircuitSpec {
    let max_inputs = max_inputs.clamp(2, MAX_ORACLE_INPUTS);
    let mut rng = Rng::seed_from_u64(mix64(base_seed ^ mix64(index)));
    let inputs = rng.range(2, max_inputs + 1);
    let gates = rng.range(4, 28);
    let outputs = rng.range(1, gates.min(3) + 1);
    RandomCircuitSpec {
        inputs,
        gates,
        outputs,
        max_fanin: 3,
        locality: rng.range(20, 91) as u32,
        seed: mix64(base_seed ^ mix64(index ^ 0xC0FFEE)),
    }
}

/// Builds the test case for one fuzz iteration: the seeded random DAG
/// plus required times at (occasionally ±1 around) the topological
/// delays.
pub fn case_for_seed(base_seed: u64, index: u64, max_inputs: usize) -> TestCase {
    let spec = spec_for_seed(base_seed, index, max_inputs);
    let net = random_circuit(spec).expect("spec is non-degenerate");
    let mut rng = Rng::seed_from_u64(mix64(spec.seed ^ 0xDEAD));
    let delta = [0, 0, 0, 0, 1, -1][rng.range(0, 6)];
    let req: Vec<Time> = xrta_timing::topological_delays(&net, &UnitDelay)
        .into_iter()
        .map(|t| t + delta)
        .collect();
    TestCase { net, req }
}

/// The entries under `opts.corpus_dir` with at most `max_inputs`
/// inputs: the corpus bases of the ECO and resynthesis differentials,
/// read once before a run so that failures filed during it never
/// become bases.
pub(crate) fn corpus_bases(opts: &FuzzOptions, max_inputs: usize) -> Vec<CorpusEntry> {
    opts.corpus_dir
        .as_deref()
        .and_then(|d| load_dir(d).ok())
        .unwrap_or_default()
        .into_iter()
        .map(|(_, e)| e)
        .filter(|e| e.case.net.inputs().len() <= max_inputs)
        .collect()
}

/// Base netlist for case `index` of the ECO and resynthesis
/// differentials: even cases cycle through `corpus`, the rest are
/// random circuits drawn under `salt`, at topological required times.
pub(crate) fn base_for(
    corpus: &[CorpusEntry],
    opts: &FuzzOptions,
    salt: u64,
    index: u64,
) -> CorpusEntry {
    if !corpus.is_empty() && index.is_multiple_of(2) {
        return corpus[(index as usize / 2) % corpus.len()].clone();
    }
    let spec = spec_for_seed(opts.base_seed ^ salt, index, opts.max_inputs);
    let net = random_circuit(spec).expect("spec is non-degenerate");
    let req = xrta_timing::topological_delays(&net, &UnitDelay);
    CorpusEntry {
        case: TestCase { net, req },
        delays: Default::default(),
        origin: format!("random base seed {index}"),
    }
}

/// The engine differential: runs [`check_case`] under `check` on
/// `opts.seeds` seeded random circuits through `fuzz::drive`,
/// shrinking every failure and filing it as `seed_NNNN_<check>`.
pub fn fuzz(opts: &FuzzOptions, check: &CheckOptions, progress: impl FnMut(&str)) -> FuzzReport {
    drive(opts, "seed", progress, |index, progress| {
        let case = case_for_seed(opts.base_seed, index, opts.max_inputs);
        let failures = check_case(&case, check);
        let Some(first) = failures.first() else {
            return Case::default();
        };
        progress(&format!("{} check(s) failed ({first})", failures.len()));
        let shrunk = shrink(&case, |c| !check_case(c, check).is_empty());
        progress(&format!(
            "shrunk to {} gates / {} inputs / {} outputs",
            shrunk.net.gate_count(),
            shrunk.net.inputs().len(),
            shrunk.net.outputs().len()
        ));
        let failure = format!("{first} | shrunk to {} gates", shrunk.net.gate_count());
        let entry = CorpusEntry {
            case: shrunk,
            delays: Default::default(),
            origin: format!(
                "fuzz seed {index} base {:#x} ({})",
                opts.base_seed, first.check
            ),
        };
        Case {
            tally: 0,
            failure: Some(failure),
            entries: vec![(format!("seed_{index:04}_{}", first.check), entry)],
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_circuits::{c17, fig4, two_mux_bypass};
    use xrta_timing::topological_delays;

    fn clean(net: Network, req: Vec<Time>) {
        let fs = check_network(&net, &req, &CheckOptions::default());
        assert!(fs.is_empty(), "{}: {fs:?}", net.name());
    }

    #[test]
    fn worked_examples_pass_every_check() {
        clean(fig4(), vec![Time::new(2)]);
        let c = c17();
        let req = topological_delays(&c, &UnitDelay);
        clean(c, req);
        let b = two_mux_bypass();
        let req = topological_delays(&b, &UnitDelay);
        clean(b, req);
    }

    #[test]
    fn injected_approx2_fault_is_caught() {
        let net = fig4();
        let opts = CheckOptions {
            fault: Some(Fault::LoosenApprox2),
            ..CheckOptions::default()
        };
        let fs = check_network(&net, &[Time::new(2)], &opts);
        assert!(fs.iter().any(|f| f.check == "approx2-soundness"), "{fs:?}");
    }

    #[test]
    fn injected_approx1_fault_is_caught() {
        let net = fig4();
        let opts = CheckOptions {
            fault: Some(Fault::LoosenApprox1),
            ..CheckOptions::default()
        };
        let fs = check_network(&net, &[Time::new(2)], &opts);
        assert!(fs.iter().any(|f| f.check == "approx1-soundness"), "{fs:?}");
    }

    #[test]
    fn spec_derivation_is_deterministic_and_bounded() {
        for i in 0..32 {
            let a = spec_for_seed(7, i, 8);
            let b = spec_for_seed(7, i, 8);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert!(a.inputs >= 2 && a.inputs <= 8);
            assert!(a.outputs >= 1 && a.outputs <= 3);
            assert!(a.gates >= a.outputs);
        }
        // Different indices decorrelate.
        let a = spec_for_seed(7, 0, 8);
        let b = spec_for_seed(7, 1, 8);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn fuzz_smoke_with_injected_fault_files_a_small_corpus_entry() {
        let dir = std::env::temp_dir().join(format!("xrta_fuzz_fault_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FuzzOptions {
            seeds: 3,
            max_inputs: 5,
            corpus_dir: Some(dir.clone()),
            ..FuzzOptions::default()
        };
        let check = CheckOptions {
            fault: Some(Fault::LoosenApprox2),
            ..CheckOptions::default()
        };
        let report = fuzz(&opts, &check, |_| {});
        assert!(
            !report.failures.is_empty(),
            "an all-∞ unsound point must be caught"
        );
        for f in &report.failures {
            let [path] = &f.filed[..] else {
                panic!("seed {} filed {:?}", f.index, f.filed);
            };
            let text = std::fs::read_to_string(path).unwrap();
            let gates = crate::corpus::parse_entry(&text)
                .unwrap()
                .case
                .net
                .gate_count();
            assert!(gates <= 8, "shrunk to {gates} gates");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
