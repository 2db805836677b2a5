//! Approximate approach 2 (§4.3): lattice climbing with a functional
//! timing oracle.
//!
//! Candidate required times form the lattice `R = R₁ × … × R_n`; the
//! bottom `r⊥` is topological analysis. A candidate `r` is *safe* when a
//! full functional (false-path-aware) timing analysis under arrival
//! times `r` still meets every output's required time. Safety is
//! downward closed, so greedy coordinate raises find a maximal safe
//! point; backtracking enumerates all of them.
//!
//! ## Oracle architecture
//!
//! The safety oracle is decomposed per output cone: each primary output
//! gets the canonical cone network of [`slice_cones`], with its delay
//! table, so each stability check runs a private χ engine over just
//! that cone. The climb is sequential (each raise depends on the last
//! verdict), and so is each **round**, the cone checks of the rungs of
//! one coordinate under test: they run one after another on the calling
//! thread, so a rung one cone disproves is skipped by every later cone
//! of the round.
//!
//! - **Batched probes** — every pending `(cone, rung)` probe of a round
//!   is grouped by cone into one [`Batch`]. A batch's SAT probes share
//!   one selector-guarded χ engine ([`ChiSatEngine::new_varying`]):
//!   the CNF is built once with the raised coordinate varying over the
//!   batch's rung values, so learned clauses and the clause database
//!   carry across the rungs of a batch instead of being rebuilt per
//!   probe.
//! - **Round order** — a round's batches run in cone order until the
//!   search has made [`WARMUP_ORACLE_CALLS`] oracle calls, and largest
//!   cone first from then on ([`order_round`]). The rule reads counts
//!   only, never a clock, so a search that no deadline stops makes the
//!   same oracle calls on every run and every host.
//! - **Per-class frontiers** — a cone verdict is a pure fact about
//!   `(descriptor, canonical projection)`: the canonical descriptor
//!   fixes the cone's structure, delays and required time, and a
//!   projection lists the arrivals in the canonical input order. Cones
//!   with equal descriptors (the isomorphic outputs of block circuits)
//!   form one class, and each class keeps one dominance frontier
//!   ([`ConeFrontiers`]). A verdict proved on one cone prunes every
//!   later probe of every cone in its class.
//!
//! Raising coordinate `i` only re-validates the cones that read input
//! `i` (a per-input list built from the cones' canonical inputs); every
//! other cone inherits its verdict from the current safe point. Safety
//! is monotone decreasing in the pointwise order, so each class's
//! frontier answers its projections by dominance: a rung is unsafe
//! once one relevant cone's projection is, safe once all are. That is
//! all a whole-vector cache could know, as the bottom is seeded per
//! cone and every raise re-validates the cones reading it. The
//! per-coordinate climb gallops: next rung, top rung, then bisect the
//! frontier.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use xrta_bdd::BddError;
use xrta_chi::{ChiSatEngine, EngineKind, FunctionalTiming, Stability};
use xrta_network::{Network, NodeId};
use xrta_sat::StopReason;
use xrta_timing::{required_times, DelayModel, TableDelay, Time};

use crate::cone::slice_cones;
use crate::dominance::ConeFrontiers;
use crate::governor::{AnalysisError, Budget};
use crate::plan::plan_leaves;
use crate::types::RequiredTimeTuple;

/// Rungs probed per bisection round of the galloping ascent. Two
/// trisection probes per round give every cone batch two rungs to
/// amortise its χ engine over.
const LADDER_PROBES: usize = 2;

/// Oracle calls a search makes with its rounds in cone order before
/// it runs them largest cone first (see [`order_round`]).
const WARMUP_ORACLE_CALLS: usize = 48;

/// Options for the lattice-climbing analysis.
#[derive(Clone, Copy, Debug)]
pub struct Approx2Options {
    /// Which χ engine validates candidates (the paper uses the SAT
    /// engine for scalability).
    pub engine: EngineKind,
    /// Also try `∞` ("never arrives") as the top candidate per input.
    pub allow_never: bool,
    /// Stop after this many maximal points.
    pub max_solutions: usize,
    /// Stop after this many oracle invocations.
    pub max_oracle_calls: usize,
    /// SAT-conflict budget per oracle query; inconclusive queries count
    /// as unsafe (sound: a candidate is only accepted when provably
    /// safe). `None` = unlimited.
    pub oracle_conflict_budget: Option<u64>,
    /// Unit-propagation budget per oracle query — a hard wall-clock
    /// bound on multiplier-class χ networks. Same conservative
    /// treatment as the conflict budget. `None` = unlimited.
    pub oracle_propagation_budget: Option<u64>,
    /// Candidate clustering stride (the paper's conclusion: "group
    /// [required times] into clusters of neighboring required times
    /// conservatively; controlling the number of clusters gives a
    /// trade-off between accuracy and CPU time"). A stride of `k` keeps
    /// every `k`-th candidate per input (always keeping the bottom and,
    /// when enabled, the ∞ top). 1 = no clustering.
    pub cluster_stride: usize,
}

impl Default for Approx2Options {
    fn default() -> Self {
        Approx2Options {
            engine: EngineKind::Sat,
            allow_never: true,
            max_solutions: 8,
            max_oracle_calls: 10_000,
            oracle_conflict_budget: None,
            oracle_propagation_budget: None,
            cluster_stride: 1,
        }
    }
}

/// Result of the lattice-climbing analysis.
#[derive(Clone, Debug)]
pub struct Approx2Result {
    /// The topological bottom `r⊥` (per input, aligned with
    /// `net.inputs()`).
    pub r_bottom: Vec<Time>,
    /// Maximal safe points found (each dominates `r_bottom`).
    pub maximal: Vec<Vec<Time>>,
    /// The candidate rungs per input the climb searched over (aligned
    /// with `net.inputs()`; each starts at the bottom, increasing).
    pub candidates: Vec<Vec<Time>>,
    /// Wall time until the first validated `r ≠ r⊥`, if any (the
    /// "CPU time first r ≠ r⊥" column of the paper's Table 2).
    pub first_nontrivial: Option<Duration>,
    /// Total wall time of the search ("CPU time r_max").
    pub total_time: Duration,
    /// Oracle invocations (χ-engine runs; cache hits excluded).
    pub oracle_calls: usize,
    /// Per-cone safety queries answered from the class verdict
    /// frontiers without running a χ engine; a rung the frontiers settle
    /// counts one hit per cone it consulted, and a verdict proved on an
    /// isomorphic cone counts as a hit.
    pub cache_hits: usize,
    /// Always 0: every batch runs on the calling thread. Kept because
    /// `benchmark/src/batch.rs` reads it.
    pub steals: usize,
    /// Always 0: the verdict frontiers take no lock. Kept because
    /// `benchmark/src/batch.rs` reads it.
    pub shard_contention: usize,
    /// Oracle batches executed (each shares one χ engine across its
    /// probes).
    pub batches: usize,
    /// Probes that rode in a multi-rung batch (engine state reused).
    pub batched_probes: usize,
    /// Always 0: the climb probes no coordinate ahead of itself. Kept
    /// because `benchmark/src/batch.rs` reads it.
    pub spec_probes: usize,
    /// False when a budget cap stopped the enumeration early; the
    /// `maximal` found so far are still valid safe points.
    pub completed: bool,
    /// The governor cause that truncated the search, when a
    /// [`Budget`] deadline (rather than the options' own caps)
    /// stopped it. The partial `maximal` remain sound.
    pub stopped_by: Option<AnalysisError>,
    /// Cone validations that panicked; each read conservatively as
    /// "unsafe", so one poisoned cone cannot take down the session.
    pub worker_panics: usize,
}

impl Approx2Result {
    /// Did the analysis find any required time looser than topological?
    pub fn has_nontrivial_requirement(&self) -> bool {
        self.maximal.iter().any(|r| r != &self.r_bottom)
    }

    /// Fraction of safety queries answered without a χ-engine run.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.oracle_calls;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The maximal points as [`RequiredTimeTuple`]s (uniform deadlines,
    /// since this analysis is value-independent) — the same type the
    /// exact and parametric analyses report, for uniform consumption.
    pub fn maximal_conditions(&self) -> Vec<RequiredTimeTuple> {
        self.maximal
            .iter()
            .map(|r| RequiredTimeTuple::uniform(r))
            .collect()
    }
}

/// One output's validation cone: its canonical
/// [`ConeSlice`](crate::ConeSlice) network and delay table, so a
/// probe's χ engine covers just that cone.
struct Cone {
    /// The canonical cone network.
    net: Network,
    /// The root output inside `net`.
    out: NodeId,
    /// Delays by canonical node
    /// ([`ConeSlice::delays`](crate::ConeSlice::delays)).
    delays: TableDelay,
    /// Original input positions in canonical input order: the order of
    /// the cone's projections.
    input_pos: Vec<usize>,
    /// Index of the cone's descriptor among the search's distinct
    /// descriptors: isomorphic cones share a class, and so a verdict
    /// frontier.
    class: usize,
    /// Required time at this output.
    required: Time,
}

/// One unit of oracle work in a round: validate `rungs.len()` raises
/// of one coordinate against one cone, sharing a single χ engine.
struct Batch {
    /// Index into [`Search::cones`].
    cone: usize,
    /// Position of the raised coordinate within the cone's projection.
    vary: usize,
    /// The cone's projected arrivals at the base point (the `vary`
    /// coordinate is overridden per rung).
    proj: Vec<Time>,
    /// `(rung slot, rung value)` pairs, slots indexing the caller's
    /// rung list.
    rungs: Vec<(usize, Time)>,
}

/// Why a batch, or a round, left rungs unanswered. Verdicts themselves
/// land in the class frontiers and in [`Search::round_failed`].
#[derive(Default)]
struct Cut {
    /// Governor interrupt that must stop the whole search, if any.
    stop: Option<AnalysisError>,
    /// Did the oracle-call cap or an injected deadline fault cut it
    /// short?
    truncated: bool,
}

/// Sorts a round's batches into the order they run in: cone order
/// while fewer than [`WARMUP_ORACLE_CALLS`] oracle calls have run,
/// largest cone first (by `cone_size`, stably) from then on.
///
/// Largest first pays on long searches: the deepest cone is the
/// likeliest to disprove a rung, which every later batch of the round
/// then skips (mult5 and mult4 take fewer oracle calls than in cone
/// order). From the first call it costs memory: C6288's early raised
/// rungs would build a large χ CNF on its 1409-node cone before the
/// deadline, where cone order meets the deadline on a small cone
/// (DESIGN.md §5f has the measurements).
fn order_round(batches: &mut [Batch], cone_size: impl Fn(usize) -> usize, calls: usize) {
    if calls >= WARMUP_ORACLE_CALLS {
        batches.sort_by_key(|b| Reverse(cone_size(b.cone)));
    }
}

/// What the class frontiers know about one rung (see
/// [`Search::lookup_rung`]).
enum RungLookup {
    /// Unsafe by one cone's verdict, or safe by every relevant cone's.
    Known(bool),
    /// The relevant cones still unanswered.
    Open(Vec<usize>),
}

/// One lattice search: the cones, the verdict frontiers and the
/// counts.
struct Search<'a> {
    cones: Vec<Cone>,
    /// Per original input position, the cones reading it, in cone
    /// order, each with the input's position in its projection.
    readers: Vec<Vec<(usize, usize)>>,
    options: Approx2Options,
    /// The caller's budget, polled between rounds and at batch entry;
    /// its deadline is installed into every χ engine so a single long
    /// probe cannot blow through it.
    budget: &'a Budget,
    started: Instant,
    frontiers: ConeFrontiers,
    candidates: Vec<Vec<Time>>,
    oracle_calls: usize,
    batches: usize,
    batched_probes: usize,
    /// This round's bitmask of rung slots already proven unsafe by
    /// some cone; the round's later batches skip those rungs (the
    /// verdict is `false` either way).
    round_failed: u64,
    first_nontrivial: Option<Duration>,
    out_of_budget: bool,
    interrupted: Option<AnalysisError>,
    worker_panics: usize,
}

impl Search<'_> {
    fn project(&self, cone: usize, r: &[Time]) -> Vec<Time> {
        self.cones[cone].input_pos.iter().map(|&p| r[p]).collect()
    }

    /// Builds the batch's shared selector-guarded SAT engine, with the
    /// same fault-injection site the per-probe engines of the BDD path
    /// evaluate during construction.
    fn build_engine(&self, batch: &Batch) -> Result<ChiSatEngine, BddError> {
        match xrta_robust::failpoint::eval("chi::construct") {
            Some(xrta_robust::failpoint::Outcome::Exhausted) => {
                return Err(BddError::Capacity {
                    limit: self.budget.node_limit().unwrap_or(usize::MAX),
                })
            }
            Some(xrta_robust::failpoint::Outcome::ReturnError) => return Err(BddError::Deadline),
            None => {}
        }
        let cone = &self.cones[batch.cone];
        let values: Vec<Time> = batch.rungs.iter().map(|&(_, v)| v).collect();
        let mut eng = ChiSatEngine::new_varying(
            &cone.net,
            &cone.delays,
            batch.proj.clone(),
            batch.vary,
            values,
        );
        eng.set_conflict_budget(self.options.oracle_conflict_budget);
        eng.set_propagation_budget(self.options.oracle_propagation_budget);
        eng.set_deadline(self.budget.deadline());
        eng.set_cancel_flag(Some(self.budget.cancel_flag()));
        eng.set_mem_limit(self.budget.mem_limit());
        Ok(eng)
    }

    /// Checks rung `variant` of `batch`, whose projection is `proj`:
    /// on the batch's shared SAT engine (built on its first probe), or
    /// on a fresh per-probe BDD engine. An exhausted per-query budget
    /// reads conservatively as unsafe for both kinds.
    fn verdict(
        &self,
        batch: &Batch,
        variant: usize,
        proj: &[Time],
        engine: &mut Option<ChiSatEngine>,
    ) -> Result<bool, BddError> {
        let cone = &self.cones[batch.cone];
        if self.options.engine == EngineKind::Bdd {
            return FunctionalTiming::new(&cone.net, &cone.delays, proj.to_vec(), EngineKind::Bdd)
                .with_conflict_budget(self.options.oracle_conflict_budget)
                .with_propagation_budget(self.options.oracle_propagation_budget)
                .with_node_limit(self.budget.node_limit())
                .with_mem_limit(self.budget.mem_limit())
                .with_deadline(self.budget.deadline())
                .with_cancel_flag(Some(self.budget.cancel_flag()))
                .try_stable_by(cone.out, cone.required);
        }
        if engine.is_none() {
            *engine = Some(self.build_engine(batch)?);
        }
        let eng = engine.as_mut().expect("engine just built");
        match eng.check_stable_variant(&cone.net, cone.out, cone.required, variant) {
            Stability::Stable => Ok(true),
            Stability::Unstable => Ok(false),
            Stability::Unknown => match eng.last_stop_reason() {
                Some(StopReason::Deadline) => Err(BddError::Deadline),
                Some(StopReason::Cancelled) => Err(BddError::Cancelled),
                Some(StopReason::MemoryOut) => Err(BddError::MemoryOut),
                // Conflict/propagation budget exhausted:
                // conservatively not provably safe.
                _ => Ok(false),
            },
        }
    }

    /// One oracle call for rung `variant` of `batch` at `proj`. Counts
    /// it against the oracle-call cap, evaluates the `approx2::cone`
    /// fault-injection site, runs [`Search::verdict`] under
    /// `catch_unwind` and lands the verdict in the frontier of the
    /// cone's class. A node-capacity verdict is deterministic and a
    /// panic reads conservatively, so both are stored as unsafe. Returns `None`,
    /// with `cut` saying why, when the cap is spent or a deadline,
    /// cancellation or memory stop interrupted the probe; that is not
    /// a fact about the cone, so nothing is stored.
    fn probe(
        &mut self,
        batch: &Batch,
        variant: usize,
        proj: &[Time],
        engine: &mut Option<ChiSatEngine>,
        cut: &mut Cut,
    ) -> Option<bool> {
        if self.oracle_calls >= self.options.max_oracle_calls {
            cut.truncated = true;
            return None;
        }
        self.oracle_calls += 1;
        let run = catch_unwind(AssertUnwindSafe(|| {
            // A `panic` schedule exercises the catch_unwind the same way a
            // real poisoned cone would; `err`/`exhaust` forge the
            // corresponding oracle failures.
            match xrta_robust::failpoint::eval("approx2::cone") {
                Some(xrta_robust::failpoint::Outcome::Exhausted) => {
                    return Err(BddError::Capacity {
                        limit: self.budget.node_limit().unwrap_or(usize::MAX),
                    })
                }
                Some(xrta_robust::failpoint::Outcome::ReturnError) => {
                    return Err(BddError::Deadline)
                }
                None => {}
            }
            self.verdict(batch, variant, proj, engine)
        }));
        let safe = match run {
            Ok(Ok(safe)) => safe,
            Ok(Err(BddError::Capacity { .. })) => false,
            // The engine deadline is the budget's; a deadline stop
            // before it has passed is an injected fault, which
            // truncates the round rather than ending the search.
            Ok(Err(BddError::Deadline)) => {
                if self.budget.deadline().is_some_and(|d| Instant::now() >= d) {
                    cut.stop = Some(AnalysisError::DeadlineExceeded);
                } else {
                    cut.truncated = true;
                }
                return None;
            }
            Ok(Err(e)) => {
                cut.stop = Some(e.into());
                return None;
            }
            Err(_) => {
                // Poisoned cone: drop the shared engine (its solver
                // state is suspect) and keep going.
                self.worker_panics += 1;
                *engine = None;
                false
            }
        };
        self.frontiers
            .insert(self.cones[batch.cone].class, proj, safe);
        Some(safe)
    }

    /// Runs one batch. A rung the round already disproved is skipped,
    /// one the frontier of the cone's class answers costs no oracle
    /// call, and every other gets one [`Search::probe`]. Unsafe verdicts set the rung's
    /// bit in [`Search::round_failed`].
    fn execute_batch(&mut self, batch: &Batch) -> Cut {
        let mut cut = Cut {
            stop: self.budget.check().err(),
            truncated: false,
        };
        self.batches += 1;
        if batch.rungs.len() > 1 {
            self.batched_probes += batch.rungs.len();
        }
        let mut engine: Option<ChiSatEngine> = None;
        for (variant, &(k, value)) in batch.rungs.iter().enumerate() {
            if cut.stop.is_some() || cut.truncated || self.round_failed >> k & 1 == 1 {
                continue;
            }
            let mut proj = batch.proj.clone();
            proj[batch.vary] = value;
            // An earlier rung of this batch (an unsafe lower rung
            // dominates it), or an earlier batch of the round on an
            // isomorphic cone, may already settle this one.
            let safe = match self.frontiers.query(self.cones[batch.cone].class, &proj) {
                Some(safe) => Some(safe),
                None => self.probe(batch, variant, &proj, &mut engine, &mut cut),
            };
            if safe == Some(false) {
                self.round_failed |= 1 << k;
            }
        }
        cut
    }

    /// Answers raising coordinate `i` of the safe point `base` to `rung`
    /// from the class frontiers, asking the cones that read `i` in cone
    /// order and stopping at the first unsafe one (every other cone's
    /// projection is `base`'s, known safe).
    fn lookup_rung(&mut self, base: &[Time], i: usize, rung: Time) -> RungLookup {
        let mut open = Vec::new();
        let raised = |&p: &usize| if p == i { rung } else { base[p] };
        for &(c, _) in &self.readers[i] {
            let cone = &self.cones[c];
            let proj: Vec<Time> = cone.input_pos.iter().map(raised).collect();
            match self.frontiers.query(cone.class, &proj) {
                Some(true) => {}
                Some(false) => return RungLookup::Known(false),
                None => open.push(c),
            }
        }
        if open.is_empty() {
            RungLookup::Known(true)
        } else {
            RungLookup::Open(open)
        }
    }

    /// Runs one round's batches, in the order [`order_round`] gives,
    /// and returns the first stop and whether any batch was cut short.
    fn run_round(&mut self, mut batches: Vec<Batch>) -> Cut {
        self.round_failed = 0;
        order_round(
            &mut batches,
            |c| self.cones[c].net.node_count(),
            self.oracle_calls,
        );
        let mut round = Cut::default();
        for batch in &batches {
            let cut = self.execute_batch(batch);
            round.stop = round.stop.or(cut.stop);
            round.truncated |= cut.truncated;
        }
        round
    }

    /// Safety verdicts for raising coordinate `i` of the **safe** point
    /// `base` to each value in `rungs`. Only cones reading `i` are
    /// re-validated; every other cone inherits its verdict from `base`
    /// (the incremental re-check). Returns `None` when a budget stops
    /// evaluation.
    fn probe_rungs(&mut self, base: &[Time], i: usize, rungs: &[Time]) -> Option<Vec<bool>> {
        assert!(rungs.len() <= 64, "round bitmask width");
        if let Err(e) = self.budget.check() {
            self.interrupted.get_or_insert(e);
            self.out_of_budget = true;
            return None;
        }
        // Soft memory pressure: shed the verdict cache in place before
        // this round rather than letting the hard watermark end the
        // search. Verdicts are re-derivable, so this only costs refills.
        if self.budget.mem_limit().is_some_and(|limit| {
            xrta_robust::mem::global().pressure(limit) == xrta_robust::mem::Pressure::Soft
        }) {
            self.frontiers.reclaim();
        }
        // Per rung: Some(verdict) once known, else the cones still
        // needing an oracle run.
        let mut verdicts: Vec<Option<bool>> = Vec::with_capacity(rungs.len());
        let mut unresolved: Vec<Vec<usize>> = Vec::with_capacity(rungs.len());
        for &rung in rungs {
            let (verdict, todo) = match self.lookup_rung(base, i, rung) {
                RungLookup::Known(safe) => (Some(safe), Vec::new()),
                RungLookup::Open(todo) => (None, todo),
            };
            verdicts.push(verdict);
            unresolved.push(todo);
        }
        if unresolved.iter().any(|u| !u.is_empty()) {
            // One batch per cone, in cone-index order, carrying every
            // rung that still needs this cone's verdict.
            let mut batches: Vec<Batch> = Vec::new();
            for &(c, vary) in &self.readers[i] {
                let pending: Vec<(usize, Time)> = (0..rungs.len())
                    .filter(|&k| unresolved[k].contains(&c))
                    .map(|k| (k, rungs[k]))
                    .collect();
                if pending.is_empty() {
                    continue;
                }
                batches.push(Batch {
                    cone: c,
                    vary,
                    proj: self.project(c, base),
                    rungs: pending,
                });
            }
            let cut = self.run_round(batches);
            if let Some(e) = cut.stop {
                self.interrupted.get_or_insert(e);
                self.out_of_budget = true;
                return None;
            }
            if cut.truncated {
                self.out_of_budget = true;
                return None;
            }
            for (k, verdict) in verdicts.iter_mut().enumerate() {
                if verdict.is_none() {
                    *verdict = Some(self.round_failed >> k & 1 == 0);
                }
            }
        }
        let verdicts: Vec<bool> = verdicts.into_iter().map(|v| v.expect("resolved")).collect();
        if verdicts.contains(&true) {
            // Every rung raises a coordinate of a safe point, so a safe
            // rung is a validated `r ≠ r⊥`.
            let elapsed = self.started.elapsed();
            self.first_nontrivial.get_or_insert(elapsed);
        }
        Some(verdicts)
    }

    /// Raises coordinate `i` of the safe point `r` as far as it goes
    /// and returns whether it moved. A galloping ascent exploiting
    /// monotonicity: next rung, then top rung, then a binary search of
    /// the frontier in between, probing [`LADDER_PROBES`] evenly spaced
    /// rungs per round.
    fn ascend(&mut self, r: &mut [Time], i: usize) -> bool {
        let cands = self.candidates[i].clone();
        let pos = cands.iter().position(|&c| c == r[i]).expect("on lattice");
        if pos + 1 >= cands.len() {
            return false;
        }
        // Step 1: the immediate next rung (cheap "cannot move" exit —
        // the common case on tight coordinates).
        match self.probe_rungs(r, i, &cands[pos + 1..pos + 2]) {
            Some(v) if v[0] => r[i] = cands[pos + 1],
            _ => return false,
        }
        let mut lo = pos + 1; // highest rung verified safe
        let top = cands.len() - 1;
        if lo == top {
            return true;
        }
        // Step 2: the top rung (∞ when allow_never) — one probe jumps
        // the whole ladder when the coordinate is unconstrained.
        match self.probe_rungs(r, i, &cands[top..top + 1]) {
            Some(v) if v[0] => {
                r[i] = cands[top];
                return true;
            }
            Some(_) => {}
            None => {
                r[i] = cands[lo];
                return true;
            }
        }
        let mut hi = top; // lowest rung verified unsafe
                          // Step 3: bisect (lo, hi) with a fixed number
                          // of probes per round.
        while hi - lo > 1 {
            let k = LADDER_PROBES.min(hi - lo - 1).max(1);
            let mut picks: Vec<usize> = (1..=k)
                .map(|j| (lo + j * (hi - lo) / (k + 1)).clamp(lo + 1, hi - 1))
                .collect();
            picks.dedup();
            let rungs: Vec<Time> = picks.iter().map(|&ix| cands[ix]).collect();
            let Some(verdicts) = self.probe_rungs(r, i, &rungs) else {
                break;
            };
            for (&ix, &safe) in picks.iter().zip(&verdicts) {
                if safe {
                    lo = lo.max(ix);
                } else {
                    hi = hi.min(ix);
                }
            }
            if lo >= hi {
                // Only possible when per-query budgets made verdicts
                // non-monotone; `lo` itself was verified safe, stop here.
                break;
            }
        }
        r[i] = cands[lo];
        true
    }

    /// Greedy ascent from `r` to one maximal safe point.
    fn climb(&mut self, r: Vec<Time>) -> Vec<Time> {
        self.climb_rotated(r, 0)
    }

    /// Bounded enumeration of maximal safe points (§4.3's backtracking
    /// refinement, capped): up to `max_solutions` greedy climbs, each
    /// visiting the coordinates in a different rotation so incomparable
    /// maxima are found when the raise order matters. Duplicates merge
    /// min-attempt-index first, so the reported order is deterministic.
    /// Exhaustive DFS over the lattice is avoided — on wide circuits
    /// the number of intermediate safe points is combinatorial.
    fn enumerate(&mut self, bottom: Vec<Time>) -> Vec<Vec<Time>> {
        let n = bottom.len().max(1);
        let mut maximal: Vec<Vec<Time>> = Vec::new();
        let max_solutions = self.options.max_solutions;
        for attempt in 0..max_solutions {
            if self.out_of_budget {
                break;
            }
            let start = (attempt * n) / max_solutions.max(1);
            let m = self.climb_rotated(bottom.clone(), start);
            if !maximal.contains(&m) {
                maximal.push(m);
            }
        }
        maximal
    }

    /// Greedy ascent visiting coordinates starting from index `start`.
    /// The climb is sequential: each raise depends on the last verdict.
    fn climb_rotated(&mut self, mut r: Vec<Time>, start: usize) -> Vec<Time> {
        let n = r.len();
        loop {
            let mut progressed = false;
            for k in 0..n {
                progressed |= self.ascend(&mut r, (start + k) % n);
                if self.out_of_budget {
                    return r;
                }
            }
            if !progressed {
                return r;
            }
        }
    }
}

/// Runs the lattice-climbing analysis of §4.3.
///
/// The candidate set per input is the merged leaf-time list of the
/// planning pass (the times at which χ leaves are referenced), whose
/// minimum is the topological required time; `∞` is appended when
/// [`Approx2Options::allow_never`] is set. See the module docs for the
/// oracle architecture (per-cone engines, rounds run one batch after
/// another in the warm-up order, one dominance frontier per class of
/// isomorphic cones).
///
/// # Panics
///
/// Panics if `output_required.len() != net.outputs().len()`.
pub fn approx2_required_times<D: DelayModel>(
    net: &Network,
    model: &D,
    output_required: &[Time],
    options: Approx2Options,
) -> Approx2Result {
    approx2_required_times_governed(net, model, output_required, options, &Budget::unlimited())
        .expect("ungoverned analysis cannot be interrupted")
}

/// Budget-governed form of [`approx2_required_times`]. The budget's
/// deadline and cancel flag are polled between validation rounds *and*
/// inside the per-cone engines; its SAT conflict budget tightens
/// [`Approx2Options::oracle_conflict_budget`] and its node limit bounds
/// the BDD oracle. A deadline yields `Ok` with the sound partial result
/// (provenance in [`Approx2Result::stopped_by`]); cancellation yields
/// [`AnalysisError::Interrupted`].
///
/// # Panics
///
/// Panics if `output_required.len() != net.outputs().len()`.
pub fn approx2_required_times_governed<D: DelayModel>(
    net: &Network,
    model: &D,
    output_required: &[Time],
    mut options: Approx2Options,
    budget: &Budget,
) -> Result<Approx2Result, AnalysisError> {
    assert_eq!(output_required.len(), net.outputs().len());
    if budget.is_cancelled() {
        return Err(AnalysisError::Interrupted);
    }
    options.oracle_conflict_budget = match (options.oracle_conflict_budget, budget.sat_conflicts())
    {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let started = Instant::now();
    let plan = plan_leaves(net, model, output_required, |_| true);
    let topo_net = required_times(net, model, output_required);
    let r_bottom: Vec<Time> = net.inputs().iter().map(|i| topo_net[i.index()]).collect();
    let candidates: Vec<Vec<Time>> = plan
        .per_input
        .iter()
        .zip(&r_bottom)
        .map(|(lt, &bot)| {
            let mut c = lt.merged();
            if c.is_empty() || c[0] != bot {
                // Inputs outside every cone have no planned times; their
                // bottom is ∞ already.
                c.insert(0, bot);
                c.dedup();
            }
            if options.cluster_stride > 1 && c.len() > 2 {
                // Conservative coarsening: keep the bottom plus every
                // stride-th candidate (dropping a candidate only removes
                // an intermediate rung — the search stays sound, merely
                // less precise).
                let stride = options.cluster_stride;
                let kept: Vec<Time> = c
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % stride == 0 || *i + 1 == c.len())
                    .map(|(_, &t)| t)
                    .collect();
                c = kept;
            }
            if options.allow_never && *c.last().expect("non-empty") != Time::INF {
                c.push(Time::INF);
            }
            c
        })
        .collect();

    // One canonical validation cone per finite-required output
    // (∞-required outputs constrain nothing), classed by descriptor.
    // Descriptors come from the caller's netlist, so they keep the
    // default, collision-resistant hasher; they are dropped before the
    // search starts.
    let mut classes: HashMap<String, usize> = HashMap::new();
    let cones: Vec<Cone> = slice_cones(net, model, output_required)
        .into_iter()
        .filter(|s| !s.req.is_inf())
        .map(|s| {
            let delays = s.delays();
            let next = classes.len();
            Cone {
                out: s.net.outputs()[0],
                net: s.net,
                delays,
                input_pos: s.inputs,
                class: *classes.entry(s.descriptor).or_insert(next),
                required: s.req,
            }
        })
        .collect();
    let frontiers = ConeFrontiers::new(classes.len());
    drop(classes);
    let mut readers = vec![Vec::new(); r_bottom.len()];
    for (c, cone) in cones.iter().enumerate() {
        for (at, &p) in cone.input_pos.iter().enumerate() {
            readers[p].push((c, at));
        }
    }

    let n_cones = cones.len();
    let mut search = Search {
        cones,
        readers,
        options,
        budget,
        started,
        frontiers,
        candidates,
        oracle_calls: 0,
        batches: 0,
        batched_probes: 0,
        round_failed: 0,
        first_nontrivial: None,
        out_of_budget: false,
        interrupted: None,
        worker_panics: 0,
    };

    // The bottom is safe by construction (topological analysis is
    // conservative); seed every cone's projection so a conflict budget
    // cannot make the search reject its own starting point.
    for c in 0..n_cones {
        let proj = search.project(c, &r_bottom);
        search.frontiers.insert(search.cones[c].class, &proj, true);
    }

    let maximal = if options.max_solutions <= 1 {
        vec![search.climb(r_bottom.clone())]
    } else {
        let mut m = search.enumerate(r_bottom.clone());
        if m.is_empty() {
            m.push(search.climb(r_bottom.clone()));
        }
        m
    };

    if search.interrupted == Some(AnalysisError::Interrupted) {
        // Cancellation means "stop, the caller no longer wants an
        // answer" — unlike a deadline, there is no one left to use a
        // partial result.
        return Err(AnalysisError::Interrupted);
    }

    Ok(Approx2Result {
        r_bottom,
        maximal,
        candidates: search.candidates,
        first_nontrivial: search.first_nontrivial,
        total_time: started.elapsed(),
        oracle_calls: search.oracle_calls,
        cache_hits: search.frontiers.hits(),
        steals: 0,
        shard_contention: 0,
        batches: search.batches,
        batched_probes: search.batched_probes,
        spec_probes: 0,
        completed: !search.out_of_budget,
        stopped_by: search.interrupted,
        worker_panics: search.worker_panics,
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

    /// The canonical two-MUX bypass false path (see `xrta-chi`): the
    /// slow input x can arrive later than topological analysis says.
    fn mux_false_path() -> Network {
        let mut net = Network::new("fp");
        let s = net.add_input("s").unwrap();
        let x = net.add_input("x").unwrap();
        let c = net.add_input("c").unwrap();
        let b1 = net.add_gate("b1", GateKind::Buf, &[x]).unwrap();
        let b2 = net.add_gate("b2", GateKind::Buf, &[b1]).unwrap();
        let m1 = net.add_gate("m1", GateKind::Mux, &[s, x, b2]).unwrap();
        let z = net.add_gate("z", GateKind::Mux, &[s, m1, c]).unwrap();
        net.mark_output(z);
        net
    }

    #[test]
    fn fig4_value_independent_search_is_trivial() {
        // The §4.3 implementation searches value-independent times; for
        // Figure 4 the looseness is value-dependent only, so the climb
        // stays at r⊥ — matching the paper's observation that approx 1
        // can beat approx 2 on such circuits.
        let net = fig4();
        let r =
            approx2_required_times(&net, &UnitDelay, &[Time::new(2)], Approx2Options::default());
        assert_eq!(r.r_bottom, vec![Time::new(0), Time::new(0)]);
        assert!(!r.has_nontrivial_requirement());
        assert!(r.completed);
    }

    #[test]
    fn false_path_circuit_gives_loose_times() {
        let net = mux_false_path();
        let topo_req = Time::new(4);
        let r = approx2_required_times(&net, &UnitDelay, &[topo_req], Approx2Options::default());
        // Topological: x must arrive by 4 − 4 = 0. The false path lets
        // it arrive later in every maximal condition.
        let x_pos = 1;
        assert_eq!(r.r_bottom[x_pos], Time::new(0));
        assert!(r.has_nontrivial_requirement());
        // Several incomparable maximal points may exist (e.g. raising s
        // instead of x); at least one must loosen x.
        assert!(
            r.maximal.iter().any(|m| m[x_pos] > Time::new(0)),
            "x loosened in some maximal point: {:?}",
            r.maximal
        );
        assert!(r.first_nontrivial.is_some());
    }

    #[test]
    fn maximal_points_are_safe_and_unraisable() {
        let net = mux_false_path();
        let req = [Time::new(4)];
        let opts = Approx2Options::default();
        let r = approx2_required_times(&net, &UnitDelay, &req, opts);
        for m in &r.maximal {
            let ft = FunctionalTiming::new(&net, &UnitDelay, m.clone(), EngineKind::Bdd);
            assert!(ft.meets(&req), "maximal point {m:?} must be safe");
            // Unraisable: the next candidate rung of every coordinate is
            // unsafe.
            for (i, cands) in r.candidates.iter().enumerate() {
                let pos = cands.iter().position(|&c| c == m[i]).expect("on lattice");
                if pos + 1 < cands.len() {
                    let mut up = m.clone();
                    up[i] = cands[pos + 1];
                    let ft = FunctionalTiming::new(&net, &UnitDelay, up, EngineKind::Bdd);
                    assert!(!ft.meets(&req), "raise of coord {i} from {m:?} still safe");
                }
            }
        }
    }

    #[test]
    fn engines_agree() {
        let net = mux_false_path();
        let req = [Time::new(4)];
        let sat = approx2_required_times(
            &net,
            &UnitDelay,
            &req,
            Approx2Options {
                engine: EngineKind::Sat,
                ..Approx2Options::default()
            },
        );
        let bdd = approx2_required_times(
            &net,
            &UnitDelay,
            &req,
            Approx2Options {
                engine: EngineKind::Bdd,
                ..Approx2Options::default()
            },
        );
        let norm = |mut v: Vec<Vec<Time>>| {
            v.sort();
            v
        };
        assert_eq!(norm(sat.maximal), norm(bdd.maximal));
    }

    #[test]
    fn oracle_budget_respected() {
        let net = mux_false_path();
        let r = approx2_required_times(
            &net,
            &UnitDelay,
            &[Time::new(4)],
            Approx2Options {
                max_oracle_calls: 2,
                ..Approx2Options::default()
            },
        );
        assert!(r.oracle_calls <= 2);
        assert!(!r.completed);
    }

    #[test]
    fn single_solution_mode_climbs_greedily() {
        let net = mux_false_path();
        let r = approx2_required_times(
            &net,
            &UnitDelay,
            &[Time::new(4)],
            Approx2Options {
                max_solutions: 1,
                ..Approx2Options::default()
            },
        );
        assert_eq!(r.maximal.len(), 1);
        let m = &r.maximal[0];
        // Greedy result must dominate the bottom.
        assert!(m.iter().zip(&r.r_bottom).all(|(a, b)| a >= b));
    }

    #[test]
    fn clustering_is_sound_but_coarser() {
        let net = mux_false_path();
        let req = [Time::new(4)];
        let full = approx2_required_times(&net, &UnitDelay, &req, Approx2Options::default());
        let clustered = approx2_required_times(
            &net,
            &UnitDelay,
            &req,
            Approx2Options {
                cluster_stride: 2,
                ..Approx2Options::default()
            },
        );
        // Clustered results are still safe…
        for m in &clustered.maximal {
            let ft = FunctionalTiming::new(&net, &UnitDelay, m.clone(), EngineKind::Bdd);
            assert!(ft.meets(&req));
        }
        // …and never use more oracle calls than the full lattice needs
        // more rungs for.
        assert!(clustered.oracle_calls <= full.oracle_calls + 2);
    }

    #[test]
    fn table_delay_model_respected() {
        use xrta_timing::TableDelay;
        // Make the bypass buffers free: the "slow" branch stops being
        // slow and the topological bottom shifts accordingly.
        let net = mux_false_path();
        let mut model = TableDelay::with_default(&net, 1);
        for name in ["b1", "b2"] {
            model.set(net.find(name).unwrap(), 0);
        }
        let r = approx2_required_times(&net, &model, &[Time::new(2)], Approx2Options::default());
        // x's topological requirement: through m1 (delay 1) + z (1) with
        // free buffers → req(x) = 0.
        let x_pos = 1;
        assert_eq!(r.r_bottom[x_pos], Time::new(0));
        for m in &r.maximal {
            let ft = FunctionalTiming::new(&net, &model, m.clone(), EngineKind::Bdd);
            assert!(ft.meets(&[Time::new(2)]));
        }
    }

    #[test]
    fn never_candidate_found_for_unobserved_input() {
        // An input that no output depends on can arrive at ∞.
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let bb = net.add_gate("bb", GateKind::Buf, &[b]).unwrap();
        let z = net.add_gate("z", GateKind::Buf, &[a]).unwrap();
        net.mark_output(z);
        let _ = bb;
        let r =
            approx2_required_times(&net, &UnitDelay, &[Time::new(1)], Approx2Options::default());
        let b_pos = 1;
        assert!(r.maximal.iter().all(|m| m[b_pos].is_inf()));
    }

    #[test]
    fn dominance_reports_cache_hits() {
        let net = mux_false_path();
        let r =
            approx2_required_times(&net, &UnitDelay, &[Time::new(4)], Approx2Options::default());
        // Rotated restarts re-traverse the region below the first
        // maximal point — the dominance cache must absorb some of it.
        assert!(r.cache_hits > 0);
        assert!(r.cache_hit_rate() > 0.0 && r.cache_hit_rate() < 1.0);
    }

    #[test]
    fn rounds_run_in_cone_order_until_the_warm_up_then_largest_cone_first() {
        let sizes = [3, 9, 1, 9];
        let order = |calls| {
            let mut batches: Vec<Batch> = (0..sizes.len())
                .map(|cone| Batch {
                    cone,
                    vary: 0,
                    proj: Vec::new(),
                    rungs: Vec::new(),
                })
                .collect();
            order_round(&mut batches, |c| sizes[c], calls);
            batches.iter().map(|b| b.cone).collect::<Vec<_>>()
        };
        assert_eq!(order(0), [0, 1, 2, 3]);
        assert_eq!(order(WARMUP_ORACLE_CALLS - 1), [0, 1, 2, 3]);
        // Largest first; equal sizes keep cone order.
        assert_eq!(order(WARMUP_ORACLE_CALLS), [1, 3, 0, 2]);
        assert_eq!(order(10_000), [1, 3, 0, 2]);
    }
}
