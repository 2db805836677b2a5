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
//! gets its own standalone cone network ([`Network::extract_cone`]) with
//! its own delay table, so each stability check runs a private χ engine
//! over just that cone. The climb is sequential (each raise depends on
//! the last verdict); its only parallel work is the cone checks of one
//! **round**, the rungs of one coordinate under test:
//!
//! - **Batched probes** — every pending `(cone, rung)` probe of a round
//!   is grouped by cone into one [`Batch`]. A batch's SAT probes share
//!   one selector-guarded χ engine ([`ChiSatEngine::new_varying`]):
//!   the CNF is built once with the raised coordinate varying over the
//!   batch's rung values, so learned clauses and the clause database
//!   carry across the rungs of a batch instead of being rebuilt per
//!   probe.
//! - **One round queue** — a round's batches go on one shared FIFO
//!   ([`RoundQueue`]), largest cone first, and the coordinator and the
//!   helper threads drain it; the round ends when every batch has
//!   reported. A round holds
//!   at most one batch per cone and rounds are barriers, so no two
//!   threads ever probe the same `(cone, projection)` at once.
//! - **Warm-up** — helpers spawn only once [`WARMUP_ORACLE_CALLS`]
//!   oracle calls have run inline ([`helpers_pay`]), so trivial
//!   circuits never pay a thread spawn. The rule reads counts only,
//!   never a clock, so which searches fan out never depends on how
//!   fast the host happens to be.
//! - **Per-cone frontiers** — cone verdicts are pure facts about
//!   `(cone, projected arrivals)`, stored in one dominance frontier per
//!   cone ([`StripedVerdictCache`]), each behind its own lock. A verdict
//!   proven on any thread prunes every later probe of that cone.
//! - **Deterministic merge** — the probe schedule is thread-count
//!   independent (fixed ladder width [`LADDER_PROBES`], batches formed
//!   in cone-index order, verdicts landed by rung slot, duplicate
//!   maxima dropped min-attempt-index first), so the reported analysis
//!   is byte-identical for every thread count. Parallelism changes how
//!   *many* oracle calls run, never what the search concludes.
//!
//! Raising coordinate `i` only re-validates cones whose transitive
//! input support contains `i` (precomputed
//! [`Network::output_support_masks`]); every other cone inherits its
//! verdict from the current safe point. Safety is monotone decreasing
//! in the pointwise order, so each cone's frontier answers its
//! projections by dominance: a rung is unsafe once one relevant cone's
//! projection is, safe once all are. That is all a whole-vector cache
//! could know, as the bottom is seeded per cone and every raise
//! re-validates the cones supporting it. The per-coordinate climb
//! gallops: next rung, top rung, then bisect the frontier.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xrta_bdd::{BddError, FxHashMap};
use xrta_chi::{ChiSatEngine, EngineKind, FunctionalTiming, Stability};
use xrta_network::{Network, NodeId};
use xrta_sat::StopReason;
use xrta_timing::{required_times, DelayModel, TableDelay, Time};

use crate::governor::{AnalysisError, Budget};
use crate::plan::plan_leaves;
use crate::stripes::{plock, StripedVerdictCache};

/// Rungs probed per bisection round of the galloping ascent. Fixed (not
/// derived from the thread count) so the probe schedule — and with it
/// the whole search transcript — is identical for every thread count.
/// Two trisection probes per round also give every cone batch two rungs
/// to amortise its χ engine over.
const LADDER_PROBES: usize = 2;

/// Oracle calls a search must run inline before helper threads may
/// spawn. Trivial circuits finish their whole climb under this
/// threshold and never pay thread-spawn or hand-off latency.
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
    /// Worker threads for cone validation. `0` = use
    /// [`std::thread::available_parallelism`]; `1` = fully sequential.
    /// Helpers spawn lazily, once the search has run
    /// [`WARMUP_ORACLE_CALLS`] oracle calls inline; any value produces
    /// the same analysis.
    pub threads: usize,
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
            threads: 0,
        }
    }
}

impl Approx2Options {
    /// Resolves [`Approx2Options::threads`] (`0` → available
    /// parallelism).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Worker slots the oracle provisions, the calling thread's
    /// included: the configured thread count clamped to the machine's
    /// parallelism. Cone probes are CPU-bound SAT/BDD solves, so
    /// oversubscribing cores only adds context switching and hand-off
    /// latency — a request for 4 threads on a 1-core box must run
    /// exactly like a request for 1 (and does: the probe schedule is
    /// thread-count independent). `oversubscribe` (`XRTA_OVERSUBSCRIBE`
    /// set) lifts the clamp: the analysis stays correct under any
    /// interleaving, so this exists to exercise and debug the
    /// multi-worker path on small machines.
    fn worker_slots(&self, oversubscribe: bool) -> usize {
        if oversubscribe {
            return self.effective_threads();
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.effective_threads().min(cores)
    }
}

/// Whether a multi-batch round should go to the helper threads: only
/// with more than one worker slot, once `calls` oracle calls (at least
/// [`WARMUP_ORACLE_CALLS`]) have run inline. The rule reads counts,
/// never a clock: a gate on the inline wall time per call kept cheap
/// searches on one thread, whose wall then followed the host's speed
/// from run to run, and let a search near its threshold fan out or not
/// by the host's load (DESIGN.md §5f).
fn helpers_pay(slots: usize, calls: usize) -> bool {
    slots > 1 && calls >= WARMUP_ORACLE_CALLS
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
    /// Per-cone safety queries answered from the verdict frontiers
    /// without running a χ engine; a rung the frontiers settle counts
    /// one hit per cone it consulted.
    pub cache_hits: usize,
    /// Worker threads the search was configured to use.
    pub threads_used: usize,
    /// Oracle batches executed on helper threads.
    pub steals: usize,
    /// Always 0: the verdict frontiers take one lock per cone and count
    /// no waits on it. Kept because `benchmark/src/batch.rs` reads it.
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
    pub fn maximal_conditions(&self) -> Vec<crate::types::RequiredTimeTuple> {
        self.maximal
            .iter()
            .map(|r| crate::types::RequiredTimeTuple::uniform(r))
            .collect()
    }
}

/// One output's standalone validation cone: a private network, delay
/// table and support mask, so the cone's χ engine can run on any thread
/// without touching shared state.
struct Cone {
    /// The cone as its own network (inputs = the original PIs feeding
    /// it).
    net: Network,
    /// The root output inside `net`.
    out: NodeId,
    /// Delays copied from the caller's model (cone node ids).
    delays: TableDelay,
    /// Original input positions, in `net.inputs()` order.
    input_pos: Vec<usize>,
    /// Support bitmask over original input positions.
    mask: Vec<u64>,
    /// Required time at this output.
    required: Time,
}

impl Cone {
    fn supports(&self, input_pos: usize) -> bool {
        (self.mask[input_pos / 64] >> (input_pos % 64)) & 1 == 1
    }
}

/// One unit of oracle work on the round queue: validate
/// `rungs.len()` raises of one coordinate against one cone, sharing a
/// single χ engine.
struct Batch {
    /// Index into [`OracleShared::cones`].
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

/// What one batch reports back. `verdicts` lands by rung slot;
/// `None` marks probes skipped because the rung was already disproved
/// by another cone, or cut off by a stop/budget condition.
struct BatchOut {
    verdicts: Vec<(usize, Option<bool>)>,
    /// Governor interrupt that must stop the whole search, if any.
    stop: Option<AnalysisError>,
    /// Did an options-level cap (oracle calls / wall clock) cut this
    /// batch short?
    truncated: bool,
    /// Probes that panicked inside this batch.
    panics: usize,
}

impl BatchOut {
    /// The conservative result of a batch whose worker died outside the
    /// per-probe containment: every probe reads "unsafe".
    fn poisoned(batch: &Batch) -> Self {
        BatchOut {
            verdicts: batch.rungs.iter().map(|&(k, _)| (k, Some(false))).collect(),
            stop: None,
            truncated: false,
            panics: batch.rungs.len(),
        }
    }
}

/// One round's batches as they move through [`RoundQueue`]: those not
/// yet taken, oldest first, and the results of those done, each with
/// its batch index.
#[derive(Default)]
struct Round {
    todo: VecDeque<(usize, Batch)>,
    done: Vec<(usize, BatchOut)>,
    /// Set at shutdown: helpers exit instead of parking.
    closed: bool,
}

/// The FIFO the coordinator and the helpers drain. One condvar rings
/// for queued batches, landed results and shutdown alike; every waiter
/// re-checks its own condition.
#[derive(Default)]
struct RoundQueue {
    round: Mutex<Round>,
    bell: Condvar,
}

impl RoundQueue {
    fn lock(&self) -> MutexGuard<'_, Round> {
        plock(&self.round)
    }

    fn wait<'a>(&self, round: MutexGuard<'a, Round>) -> MutexGuard<'a, Round> {
        self.bell
            .wait(round)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Everything a worker needs, shared by `Arc`: the cones, the verdict
/// frontiers, the round queue and the global counters.
struct OracleShared {
    cones: Vec<Cone>,
    options: Approx2Options,
    /// The caller's budget (a clone, sharing its cancel flag), polled
    /// between rounds and at probe entry; its deadline is installed
    /// into every χ engine so a single long probe cannot blow through
    /// it.
    budget: Budget,
    started: Instant,
    cache: StripedVerdictCache,
    oracle_calls: AtomicUsize,
    batches: AtomicUsize,
    batched_probes: AtomicUsize,
    /// Batches executed by helper threads.
    helper_batches: AtomicUsize,
    /// Per-round bitmask of rung slots already proven unsafe by some
    /// cone; lets every other cone skip its probes for that rung
    /// (cross-cone short-circuit — the verdict is `false` either way).
    round_failed: AtomicU64,
    queue: RoundQueue,
}

impl OracleShared {
    /// Builds the batch's shared selector-guarded SAT engine, with the
    /// same fault-injection site the per-probe engines of the BDD path
    /// evaluate during construction.
    fn build_engine(&self, batch: &Batch, values: &[Time]) -> Result<ChiSatEngine, BddError> {
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
        let mut eng = ChiSatEngine::new_varying(
            &cone.net,
            &cone.delays,
            batch.proj.clone(),
            batch.vary,
            values.to_vec(),
        );
        eng.set_conflict_budget(self.options.oracle_conflict_budget);
        eng.set_propagation_budget(self.options.oracle_propagation_budget);
        eng.set_deadline(self.budget.deadline());
        eng.set_cancel_flag(Some(self.budget.cancel_flag()));
        eng.set_mem_limit(self.budget.mem_limit());
        Ok(eng)
    }

    /// Checks `proj` against `cone` on a fresh per-probe engine of the
    /// configured kind; `FunctionalTiming` reads an exhausted per-query
    /// budget conservatively as unsafe for both kinds.
    fn fresh_verdict(&self, cone: &Cone, proj: &[Time]) -> Result<bool, BddError> {
        FunctionalTiming::new(&cone.net, &cone.delays, proj.to_vec(), self.options.engine)
            .with_conflict_budget(self.options.oracle_conflict_budget)
            .with_propagation_budget(self.options.oracle_propagation_budget)
            .with_node_limit(self.budget.node_limit())
            .with_mem_limit(self.budget.mem_limit())
            .with_deadline(self.budget.deadline())
            .with_cancel_flag(Some(self.budget.cancel_flag()))
            .try_stable_by(cone.out, cone.required)
    }
}

/// How one cone probe ended (see [`run_probe`]).
enum ProbeEnd {
    /// The oracle-call cap was already spent; nothing ran.
    Capped,
    /// A verdict, now in the cone's frontier. `panicked` marks the
    /// conservative "unsafe" of a probe that panicked.
    Verdict { safe: bool, panicked: bool },
    /// A deadline, cancellation or memory stop. It is not a fact about
    /// the cone, so nothing was cached.
    Interrupted(BddError),
}

/// One probe of `(cone, proj)`. Reserves one oracle call (undone on
/// overshoot, so the final count never exceeds the cap even under
/// concurrent reservation), evaluates the `approx2::cone`
/// fault-injection site, runs `oracle` under `catch_unwind` and lands
/// the outcome in the cone's frontier. A node-capacity verdict is
/// deterministic and a panic reads conservatively, so both are cached
/// as unsafe.
fn run_probe(
    shared: &OracleShared,
    cone: usize,
    proj: &[Time],
    oracle: impl FnOnce() -> Result<bool, BddError>,
) -> ProbeEnd {
    let prior = shared.oracle_calls.fetch_add(1, Ordering::Relaxed);
    if prior >= shared.options.max_oracle_calls {
        shared.oracle_calls.fetch_sub(1, Ordering::Relaxed);
        return ProbeEnd::Capped;
    }
    let run = catch_unwind(AssertUnwindSafe(|| {
        // A `panic` schedule exercises the catch_unwind the same way a
        // real poisoned cone would; `err`/`exhaust` forge the
        // corresponding oracle failures.
        match xrta_robust::failpoint::eval("approx2::cone") {
            Some(xrta_robust::failpoint::Outcome::Exhausted) => {
                return Err(BddError::Capacity {
                    limit: shared.budget.node_limit().unwrap_or(usize::MAX),
                })
            }
            Some(xrta_robust::failpoint::Outcome::ReturnError) => return Err(BddError::Deadline),
            None => {}
        }
        oracle()
    }));
    let (safe, panicked) = match run {
        Ok(Ok(safe)) => (safe, false),
        Ok(Err(BddError::Capacity { .. })) => (false, false),
        Ok(Err(e)) => return ProbeEnd::Interrupted(e),
        Err(_) => (false, true),
    };
    shared.cache.insert(cone, proj, safe);
    ProbeEnd::Verdict { safe, panicked }
}

/// Runs one batch on the calling thread. Every probe is individually
/// contained (`catch_unwind`); verdicts are pure functions of
/// `(cone, projection)` plus the per-query budgets, so any thread may
/// execute any batch without affecting what the search concludes.
fn execute_batch(shared: &OracleShared, batch: &Batch) -> BatchOut {
    let cone = &shared.cones[batch.cone];
    let values: Vec<Time> = batch.rungs.iter().map(|&(_, v)| v).collect();
    let mut out = BatchOut {
        verdicts: Vec::with_capacity(batch.rungs.len()),
        stop: None,
        truncated: false,
        panics: 0,
    };
    shared.batches.fetch_add(1, Ordering::Relaxed);
    if batch.rungs.len() > 1 {
        shared
            .batched_probes
            .fetch_add(batch.rungs.len(), Ordering::Relaxed);
    }
    out.stop = shared.budget.check().err();
    let mut engine: Option<ChiSatEngine> = None;
    for (variant, &(k, value)) in batch.rungs.iter().enumerate() {
        if out.stop.is_some() || out.truncated {
            out.verdicts.push((k, None));
            continue;
        }
        if shared.round_failed.load(Ordering::Relaxed) >> k & 1 == 1 {
            // Another cone already disproved this rung; its verdict is
            // settled, skip the solve.
            out.verdicts.push((k, None));
            continue;
        }
        let mut proj = batch.proj.clone();
        proj[batch.vary] = value;
        // An earlier rung of this batch may already settle this one
        // (an unsafe lower rung dominates it).
        if let Some(v) = shared.cache.query(batch.cone, &proj) {
            if !v {
                shared.round_failed.fetch_or(1 << k, Ordering::Relaxed);
            }
            out.verdicts.push((k, Some(v)));
            continue;
        }
        let end = run_probe(shared, batch.cone, &proj, || match shared.options.engine {
            EngineKind::Sat => {
                if engine.is_none() {
                    engine = Some(shared.build_engine(batch, &values)?);
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
            EngineKind::Bdd => shared.fresh_verdict(cone, &proj),
        });
        let verdict = match end {
            ProbeEnd::Verdict { safe, panicked } => {
                if panicked {
                    // Poisoned cone: drop the shared engine (its solver
                    // state is suspect) and keep going.
                    out.panics += 1;
                    engine = None;
                }
                Some(safe)
            }
            ProbeEnd::Capped => {
                out.truncated = true;
                None
            }
            // The engine deadline is the budget's; a deadline stop
            // before it has passed is an injected fault, which
            // truncates the round rather than ending the search.
            ProbeEnd::Interrupted(BddError::Deadline) => {
                if shared
                    .budget
                    .deadline()
                    .is_some_and(|d| Instant::now() >= d)
                {
                    out.stop = Some(AnalysisError::DeadlineExceeded);
                } else {
                    out.truncated = true;
                }
                None
            }
            ProbeEnd::Interrupted(e) => {
                out.stop = Some(e.into());
                None
            }
        };
        if verdict == Some(false) {
            shared.round_failed.fetch_or(1 << k, Ordering::Relaxed);
        }
        out.verdicts.push((k, verdict));
    }
    out
}

/// Helper-thread main loop: take the oldest queued batch, run it, land
/// its result, and park when the queue is empty, until it closes.
/// `execute_batch` contains probe panics itself; the outer net only
/// exists so a batch that dies anyway still lands a (conservative)
/// result and cannot wedge the round.
fn helper_loop(shared: &OracleShared) {
    let queue = &shared.queue;
    let mut round = queue.lock();
    loop {
        if let Some((j, batch)) = round.todo.pop_front() {
            drop(round);
            let out = catch_unwind(AssertUnwindSafe(|| execute_batch(shared, &batch)))
                .unwrap_or_else(|_| BatchOut::poisoned(&batch));
            shared.helper_batches.fetch_add(1, Ordering::Relaxed);
            round = queue.lock();
            round.done.push((j, out));
            queue.bell.notify_all();
        } else if round.closed {
            return;
        } else {
            round = queue.wait(round);
        }
    }
}

/// What the per-cone frontiers know about one rung (see
/// [`Search::lookup_rung`]).
enum RungLookup {
    /// Unsafe by one cone's verdict, or safe by every relevant cone's.
    Known(bool),
    /// The relevant cones still unanswered, with their projections.
    Open(Vec<(usize, Vec<Time>)>),
}

struct Search {
    shared: Arc<OracleShared>,
    candidates: Vec<Vec<Time>>,
    first_nontrivial: Option<Duration>,
    out_of_budget: bool,
    interrupted: Option<AnalysisError>,
    worker_panics: usize,
    /// Worker slots, the calling thread's included.
    slots: usize,
    /// Helper threads, spawned the first time [`helpers_pay`] holds.
    helpers: Vec<JoinHandle<()>>,
}

impl Search {
    fn project(&self, cone: usize, r: &[Time]) -> Vec<Time> {
        self.shared.cones[cone]
            .input_pos
            .iter()
            .map(|&p| r[p])
            .collect()
    }

    /// Answers raising coordinate `i` of the safe point `base` to `rung`
    /// from the per-cone frontiers, asking the cones that support `i` in
    /// cone order and stopping at the first unsafe one (every other
    /// cone's projection is `base`'s, known safe).
    fn lookup_rung(&self, base: &[Time], i: usize, rung: Time) -> RungLookup {
        let mut open = Vec::new();
        let raised = |&p: &usize| if p == i { rung } else { base[p] };
        for (c, cone) in self.shared.cones.iter().enumerate() {
            if !cone.supports(i) {
                continue;
            }
            let proj: Vec<Time> = cone.input_pos.iter().map(raised).collect();
            match self.shared.cache.query(c, &proj) {
                Some(true) => {}
                Some(false) => return RungLookup::Known(false),
                None => open.push((c, proj)),
            }
        }
        if open.is_empty() {
            RungLookup::Known(true)
        } else {
            RungLookup::Open(open)
        }
    }

    /// Spawns the helper threads (every worker slot but the calling
    /// thread's), once.
    fn spawn_helpers(&mut self) {
        for w in 1..self.slots {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("xrta-oracle-{w}"))
                .spawn(move || helper_loop(&shared))
                .expect("spawn oracle helper");
            self.helpers.push(handle);
        }
    }

    /// Closes the round queue and joins the helpers. Rounds are
    /// barriers, so the queue is empty and every helper is parked or
    /// about to park.
    fn shutdown(&mut self) {
        self.shared.queue.lock().closed = true;
        self.shared.queue.bell.notify_all();
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }

    /// Executes one round of batches and collects every result, in
    /// batch order (a barrier: the queue is empty again when this
    /// returns). The batches run in cone order on the calling thread
    /// until [`helpers_pay`] holds; from then on, every round of more
    /// than one batch goes on the shared queue, largest cone first,
    /// and the coordinator drains it alongside the helpers.
    fn run_round(&mut self, batches: Vec<Batch>) -> Vec<BatchOut> {
        self.shared.round_failed.store(0, Ordering::Relaxed);
        let n = batches.len();
        let engage = n > 1
            && (!self.helpers.is_empty()
                || helpers_pay(self.slots, self.shared.oracle_calls.load(Ordering::Relaxed)));
        if !engage {
            // One after another, so a later cone skips the rungs an
            // earlier one disproved (`round_failed`).
            return batches
                .iter()
                .map(|b| execute_batch(&self.shared, b))
                .collect();
        }
        if self.helpers.is_empty() {
            self.spawn_helpers();
        }
        // Largest cone first: the longest batches start early, so the
        // barrier waits less on a late one, and the deepest cone, the
        // likeliest to disprove a rung, lets the others skip it. In cone
        // order, mult5 took 338 oracle calls at two threads; in this
        // order 281, against 287 inline.
        let mut todo: Vec<(usize, Batch)> = batches.into_iter().enumerate().collect();
        todo.sort_by_key(|(_, b)| Reverse(self.shared.cones[b.cone].net.node_count()));
        let queue = &self.shared.queue;
        let mut round = queue.lock();
        round.todo.extend(todo);
        queue.bell.notify_all();
        while round.done.len() < n {
            if let Some((j, batch)) = round.todo.pop_front() {
                drop(round);
                let out = execute_batch(&self.shared, &batch);
                round = queue.lock();
                round.done.push((j, out));
            } else {
                round = queue.wait(round);
            }
        }
        let mut outs = std::mem::take(&mut round.done);
        drop(round);
        outs.sort_unstable_by_key(|&(j, _)| j);
        outs.into_iter().map(|(_, out)| out).collect()
    }

    /// Safety verdicts for raising coordinate `i` of the **safe** point
    /// `base` to each value in `rungs`. Only cones whose support
    /// contains `i` are re-validated; every other cone inherits its
    /// verdict from `base` (the incremental re-check). Returns `None`
    /// when a budget stops evaluation.
    fn probe_rungs(&mut self, base: &[Time], i: usize, rungs: &[Time]) -> Option<Vec<bool>> {
        assert!(rungs.len() <= 64, "round bitmask width");
        if let Err(e) = self.shared.budget.check() {
            self.interrupted.get_or_insert(e);
            self.out_of_budget = true;
            return None;
        }
        // Soft memory pressure: shed the verdict cache in place before
        // this round rather than letting the hard watermark end the
        // search. Verdicts are re-derivable, so this only costs refills.
        if self.shared.budget.mem_limit().is_some_and(|limit| {
            xrta_robust::mem::global().pressure(limit) == xrta_robust::mem::Pressure::Soft
        }) {
            self.shared.cache.reclaim();
        }
        // Per rung: Some(verdict) once known, else the cones still
        // needing an oracle run.
        let mut verdicts: Vec<Option<bool>> = Vec::with_capacity(rungs.len());
        let mut unresolved: Vec<Vec<(usize, Vec<Time>)>> = Vec::with_capacity(rungs.len());
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
            for c in 0..self.shared.cones.len() {
                let pending: Vec<(usize, Time)> = (0..rungs.len())
                    .filter(|&k| unresolved[k].iter().any(|(u, _)| *u == c))
                    .map(|k| (k, rungs[k]))
                    .collect();
                if pending.is_empty() {
                    continue;
                }
                let vary = self.shared.cones[c]
                    .input_pos
                    .iter()
                    .position(|&p| p == i)
                    .expect("cone supports the raised coordinate");
                batches.push(Batch {
                    cone: c,
                    vary,
                    proj: self.project(c, base),
                    rungs: pending,
                });
            }
            let outs = self.run_round(batches);
            let mut rung_unsafe = vec![false; rungs.len()];
            let mut stop: Option<AnalysisError> = None;
            let mut truncated = false;
            for out in outs {
                self.worker_panics += out.panics;
                for (k, v) in out.verdicts {
                    if v == Some(false) {
                        rung_unsafe[k] = true;
                    }
                }
                if let Some(e) = out.stop {
                    stop.get_or_insert(e);
                }
                truncated |= out.truncated;
            }
            if let Some(e) = stop {
                self.interrupted.get_or_insert(e);
                self.out_of_budget = true;
                return None;
            }
            if truncated {
                self.out_of_budget = true;
                return None;
            }
            let failed_mask = self.shared.round_failed.load(Ordering::Relaxed);
            for (k, verdict) in verdicts.iter_mut().enumerate() {
                if verdict.is_none() {
                    *verdict = Some(!rung_unsafe[k] && failed_mask >> k & 1 == 0);
                }
            }
        }
        let verdicts: Vec<bool> = verdicts.into_iter().map(|v| v.expect("resolved")).collect();
        if verdicts.contains(&true) {
            // Every rung raises a coordinate of a safe point, so a safe
            // rung is a validated `r ≠ r⊥`.
            let elapsed = self.shared.started.elapsed();
            self.first_nontrivial.get_or_insert(elapsed);
        }
        Some(verdicts)
    }

    /// Raises coordinate `i` of the safe point `r` as far as it goes
    /// and returns whether it moved. A galloping ascent exploiting
    /// monotonicity: next rung, then top rung, then a binary search of
    /// the frontier in between, probing [`LADDER_PROBES`] evenly spaced
    /// rungs per round. The probe width is fixed — never derived from
    /// the thread count — so the search transcript is identical for
    /// every thread count; parallelism only spreads a round's cone
    /// batches across workers.
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
        let max_solutions = self.shared.options.max_solutions;
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
/// oracle architecture (per-cone engines, one round queue behind a cost
/// gate, per-cone dominance frontiers).
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

    // Input positions in each output's transitive fanin cone.
    let input_pos_of: FxHashMap<usize, usize> = net
        .inputs()
        .iter()
        .enumerate()
        .map(|(pos, id)| (id.index(), pos))
        .collect();
    let masks = net.output_support_masks();
    // One standalone validation cone per finite-required output
    // (∞-required outputs constrain nothing).
    let cones: Vec<Cone> = net
        .outputs()
        .iter()
        .enumerate()
        .filter(|&(oi, _)| !output_required[oi].is_inf())
        .map(|(oi, &o)| {
            let (cnet, map) = net.extract_cone(&[o]);
            let rev: FxHashMap<usize, usize> = map
                .iter()
                .map(|(old, new)| (new.index(), old.index()))
                .collect();
            let input_pos: Vec<usize> = cnet
                .inputs()
                .iter()
                .map(|nid| input_pos_of[&rev[&nid.index()]])
                .collect();
            let mut delays = TableDelay::with_default(&cnet, 0);
            for (old, new) in &map {
                delays.set(*new, model.delay(net, *old));
            }
            Cone {
                out: map[&o],
                net: cnet,
                delays,
                input_pos,
                mask: masks[oi].clone(),
                required: output_required[oi],
            }
        })
        .collect();

    let n_cones = cones.len();
    let shared = Arc::new(OracleShared {
        cones,
        options,
        budget: budget.clone(),
        started,
        cache: StripedVerdictCache::new(n_cones),
        oracle_calls: AtomicUsize::new(0),
        batches: AtomicUsize::new(0),
        batched_probes: AtomicUsize::new(0),
        helper_batches: AtomicUsize::new(0),
        round_failed: AtomicU64::new(0),
        queue: RoundQueue::default(),
    });
    let oversubscribe = std::env::var_os("XRTA_OVERSUBSCRIBE").is_some();
    let mut search = Search {
        shared: Arc::clone(&shared),
        candidates,
        first_nontrivial: None,
        out_of_budget: false,
        interrupted: None,
        worker_panics: 0,
        slots: options.worker_slots(oversubscribe),
        helpers: Vec::new(),
    };

    // The bottom is safe by construction (topological analysis is
    // conservative); seed every cone's frontier so a conflict budget
    // cannot make the search reject its own starting point.
    for c in 0..n_cones {
        let proj = search.project(c, &r_bottom);
        shared.cache.insert(c, &proj, true);
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

    search.shutdown();

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
        oracle_calls: shared.oracle_calls.load(Ordering::Relaxed),
        cache_hits: shared.cache.hits(),
        threads_used: options.effective_threads(),
        steals: shared.helper_batches.load(Ordering::Relaxed),
        shard_contention: 0,
        batches: shared.batches.load(Ordering::Relaxed),
        batched_probes: shared.batched_probes.load(Ordering::Relaxed),
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
    fn thread_counts_agree() {
        let net = mux_false_path();
        let req = [Time::new(4)];
        let run = |threads| {
            approx2_required_times(
                &net,
                &UnitDelay,
                &req,
                Approx2Options {
                    threads,
                    ..Approx2Options::default()
                },
            )
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.maximal, par.maximal);
        assert_eq!(seq.r_bottom, par.r_bottom);
        assert_eq!(par.threads_used, 4);
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

    /// `width` parallel mux-bypass slices sharing a select line and
    /// chaining data inputs — enough cones and rungs to push the
    /// oracle past its warm-up threshold.
    fn wide_bypass(width: usize) -> Network {
        let mut net = Network::new("wide");
        let s = net.add_input("s").unwrap();
        let xs: Vec<NodeId> = (0..=width)
            .map(|i| net.add_input(format!("x{i}").as_str()).unwrap())
            .collect();
        for i in 0..width {
            let b1 = net
                .add_gate(format!("b1_{i}").as_str(), GateKind::Buf, &[xs[i]])
                .unwrap();
            let b2 = net
                .add_gate(format!("b2_{i}").as_str(), GateKind::Buf, &[b1])
                .unwrap();
            let m1 = net
                .add_gate(format!("m1_{i}").as_str(), GateKind::Mux, &[s, xs[i], b2])
                .unwrap();
            let z = net
                .add_gate(format!("z{i}").as_str(), GateKind::Mux, &[s, m1, xs[i + 1]])
                .unwrap();
            net.mark_output(z);
        }
        net
    }

    #[test]
    fn oversubscribed_multiworker_agrees_with_serial() {
        // The worker-slot clamp keeps the helpers unspawned on a
        // one-core machine; lift it so they run on any host. Any
        // interleaving must produce the serial analysis, and the shared
        // frontiers must keep the parallel call count near the
        // sequential level. The flag is never removed: every test here
        // holds at any worker count.
        // Thirty-two slices take 255 oracle calls at one thread, enough
        // multi-batch rounds past the warm-up that a helper takes some
        // even on a loaded host.
        std::env::set_var("XRTA_OVERSUBSCRIBE", "1");
        let net = wide_bypass(32);
        let req = vec![Time::new(4); 32];
        let run = |threads| {
            approx2_required_times(
                &net,
                &UnitDelay,
                &req,
                Approx2Options {
                    threads,
                    ..Approx2Options::default()
                },
            )
        };
        let seq = run(1);
        let par = run(4);
        assert!(
            seq.oracle_calls >= WARMUP_ORACLE_CALLS,
            "circuit too small to engage helpers ({} calls)",
            seq.oracle_calls
        );
        assert!(par.steals > 0, "no batch ran on a helper thread");
        assert_eq!(seq.maximal, par.maximal);
        assert_eq!(seq.candidates, par.candidates);
        assert_eq!(seq.r_bottom, par.r_bottom);
        // Batches run side by side cannot skip the rungs another cone is
        // disproving at that moment, so the parallel count may exceed
        // the serial one: with no cross-cone skip at all this climb
        // makes 317 calls against 255. Frontiers that failed to share
        // verdicts across threads would multiply the count instead.
        assert!(
            par.oracle_calls <= seq.oracle_calls + seq.oracle_calls / 4,
            "parallel oracle calls {} exceed sequential {} by more than 25%",
            par.oracle_calls,
            seq.oracle_calls
        );
    }

    #[test]
    fn trivial_circuit_never_spawns_helpers() {
        // The whole climb on this circuit needs far fewer oracle calls
        // than the warm-up threshold, so the search must run entirely
        // on the calling thread: no steals, no batched hand-offs.
        let net = mux_false_path();
        let r = approx2_required_times(
            &net,
            &UnitDelay,
            &[Time::new(4)],
            Approx2Options {
                threads: 4,
                ..Approx2Options::default()
            },
        );
        assert!(r.oracle_calls < WARMUP_ORACLE_CALLS);
        assert_eq!(r.steals, 0, "cold search must not engage the helpers");
    }

    #[test]
    fn helpers_engage_after_the_warm_up() {
        assert!(!helpers_pay(1, 1_000), "1 slot");
        assert!(!helpers_pay(2, 47), "47 calls");
        assert!(helpers_pay(2, 48), "48 calls");
        assert!(helpers_pay(4, 1_000), "4 slots");
    }
}
