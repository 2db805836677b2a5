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
//! over just that cone. Validation is organised as **rounds** over a
//! work-stealing pool:
//!
//! - **Batched probes** — every pending `(cone, rung)` probe of a round
//!   is grouped by cone into one [`Batch`]. A batch's SAT probes share
//!   one selector-guarded χ engine ([`ChiSatEngine::new_varying`]):
//!   the CNF is built once with the raised coordinate varying over the
//!   batch's rung values, so learned clauses and the clause database
//!   carry across the rungs of a batch instead of being rebuilt per
//!   probe.
//! - **Work stealing** — batches are seeded round-robin into per-worker
//!   deques ([`StealQueues`]); an idle worker steals the oldest batch
//!   of a loaded sibling instead of waiting at a static split, and the
//!   coordinator participates in every round. Helper threads spawn
//!   lazily: a search that never accumulates enough oracle work
//!   ([`WARMUP_ORACLE_CALLS`]) runs entirely on the calling thread and
//!   pays zero spawn latency.
//! - **Shared striped cache** — cone verdicts are pure facts about
//!   `(cone, projected arrivals)`, stored in a lock-striped cache
//!   ([`StripedVerdictCache`]) keyed by support-mask fingerprint. A
//!   verdict proven by one worker immediately prunes every other
//!   worker's pending probes, which keeps the parallel oracle-call
//!   count at the sequential level instead of multiplying it.
//! - **Speculative climb pipelining** — the greedy climb is inherently
//!   sequential (each raise depends on the last verdict), so round
//!   batches alone cannot keep helpers busy. While the coordinator
//!   walks one coordinate, workers pre-solve the *step-1 probes of the
//!   next few coordinates* ([`SPEC_WINDOW`]) at the current base,
//!   landing verdicts in the striped cache where the climb's own
//!   probes find them. Speculative probes ride the injector at lower
//!   priority than round batches, carry the base version they were
//!   planned against (stale probes are dropped unexecuted), and
//!   **single-flight claims** ([`StripedVerdictCache::claim`]) ensure a
//!   probe in flight on one thread is awaited — never re-solved — by
//!   every other.
//! - **Deterministic merge** — the probe schedule is thread-count
//!   independent (fixed ladder width [`LADDER_PROBES`], batches formed
//!   in cone-index order, verdicts landed by rung slot, duplicate
//!   maxima dropped min-attempt-index first), so the reported analysis
//!   is byte-identical for every thread count. Parallelism and cache
//!   sharing change how *many* oracle calls run, never what the search
//!   concludes.
//!
//! Raising coordinate `i` only re-validates cones whose transitive
//! input support contains `i` (precomputed
//! [`Network::output_support_masks`]); every other cone inherits its
//! verdict from the current safe point. Safety is monotone decreasing
//! in the pointwise order, so each cone's striped frontier answers its
//! projections by dominance: a rung is unsafe once one relevant cone's
//! projection is, safe once all are. That is all a whole-vector cache
//! could know, as the bottom is seeded per cone and every raise
//! re-validates the cones supporting it. The per-coordinate climb
//! gallops: next rung, top rung, then bisect the frontier.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xrta_bdd::{BddError, FxHashMap};
use xrta_chi::{ChiSatEngine, EngineKind, FunctionalTiming, Stability};
use xrta_network::{Network, NodeId};
use xrta_sat::StopReason;
use xrta_timing::{required_times, DelayModel, TableDelay, Time};

use crate::governor::{AnalysisError, Budget};
use crate::oracle_pool::StealQueues;
use crate::plan::plan_leaves;
use crate::stripes::{support_fingerprint, Claim, StripedVerdictCache};

/// Rungs probed per bisection round of the galloping ascent. Fixed (not
/// derived from the thread count) so the probe schedule — and with it
/// the whole search transcript — is identical for every thread count.
/// Two trisection probes per round also give every cone batch two rungs
/// to amortise its χ engine over.
const LADDER_PROBES: usize = 2;

/// Oracle calls a search must accumulate before helper threads spawn.
/// Trivial circuits finish their whole climb under this threshold and
/// never pay thread-spawn or hand-off latency.
const WARMUP_ORACLE_CALLS: usize = 48;

/// How many upcoming coordinates the climb speculates ahead of itself.
/// Each speculated coordinate is one step-1 probe (the "can it move at
/// all?" query that dominates the call profile), so the window bounds
/// wasted work when a raise succeeds and invalidates the base.
const SPEC_WINDOW: usize = 8;

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
    /// Helpers spawn lazily once enough oracle work has accumulated and
    /// steal batches from each other; any value produces the same
    /// analysis.
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

    /// Worker slots the oracle pool actually provisions: the configured
    /// thread count clamped to the machine's parallelism. Cone probes
    /// are CPU-bound SAT/BDD solves, so oversubscribing cores only adds
    /// context switching and hand-off latency — a request for 4 threads
    /// on a 1-core box must run exactly like a request for 1 (and does:
    /// the probe schedule is thread-count independent). Setting
    /// `XRTA_OVERSUBSCRIBE` lifts the clamp — the analysis stays
    /// correct under any interleaving, so this exists to exercise and
    /// debug the multi-worker paths on small machines.
    fn worker_slots(&self) -> usize {
        if std::env::var_os("XRTA_OVERSUBSCRIBE").is_some() {
            return self.effective_threads();
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.effective_threads().min(cores)
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
    /// Per-cone safety queries answered from the striped verdict cache
    /// without running a χ engine; a rung the cache settles counts one
    /// hit per cone it consulted.
    pub cache_hits: usize,
    /// Worker threads the search was configured to use.
    pub threads_used: usize,
    /// Batches an idle worker stole from a loaded sibling's deque.
    pub steals: usize,
    /// Striped-cache lock acquisitions that found the stripe held by
    /// another thread.
    pub shard_contention: usize,
    /// Oracle batches executed (each shares one χ engine across its
    /// probes).
    pub batches: usize,
    /// Probes that rode in a multi-rung batch (engine state reused).
    pub batched_probes: usize,
    /// Cone probes solved speculatively (ahead of the climb) by helper
    /// workers; their verdicts were served to the climb from the
    /// striped cache.
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

/// One unit of stealable oracle work: validate `rungs.len()` raises of
/// one coordinate against one cone, sharing a single χ engine.
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

/// A speculative probe: the step-1 raise of an upcoming coordinate,
/// decomposed into the projections of every cone whose support contains
/// it. Executed at injector priority (below round batches); verdicts
/// land in the shared striped cache where the climb's own probes find
/// them. Speculation changes *when* a verdict is proven, never what it
/// says — every verdict is a pure fact about `(cone, projection)`.
struct SpecProbe {
    /// `(cone index, projected arrivals)` per relevant cone.
    cones: Vec<(usize, Vec<Time>)>,
    /// The base version this probe was planned against
    /// ([`OracleShared::spec_version`]); stale probes are dropped.
    version: u64,
}

/// What flows through the work-stealing queues: a round's cone batch
/// (coordinator awaits it at a barrier) or a speculative probe (fire
/// and forget into the cache).
enum Task {
    Round(Batch),
    Spec(SpecProbe),
}

/// Everything a worker needs, shared by `Arc`: the cones, the striped
/// verdict cache, the work queues and the global counters.
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
    /// Per-round bitmask of rung slots already proven unsafe by some
    /// cone; lets every other cone skip its probes for that rung
    /// (cross-cone short-circuit — the verdict is `false` either way).
    round_failed: AtomicU64,
    /// Bumped whenever the climb's base point changes; speculative
    /// probes planned against an older version are dropped unexecuted.
    spec_version: AtomicU64,
    /// Speculative cone probes actually solved (vs dropped stale).
    spec_solved: AtomicUsize,
    /// Panics inside speculative probes (folded into `worker_panics`).
    spec_panics: AtomicUsize,
    queues: StealQueues<Task>,
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
    /// A verdict, now in the striped cache. `panicked` marks the
    /// conservative "unsafe" of a probe that panicked.
    Verdict { safe: bool, panicked: bool },
    /// A deadline, cancellation or memory stop. It is not a fact about
    /// the cone, so nothing was cached.
    Interrupted(BddError),
}

/// The per-probe work shared by round batches and speculation, for a
/// probe of `(cone, proj)` whose single-flight claim the caller owns
/// (`owned`) or timed out waiting on. Reserves one oracle call (undone
/// on overshoot, so the final count never exceeds the cap even under
/// concurrent reservation), evaluates the `approx2::cone`
/// fault-injection site, runs `oracle` under `catch_unwind` and lands
/// the outcome in the striped cache. A node-capacity verdict is
/// deterministic and a panic reads conservatively, so both are cached
/// as unsafe; every other exit abandons the claim so no waiter stalls.
fn run_probe(
    shared: &OracleShared,
    cone: usize,
    proj: &[Time],
    owned: bool,
    oracle: impl FnOnce() -> Result<bool, BddError>,
) -> ProbeEnd {
    let release = || {
        if owned {
            shared.cache.abandon(cone, proj);
        }
    };
    let prior = shared.oracle_calls.fetch_add(1, Ordering::Relaxed);
    if prior >= shared.options.max_oracle_calls {
        shared.oracle_calls.fetch_sub(1, Ordering::Relaxed);
        release();
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
        Ok(Err(e)) => {
            release();
            return ProbeEnd::Interrupted(e);
        }
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
        // Single-flight claim: a hit may have been resolved by another
        // worker mid-round (including a speculative probe we waited
        // for); `Owner` obliges this probe to insert or abandon on
        // every exit path below so no waiter stalls.
        let owned = match shared.cache.claim(batch.cone, &proj) {
            Claim::Hit(v) => {
                if !v {
                    shared.round_failed.fetch_or(1 << k, Ordering::Relaxed);
                }
                out.verdicts.push((k, Some(v)));
                continue;
            }
            Claim::Owner => true,
            Claim::TimedOut => false,
        };
        let end = run_probe(shared, batch.cone, &proj, owned, || {
            match shared.options.engine {
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
            }
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

/// Runs one speculative probe on the calling thread. The verdicts it
/// proves are the same pure facts the round path would compute —
/// speculation changes *when* they are proven, never what they say.
/// Every single-flight claim is resolved (`insert`) or released
/// (`abandon`) on every exit path, so no waiter can stall on this
/// probe.
fn execute_spec(shared: &OracleShared, spec: &SpecProbe) {
    for (c, proj) in &spec.cones {
        if shared.spec_version.load(Ordering::Acquire) != spec.version {
            return; // Stale: the climb has moved its base since.
        }
        if shared.budget.check().is_err() {
            return;
        }
        let owned = match shared.cache.claim(*c, proj) {
            Claim::Hit(true) => continue,
            // One unsafe cone settles the whole vector; the remaining
            // cones' verdicts are not worth oracle budget.
            Claim::Hit(false) => return,
            Claim::Owner => true,
            Claim::TimedOut => false,
        };
        // Speculative probes draw from the same oracle-call budget as
        // the climb's own, on a fresh per-probe engine: speculation has
        // no rung batch to amortise a varying engine over.
        let cone = &shared.cones[*c];
        match run_probe(shared, *c, proj, owned, || shared.fresh_verdict(cone, proj)) {
            ProbeEnd::Verdict { safe, panicked } => {
                let counter = if panicked {
                    &shared.spec_panics
                } else {
                    &shared.spec_solved
                };
                counter.fetch_add(1, Ordering::Relaxed);
                if !safe {
                    return;
                }
            }
            // Interrupts are not facts about the cone; the coordinator
            // attributes them on its own probes.
            ProbeEnd::Capped | ProbeEnd::Interrupted(_) => return,
        }
    }
}

/// Helper-thread main loop: pop (stealing when idle), execute, report.
/// Round batches answer back over the channel; speculative probes
/// resolve silently into the cache. Exits when the queues close.
fn worker_loop(shared: &OracleShared, w: usize, tx: mpsc::Sender<BatchOut>) {
    loop {
        let epoch = shared.queues.epoch();
        match shared.queues.pop(w) {
            Some(Task::Round(batch)) => {
                // `execute_batch` contains probe panics itself; this
                // outer net only exists so a worker that dies anyway
                // still sends a (conservative) result and cannot wedge
                // the round.
                let out = catch_unwind(AssertUnwindSafe(|| execute_batch(shared, &batch)))
                    .unwrap_or_else(|_| BatchOut::poisoned(&batch));
                if tx.send(out).is_err() {
                    return;
                }
            }
            Some(Task::Spec(spec)) => {
                // Contained like a batch; a panic that escapes the
                // per-probe net may leave one claim pending, which
                // waiters shed via the claim timeout.
                let _ = catch_unwind(AssertUnwindSafe(|| execute_spec(shared, &spec)));
            }
            None => {
                if !shared.queues.wait(epoch) {
                    return;
                }
            }
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
    /// Last [`OracleShared::spec_version`] speculation was planned
    /// against; a mismatch resets the window.
    spec_version_seen: u64,
    /// Rotation index (within the current climb pass) up to which
    /// step-1 speculation has been enqueued for the current base.
    spec_upto: usize,
    /// Lazily spawned helper threads (slots `1..` of the queues).
    helpers: Vec<JoinHandle<()>>,
    tx: mpsc::Sender<BatchOut>,
    rx: mpsc::Receiver<BatchOut>,
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
    /// cone's projection is `base`'s, known safe). `lookup` is the
    /// striped cache's counting `query` or its non-counting `peek`.
    fn lookup_rung(
        &self,
        base: &[Time],
        i: usize,
        rung: Time,
        lookup: impl Fn(usize, &[Time]) -> Option<bool>,
    ) -> RungLookup {
        let mut open = Vec::new();
        let raised = |&p: &usize| if p == i { rung } else { base[p] };
        for (c, cone) in self.shared.cones.iter().enumerate() {
            if !cone.supports(i) {
                continue;
            }
            let proj: Vec<Time> = cone.input_pos.iter().map(raised).collect();
            match lookup(c, &proj) {
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

    /// Spawns the helper threads (slots `1..` of the queues), once.
    fn spawn_helpers(&mut self) {
        let slots = self.shared.queues.workers();
        for w in 1..slots {
            let shared = Arc::clone(&self.shared);
            let tx = self.tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("xrta-oracle-{w}"))
                .spawn(move || worker_loop(&shared, w, tx))
                .expect("spawn oracle worker");
            self.helpers.push(handle);
        }
    }

    /// Closes the queues and joins the helpers. Round batches are
    /// always drained between rounds; the version bump makes any
    /// still-queued speculative probes drop on dequeue, so join waits
    /// for at most one in-flight probe per helper.
    fn shutdown(&mut self) {
        self.bump_spec_version();
        self.shared.queues.close();
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }

    /// Executes one round of batches and collects every result (a
    /// barrier: the queues are empty again when this returns). Inline
    /// on the calling thread while the frontier is trivial; otherwise
    /// batches are seeded round-robin across the worker deques and the
    /// coordinator participates, with idle workers stealing.
    fn run_round(&mut self, batches: Vec<Batch>) -> Vec<BatchOut> {
        self.shared.round_failed.store(0, Ordering::Relaxed);
        let n = batches.len();
        let slots = self.shared.queues.workers();
        let warm = self.shared.oracle_calls.load(Ordering::Relaxed) >= WARMUP_ORACLE_CALLS;
        let engage = slots > 1 && n > 1 && (warm || !self.helpers.is_empty());
        if !engage {
            // Single batch, single thread, or a still-cold search:
            // execute in cone order on this thread (the cross-cone
            // short-circuit still applies via `round_failed`).
            return batches
                .iter()
                .map(|b| execute_batch(&self.shared, b))
                .collect();
        }
        if self.helpers.is_empty() {
            self.spawn_helpers();
        }
        for (j, b) in batches.into_iter().enumerate() {
            self.shared.queues.push_local(j % slots, Task::Round(b));
        }
        let mut outs = Vec::with_capacity(n);
        while outs.len() < n {
            // `pop_round`, not `pop`: the coordinator is awaiting this
            // round's barrier and must not pick up a long speculative
            // probe from the injector while batches are outstanding.
            if let Some(task) = self.shared.queues.pop_round(0) {
                match task {
                    Task::Round(batch) => outs.push(execute_batch(&self.shared, &batch)),
                    // Specs never land in worker deques, but stay total.
                    Task::Spec(spec) => execute_spec(&self.shared, &spec),
                }
            } else {
                match self.rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(out) => outs.push(out),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    // Unreachable (we hold a sender), but never hang.
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        outs
    }

    /// Plans speculative step-1 probes for the next [`SPEC_WINDOW`]
    /// coordinates of the rotation at the current base `r`, pushing
    /// them to the injector for idle workers. No-op until the search is
    /// warm (trivial circuits stay single-threaded). `k` is the
    /// rotation index about to be climbed.
    ///
    /// **Waste-freedom.** A speculated probe for coordinate `j` is only
    /// planned for cones whose support is *disjoint* from every
    /// coordinate the climb may raise before it reaches `j` (rotation
    /// positions `k..j`). Raising any of those coordinates cannot
    /// change such a cone's projection, and `r[j]` itself only moves
    /// when the climb ascends `j` — so the planned `(cone, projection)`
    /// is exactly the probe the climb's own step-1 round will need.
    /// Speculation therefore shifts oracle calls earlier in time but
    /// adds none: the parallel call count tracks the sequential one by
    /// construction, instead of gambling on a base that dense circuits
    /// invalidate constantly.
    fn maybe_speculate(&mut self, r: &[Time], start: usize, k: usize) {
        let slots = self.shared.queues.workers();
        if slots <= 1
            || self.shared.oracle_calls.load(Ordering::Relaxed) < WARMUP_ORACLE_CALLS
            || self.out_of_budget
        {
            return;
        }
        if self.helpers.is_empty() {
            self.spawn_helpers();
        }
        let version = self.shared.spec_version.load(Ordering::Acquire);
        if version != self.spec_version_seen {
            // Base moved: whatever was enqueued before is stale (the
            // workers drop it); re-plan the window at the new base.
            self.spec_version_seen = version;
            self.spec_upto = 0;
        }
        let n = r.len();
        let from = self.spec_upto.max(k + 1);
        let to = (k + 1 + SPEC_WINDOW).min(n);
        if from >= to {
            return;
        }
        // Union of the supports that may move before the climb reaches
        // each speculated coordinate: positions k..j in rotation order.
        let words = self.shared.cones.first().map_or(0, |c| c.mask.len());
        let mut blocked = vec![0u64; words.max(1)];
        let mark = |blocked: &mut [u64], pos: usize| {
            blocked[pos / 64] |= 1 << (pos % 64);
        };
        // Positions before `k` were already climbed this pass and stay
        // put until after `j` is probed; only `k..from` may still move.
        for j in k..from {
            mark(&mut blocked, (start + j) % n);
        }
        for j in from..to {
            mark(&mut blocked, (start + j - 1) % n);
            let i = (start + j) % n;
            let cands = &self.candidates[i];
            let Some(pos) = cands.iter().position(|&c| c == r[i]) else {
                continue;
            };
            if pos + 1 >= cands.len() {
                continue; // already at the top
            }
            // Non-counting peek: planning must not inflate the hit
            // counters.
            let peek = |c, p: &[Time]| self.shared.cache.peek(c, p);
            let RungLookup::Open(mut cones) = self.lookup_rung(r, i, cands[pos + 1], peek) else {
                continue; // the climb will answer this from the cache
            };
            cones.retain(|(c, _)| {
                let mask = &self.shared.cones[*c].mask;
                mask.iter().zip(&blocked).all(|(m, b)| m & b == 0)
            });
            if cones.is_empty() {
                continue;
            }
            self.shared
                .queues
                .push(Task::Spec(SpecProbe { cones, version }));
        }
        self.spec_upto = self.spec_upto.max(to);
    }

    /// Declares the climb's base point changed: in-flight and queued
    /// speculative probes against the old base are dropped, and the
    /// next [`Search::maybe_speculate`] re-plans its window.
    fn bump_spec_version(&self) {
        self.shared.spec_version.fetch_add(1, Ordering::Release);
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
        let query = |c, p: &[Time]| self.shared.cache.query(c, p);
        for &rung in rungs {
            let (verdict, todo) = match self.lookup_rung(base, i, rung, query) {
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
    /// The climb itself is sequential (each raise depends on the last
    /// verdict); speculation keeps the helpers busy pre-solving the
    /// step-1 probes of the coordinates just ahead, and every base
    /// change invalidates what they haven't started yet.
    fn climb_rotated(&mut self, mut r: Vec<Time>, start: usize) -> Vec<Time> {
        let n = r.len();
        self.bump_spec_version();
        loop {
            let mut progressed = false;
            self.spec_upto = 0;
            for k in 0..n {
                let i = (start + k) % n;
                self.maybe_speculate(&r, start, k);
                if self.ascend(&mut r, i) {
                    progressed = true;
                    self.bump_spec_version();
                }
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
/// oracle architecture (per-cone engines, work-stealing workers, shared
/// striped dominance cache).
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
    let fingerprints: Vec<u64> = cones
        .iter()
        .enumerate()
        .map(|(c, cone)| support_fingerprint(c, &cone.mask))
        .collect();
    let shared = Arc::new(OracleShared {
        cones,
        options,
        budget: budget.clone(),
        started,
        cache: StripedVerdictCache::new(&fingerprints),
        oracle_calls: AtomicUsize::new(0),
        batches: AtomicUsize::new(0),
        batched_probes: AtomicUsize::new(0),
        round_failed: AtomicU64::new(0),
        spec_version: AtomicU64::new(0),
        spec_solved: AtomicUsize::new(0),
        spec_panics: AtomicUsize::new(0),
        queues: StealQueues::new(options.worker_slots()),
    });
    let (tx, rx) = mpsc::channel();
    let mut search = Search {
        shared: Arc::clone(&shared),
        candidates,
        first_nontrivial: None,
        out_of_budget: false,
        interrupted: None,
        worker_panics: 0,
        spec_version_seen: 0,
        spec_upto: 0,
        helpers: Vec::new(),
        tx,
        rx,
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
        steals: shared.queues.steals(),
        shard_contention: shared.cache.contention(),
        batches: shared.batches.load(Ordering::Relaxed),
        batched_probes: shared.batched_probes.load(Ordering::Relaxed),
        spec_probes: shared.spec_solved.load(Ordering::Relaxed),
        completed: !search.out_of_budget,
        stopped_by: search.interrupted,
        worker_panics: search.worker_panics + shared.spec_panics.load(Ordering::Relaxed),
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
        // The worker-slot clamp keeps multi-worker paths dormant on
        // small machines; lift it so helpers, stealing, speculation and
        // single-flight claims all run even on one core. Any
        // interleaving must produce the serial analysis, and the
        // disjoint-support speculation filter must keep the parallel
        // call count at the sequential level.
        std::env::set_var("XRTA_OVERSUBSCRIBE", "1");
        let net = wide_bypass(6);
        let req = vec![Time::new(4); 6];
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
        std::env::remove_var("XRTA_OVERSUBSCRIBE");
        assert!(
            seq.oracle_calls >= WARMUP_ORACLE_CALLS,
            "circuit too small to engage helpers ({} calls)",
            seq.oracle_calls
        );
        assert_eq!(seq.maximal, par.maximal);
        assert_eq!(seq.candidates, par.candidates);
        assert_eq!(seq.r_bottom, par.r_bottom);
        assert!(
            par.oracle_calls <= seq.oracle_calls + seq.oracle_calls / 10,
            "parallel oracle calls {} exceed sequential {} by more than 10%",
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
        assert_eq!(r.steals, 0, "cold search must not engage the pool");
    }
}
