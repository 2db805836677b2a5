//! The batch workloads `iscas_sat`, `mult_sat` and `mcnc_bdd`. One pass
//! runs every analysis of the workload once through
//! `run_with_fallback`, the entry point a CLI user gets.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use xrta_core::{
    plan_leaves, run_with_fallback, slice_cones, AnalysisError, Approx2Options, Approx2Result,
    Budget, SessionAnswer, SessionOptions, Verdict,
};
use xrta_network::{parse_bench, Network};
use xrta_robust::mem::{self, Subsystem};
use xrta_timing::{required_times, Time, UnitDelay};
use xrta_verify::{point_safe, MAX_ORACLE_INPUTS};

use crate::inputs::{self, table1_nontrivial, Circuit, Expect, MCNC_NODE_LIMIT};
use crate::metrics::{median, percentile, ratio, Report, MIB};
use crate::trace::Tracer;
use crate::{probe, Args};

/// Interval between set-up samples; `setup_s` is their median. The
/// host's speed drifts in phases of a fraction of a second to seconds:
/// fifteen back-to-back samples read 37 ms in one phase and 57 ms in
/// the next, so the samples are spread over the whole run instead, one
/// after an analysis when this much time has passed since the last.
const SETUP_EVERY: Duration = Duration::from_secs(1);

/// Table 2's per-query oracle budgets (`crates/bench`): an inconclusive
/// query reads as unsafe, which keeps multiplier probes bounded.
const ORACLE_CONFLICTS: u64 = 100_000;
const ORACLE_PROPAGATIONS: u64 = 20_000_000;

/// One analysis of a pass: a circuit and the rung requested on it.
struct Job {
    circuit: usize,
    rung: Verdict,
}

/// What one analysis answered.
pub struct Answered {
    verdict: Verdict,
    requested: Verdict,
    /// `false` when a deadline cut an approx-2 search short.
    completed: bool,
    nontrivial: bool,
    attempts: Vec<xrta_core::RungAttempt>,
    /// The approx-2 result, when that rung answered.
    approx2: Option<Approx2Result>,
    /// Nodes in the BDD manager of an exact or approx-1 answer.
    bdd_nodes: usize,
}

impl Answered {
    fn decided(&self) -> bool {
        self.verdict == self.requested && self.completed
    }

    /// What must repeat from pass to pass.
    fn digest(&self) -> (Verdict, bool, Vec<Vec<Time>>) {
        let points = self
            .approx2
            .as_ref()
            .map(|r| r.maximal.clone())
            .unwrap_or_default();
        (self.verdict, self.nontrivial, points)
    }
}

/// One analysis's wall time and answer.
pub struct Outcome {
    latency: f64,
    answer: Result<Answered, AnalysisError>,
}

fn session_options(workload: &str, c: &Circuit) -> SessionOptions {
    let budget = if workload == "mcnc_bdd" {
        Budget::unlimited().with_node_limit(Some(MCNC_NODE_LIMIT))
    } else {
        Budget::unlimited()
    };
    let approx2 = if workload == "mcnc_bdd" {
        Approx2Options::default()
    } else {
        Approx2Options {
            oracle_conflict_budget: Some(ORACLE_CONFLICTS),
            oracle_propagation_budget: Some(ORACLE_PROPAGATIONS),
            ..Approx2Options::default()
        }
    };
    SessionOptions {
        budget,
        timeout: c.timeout,
        fallback: true,
        approx2,
        ..SessionOptions::default()
    }
}

fn analyze(net: &Network, rung: Verdict, opts: &SessionOptions) -> Outcome {
    let req = vec![Time::ZERO; net.outputs().len()];
    let started = Instant::now();
    let result = run_with_fallback(net, &UnitDelay, &req, rung, opts);
    let latency = started.elapsed().as_secs_f64();
    let answer = result.map(|mut report| {
        let nontrivial = report.digest().nontrivial;
        let (completed, approx2, bdd_nodes) = match &report.answer {
            SessionAnswer::Approx2(r) => (r.completed, Some(r.clone()), 0),
            SessionAnswer::Exact(a) => (true, None, a.bdd.node_count()),
            SessionAnswer::Approx1(a) => (true, None, a.bdd.node_count()),
            SessionAnswer::Topological(_) => (true, None, 0),
        };
        Answered {
            verdict: report.verdict,
            requested: report.requested,
            completed,
            nontrivial,
            attempts: report.attempts.clone(),
            approx2,
            bdd_nodes,
        }
    });
    Outcome { latency, answer }
}

/// Runs `f` in a span and also returns its wall time in seconds.
fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    parent: u64,
    op: u64,
    f: impl FnOnce(u64) -> T,
) -> (T, f64) {
    let started = Instant::now();
    let out = tracer.span(name, parent, op, f);
    (out, started.elapsed().as_secs_f64())
}

/// Per-layer sums over one traced pass.
pub type Layers = BTreeMap<&'static str, f64>;

/// The span name a rung attempt is recorded under: the layer that does
/// the rung's work.
fn rung_span(rung: Verdict) -> &'static str {
    match rung {
        Verdict::Exact => "bdd.exact",
        Verdict::Approx1 => "bdd.approx1",
        Verdict::Approx2 => "approx2",
        Verdict::Topological => "timing.topological",
    }
}

/// One analysis with every layer boundary the benchmark can reach from
/// outside wrapped in a span: parse, the topological sweep, the leaf
/// plan and cone slicing (each called once more on their own), then the
/// session, with one child span per rung attempt laid end to end.
pub fn traced_analysis(
    tracer: &Tracer,
    op: u64,
    text: &str,
    rung: Verdict,
    opts: &SessionOptions,
    layers: &mut Layers,
) -> Outcome {
    tracer.span("analysis", 0, op, |root| {
        let (net, s) = timed(tracer, "network.parse", root, op, |_| {
            parse_bench(text).expect("rendered text parses")
        });
        *layers.entry("network.parse_s").or_default() += s;
        *layers.entry("network.gates").or_default() += net.gate_count() as f64;
        let req = vec![Time::ZERO; net.outputs().len()];
        let (_, s) = timed(tracer, "timing.topo", root, op, |_| {
            required_times(&net, &UnitDelay, &req)
        });
        *layers.entry("timing.topo_s").or_default() += s;
        let (plan, s) = timed(tracer, "plan", root, op, |_| {
            plan_leaves(&net, &UnitDelay, &req, |_| true)
        });
        *layers.entry("plan.s").or_default() += s;
        *layers.entry("plan.leaves").or_default() += plan.leaf_count() as f64;
        let (slices, s) = timed(tracer, "cone.slice", root, op, |_| {
            slice_cones(&net, &UnitDelay, &req)
        });
        let distinct: HashSet<u128> = slices.iter().map(|s| s.fingerprint).collect();
        *layers.entry("cone.slice_s").or_default() += s;
        *layers.entry("cone.cones").or_default() += slices.len() as f64;
        *layers.entry("cone.cones_distinct").or_default() += distinct.len() as f64;
        drop(slices);
        tracer.span("session", root, op, |sid| {
            let started = Instant::now();
            let outcome = analyze(&net, rung, opts);
            if let Ok(a) = &outcome.answer {
                let mut at = started;
                for attempt in &a.attempts {
                    tracer.record(rung_span(attempt.rung), sid, op, 0, at, at + attempt.wall);
                    at += attempt.wall;
                }
            }
            outcome
        })
    })
}

/// Adds one outcome's rung, BDD and approx-2 figures to `layers`.
pub fn add_outcome_layers(layers: &mut Layers, o: &Outcome) {
    let Ok(a) = &o.answer else { return };
    let mut add = |k: &'static str, v: f64| *layers.entry(k).or_default() += v;
    for attempt in &a.attempts {
        let s = attempt.wall.as_secs_f64();
        match attempt.rung {
            Verdict::Exact => {
                add("session.exact_s", s);
                add("bdd.exact_s", s);
            }
            Verdict::Approx1 => {
                add("session.approx1_s", s);
                add("bdd.approx1_s", s);
            }
            Verdict::Approx2 => {
                add("session.approx2_s", s);
                add("approx2.s", s);
            }
            // No workload falls through to the topological rung.
            Verdict::Topological => {}
        }
        if let Some(AnalysisError::Capacity { limit }) = attempt.error {
            add("bdd.capacity_outs", 1.0);
            add("bdd.nodes", limit as f64);
            add("bdd.node_s", s);
        }
    }
    if matches!(a.verdict, Verdict::Exact | Verdict::Approx1) {
        add("bdd.nodes", a.bdd_nodes as f64);
        add(
            "bdd.node_s",
            a.attempts.last().map_or(0.0, |t| t.wall.as_secs_f64()),
        );
    }
    if a.verdict != a.requested {
        add("session.degraded", 1.0);
    }
    if let Some(r) = &a.approx2 {
        add("approx2.oracle_calls", r.oracle_calls as f64);
        add("approx2.cache_hits", r.cache_hits as f64);
        add("approx2.batches", r.batches as f64);
        add("approx2.batched_probes", r.batched_probes as f64);
        add("approx2.spec_probes", r.spec_probes as f64);
        add("approx2.steals", r.steals as f64);
        add("approx2.shard_contention", r.shard_contention as f64);
        add(
            "approx2.first_nontrivial_s",
            r.first_nontrivial.map_or(0.0, |d| d.as_secs_f64()),
        );
    }
}

/// Input variants per run: the `r`-th run of an analysis takes variant
/// `r % VARIANTS`, each a different seeded rendering (input order and
/// names) of the same circuits. Medians over runs then average over
/// input orders instead of resting on one, which is what keeps the SAT
/// workloads' figures steady from seed to seed.
const VARIANTS: u64 = 16;

/// Fewest timed passes per untraced run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Within a pass, an analysis cheaper than this share of the pass runs
/// several times (up to [`MAX_REPEATS`]), so the cheap analyses' medians
/// rest on many samples at almost no cost to the pass.
const CHEAP_SHARE: f64 = 0.01;
const MAX_REPEATS: usize = 16;

/// One analysis run: which job, on which variant, and what it answered.
struct Run {
    job: usize,
    variant: usize,
    outcome: Outcome,
    /// High-water mark of the memory meter during the run, MiB.
    peak_mb: f64,
}

/// Runs one batch workload and fills the report with the end-to-end
/// (untraced) or per-layer (traced) metrics.
pub fn run(args: &Args) -> Result<Report, String> {
    let make: fn(u64) -> Vec<Circuit> = match args.workload.as_str() {
        "iscas_sat" => inputs::iscas_sat,
        "mult_sat" => inputs::mult_sat,
        "mcnc_bdd" => inputs::mcnc_bdd,
        other => return Err(format!("{other} is not a batch workload")),
    };
    let variants: Vec<Vec<Circuit>> = (0..VARIANTS)
        .map(|v| make(args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ v))
        .collect();
    let circuits = &variants[0];
    let jobs: Vec<Job> = circuits
        .iter()
        .enumerate()
        .flat_map(|(k, c)| c.rungs.iter().map(move |&rung| Job { circuit: k, rung }))
        .collect();
    let opts: Vec<SessionOptions> = circuits
        .iter()
        .map(|c| session_options(&args.workload, c))
        .collect();

    // Set-up: parse every variant's text.
    let parse_all = || -> Vec<Vec<Network>> {
        std::hint::black_box(
            variants
                .iter()
                .map(|cs| {
                    cs.iter()
                        .map(|c| parse_bench(&c.text).expect("rendered text parses"))
                        .collect()
                })
                .collect(),
        )
    };
    let started = Instant::now();
    let nets = parse_all();
    let mut setups = vec![started.elapsed().as_secs_f64()];
    // A later set-up sample parses everything again, between two
    // analyses, and drops the networks outside the timed region.
    let mut last_setup = Instant::now();
    let mut sample_setup = |setups: &mut Vec<f64>| {
        if last_setup.elapsed() >= SETUP_EVERY {
            let started = Instant::now();
            let again = parse_all();
            setups.push(started.elapsed().as_secs_f64());
            drop(again);
            last_setup = Instant::now();
        }
    };

    let meter = mem::global();
    let run_job = |job: usize, variant: usize| -> Run {
        let j = &jobs[job];
        meter.reset_peaks();
        let outcome = analyze(&nets[variant][j.circuit], j.rung, &opts[j.circuit]);
        Run {
            job,
            variant,
            outcome,
            peak_mb: meter.total_peak() as f64 / MIB,
        }
    };

    let mut report = Report::default();
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        // Pass 0 runs every job once and prices it. Later passes run
        // every job again, the cheap ones several times each; a job's
        // `r`-th run takes variant `r % VARIANTS`.
        let started = Instant::now();
        let mut runs = Vec::new();
        for k in 0..jobs.len() {
            runs.push(run_job(k, 0));
            sample_setup(&mut setups);
        }
        let costs: Vec<f64> = runs.iter().map(|r| r.outcome.latency).collect();
        let pass_cost: f64 = costs.iter().sum();
        let repeats: Vec<usize> = costs
            .iter()
            .map(|&c| ((CHEAP_SHARE * pass_cost / c.max(1e-6)) as usize).clamp(1, MAX_REPEATS))
            .collect();
        let mut done = vec![1usize; jobs.len()];
        let mut passes = 1;
        // Start another pass only if it should end within the budget.
        let fits = |passes: usize| {
            let per_pass = started.elapsed().as_secs_f64() / passes as f64;
            started.elapsed().as_secs_f64() + per_pass <= budget.as_secs_f64()
        };
        while passes < MIN_PASSES || fits(passes) {
            for (k, &r) in repeats.iter().enumerate() {
                for _ in 0..r {
                    runs.push(run_job(k, done[k] % variants.len()));
                    done[k] += 1;
                    sample_setup(&mut setups);
                }
            }
            passes += 1;
        }
        let per_job = |f: &dyn Fn(&Run) -> f64| -> Vec<f64> {
            (0..jobs.len())
                .map(|k| {
                    let v: Vec<f64> = runs.iter().filter(|r| r.job == k).map(f).collect();
                    median(&v)
                })
                .collect()
        };
        // Each analysis's latency is its median over its runs, so a
        // percentile picks a circuit, not one noisy run of it.
        let latencies = per_job(&|r| r.outcome.latency);
        let decided = per_job(&|r| {
            let ok = r.outcome.answer.as_ref().is_ok_and(Answered::decided);
            if ok {
                1.0
            } else {
                0.0
            }
        });
        let wall: f64 = latencies.iter().sum();
        let peak = per_job(&|r| r.peak_mb).into_iter().fold(0.0, f64::max);
        report.attempted = runs.len() as u64;
        report.set("setup_s", median(&setups));
        report.set("wall_s", wall);
        report.set(
            "decided_frac",
            decided.iter().sum::<f64>() / jobs.len() as f64,
        );
        report.set("peak_mem_mb", peak);
        report.set("latency_p50_ms", percentile(&latencies, 0.50) * 1e3);
        report.set("latency_p99_ms", percentile(&latencies, 0.99) * 1e3);
        report.set("requests_per_s", jobs.len() as f64 / wall);
        eprintln!(
            "{}: {passes} passes, {} analyses in {:.2} s; runs per job {done:?}; {} set-up samples",
            args.workload,
            runs.len(),
            started.elapsed().as_secs_f64(),
            setups.len(),
        );
        check(&mut report, &variants, &jobs, &nets, &runs);
        return Ok(report);
    }

    // Traced run: untraced and traced passes alternate on the same
    // variant (their difference is the tracing overhead), then the χ/SAT
    // probe runs once.
    let tracer = Tracer::new(true);
    let mut runs: Vec<Run> = Vec::new();
    let mut per_pass: Vec<Layers> = Vec::new();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut region: Option<(Instant, Instant)> = None;
    let started = Instant::now();
    // Start another pair only if it should end within the budget.
    let fits = |pairs: usize| {
        let per_pair = started.elapsed().as_secs_f64() / pairs as f64;
        started.elapsed().as_secs_f64() + per_pair <= budget.as_secs_f64()
    };
    while per_pass.is_empty() || fits(per_pass.len()) {
        let variant = per_pass.len() % variants.len();
        let t0 = Instant::now();
        runs.extend((0..jobs.len()).map(|k| run_job(k, variant)));
        plain_walls.push(t0.elapsed().as_secs_f64());
        meter.reset_peaks();
        let t0 = Instant::now();
        let mut layers = Layers::new();
        for (k, j) in jobs.iter().enumerate() {
            let op = (per_pass.len() * jobs.len() + k) as u64;
            let text = &variants[variant][j.circuit].text;
            let outcome = traced_analysis(&tracer, op, text, j.rung, &opts[j.circuit], &mut layers);
            add_outcome_layers(&mut layers, &outcome);
            runs.push(Run {
                job: k,
                variant,
                outcome,
                peak_mb: 0.0,
            });
        }
        let t1 = Instant::now();
        traced_walls.push((t1 - t0).as_secs_f64());
        region = Some(region.map_or((t0, t1), |(a, _)| (a, t1)));
        for (name, sub) in MEM_METRICS {
            layers.insert(name, meter.peak(sub) as f64 / MIB);
        }
        per_pass.push(layers);
    }
    let (region_start, mut region_end) = region.expect("at least one traced pass");
    // The traced region spans the traced passes only; untraced passes
    // inside it are subtracted from its length below.
    let plain_inside: f64 = plain_walls[1..].iter().sum();
    let probe = if args.workload == "mcnc_bdd" {
        probe::Totals::default()
    } else {
        probe::run(&tracer, circuits, &nets[0])
    };
    region_end = region_end.max(Instant::now());

    layer_metrics(&mut report, &per_pass);
    probe.fill(&mut report);
    report.set(
        "trace.overhead_s",
        median(&traced_walls) - median(&plain_walls),
    );
    report.set(
        "trace.coverage",
        tracer.coverage(region_start, region_end, plain_inside),
    );
    report.set("trace.spans", tracer.spans().len() as f64);
    fill_missing_zero(&mut report);
    crate::finish_trace(args, &tracer)?;
    report.attempted = runs.len() as u64;
    check(&mut report, &variants, &jobs, &nets, &runs);
    Ok(report)
}

/// Sets each per-layer metric to its median over `per_pass`, then the
/// ratios derived from them.
pub fn layer_metrics(report: &mut Report, per_pass: &[Layers]) {
    let mut keys: Vec<&'static str> = per_pass.iter().flat_map(|l| l.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let values: Vec<f64> = per_pass
            .iter()
            .map(|l| l.get(key).copied().unwrap_or(0.0))
            .collect();
        report.set(key, median(&values));
    }
    let get = |r: &Report, k: &str| r.values.get(k).copied().unwrap_or(0.0);
    let nodes = get(report, "bdd.nodes");
    let node_s = get(report, "bdd.node_s");
    report.values.remove("bdd.node_s");
    report.set("bdd.nodes_per_s", ratio(nodes, node_s));
    let (calls, hits) = (
        get(report, "approx2.oracle_calls"),
        get(report, "approx2.cache_hits"),
    );
    report.set("approx2.cache_hit_rate", ratio(hits, hits + calls));
    report.set(
        "approx2.ms_per_call",
        ratio(get(report, "approx2.s") * 1e3, calls),
    );
}

/// Per-subsystem memory metrics and the meter accounts behind them.
pub const MEM_METRICS: [(&str, Subsystem); 6] = [
    ("mem.bdd_mb", Subsystem::Bdd),
    ("mem.sat_mb", Subsystem::Sat),
    ("mem.chi_memo_mb", Subsystem::ChiMemo),
    ("mem.stripes_mb", Subsystem::Stripes),
    ("mem.cone_mb", Subsystem::Cone),
    ("mem.serve_cache_mb", Subsystem::ServeCache),
];

/// Layers this workload never entered (the serve layer on a batch
/// workload, say) read 0.
pub fn fill_missing_zero(report: &mut Report) {
    for &(name, _) in crate::metrics::PER_LAYER {
        report.values.entry(name).or_insert(0.0);
    }
}

/// The reference checks, outside the timed region: the first run of
/// each job on each variant is checked against the references, and
/// every later run of it must repeat a decided answer exactly. Any
/// mismatch counts as a failed operation.
fn check(
    report: &mut Report,
    variants: &[Vec<Circuit>],
    jobs: &[Job],
    nets: &[Vec<Network>],
    runs: &[Run],
) {
    let mut first: BTreeMap<(usize, usize), &Run> = BTreeMap::new();
    for run in runs {
        let job = &jobs[run.job];
        let c = &variants[run.variant][job.circuit];
        let what = format!("{} [{}] variant {}", c.name, job.rung, run.variant);
        let answer = match &run.outcome.answer {
            Ok(a) => a,
            Err(e) => {
                report.fail(format!("{what}: analysis failed: {e}"));
                continue;
            }
        };
        if let Some(earlier) = first.get(&(run.job, run.variant)) {
            if let Ok(a) = &earlier.outcome.answer {
                if a.decided() && a.digest() != answer.digest() {
                    report.fail(format!("{what}: answered differently on a repeat"));
                }
            }
            continue;
        }
        first.insert((run.job, run.variant), run);
        if run.variant == 0 {
            eprintln!(
                "  {:<18} answered {:<11} decided {:<5} non-trivial {:<5} {:>9.1} ms",
                format!("{} [{}]", c.name, job.rung),
                answer.verdict.to_string(),
                answer.decided(),
                answer.nontrivial,
                run.outcome.latency * 1e3
            );
        }
        for problem in check_answer(c, &nets[run.variant][job.circuit], answer) {
            report.fail(format!("{what}: {problem}"));
        }
    }
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
}

fn check_answer(c: &Circuit, net: &Network, a: &Answered) -> Vec<String> {
    let mut problems = Vec::new();
    match c.expect {
        Expect::Table2 { nontrivial } => {
            if a.decided() && a.nontrivial != nontrivial {
                problems.push(format!(
                    "non-trivial = {}, Table 2 says {}",
                    a.nontrivial, nontrivial
                ));
            }
        }
        Expect::Multiplier => {}
        Expect::Table1 { style } => {
            // A run that hit the node cap is undecided, but whichever
            // rung answered in its place must still follow its column.
            let want = table1_nontrivial(style, a.verdict);
            if a.nontrivial != want {
                problems.push(format!(
                    "non-trivial = {} at {}, Table 1 pattern says {want}",
                    a.nontrivial, a.verdict
                ));
            }
        }
    }
    if let Some(r) = &a.approx2 {
        for (i, point) in r.maximal.iter().enumerate() {
            if point.iter().zip(&r.r_bottom).any(|(p, b)| p < b) {
                problems.push(format!("maximal point {i} does not dominate r_bottom"));
            }
        }
        problems.extend(oracle_check(net, &r.maximal));
    }
    problems
}

/// Re-proves maximal points with the exhaustive XBD0 oracle: on the
/// whole network when it is small enough, else on every output cone
/// with at most [`MAX_ORACLE_INPUTS`] inputs, the point restricted to
/// that cone.
fn oracle_check(net: &Network, maximal: &[Vec<Time>]) -> Vec<String> {
    let mut problems = Vec::new();
    let req = vec![Time::ZERO; net.outputs().len()];
    if net.inputs().len() <= MAX_ORACLE_INPUTS {
        for (i, point) in maximal.iter().enumerate() {
            if !point_safe(net, &UnitDelay, &req, point) {
                problems.push(format!("maximal point {i} is unsafe (exhaustive oracle)"));
            }
        }
        return problems;
    }
    for (k, &out) in net.outputs().iter().enumerate() {
        let (cone, map) = net.extract_cone(&[out]);
        if cone.inputs().len() > MAX_ORACLE_INPUTS {
            continue;
        }
        let back: BTreeMap<usize, usize> = net
            .inputs()
            .iter()
            .enumerate()
            .filter_map(|(pos, id)| map.get(id).map(|c| (c.index(), pos)))
            .collect();
        let mut seen = HashSet::new();
        for (i, point) in maximal.iter().enumerate() {
            let restricted: Vec<Time> = cone
                .inputs()
                .iter()
                .map(|id| point[back[&id.index()]])
                .collect();
            if seen.insert(restricted.clone())
                && !point_safe(&cone, &UnitDelay, &[Time::ZERO], &restricted)
            {
                problems.push(format!(
                    "maximal point {i} is unsafe on output cone {k} (exhaustive oracle)"
                ));
            }
        }
    }
    problems
}
