//! The `serve_eco` workload: an in-process `xrta_serve` daemon (workers =
//! available parallelism, memory cache tier only) driven by a closed
//! loop of one client on one connection, replaying a seeded request
//! stream over five netlists:
//!
//! * 70% repeated `analyze` requests (cache reads),
//! * 15% `analyze` requests with a fresh required-time vector (a
//!   computation plus a cache write),
//! * 15% `delta` requests over single-gate ECO edits (cone-incremental).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use xrta_core::{
    analyze_cone, run_with_fallback, slice_cones, splice, Approx2Options, Budget, SessionOptions,
    Verdict,
};
use xrta_network::{parse_netlist, Network, NodeFunc, NodeId};
use xrta_rng::Rng;
use xrta_robust::mem;
use xrta_serve::{AnalyzeRequest, Answer, Client, Request, Response, ServeOptions, StatsSnapshot};
use xrta_timing::{topological_delays, Time, UnitDelay};

use crate::batch::{self, Layers, MEM_METRICS};
use crate::inputs::{render_edited, serve_nets, swapped_kind, Shuffle};
use crate::metrics::{median, percentile, ratio, Report, MIB};
use crate::trace::Tracer;
use crate::Args;

/// Closed-loop clients, each on one connection. With one client per
/// core (two on the 2-vCPU host it was tuned on), two C2670 analyses,
/// each on a two-thread oracle pool, overlapped for much of the run;
/// how they overlapped moved `wall_s`, `latency_p99_ms` and even the
/// cache-hit p50 by 16–25% between two runs of the same seed. One
/// client keeps one request in service at a time.
const CLIENTS: usize = 1;

/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;

/// Fresh `analyze` requests a repeat may re-issue: the most recent ones.
/// Together with the cone entries this stays well inside the server's
/// default 256-entry memory cache, so repeats stay cache reads.
const REPEAT_WINDOW: usize = 48;

/// Netlists whose `analyze` requests are never repeated. A cache hit on
/// C2670 still costs about four times one on the smaller netlists (the
/// server parses and fingerprints every request's text), so its repeats
/// formed a second latency mode that the stream's p50 fell on the edge
/// of, and `latency_p50_ms` jumped between the two modes from seed to
/// seed. C2670 still sends fresh `analyze` and `delta` requests, the
/// heaviest of the stream.
const UNREPEATED: &[&str] = &["C2670.bench"];

/// Renderings (node names and input order) per netlist that fresh
/// `analyze` requests take in turn. The approx-2 climb follows the input
/// order, and fresh C2670 analyses are most of the stream's work and set
/// its p99; like the batch workloads' variants, the renderings make a
/// run average over input orders instead of resting on the seed's one.
const RENDERINGS: usize = 8;

/// Single-gate ECO edits per netlist (edit 0 is the unedited netlist).
const EDITS: usize = 24;

/// Requests per block; `wall_s` is the median time to answer one block.
const BLOCK: usize = 200;

/// Interval between `stats` polls in the traced run.
const POLL_EVERY: Duration = Duration::from_millis(50);

/// The server's budget policy (the `ServeOptions` defaults), which the
/// in-process reference runs under too.
fn policy() -> ServeOptions {
    ServeOptions {
        workers: parallelism(),
        ..ServeOptions::default()
    }
}

fn parallelism() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// One request of the stream. Equal descriptors are equal requests.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Desc {
    delta: bool,
    net: usize,
    /// Required time broadcast to every output; `None` means the
    /// topological delays (the paper's protocol).
    req: Option<i64>,
    /// ECO edit index for `delta` requests (0 = unedited).
    edit: usize,
    /// Rendering of a fresh `analyze` request; 0, the base rendering,
    /// for every other request.
    rendering: usize,
}

/// Requests per stratum of the stream. Every stratum holds, per netlist,
/// [`PER_NET`] fresh `analyze` requests and as many `delta` requests,
/// and repeats for the rest (70 of 100 with five netlists), in a seeded
/// order: the mix, and with it the work per stratum, does not vary with
/// the seed. At 60% repeats the fast cache-read mode ended a few
/// percentiles above the p50 and the p50 slid off it on some seeds; at
/// 70% it sits well inside.
const STRATUM: usize = 100;

/// Fresh `analyze` requests, and `delta` requests, per netlist and
/// stratum.
const PER_NET: usize = 3;

/// The seeded request stream. Drawn under a lock, so the `k`-th
/// request is a function of the seed alone, whichever client sends it.
struct Stream {
    rng: Rng,
    /// Per netlist: may its `analyze` requests be repeated?
    repeated: Vec<bool>,
    /// Per netlist: fresh `analyze` requests drawn so far.
    fresh: Vec<usize>,
    used: HashSet<i64>,
    window: VecDeque<Desc>,
    pending: Vec<Slot>,
    drawn: u64,
}

/// What a stream position asks for, before its values are drawn.
#[derive(Clone, Copy)]
enum Slot {
    Repeat,
    Fresh(usize),
    Delta(usize),
}

impl Stream {
    fn new(seed: u64, repeated: Vec<bool>) -> Stream {
        let window = (0..repeated.len())
            .filter(|&net| repeated[net])
            .map(|net| Desc {
                delta: false,
                net,
                req: None,
                edit: 0,
                rendering: 0,
            })
            .collect();
        Stream {
            rng: Rng::seed_from_u64(seed ^ 0x05e7_eec0),
            fresh: vec![0; repeated.len()],
            repeated,
            used: HashSet::new(),
            window,
            pending: Vec::new(),
            drawn: 0,
        }
    }

    fn next(&mut self) -> (u64, Desc) {
        if self.pending.is_empty() {
            let nets = self.repeated.len();
            let mut slots = vec![Slot::Repeat; STRATUM - 2 * PER_NET * nets];
            for net in 0..nets {
                for _ in 0..PER_NET {
                    slots.push(Slot::Fresh(net));
                    slots.push(Slot::Delta(net));
                }
            }
            self.rng.shuffle(&mut slots);
            self.pending = slots;
        }
        self.drawn += 1;
        let desc = match self.pending.pop().expect("refilled above") {
            Slot::Repeat => self.rng.pick(self.window.make_contiguous()).clone(),
            Slot::Fresh(net) => {
                // A required time never asked before: a computation and
                // a cache write, of the same size as the base request.
                let req = loop {
                    let t = self.rng.range_i64(1, 1_000_000);
                    if self.used.insert(t) {
                        break t;
                    }
                };
                let d = Desc {
                    delta: false,
                    net,
                    req: Some(req),
                    edit: 0,
                    rendering: self.fresh[net] % RENDERINGS,
                };
                self.fresh[net] += 1;
                if self.repeated[net] {
                    self.window.push_back(d.clone());
                    if self.window.len() > REPEAT_WINDOW {
                        self.window.pop_front();
                    }
                }
                d
            }
            Slot::Delta(net) => Desc {
                delta: true,
                net,
                req: None,
                edit: self.rng.range(0, EDITS + 1),
                rendering: 0,
            },
        };
        (self.drawn, desc)
    }
}

/// The netlist texts: per netlist, the base rendering and one rendering
/// per ECO edit, all with the same seeded names and input order so an
/// edit changes one gate line; and further unedited renderings with
/// their own names and input order, which fresh `analyze` requests take
/// in turn.
struct Texts {
    names: Vec<String>,
    texts: Vec<Vec<String>>,
    others: Vec<Vec<String>>,
}

impl Texts {
    fn new(seed: u64) -> Texts {
        let mut names = Vec::new();
        let mut texts = Vec::new();
        let mut others = Vec::new();
        for (k, (name, net)) in serve_nets().into_iter().enumerate() {
            let naming = seed.wrapping_mul(0x9e37_79b9).wrapping_add(k as u64);
            let render_as = |naming, edit| {
                render_edited(
                    &net,
                    &mut Rng::seed_from_u64(naming),
                    Shuffle::PermuteInputs,
                    edit,
                )
            };
            let render = |edit| render_as(naming, edit);
            others.push(
                (1..RENDERINGS as u64)
                    .map(|r| render_as(naming ^ (r << 40), None))
                    .collect(),
            );
            let mut edit_rng = Rng::seed_from_u64(naming ^ 0xed17);
            let candidates: Vec<NodeId> = net
                .node_ids()
                .filter(|&id| match &net.node(id).func {
                    NodeFunc::Gate { kind: Some(k), .. } => swapped_kind(*k).is_some(),
                    _ => false,
                })
                .collect();
            let mut variants = vec![render(None)];
            for _ in 0..EDITS {
                let at = *edit_rng.pick(&candidates);
                let NodeFunc::Gate {
                    kind: Some(kind), ..
                } = net.node(at).func
                else {
                    unreachable!("candidates are library gates")
                };
                variants.push(render(Some((at, swapped_kind(kind).expect("swappable")))));
            }
            names.push(format!("{name}.bench"));
            texts.push(variants);
        }
        Texts {
            names,
            texts,
            others,
        }
    }

    fn text(&self, d: &Desc) -> &str {
        match d.rendering {
            0 => &self.texts[d.net][d.edit],
            r => &self.others[d.net][r - 1],
        }
    }

    fn request(&self, d: &Desc) -> Request {
        let a = AnalyzeRequest {
            name: self.names[d.net].clone(),
            netlist: self.text(d).to_string(),
            algo: Verdict::Approx2,
            req: d.req.map(Time::new).into_iter().collect(),
            ..AnalyzeRequest::default()
        };
        if d.delta {
            Request::Delta(a)
        } else {
            Request::Analyze(a)
        }
    }
}

/// One answered (or refused) request, as the client saw it.
struct Sample {
    desc: Desc,
    latency: f64,
    done: Instant,
    response: Result<Response, String>,
}

/// A running server with its connected clients.
struct Rig {
    handle: xrta_serve::ServerHandle,
    clients: Vec<Client>,
}

/// Starts the server and connects the clients, then checks each
/// connection with a `ping`. Returns the rig and its set-up time: the
/// start and the connects. The `ping` is left out because a
/// connection's first answer waits for the server's accept loop, which
/// polls every 5 ms; with it, set-up read 0.3 ms or 5.4 ms by which side
/// of a poll the connect landed on, the same in most of a run's repeats.
fn start_rig() -> Result<(Rig, f64), String> {
    let started = Instant::now();
    let handle = xrta_serve::start(policy()).map_err(|e| format!("serve: {e}"))?;
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push(Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?);
    }
    let setup = started.elapsed().as_secs_f64();
    for c in &mut clients {
        match c.request(&Request::Ping) {
            Ok(Response::Pong) => {}
            other => return Err(format!("ping answered {other:?}")),
        }
    }
    Ok((Rig { handle, clients }, setup))
}

fn stop_rig(rig: Rig) -> StatsSnapshot {
    rig.handle.shutdown();
    drop(rig.clients);
    rig.handle.join()
}

/// What the `stats` poller saw during a traced window.
#[derive(Default)]
struct Polls {
    latencies: Vec<f64>,
    queue_depth_max: u64,
}

/// Runs the closed loop for `seconds`: every client sends its next
/// request only after the previous answer arrived.
fn closed_loop(
    rig: &mut Rig,
    stream: &Mutex<Stream>,
    texts: &Texts,
    seconds: f64,
    tracer: &Tracer,
) -> Result<(Vec<Sample>, Polls, f64), String> {
    let addr = rig.handle.addr();
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    let stop_poll = std::sync::atomic::AtomicBool::new(false);
    let (samples, polls) = thread::scope(|s| {
        let poller = tracer.on().then(|| {
            let stop_poll = &stop_poll;
            s.spawn(move || -> Result<Polls, String> {
                let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let mut polls = Polls::default();
                while !stop_poll.load(std::sync::atomic::Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let r = c
                        .request(&Request::Stats)
                        .map_err(|e| format!("stats: {e}"))?;
                    let t1 = Instant::now();
                    tracer.record("serve.stats", 0, 0, 99, t0, t1);
                    if let Response::Stats(st) = r {
                        polls.queue_depth_max = polls.queue_depth_max.max(st.queue_depth);
                    }
                    polls.latencies.push((t1 - t0).as_secs_f64());
                    thread::sleep(POLL_EVERY);
                }
                Ok(polls)
            })
        });
        let workers: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(tid, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < end {
                        let (id, desc) = stream.lock().expect("stream lock").next();
                        let request = texts.request(&desc);
                        let t0 = Instant::now();
                        let response = client.request(&request).map_err(|e| e.to_string());
                        let done = Instant::now();
                        tracer.record("serve.request", 0, id, tid as u64, t0, done);
                        let failed = response.is_err();
                        out.push(Sample {
                            desc,
                            latency: (done - t0).as_secs_f64(),
                            done,
                            response,
                        });
                        if failed {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        let samples: Vec<Sample> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect();
        stop_poll.store(true, std::sync::atomic::Ordering::Relaxed);
        let polls = poller.map(|p| p.join().expect("poller thread panicked"));
        (samples, polls)
    });
    let polls = polls.transpose()?.unwrap_or_default();
    Ok((samples, polls, started.elapsed().as_secs_f64()))
}

/// Median time to answer one block of [`BLOCK`] consecutive requests.
fn block_wall(samples: &[Sample], started: Instant) -> f64 {
    let mut done: Vec<f64> = samples
        .iter()
        .map(|s| (s.done - started).as_secs_f64())
        .collect();
    done.sort_by(f64::total_cmp);
    let mut walls = Vec::new();
    let mut prev = 0.0;
    for chunk in done.chunks_exact(BLOCK) {
        let last = chunk[BLOCK - 1];
        walls.push(last - prev);
        prev = last;
    }
    if walls.is_empty() {
        // Fewer than one block answered: scale the whole window.
        walls.push(done.last().copied().unwrap_or(0.0) * BLOCK as f64 / done.len().max(1) as f64);
    }
    median(&walls)
}

/// Prints request counts and latencies per verb and netlist to standard
/// error.
fn summarize(texts: &Texts, samples: &[Sample]) {
    let mut groups: BTreeMap<(bool, usize), Vec<f64>> = BTreeMap::new();
    for s in samples {
        groups
            .entry((s.desc.delta, s.desc.net))
            .or_default()
            .push(s.latency * 1e3);
    }
    for ((delta, net), lat) in groups {
        eprintln!(
            "  {:<7} {:<13} {:>5} requests, p50 {:>8.2} ms, max {:>8.2} ms",
            if delta { "delta" } else { "analyze" },
            texts.names[net],
            lat.len(),
            median(&lat),
            percentile(&lat, 1.0)
        );
    }
}

/// Runs `serve_eco`.
pub fn run(args: &Args) -> Result<Report, String> {
    let texts = Texts::new(args.seed);
    let repeated = texts
        .names
        .iter()
        .map(|n| !UNREPEATED.contains(&n.as_str()))
        .collect();
    let stream = Mutex::new(Stream::new(args.seed, repeated));

    let mut setups = Vec::new();
    let mut rig = None;
    for k in 0..SETUP_REPEATS {
        let (r, setup) = start_rig()?;
        setups.push(setup);
        if k + 1 < SETUP_REPEATS {
            stop_rig(r);
        } else {
            rig = Some(r);
        }
    }
    let mut rig = rig.expect("at least one set-up");

    // Warm-up, untimed: the base requests the first repeats re-issue.
    for net in 0..texts.names.len() {
        let d = Desc {
            delta: false,
            net,
            req: None,
            edit: 0,
            rendering: 0,
        };
        rig.clients[0]
            .request(&texts.request(&d))
            .map_err(|e| format!("warm-up: {e}"))?;
    }

    let mut report = Report::default();
    let meter = mem::global();
    let off = Tracer::new(false);
    let samples = if !args.trace {
        meter.reset_peaks();
        let started = Instant::now();
        let (samples, _, elapsed) = closed_loop(&mut rig, &stream, &texts, args.seconds, &off)?;
        let peak = meter.total_peak() as f64 / MIB;
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency).collect();
        let answered = samples
            .iter()
            .filter(|s| matches!(s.response, Ok(Response::Answer(_))))
            .count();
        let decided = samples
            .iter()
            .filter(|s| matches!(&s.response, Ok(Response::Answer(a)) if !a.degraded()))
            .count();
        report.set("setup_s", median(&setups));
        report.set("wall_s", block_wall(&samples, started));
        report.set("decided_frac", ratio(decided as f64, samples.len() as f64));
        report.set("peak_mem_mb", peak);
        report.set("latency_p50_ms", percentile(&latencies, 0.50) * 1e3);
        report.set("latency_p99_ms", percentile(&latencies, 0.99) * 1e3);
        report.set("requests_per_s", answered as f64 / elapsed);
        eprintln!(
            "serve_eco: {} requests in {elapsed:.2} s, {} beyond p99",
            samples.len(),
            samples.len() - (samples.len() as f64 * 0.99).ceil() as usize
        );
        summarize(&texts, &samples);
        stop_rig(rig);
        samples
    } else {
        traced(args, &mut report, rig, &stream, &texts)?
    };
    report.attempted = samples.len() as u64;
    verify(&mut report, &texts, &samples);
    Ok(report)
}

/// The traced run: an untraced window and a traced window of half the
/// time each (their block walls give the tracing overhead), then one
/// traced analysis of each served netlist for the layer metrics the
/// server does not report.
fn traced(
    args: &Args,
    report: &mut Report,
    mut rig: Rig,
    stream: &Mutex<Stream>,
    texts: &Texts,
) -> Result<Vec<Sample>, String> {
    let half = args.seconds / 2.0;
    let off = Tracer::new(false);
    let started = Instant::now();
    let (mut samples, _, _) = closed_loop(&mut rig, stream, texts, half, &off)?;
    let untraced_wall = block_wall(&samples, started);

    let tracer = Tracer::new(true);
    let meter = mem::global();
    let before = rig.handle.stats();
    meter.reset_peaks();
    let region = Instant::now();
    let (traced, polls, _) = closed_loop(&mut rig, stream, texts, half, &tracer)?;
    let traced_wall = block_wall(&traced, region);
    let after = rig.handle.stats();
    let mut layers = Layers::new();
    for (name, sub) in MEM_METRICS {
        layers.insert(name, meter.peak(sub) as f64 / MIB);
    }
    // One analysis per served netlist, with the server's policy.
    let p = policy();
    let opts = SessionOptions {
        budget: Budget::unlimited()
            .with_node_limit(Some(p.max_node_limit as usize))
            .with_sat_conflicts(Some(p.max_sat_conflicts)),
        timeout: Some(p.max_timeout),
        fallback: true,
        ..SessionOptions::default()
    };
    for (k, variants) in texts.texts.iter().enumerate() {
        let o = batch::traced_analysis(
            &tracer,
            2_000_000 + k as u64,
            &variants[0],
            Verdict::Approx2,
            &opts,
            &mut layers,
        );
        batch::add_outcome_layers(&mut layers, &o);
    }
    let region_end = Instant::now();
    stop_rig(rig);

    batch::layer_metrics(report, &[layers]);
    let d = |f: fn(&StatsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
    let client: Vec<f64> = traced.iter().map(|s| s.latency).collect();
    report.set("serve.service_p50_ms", after.p50_us as f64 / 1e3);
    report.set("serve.service_p99_ms", after.p99_us as f64 / 1e3);
    report.set(
        "serve.wait_p50_ms",
        percentile(&client, 0.5) * 1e3 - after.p50_us as f64 / 1e3,
    );
    let (hits, misses) = (d(|s| s.hits()), d(|s| s.misses));
    report.set("serve.hit_rate", ratio(hits, hits + misses));
    report.set("serve.computations", d(|s| s.computations));
    let (ch, cm) = (d(|s| s.cone_hits), d(|s| s.cone_misses));
    report.set("serve.cone_hit_rate", ratio(ch, ch + cm));
    report.set("serve.queue_depth_max", polls.queue_depth_max as f64);
    report.set("serve.sheds", d(|s| s.sheds + s.sheds_memory));
    report.set("serve.stats_ms", median(&polls.latencies) * 1e3);
    report.set("trace.overhead_s", traced_wall - untraced_wall);
    report.set("trace.coverage", tracer.coverage(region, region_end, 0.0));
    report.set("trace.spans", tracer.spans().len() as f64);
    batch::fill_missing_zero(report);
    crate::finish_trace(args, &tracer)?;
    samples.extend(traced);
    Ok(samples)
}

/// The reference answer for one request: an in-process
/// `run_with_fallback` for `analyze`, a cold slice → analyse → splice
/// for `delta`, both under the server's budget clamp.
fn reference(texts: &Texts, d: &Desc) -> Result<Answer, String> {
    let net: Network =
        parse_netlist(&texts.names[d.net], texts.text(d)).map_err(|e| format!("netlist: {e}"))?;
    let req: Vec<Time> = match d.req {
        None => topological_delays(&net, &UnitDelay),
        Some(t) => vec![Time::new(t); net.outputs().len()],
    };
    let p = policy();
    let opts = SessionOptions {
        budget: Budget::unlimited()
            .with_node_limit(Some(p.max_node_limit as usize))
            .with_sat_conflicts(Some(p.max_sat_conflicts)),
        timeout: Some(p.max_timeout),
        fallback: true,
        approx2: Approx2Options::default(),
        ..SessionOptions::default()
    };
    if d.delta {
        let slices = slice_cones(&net, &UnitDelay, &req);
        let verdicts = slices
            .iter()
            .map(|s| analyze_cone(s, Verdict::Approx2, &opts))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let r = splice(&net, &UnitDelay, &req, Verdict::Approx2, &slices, &verdicts);
        return Ok(Answer {
            requested: r.requested,
            verdict: r.verdict,
            nontrivial: r.nontrivial,
            req,
            points: r.points,
            degraded_reason: r.degraded_reason,
        });
    }
    let mut report = run_with_fallback(&net, &UnitDelay, &req, Verdict::Approx2, &opts)
        .map_err(|e| e.to_string())?;
    let digest = report.digest();
    Ok(Answer {
        requested: report.requested,
        verdict: report.verdict,
        nontrivial: digest.nontrivial,
        req,
        points: digest.points,
        degraded_reason: report
            .exhaustion_reason()
            .map(|e| e.to_string())
            .unwrap_or_default(),
    })
}

/// Checks every answer against its reference, outside the timed
/// region. Each distinct request is recomputed once, spread over the
/// available cores.
fn verify(report: &mut Report, texts: &Texts, samples: &[Sample]) {
    let mut by_desc: HashMap<&Desc, Vec<&Sample>> = HashMap::new();
    for s in samples {
        by_desc.entry(&s.desc).or_default().push(s);
    }
    let distinct: Vec<&Desc> = by_desc.keys().copied().collect();
    let next = Mutex::new(0usize);
    let refs: BTreeMap<usize, Result<Answer, String>> = thread::scope(|s| {
        let workers: Vec<_> = (0..parallelism())
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = {
                            let mut n = next.lock().expect("verify lock");
                            *n += 1;
                            *n - 1
                        };
                        let Some(d) = distinct.get(k) else { break };
                        out.push((k, reference(texts, d)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("verify thread panicked"))
            .collect()
    });
    for (k, d) in distinct.iter().enumerate() {
        let want = &refs[&k];
        for s in &by_desc[d] {
            let problem = match (&s.response, want) {
                (Err(e), _) => Some(format!("transport error: {e}")),
                (Ok(Response::Answer(got)), Ok(want)) if got == want => None,
                (Ok(Response::Answer(_)), Ok(_)) => {
                    Some("answer differs from the reference".into())
                }
                (Ok(Response::Answer(_)), Err(e)) => Some(format!("reference failed: {e}")),
                (Ok(other), _) => Some(format!("refused: {other:?}")),
            };
            if let Some(p) = problem {
                report.fail(format!(
                    "{} {} req {:?} edit {}: {p}",
                    if d.delta { "delta" } else { "analyze" },
                    texts.names[d.net],
                    d.req,
                    d.edit
                ));
            }
        }
    }
    for p in report.problems.iter().take(10) {
        eprintln!("check failed: {p}");
    }
    eprintln!(
        "serve_eco: {} requests checked against {} distinct references",
        samples.len(),
        distinct.len()
    );
}
