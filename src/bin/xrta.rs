//! `xrta` — command-line front end for the required-time analyses.
//!
//! The subcommand/flag surface is declared in one table in
//! [`xrta::cli`]; the usage text printed on a usage error is generated
//! from it. Run any bad flag to see the full synopsis.
//!
//! Netlists are BLIF (`.blif`) or ISCAS bench (`.bench`) files; all
//! analyses use the unit delay model, arrival 0 at every input, and a
//! shared required time (default: the topological delay) at every
//! output — the paper's experimental protocol, with `--req` to override.
//!
//! `reqtime` runs as a resource-governed session: `--timeout` gives each
//! rung a wall-clock allowance, `--node-limit` caps BDD nodes,
//! `--sat-conflicts` caps SAT conflicts per oracle query, and with
//! `--fallback on` (the default) an exhausted budget degrades down the
//! ladder exact → approx1 → approx2 → topological instead of failing.
//!
//! `fuzz` needs no netlist: it runs one seeded differential from
//! `xrta-verify` — the engine matrix against the exhaustive oracle over
//! `--seeds` random circuits with at most `--max-inputs` primary
//! inputs, or the ECO (`--edits`) or resynthesis (`--resynth`)
//! differential. Failures are shrunk and filed as `.bench` reproducers
//! under `--corpus` (default `netlists/corpus`), and the run exits `1`.
//! `--time-cap` bounds the wall clock for CI.
//!
//! `batch` runs a whole manifest of jobs (one netlist per line, see
//! `xrta::batch::manifest`) under a crash-resilient journal: every
//! state transition is checkpointed to `--journal` before it takes
//! effect, transient failures retry with capped jittered backoff,
//! jobs that no longer fit `--aggregate-timeout` are shed, and after
//! a crash or cancellation `--resume` completes the run — producing a
//! report byte-identical to an uninterrupted one.
//!
//! `serve` runs the analysis daemon (`xrta-serve`): a bounded worker
//! pool behind a bounded admission queue, a two-tier content-addressed
//! result cache (`--cache-dir` adds the disk tier), single-flight
//! deduplication, and graceful drain on `shutdown` requests or
//! `--cancel-file`. `request` is the matching client: it ships a
//! netlist to the daemon (or probes it with `--ping`, `--stats`,
//! `--shutdown`) and prints the answer; transient failures (connect
//! refused, `busy`) retry with jittered backoff under `--retries`
//! and `--retry-budget-ms`.
//!
//! `route` runs the cluster front-end (`xrta-router`): it
//! consistent-hashes requests across the `--shards` backends, health
//! checks them (ping probes, consecutive-failure ejection, half-open
//! reinstatement), fails over along the ring — past dead shards and
//! `busy` sheds — with seeded backoff between rounds, and answers
//! `stats` probes with cluster-aggregated counters. `xrta route drain
//! HOST:PORT --addr ROUTER` takes one shard out of rotation, waits out
//! its in-flight work, and shuts it down — the rolling-restart
//! primitive.
//!
//! Exit codes, uniform across commands:
//!
//! | code | meaning |
//! |---|---|
//! | `0` | full success: answered at the requested rung / all jobs done / no fuzz failures / clean drain / shard drained |
//! | `1` | the analysis itself failed: budget exhausted with `--fallback off`, fuzz failure found, journal corruption, panic |
//! | `2` | usage error: bad flags, unreadable netlist or manifest, journal exists without `--resume` |
//! | `3` | partial success: answered at a lower rung (degraded), a batch finished with failed/shed jobs, or a request was shed |
//! | `4` | cancelled cooperatively via `--cancel-file` (batch: the journal is resumable) |

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use xrta::batch::{run_batch, BatchConfig, BatchError, BatchOptions};
use xrta::cli::{cancel_flag_for, parse_args, render_usage, required_vector, Args, DEFAULT_SEED};
use xrta::core::{failpoint, macro_model, report, Answer};
use xrta::network::{load_network_file, stats};
use xrta::prelude::*;
use xrta::resynth;
use xrta::robust::backoff::BackoffPolicy;
use xrta::router;
use xrta::serve;
use xrta::verify;

enum Failure {
    /// Bad invocation or unreadable/unparsable netlist: exit 2.
    Usage(String),
    /// The analysis itself stopped short of an answer: exit 1.
    Analysis(AnalysisError),
    /// Infrastructure failure (journal/report I/O, corruption): exit 1.
    Fatal(String),
}

fn run() -> Result<ExitCode, Failure> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(Failure::Usage)?;
    // Deterministic fault injection: the environment arms first, an
    // explicit flag wins. `batch` instead re-arms per attempt with
    // per-(job, attempt) seeds, so its spec rides in BatchOptions.
    failpoint::arm_from_env().map_err(Failure::Usage)?;
    if args.command != "batch" {
        if let Some(spec) = &args.failpoints {
            failpoint::arm(spec, args.failpoints_seed).map_err(Failure::Usage)?;
        }
    }
    let cancel = args.cancel_file.as_deref().map(cancel_flag_for);
    match args.command.as_str() {
        "fuzz" => return run_fuzz(&args, cancel),
        "gen" => return run_gen(&args),
        "batch" => return run_batch_cmd(&args, cancel),
        "serve" => return run_serve(&args, cancel),
        "request" => return run_request(&args),
        "route" => return run_route(&args, cancel),
        _ => {}
    }
    let net = load_network_file(Path::new(
        args.path.as_deref().expect("netlist commands have a path"),
    ))
    .map_err(Failure::Usage)?;
    let zeros = vec![Time::ZERO; net.inputs().len()];
    match args.command.as_str() {
        "stats" => {
            let s = stats(&net);
            println!("name        : {}", net.name());
            println!("inputs      : {}", s.inputs);
            println!("outputs     : {}", s.outputs);
            println!("gates       : {}", s.gates);
            println!("max fanin   : {}", s.max_fanin);
            println!("depth       : {}", s.depth);
            println!("multi-fanout: {}", s.multi_fanout);
        }
        "topo" => {
            let req = required_vector(&net, args.req);
            let t = analyze(&net, &UnitDelay, &zeros, &req);
            println!("node | arrival | required | slack");
            for id in net.node_ids() {
                println!(
                    "{:<12} | {:>7} | {:>8} | {:>5}",
                    net.node(id).name,
                    t.arrival[id.index()],
                    t.required[id.index()],
                    t.slack(id)
                );
            }
        }
        "truedelay" => {
            let ft = FunctionalTiming::new(&net, &UnitDelay, zeros, args.engine);
            let topo = topological_delays(&net, &UnitDelay);
            println!("output | topological | true");
            for ((&o, topo_t), true_t) in net.outputs().iter().zip(&topo).zip(ft.true_arrivals()) {
                let marker = if true_t < *topo_t {
                    "  <-- false paths"
                } else {
                    ""
                };
                println!(
                    "{:<12} | {:>11} | {:>4}{}",
                    net.node(o).name,
                    topo_t,
                    true_t,
                    marker
                );
            }
        }
        "reqtime" => {
            let req = required_vector(&net, args.req);
            let requested: Verdict = args
                .algo
                .parse()
                .map_err(|_| Failure::Usage(format!("unknown --algo {:?}", args.algo)))?;
            let mut budget = Budget::unlimited()
                .with_node_limit(args.node_limit)
                .with_sat_conflicts(args.sat_conflicts)
                .with_mem_limit(args.mem_limit);
            if let Some(cancel) = &cancel {
                budget = budget.with_cancel_flag(Arc::clone(cancel));
            }
            let opts = SessionOptions {
                budget,
                timeout: args.timeout,
                fallback: args.fallback,
                approx2: Approx2Options {
                    engine: args.engine,
                    ..Approx2Options::default()
                },
                ..SessionOptions::default()
            };
            let mut session = run_with_fallback(&net, &UnitDelay, &req, requested, &opts)
                .map_err(Failure::Analysis)?;
            // `--report slack`: machine-readable per-PI/per-node slack
            // instead of the human rendering (degradation still exits 3,
            // with the reason on stderr so stdout stays valid JSON).
            let slack_json = args.report_path.as_deref() == Some("slack");
            if slack_json {
                print!(
                    "{}",
                    render_slack_json(&net, &session.digest(), args.engine)
                );
            } else {
                render_session_human(&net, &mut session);
            }
            if session.degraded() {
                if !slack_json {
                    print!("{}", report::render_session_provenance(&session));
                }
                let reason = session
                    .exhaustion_reason()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "budget exhausted".to_string());
                eprintln!(
                    "xrta: degraded: requested {}, answered {} ({reason})",
                    session.requested, session.verdict
                );
                return Ok(ExitCode::from(3));
            }
        }
        "resynth" => {
            return run_resynth(
                &net,
                &args,
                cancel,
                Path::new(args.path.as_deref().expect("resynth has a path")),
            );
        }
        "slack" => {
            let name = args
                .node
                .ok_or_else(|| Failure::Usage("slack needs --node NAME".into()))?;
            let node = net
                .find(&name)
                .ok_or_else(|| Failure::Usage(format!("no node named {name:?}")))?;
            let req = required_vector(&net, args.req);
            let s = true_slack(&net, &UnitDelay, &zeros, &req, node, args.engine);
            println!("node      : {name}");
            println!("arrival   : {} (true)", s.arrival);
            println!("required  : {} (false-path-aware)", s.required);
            println!("slack     : {} (topological: {})", s.slack, s.topo_slack);
        }
        "macro" => {
            let m = macro_model(&net, &UnitDelay, args.engine);
            println!("pin-to-pin true delays ('d<t' = tightened vs topological):");
            print!("{:>10}", "");
            for o in &m.output_names {
                print!("{o:>10}");
            }
            println!();
            for (i, iname) in m.input_names.iter().enumerate() {
                print!("{iname:>10}");
                for o in 0..m.output_names.len() {
                    match (m.delay[i][o], m.topological[i][o]) {
                        (Some(d), Some(t)) if d < t => print!("{:>10}", format!("{d}<{t}")),
                        (Some(d), _) => print!("{d:>10}"),
                        (None, _) => print!("{:>10}", "·"),
                    }
                }
                println!();
            }
            println!("tightened pairs: {}", m.tightened_pairs());
        }
        other => return Err(Failure::Usage(format!("unknown command {other:?}"))),
    }
    Ok(ExitCode::SUCCESS)
}

/// The classic human rendering of a session answer (everything but
/// `--report slack`).
fn render_session_human(net: &Network, session: &mut SessionReport) {
    match &mut session.answer {
        SessionAnswer::Exact(a) => {
            println!(
                "exact relation over {} leaf variables; non-trivial: {}",
                a.leaf_count(),
                a.has_nontrivial_requirement()
            );
            if net.inputs().len() <= 6 {
                for m in 0..(1usize << net.inputs().len()) {
                    let x: Vec<bool> = (0..net.inputs().len()).map(|i| (m >> i) & 1 == 1).collect();
                    print!("{}", report::render_exact_minterm(net, a, &x));
                }
            } else {
                println!("(per-minterm tables suppressed beyond 6 inputs)");
            }
        }
        SessionAnswer::Approx1(a) => print!("{}", report::render_approx1(net, a)),
        SessionAnswer::Approx2(r) => print!("{}", report::render_approx2(net, r)),
        SessionAnswer::Topological(at_inputs) => {
            println!("input | topological required");
            for (&pi, t) in net.inputs().iter().zip(at_inputs.iter()) {
                println!("{:<12} | {}", net.node(pi).name, t);
            }
        }
    }
}

/// A [`Time`] as a JSON value: finite ticks as a number, the infinities
/// as their token strings.
fn json_time(t: Time) -> String {
    let token = xrta::timing::tokens::time_token(t);
    if t.is_finite() {
        token
    } else {
        format!("\"{token}\"")
    }
}

/// `reqtime --report slack`: the whole slack picture as JSON — the
/// session verdict, per-input required-time points, per-node
/// topological arrival/required/slack, and per-output true
/// (false-path-aware) arrival and slack.
fn render_slack_json(net: &Network, answer: &Answer, engine: EngineKind) -> String {
    use std::fmt::Write as _;
    let esc = xrta::robust::jsonflat::escape;
    let req = &answer.req;
    let zeros = vec![Time::ZERO; net.inputs().len()];
    let topo = analyze(net, &UnitDelay, &zeros, req);
    let ft = FunctionalTiming::new(net, &UnitDelay, zeros.clone(), engine);
    let true_arr = ft.true_arrivals();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"netlist\": \"{}\",", esc(net.name()));
    let _ = writeln!(out, "  \"requested\": \"{}\",", answer.requested);
    let _ = writeln!(out, "  \"verdict\": \"{}\",", answer.verdict);
    let _ = writeln!(out, "  \"degraded\": {},", answer.degraded());
    let _ = writeln!(
        out,
        "  \"required\": [{}],",
        req.iter()
            .map(|&t| json_time(t))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let inputs: Vec<String> = net
        .inputs()
        .iter()
        .enumerate()
        .map(|(pos, &pi)| {
            let pts: Vec<String> = answer.points.iter().map(|p| json_time(p[pos])).collect();
            format!(
                "    {{\"name\": \"{}\", \"topological_required\": {}, \"points\": [{}]}}",
                esc(&net.node(pi).name),
                json_time(topo.required[pi.index()]),
                pts.join(", ")
            )
        })
        .collect();
    let _ = writeln!(out, "  \"inputs\": [\n{}\n  ],", inputs.join(",\n"));
    let outputs: Vec<String> = net
        .outputs()
        .iter()
        .enumerate()
        .map(|(i, &o)| {
            let slack = if req[i].is_finite() && true_arr[i].is_finite() {
                Time::new(req[i].ticks() - true_arr[i].ticks())
            } else if true_arr[i].is_neg_inf() || req[i].is_inf() {
                Time::INF
            } else {
                Time::NEG_INF
            };
            format!(
                "    {{\"name\": \"{}\", \"true_arrival\": {}, \"true_slack\": {}}}",
                esc(&net.node(o).name),
                json_time(true_arr[i]),
                json_time(slack)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"outputs\": [\n{}\n  ],", outputs.join(",\n"));
    let nodes: Vec<String> = net
        .node_ids()
        .map(|id| {
            format!(
                "    {{\"name\": \"{}\", \"arrival\": {}, \"required\": {}, \"slack\": {}}}",
                esc(&net.node(id).name),
                json_time(topo.arrival[id.index()]),
                json_time(topo.required[id.index()]),
                json_time(topo.slack(id))
            )
        })
        .collect();
    let _ = writeln!(out, "  \"nodes\": [\n{}\n  ]", nodes.join(",\n"));
    out.push_str("}\n");
    out
}

/// `xrta resynth`: run the slack-guided restructuring pipeline, print
/// the provenance table, and (with `--out`) write the resulting
/// netlist — the *original bytes* whenever nothing improved or the
/// budget degraded the run, so re-runs are byte-stable.
fn run_resynth(
    net: &Network,
    args: &Args,
    cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
    input: &Path,
) -> Result<ExitCode, Failure> {
    let mut budget = Budget::unlimited()
        .with_node_limit(args.node_limit)
        .with_sat_conflicts(args.sat_conflicts)
        .with_mem_limit(args.mem_limit);
    if let Some(t) = args.timeout {
        budget = budget.with_timeout(t);
    }
    if let Some(cancel) = &cancel {
        budget = budget.with_cancel_flag(Arc::clone(cancel));
    }
    let opts = resynth::ResynthOptions {
        engine: args.engine,
        budget,
        required: args.req.map(|t| vec![Time::new(t); net.outputs().len()]),
        slack_margin: Time::new(args.slack_margin),
        max_chains: args.max_chains,
        ..resynth::ResynthOptions::default()
    };
    let report = resynth::resynthesize(net, &resynth::DelaySpec::unit(), &opts);
    print!("{}", report.render());
    if let Some(out) = &args.out {
        if report.changed && report.degraded.is_none() {
            std::fs::write(out, xrta::network::write_bench(&report.net))
                .map_err(|e| Failure::Fatal(format!("writing {out}: {e}")))?;
        } else {
            // No accepted rewrite (or a degraded run): emit the input
            // bytes verbatim so a re-run is byte-identical.
            let bytes = std::fs::read(input)
                .map_err(|e| Failure::Fatal(format!("re-reading {}: {e}", input.display())))?;
            std::fs::write(out, bytes)
                .map_err(|e| Failure::Fatal(format!("writing {out}: {e}")))?;
        }
        println!("resynth: wrote {out}");
    }
    if let Some(e) = &report.degraded {
        eprintln!("xrta: resynth degraded: {e}; original netlist preserved");
        if matches!(e, AnalysisError::Interrupted) {
            return Ok(ExitCode::from(4));
        }
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

/// `xrta gen`: emit a generated netlist family member. With `--seed`
/// the header carries corpus-style seeded delay-override directives so
/// the file doubles as a fuzz/corpus base.
fn run_gen(args: &Args) -> Result<ExitCode, Failure> {
    let family = args.path.as_deref().expect("gen has a family argument");
    let net = match family {
        "adder" => if args.bypass > 0 {
            xrta::circuits::carry_skip_adder(args.bits, args.bypass)
        } else {
            xrta::circuits::ripple_carry_adder(args.bits)
        }
        .map_err(|e| Failure::Usage(format!("gen adder: {e}")))?,
        other => {
            return Err(Failure::Usage(format!(
                "unknown gen family {other:?} (expected: adder)"
            )))
        }
    };
    let text = match args.seed {
        None => xrta::network::write_bench(&net),
        Some(seed) => {
            // Seeded sparse delay overrides, filed as a corpus entry so
            // replay tools agree on the model.
            let mut rng = xrta_rng::Rng::seed_from_u64(seed);
            let names: Vec<String> = net.node_ids().map(|id| net.node(id).name.clone()).collect();
            let mut delays = std::collections::BTreeMap::new();
            for _ in 0..names.len().min(6) {
                let pick = rng.range(0, names.len());
                delays.insert(names[pick].clone(), rng.range_i64(2, 5));
            }
            let req = topological_delays(&net, &UnitDelay);
            let entry = verify::CorpusEntry {
                case: verify::TestCase { net, req },
                delays,
                origin: format!(
                    "gen {family} bits {} bypass {} seed {seed}",
                    args.bits, args.bypass
                ),
            };
            verify::to_bench(&entry)
        }
    };
    match &args.out {
        Some(out) => {
            std::fs::write(out, &text)
                .map_err(|e| Failure::Fatal(format!("writing {out}: {e}")))?;
            eprintln!("gen: wrote {out}");
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `xrta fuzz`: one seeded differential through `verify::fuzz::drive` —
/// the engine matrix against the exhaustive oracle (`--seeds N`), the
/// ECO warm-vs-cold differential (`--edits N`) or the resynthesis
/// differential (`--resynth N`). The mode flags exclude one another.
fn run_fuzz(
    args: &Args,
    cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
) -> Result<ExitCode, Failure> {
    if [args.seeds, args.edits, args.resynth]
        .iter()
        .flatten()
        .count()
        > 1
    {
        return Err(Failure::Usage(
            "fuzz: --seeds, --edits and --resynth each pick a differential; give one".into(),
        ));
    }
    let opts = verify::FuzzOptions {
        seeds: args.edits.or(args.resynth).or(args.seeds).unwrap_or(100),
        base_seed: args.base_seed,
        max_inputs: args.max_inputs,
        time_cap: args.time_cap,
        corpus_dir: Some(PathBuf::from(
            args.corpus.as_deref().unwrap_or("netlists/corpus"),
        )),
        cancel,
    };
    let progress = |line: &str| eprintln!("xrta: fuzz: {line}");
    // (what the summary calls the cases, what a failure line calls one,
    // the mode's own summary field, the report)
    let (cases, case, field, report) = if args.edits.is_some() {
        let r = verify::eco_fuzz(&opts, progress);
        (
            "edit sequences",
            "sequence",
            format!("{} edits applied", r.tally),
            r,
        )
    } else if args.resynth.is_some() {
        let r = verify::resynth_fuzz(&opts, progress);
        ("resynth seeds", "seed", format!("{} changed", r.tally), r)
    } else {
        let check = verify::CheckOptions {
            mem_limit: args.mem_limit,
            ..verify::CheckOptions::default()
        };
        let r = verify::fuzz(&opts, &check, progress);
        (
            "seeds",
            "seed",
            format!("max inputs {}", args.max_inputs),
            r,
        )
    };
    println!(
        "fuzz: {} of {} {cases} run{} | {field} | base seed {:#x} | {} failure(s)",
        report.seeds_run,
        opts.seeds,
        if report.time_capped {
            " (time-capped)"
        } else {
            ""
        },
        args.base_seed,
        report.failures.len()
    );
    for f in &report.failures {
        let filed = if f.filed.is_empty() {
            String::new()
        } else {
            format!(" | filed {}", verify::fuzz::join_paths(&f.filed))
        };
        println!("failure at {case} {}: {}{filed}", f.index, f.detail);
    }
    if !report.failures.is_empty() {
        Ok(ExitCode::from(1))
    } else if report.cancelled {
        eprintln!("xrta: fuzz cancelled via --cancel-file");
        Ok(ExitCode::from(4))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn run_batch_cmd(
    args: &Args,
    cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
) -> Result<ExitCode, Failure> {
    let manifest = PathBuf::from(args.path.as_deref().expect("batch has a manifest path"));
    let journal = args
        .journal
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| manifest.with_extension("journal"));
    let report = args
        .report_path
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| manifest.with_extension("report.json"));
    let cfg = BatchConfig {
        manifest,
        journal,
        report,
        resume: args.resume,
        options: BatchOptions {
            seed: args.seed.unwrap_or(DEFAULT_SEED),
            backoff: BackoffPolicy {
                base: args.backoff_base,
                cap: args.backoff_cap,
                max_retries: args.max_retries,
            },
            aggregate_timeout: args.aggregate_timeout,
            default_timeout: args.timeout,
            fallback: args.fallback,
            engine: args.engine,
            threads: args.threads,
            failpoints: args.failpoints.clone(),
            route: args.route.clone(),
            cancel,
            stop_after_jobs: None,
            mem_limit: args.mem_limit,
        },
    };
    let summary = run_batch(&cfg).map_err(|e| match e {
        BatchError::Setup(msg) => Failure::Usage(msg),
        e @ BatchError::Journal(_) => Failure::Fatal(e.to_string()),
    })?;
    println!(
        "batch: {} jobs | {} done | {} failed | {} shed | {} pending",
        summary.jobs, summary.done, summary.failed, summary.shed, summary.pending
    );
    if let Some(p) = &summary.report_path {
        println!("batch: report written to {}", p.display());
    }
    if summary.interrupted {
        eprintln!(
            "xrta: batch cancelled via --cancel-file; resume with: xrta batch {} --resume",
            cfg.manifest.display()
        );
        return Ok(ExitCode::from(4));
    }
    if summary.failed > 0 || summary.shed > 0 {
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

/// `xrta serve`: run the daemon until a `shutdown` request or the
/// cancel file drains it, then print the final stats line.
fn run_serve(
    args: &Args,
    cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
) -> Result<ExitCode, Failure> {
    let options = serve::ServeOptions {
        addr: args.addr.clone(),
        workers: args.workers,
        queue_cap: args.queue_cap,
        mem_cache_cap: args.mem_cache,
        cache_dir: args.cache_dir.clone().map(PathBuf::from),
        max_timeout: args.max_timeout,
        max_node_limit: args.node_limit.map(|n| n as u64).unwrap_or(1 << 22),
        max_sat_conflicts: args.sat_conflicts.unwrap_or(1 << 20),
        mem_limit: args.mem_limit,
        allow_hold: args.allow_hold,
        drain_deadline: args.drain_deadline,
        cancel,
        ..serve::ServeOptions::default()
    };
    let handle = serve::start(options).map_err(|e| Failure::Fatal(format!("serve: {e}")))?;
    // Scripts parse this line for the ephemeral port; flush so they
    // see it before the first request.
    println!("xrta: serving on {}", handle.addr());
    if handle.torn_discarded() > 0 {
        eprintln!(
            "xrta: serve: discarded {} torn cache entr{} on startup",
            handle.torn_discarded(),
            if handle.torn_discarded() == 1 {
                "y"
            } else {
                "ies"
            }
        );
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let final_stats = handle.join();
    println!("{}", final_stats.render_line());
    Ok(ExitCode::SUCCESS)
}

/// `xrta request`: one query (or probe) against a running daemon.
fn run_request(args: &Args) -> Result<ExitCode, Failure> {
    let request = if args.ping_probe {
        serve::Request::Ping
    } else if args.stats_probe {
        serve::Request::Stats
    } else if args.shutdown_probe {
        serve::Request::Shutdown
    } else {
        let path = args
            .path
            .as_deref()
            .ok_or_else(|| Failure::Usage("request needs a netlist (or a probe flag)".into()))?;
        let netlist = std::fs::read_to_string(path)
            .map_err(|e| Failure::Usage(format!("reading {path}: {e}")))?;
        let name = Path::new(path)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.to_string());
        let algo: Verdict = args
            .algo
            .parse()
            .map_err(|_| Failure::Usage(format!("unknown --algo {:?}", args.algo)))?;
        let analyze = serve::AnalyzeRequest {
            name,
            netlist,
            algo,
            engine: args.engine,
            req: args.req.map(|t| vec![Time::new(t)]).unwrap_or_default(),
            timeout_ms: args.timeout.map(|t| t.as_millis() as u64),
            node_limit: args.node_limit.map(|n| n as u64),
            sat_conflicts: args.sat_conflicts,
            mem_limit: args.mem_limit,
            hold_ms: args.hold_ms,
        };
        if args.delta {
            serve::Request::Delta(analyze)
        } else {
            serve::Request::Analyze(analyze)
        }
    };
    // Connect-refused and `busy` are transient when shards restart or
    // shed load; retry them under a jittered-backoff budget so scripts
    // survive a rolling drain without their own retry loops.
    let retry = serve::RetryOptions {
        policy: BackoffPolicy {
            max_retries: args.retries,
            ..serve::RetryOptions::default().policy
        },
        budget: Some(std::time::Duration::from_millis(args.retry_budget_ms)),
        seed: args.seed.unwrap_or(DEFAULT_SEED),
    };
    let response = serve::roundtrip_retry(args.addr.as_str(), &request, &retry)
        .map_err(|e| Failure::Fatal(format!("request to {}: {e}", args.addr)))?;
    match &response {
        serve::Response::Pong => println!("pong"),
        serve::Response::Busy { reason } => match reason {
            serve::BusyReason::Queue => {
                eprintln!("xrta: server busy (queue full); retry later")
            }
            serve::BusyReason::Memory => {
                eprintln!("xrta: server busy (memory pressure); retry later")
            }
        },
        serve::Response::ShuttingDown => println!("server shutting down"),
        serve::Response::Drained { shard } => println!("drained {shard}"),
        serve::Response::Error(e) => eprintln!("xrta: server error: {e}"),
        serve::Response::Stats(s) => {
            println!("{}", s.render_line());
            println!(
                "cache: {} mem hits | {} disk hits | {} misses | {} computations",
                s.hits_mem, s.hits_disk, s.misses, s.computations
            );
            println!(
                "load : {} in flight | {} queued | {} answered",
                s.in_flight, s.queue_depth, s.answered
            );
        }
        serve::Response::Answer(a) => {
            println!(
                "verdict    : {}{}",
                a.verdict,
                if a.degraded() {
                    format!(" (requested {})", a.requested)
                } else {
                    String::new()
                }
            );
            println!("nontrivial : {}", a.nontrivial);
            if !a.degraded_reason.is_empty() {
                println!("degraded   : {}", a.degraded_reason);
            }
            for point in &a.points {
                let rendered: Vec<String> = point.iter().map(|t| t.to_string()).collect();
                println!("point      : {}", rendered.join(" "));
            }
        }
    }
    // A `shutting_down` ack is the *expected* outcome of the
    // shutdown probe, not a shed request.
    if args.shutdown_probe && response == serve::Response::ShuttingDown {
        return Ok(ExitCode::SUCCESS);
    }
    Ok(ExitCode::from(serve::answer_exit_code(&response)))
}

/// `xrta route`: run the consistent-hash router over `--shards`, or —
/// with the `drain` verb — ask a running router to take one shard out
/// of rotation, wait out its in-flight work and shut it down.
fn run_route(
    args: &Args,
    cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
) -> Result<ExitCode, Failure> {
    match args.path.as_deref() {
        Some("drain") => {
            let shard = args.path2.clone().ok_or_else(|| {
                Failure::Usage(
                    "route drain needs the shard address: xrta route drain HOST:PORT --addr ROUTER"
                        .into(),
                )
            })?;
            let retry = serve::RetryOptions {
                policy: BackoffPolicy {
                    max_retries: args.retries,
                    ..serve::RetryOptions::default().policy
                },
                budget: Some(std::time::Duration::from_millis(args.retry_budget_ms)),
                seed: args.seed.unwrap_or(DEFAULT_SEED),
            };
            let request = serve::Request::Drain {
                shard: shard.clone(),
            };
            let response = serve::roundtrip_retry(args.addr.as_str(), &request, &retry)
                .map_err(|e| Failure::Fatal(format!("drain via {}: {e}", args.addr)))?;
            match &response {
                serve::Response::Drained { shard } => {
                    println!("drained {shard}");
                    Ok(ExitCode::SUCCESS)
                }
                serve::Response::Error(e) => {
                    eprintln!("xrta: drain failed: {e}");
                    Ok(ExitCode::from(1))
                }
                other => {
                    eprintln!("xrta: drain got an unexpected response: {other:?}");
                    Ok(ExitCode::from(1))
                }
            }
        }
        Some(other) => Err(Failure::Usage(format!(
            "unknown route verb {other:?} (expected: drain)"
        ))),
        None => {
            let shards: Vec<String> = args
                .shards
                .as_deref()
                .ok_or_else(|| {
                    Failure::Usage("route needs --shards HOST:PORT,HOST:PORT,...".into())
                })?
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            let options = router::RouterOptions {
                addr: args.addr.clone(),
                shards,
                probe_interval: args.probe_interval,
                health: router::HealthPolicy {
                    eject_after: args.eject_after,
                    cooldown: args.cooldown,
                },
                retry: BackoffPolicy {
                    max_retries: args.retries,
                    ..router::RouterOptions::default().retry
                },
                retry_budget: Some(std::time::Duration::from_millis(args.retry_budget_ms)),
                seed: args.seed.unwrap_or(DEFAULT_SEED),
                drain_deadline: args.drain_deadline,
                cancel,
                ..router::RouterOptions::default()
            };
            let handle =
                router::start(options).map_err(|e| Failure::Fatal(format!("route: {e}")))?;
            // Scripts parse this line for the ephemeral port; flush so
            // they see it before the first request.
            println!(
                "xrta: routing on {} ({} shards)",
                handle.addr(),
                handle.shard_count()
            );
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            let snapshot = handle.join();
            println!("{}", snapshot.render_line());
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    match std::panic::catch_unwind(run) {
        Ok(Ok(code)) => code,
        Ok(Err(Failure::Usage(e))) => {
            eprintln!("xrta: {e}");
            eprint!("{}", render_usage());
            ExitCode::from(2)
        }
        Ok(Err(Failure::Analysis(AnalysisError::Interrupted))) => {
            eprintln!("xrta: cancelled via --cancel-file");
            ExitCode::from(4)
        }
        Ok(Err(Failure::Analysis(e))) => {
            eprintln!("xrta: analysis failed: {e}");
            ExitCode::from(1)
        }
        Ok(Err(Failure::Fatal(e))) => {
            eprintln!("xrta: {e}");
            ExitCode::from(1)
        }
        Err(_) => {
            eprintln!("xrta: internal error: analysis panicked");
            ExitCode::from(1)
        }
    }
}
