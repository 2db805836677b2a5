//! The crash-resilient batch runner.
//!
//! Every state transition is journaled *before* the runner acts on
//! it, so a `SIGKILL` at any instant loses at most the attempt that
//! was in flight — and the journal records that too, as a dangling
//! [`Event::Start`] that the resumed run simply re-runs under the
//! same attempt number. The final report is rendered purely from the
//! journal (deterministic fields only), which is what makes an
//! interrupted-then-resumed run's report byte-identical to an
//! uninterrupted one's.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xrta_chi::EngineKind;
use xrta_core::{
    failpoint, run_with_fallback, AnalysisError, Answer, Approx2Options, Budget, SessionOptions,
};
use xrta_network::load_network_file;
use xrta_rng::Rng;
use xrta_robust::fsio::{atomic_write, crc32};
use xrta_robust::journal::Journal;
use xrta_timing::{topological_delays, Time, UnitDelay};

use crate::classify::{FailureClass, JobError};
use crate::manifest::{parse_manifest, JobSpec};
use crate::record::{DoneRecord, Event};
use xrta_robust::backoff::BackoffPolicy;
use xrta_robust::jsonflat::escape;

/// Tuning knobs for one batch run.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Run seed: drives per-attempt failpoint schedules and backoff
    /// jitter. Pinned in the journal header; a resume must match.
    pub seed: u64,
    /// Retry policy for transient failures.
    pub backoff: BackoffPolicy,
    /// Aggregate wall-clock budget for the whole batch; jobs whose
    /// estimated cost no longer fits are shed, not failed.
    pub aggregate_timeout: Option<Duration>,
    /// Per-rung timeout for jobs that do not specify their own.
    pub default_timeout: Option<Duration>,
    /// Step down the degradation ladder instead of failing a rung.
    pub fallback: bool,
    /// χ engine for approx2 oracle queries.
    pub engine: EngineKind,
    /// Failpoint schedule, re-armed per attempt with a seed derived
    /// from `(seed, job, attempt)`. Requires the `failpoints` feature.
    pub failpoints: Option<String>,
    /// Offload every analysis to this `xrta serve` or `xrta route`
    /// address instead of computing locally. One network round-trip
    /// per attempt; connect errors and `busy` sheds classify as
    /// transient, so the journaled backoff machinery retries them.
    pub route: Option<String>,
    /// Cooperative cancel flag (e.g. fed by `--cancel-file`): raising
    /// it stops the run between oracle steps, leaving the journal
    /// resumable.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Test hook simulating a crash: stop (without writing a report)
    /// after this many *terminal* records have been journaled by this
    /// process.
    pub stop_after_jobs: Option<usize>,
    /// Memory budget per attempt. A `memory-out` classifies as
    /// transient, and each retry *tightens* this base limit
    /// (`base >> min(attempt, 2)`, floored at 1 MiB) so the job is
    /// steered down the degradation ladder instead of repeating the
    /// same blow-up. The schedule is a pure function of the journaled
    /// attempt number, so resumed runs replay identically.
    pub mem_limit: Option<u64>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            seed: 0x0BA7C4,
            backoff: BackoffPolicy::default(),
            aggregate_timeout: None,
            default_timeout: None,
            fallback: true,
            engine: EngineKind::Sat,
            failpoints: None,
            route: None,
            cancel: None,
            stop_after_jobs: None,
            mem_limit: None,
        }
    }
}

/// One batch invocation: where the inputs live and where the journal
/// and report go.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Manifest path (see [`crate::manifest`]).
    pub manifest: PathBuf,
    /// Journal path; created fresh, or validated and extended with
    /// [`BatchConfig::resume`].
    pub journal: PathBuf,
    /// Final report path, written atomically when every job is
    /// terminal.
    pub report: PathBuf,
    /// Continue a previous run from its journal. Without this flag an
    /// existing journal is an error, never silently overwritten.
    pub resume: bool,
    /// Tuning knobs.
    pub options: BatchOptions,
}

/// What a batch run did, in numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchSummary {
    /// Jobs in the manifest.
    pub jobs: usize,
    /// Jobs that answered.
    pub done: usize,
    /// Jobs that failed terminally.
    pub failed: usize,
    /// Jobs shed by admission control.
    pub shed: usize,
    /// Jobs still pending (only nonzero when interrupted/stopped).
    pub pending: usize,
    /// The cancel flag stopped the run; the journal is resumable.
    pub interrupted: bool,
    /// The `stop_after_jobs` crash hook fired.
    pub stopped_early: bool,
    /// Set when the final report was written (all jobs terminal).
    pub report_path: Option<PathBuf>,
}

/// Why a batch run could not proceed at all (job failures are *not*
/// errors — they are recorded outcomes).
#[derive(Debug)]
pub enum BatchError {
    /// Bad inputs: unreadable/invalid manifest, a journal that exists
    /// without `--resume`, or a resume against a mismatched
    /// manifest/seed. Operator-fixable; CLI exit code 2.
    Setup(String),
    /// The journal or report itself failed: I/O errors, mid-file
    /// corruption. CLI exit code 1.
    Journal(String),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Setup(e) => write!(f, "batch setup: {e}"),
            BatchError::Journal(e) => write!(f, "batch journal: {e}"),
        }
    }
}

/// How far a job has progressed, reconstructed by replaying the
/// journal.
#[derive(Clone, Copy, Debug, Default)]
struct JobState {
    /// Completed failed attempts (`Fail` records). The next attempt
    /// number — a dangling `Start` reuses it, which is what keeps
    /// resumed runs on the same per-attempt failpoint seeds.
    fails: u64,
    /// Done / final-fail / shed seen.
    terminal: bool,
}

fn replay(events: &[Event], jobs: usize) -> Result<Vec<JobState>, String> {
    let mut state = vec![JobState::default(); jobs];
    for ev in events {
        let job = match ev {
            Event::Run { .. } => continue,
            Event::Start { job, .. }
            | Event::Done(DoneRecord { job, .. })
            | Event::Fail { job, .. }
            | Event::Shed { job } => *job,
        };
        let s = state
            .get_mut(job)
            .ok_or_else(|| format!("journal names job {job} but the manifest has {jobs}"))?;
        match ev {
            Event::Done(_) | Event::Shed { .. } => s.terminal = true,
            Event::Fail { is_final, .. } => {
                s.fails += 1;
                if *is_final {
                    s.terminal = true;
                }
            }
            _ => {}
        }
    }
    Ok(state)
}

/// splitmix64-style mixer deriving per-`(job, attempt)` seeds from the
/// run seed, so every attempt's failpoint schedule and backoff jitter
/// is independent of execution order.
fn mix(seed: u64, job: u64, attempt: u64) -> u64 {
    let mut z = seed
        ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How one attempt ended.
enum AttemptOutcome {
    Answered(Answer),
    Failed(JobError),
    /// Cancel flag raised mid-attempt: stop the run, journal nothing
    /// (the dangling `Start` marks the attempt for re-run).
    Interrupted,
}

fn run_attempt(spec: &JobSpec, job: usize, attempt: u64, opts: &BatchOptions) -> AttemptOutcome {
    // Arm this attempt's fault schedule. Spec validity and feature
    // availability were checked up front in `run_batch`.
    if let Some(fp) = &opts.failpoints {
        failpoint::arm(fp, mix(opts.seed, job as u64, attempt))
            .expect("failpoint spec was validated at startup");
    }
    let outcome = run_attempt_inner(spec, attempt, opts);
    if opts.failpoints.is_some() {
        failpoint::disarm();
    }
    outcome
}

/// The retry-tightening schedule: each failed attempt halves the
/// memory budget (twice at most), floored at 1 MiB. Depending only on
/// the journaled attempt number keeps resumed runs byte-identical.
fn effective_mem_limit(base: Option<u64>, attempt: u64) -> Option<u64> {
    base.map(|b| (b >> attempt.min(2)).max(1 << 20))
}

/// One remote attempt: ship the netlist to the configured serve/route
/// address and translate the wire response into an attempt outcome.
/// A single round-trip per attempt — the runner's own journaled
/// backoff is the retry loop, so resumed runs replay identically.
fn run_attempt_remote(
    spec: &JobSpec,
    addr: &str,
    attempt: u64,
    opts: &BatchOptions,
) -> AttemptOutcome {
    let netlist = match std::fs::read_to_string(&spec.path) {
        Ok(text) => text,
        Err(e) => {
            return AttemptOutcome::Failed(JobError::Load(format!("reading {}: {e}", spec.path)))
        }
    };
    let name = std::path::Path::new(&spec.path)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| spec.path.clone());
    let request = xrta_serve::Request::Analyze(xrta_serve::AnalyzeRequest {
        name,
        netlist,
        algo: spec.algo,
        engine: opts.engine,
        req: spec.req.map(|t| vec![Time::new(t)]).unwrap_or_default(),
        timeout_ms: spec
            .timeout
            .or(opts.default_timeout)
            .map(|t| t.as_millis() as u64),
        node_limit: spec.node_limit.map(|n| n as u64),
        sat_conflicts: spec.sat_conflicts,
        mem_limit: effective_mem_limit(opts.mem_limit, attempt),
        ..xrta_serve::AnalyzeRequest::default()
    });
    match xrta_serve::roundtrip(addr, &request) {
        Err(e) => AttemptOutcome::Failed(JobError::Remote {
            msg: e.to_string(),
            transient: true,
        }),
        Ok(xrta_serve::Response::Busy { reason }) => AttemptOutcome::Failed(JobError::Remote {
            msg: format!("server busy ({reason})"),
            transient: true,
        }),
        Ok(xrta_serve::Response::ShuttingDown) => AttemptOutcome::Failed(JobError::Remote {
            msg: "server shutting down".to_string(),
            transient: true,
        }),
        Ok(xrta_serve::Response::Error(msg)) => AttemptOutcome::Failed(JobError::Remote {
            msg,
            transient: false,
        }),
        Ok(xrta_serve::Response::Answer(a)) => AttemptOutcome::Answered(a),
        Ok(other) => AttemptOutcome::Failed(JobError::Remote {
            msg: format!("unexpected response {other:?}"),
            transient: false,
        }),
    }
}

fn run_attempt_inner(spec: &JobSpec, attempt: u64, opts: &BatchOptions) -> AttemptOutcome {
    if let Some(addr) = &opts.route {
        return run_attempt_remote(spec, addr, attempt, opts);
    }
    let net = match load_network_file(std::path::Path::new(&spec.path)) {
        Ok(net) => net,
        Err(e) => return AttemptOutcome::Failed(JobError::Load(e)),
    };
    let req: Vec<Time> = match spec.req {
        Some(t) => vec![Time::new(t); net.outputs().len()],
        None => topological_delays(&net, &UnitDelay),
    };
    let mut budget = Budget::unlimited()
        .with_node_limit(spec.node_limit)
        .with_sat_conflicts(spec.sat_conflicts)
        .with_mem_limit(effective_mem_limit(opts.mem_limit, attempt));
    if let Some(cancel) = &opts.cancel {
        budget = budget.with_cancel_flag(Arc::clone(cancel));
    }
    let session = SessionOptions {
        budget,
        timeout: spec.timeout.or(opts.default_timeout),
        fallback: opts.fallback,
        approx2: Approx2Options {
            engine: opts.engine,
            ..Approx2Options::default()
        },
        ..SessionOptions::default()
    };
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_with_fallback(&net, &UnitDelay, &req, spec.algo, &session)
    }));
    match run {
        Err(_) => AttemptOutcome::Failed(JobError::Panicked),
        Ok(Err(AnalysisError::Interrupted)) => AttemptOutcome::Interrupted,
        Ok(Err(e)) => AttemptOutcome::Failed(JobError::Analysis(e)),
        Ok(Ok(mut report)) => AttemptOutcome::Answered(report.digest()),
    }
}

/// Runs (or resumes) a batch. See the module docs for the crash
/// contract.
///
/// # Errors
///
/// Returns [`BatchError`] only for setup and journal problems;
/// individual job failures are journaled outcomes, not errors.
pub fn run_batch(cfg: &BatchConfig) -> Result<BatchSummary, BatchError> {
    let manifest_text = std::fs::read_to_string(&cfg.manifest)
        .map_err(|e| BatchError::Setup(format!("reading {}: {e}", cfg.manifest.display())))?;
    let manifest_crc = crc32(manifest_text.as_bytes());
    let jobs = parse_manifest(&manifest_text)
        .map_err(|e| BatchError::Setup(format!("{}: {e}", cfg.manifest.display())))?;
    let opts = &cfg.options;

    // Validate the failpoint spec once, up front, so a bad spec (or a
    // binary built without the feature) fails before any work starts.
    if let Some(fp) = &opts.failpoints {
        failpoint::arm(fp, 0).map_err(BatchError::Setup)?;
        failpoint::disarm();
    }

    // Open the journal: fresh, or resumed against the pinned header.
    let mut events: Vec<Event> = Vec::new();
    let mut journal = if cfg.resume && cfg.journal.exists() {
        let (loaded, journal) = Journal::resume(&cfg.journal).map_err(journal_err)?;
        for line in &loaded.records {
            let event =
                Event::parse(line).map_err(|e| BatchError::Journal(format!("{e}: {line}")))?;
            events.push(event);
        }
        match events.first() {
            None => {}
            Some(&Event::Run {
                jobs: header_jobs,
                seed,
                manifest_crc: header_crc,
            }) => {
                if header_jobs != jobs.len() || header_crc != manifest_crc {
                    return Err(BatchError::Setup(format!(
                        "resume: manifest changed since the journal was written \
                         (journal: {header_jobs} jobs, crc {header_crc:08x}; \
                         manifest: {} jobs, crc {manifest_crc:08x})",
                        jobs.len()
                    )));
                }
                if seed != opts.seed {
                    return Err(BatchError::Setup(format!(
                        "resume: run seed mismatch (journal {seed}, requested {})",
                        opts.seed
                    )));
                }
            }
            Some(other) => {
                return Err(BatchError::Journal(format!(
                    "journal does not start with a run header: {other:?}"
                )))
            }
        }
        journal
    } else {
        if cfg.journal.exists() {
            return Err(BatchError::Setup(format!(
                "journal {} already exists; pass --resume to continue it \
                 or remove it to start over",
                cfg.journal.display()
            )));
        }
        Journal::create(&cfg.journal).map_err(journal_err)?
    };
    if events.is_empty() {
        let header = Event::Run {
            jobs: jobs.len(),
            seed: opts.seed,
            manifest_crc,
        };
        journal.append(&header.encode()).map_err(journal_err)?;
        events.push(header);
    }

    let mut state = replay(&events, jobs.len()).map_err(BatchError::Journal)?;
    let agg_deadline = opts.aggregate_timeout.map(|t| Instant::now() + t);
    let cancelled = || {
        opts.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    };

    let mut interrupted = false;
    let mut stopped_early = false;
    let mut terminals_this_process = 0usize;

    'jobs: for (k, spec) in jobs.iter().enumerate() {
        if state[k].terminal {
            continue;
        }
        if cancelled() {
            interrupted = true;
            break;
        }
        // Admission control: shed the job if its estimated cost no
        // longer fits the aggregate budget.
        if let Some(deadline) = agg_deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let unaffordable =
                remaining.is_zero() || spec.estimated_cost().is_some_and(|cost| cost > remaining);
            if unaffordable {
                journal
                    .append(&Event::Shed { job: k }.encode())
                    .map_err(journal_err)?;
                events.push(Event::Shed { job: k });
                state[k].terminal = true;
                terminals_this_process += 1;
                if opts.stop_after_jobs == Some(terminals_this_process) {
                    stopped_early = true;
                    break;
                }
                continue;
            }
        }
        let mut attempt = state[k].fails;
        loop {
            journal
                .append(&Event::Start { job: k, attempt }.encode())
                .map_err(journal_err)?;
            events.push(Event::Start { job: k, attempt });
            match run_attempt(spec, k, attempt, opts) {
                AttemptOutcome::Interrupted => {
                    interrupted = true;
                    break 'jobs;
                }
                AttemptOutcome::Answered(answer) => {
                    let d = DoneRecord {
                        job: k,
                        attempt,
                        answer,
                    };
                    journal
                        .append(&Event::Done(d.clone()).encode())
                        .map_err(journal_err)?;
                    events.push(Event::Done(d));
                    state[k].terminal = true;
                    break;
                }
                AttemptOutcome::Failed(e) => {
                    let class = e.class();
                    let is_final = class == FailureClass::Permanent
                        || attempt >= u64::from(opts.backoff.max_retries);
                    let ev = Event::Fail {
                        job: k,
                        attempt,
                        error: e.to_string(),
                        class,
                        is_final,
                    };
                    journal.append(&ev.encode()).map_err(journal_err)?;
                    events.push(ev);
                    state[k].fails += 1;
                    if is_final {
                        state[k].terminal = true;
                        break;
                    }
                    if cancelled() {
                        interrupted = true;
                        break 'jobs;
                    }
                    // Seed the jitter from (job, attempt), not from a
                    // shared stream, so retries are order-independent.
                    let mut rng =
                        Rng::seed_from_u64(mix(opts.seed ^ 0xbacc_0ff5, k as u64, attempt));
                    let delay = opts.backoff.delay(attempt as u32, &mut rng);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
            }
        }
        if state[k].terminal {
            terminals_this_process += 1;
            if opts.stop_after_jobs == Some(terminals_this_process) {
                stopped_early = true;
                break;
            }
        }
    }

    let mut summary = summarize(&events, jobs.len());
    summary.interrupted = interrupted;
    summary.stopped_early = stopped_early;
    if summary.pending == 0 && !interrupted && !stopped_early {
        let report = render_report(&jobs, opts.seed, manifest_crc, &events);
        atomic_write(&cfg.report, report.as_bytes())
            .map_err(|e| BatchError::Journal(format!("writing report: {e}")))?;
        summary.report_path = Some(cfg.report.clone());
    }
    Ok(summary)
}

fn journal_err<E: std::fmt::Display>(e: E) -> BatchError {
    BatchError::Journal(e.to_string())
}

fn summarize(events: &[Event], jobs: usize) -> BatchSummary {
    let mut done = 0;
    let mut failed = 0;
    let mut shed = 0;
    for ev in events {
        match ev {
            Event::Done(_) => done += 1,
            Event::Fail { is_final: true, .. } => failed += 1,
            Event::Shed { .. } => shed += 1,
            _ => {}
        }
    }
    BatchSummary {
        jobs,
        done,
        failed,
        shed,
        pending: jobs - done - failed - shed,
        interrupted: false,
        stopped_early: false,
        report_path: None,
    }
}

/// Renders the final report from the journal alone. Every field is
/// deterministic — attempt counts, verdicts, witness points — and no
/// wall-clock quantity appears, so any journal reaching the same
/// terminal states renders the same bytes.
fn render_report(jobs: &[JobSpec], seed: u64, manifest_crc: u32, events: &[Event]) -> String {
    use std::fmt::Write;
    let summary = summarize(events, jobs.len());
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"jobs\": {},", jobs.len());
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"manifest_crc\": \"{manifest_crc:08x}\",");
    let _ = writeln!(out, "  \"done\": {},", summary.done);
    let _ = writeln!(out, "  \"failed\": {},", summary.failed);
    let _ = writeln!(out, "  \"shed\": {},", summary.shed);
    out.push_str("  \"results\": [\n");
    for (k, spec) in jobs.iter().enumerate() {
        let fails = events
            .iter()
            .filter(|ev| matches!(ev, Event::Fail { job, .. } if *job == k))
            .count();
        let head = format!("\"job\":{k},\"path\":\"{}\"", escape(&spec.path));
        let row = if let Some(d) = events.iter().find_map(|ev| match ev {
            Event::Done(d) if d.job == k => Some(d),
            _ => None,
        }) {
            format!(
                "{{{head},\"outcome\":\"done\",\"attempts\":{},{}}}",
                fails + 1,
                d.answer.encode_fields(),
            )
        } else if let Some((error, class)) = events.iter().find_map(|ev| match ev {
            Event::Fail {
                job,
                error,
                class,
                is_final: true,
                ..
            } if *job == k => Some((error, class)),
            _ => None,
        }) {
            format!(
                "{{{head},\"outcome\":\"failed\",\"attempts\":{fails},\"error\":\"{}\",\
                 \"class\":\"{class}\"}}",
                escape(error),
            )
        } else {
            // All jobs are terminal when a report is rendered, so the
            // only case left is shed.
            format!("{{{head},\"outcome\":\"shed\",\"attempts\":{fails}}}")
        };
        let comma = if k + 1 < jobs.len() { "," } else { "" };
        let _ = writeln!(out, "    {row}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}
