//! Chaos tests: the batch runner under randomized-but-seeded fault
//! schedules, simulated crashes and journal tail loss.
//!
//! Built only with `--features failpoints`; a default build compiles
//! the injection sites to no-ops and this file to nothing.
//!
//! The centerpiece drives a 50-job batch through a fault schedule
//! that fires inside BDD node creation, the SAT conflict loop, χ
//! engine construction, approx2 cone workers and session rung
//! transitions — then kills the run every few jobs (sometimes tearing
//! bytes off the journal tail, as a mid-append `SIGKILL` would) and
//! resumes until done. It asserts the three contract properties:
//! no job is lost or run twice, every surviving verdict is confirmed
//! by the exhaustive oracle, and the final report is byte-identical
//! to an uninterrupted run's.
#![cfg(feature = "failpoints")]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

use xrta::batch::{run_batch, BatchConfig, BatchOptions, Event};
use xrta::circuits::{
    bypass_chain, c17, comparator, fig4, parity_tree, priority_chain, random_circuit,
    two_mux_bypass, RandomCircuitSpec,
};
use xrta::core::{failpoint, run_with_fallback, SessionOptions, Verdict};
use xrta::network::{write_bench, Network};
use xrta::robust::backoff::BackoffPolicy;
use xrta::robust::journal;
use xrta::timing::{Time, UnitDelay};
use xrta::verify::{point_safe, MAX_ORACLE_INPUTS};
use xrta_rng::Rng;

/// The failpoint registry is process-global; chaos tests take this
/// lock so their schedules never interleave.
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_lock() -> MutexGuard<'static, ()> {
    CHAOS.lock().unwrap_or_else(|p| p.into_inner())
}

/// Injected panics are routine here; silence their backtraces (and
/// only theirs — real test failures still report normally).
fn quiet_injected_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or("");
            if !msg.contains("failpoint") {
                default_hook(info);
            }
        }));
    });
}

/// A fault schedule exercising every instrumented layer at rates low
/// enough that most jobs still finish.
const SCHEDULE: &str = "bdd::mk=err%4;sat::conflict=exhaust%3;chi::construct=err%3;\
                        approx2::cone=panic%2,err%5;session::rung=err%5";

const RUN_SEED: u64 = 0xC5A0_5EED;
const JOBS: usize = 50;

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("xrta_chaos_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes a varied netlist pool and a 50-job manifest over it.
/// Returns the manifest path and a path → network map for the oracle.
fn build_suite(dir: &Path) -> (PathBuf, HashMap<String, Network>) {
    let mut nets: Vec<(String, Network)> = vec![
        ("c17".into(), c17()),
        ("fig4".into(), fig4()),
        ("two_mux".into(), two_mux_bypass()),
        ("bypass2".into(), bypass_chain(2, 2).unwrap()),
        ("bypass3".into(), bypass_chain(3, 2).unwrap()),
        ("parity4".into(), parity_tree(4).unwrap()),
        ("parity5".into(), parity_tree(5).unwrap()),
        ("cmp3".into(), comparator(3).unwrap()),
        ("cmp4".into(), comparator(4).unwrap()),
        ("prio5".into(), priority_chain(5).unwrap()),
    ];
    for seed in 1..=2u64 {
        let spec = RandomCircuitSpec {
            inputs: 6,
            gates: 14,
            outputs: 3,
            max_fanin: 3,
            locality: 60,
            seed,
        };
        nets.push((format!("rand{seed}"), random_circuit(spec).unwrap()));
    }
    let mut by_path = HashMap::new();
    let mut manifest = String::new();
    let algos = ["approx2", "approx2", "exact", "approx1", "topo"];
    for k in 0..JOBS {
        let (name, net) = &nets[k % nets.len()];
        let path = dir.join(format!("{name}.bench"));
        if !path.exists() {
            std::fs::write(&path, write_bench(net)).unwrap();
        }
        let mut line = format!("{} algo={}", path.display(), algos[k % algos.len()]);
        if k % 7 == 3 {
            line.push_str(" node-limit=2000");
        }
        if k % 11 == 5 {
            line.push_str(" sat-conflicts=500");
        }
        manifest.push_str(&line);
        manifest.push('\n');
        by_path.insert(path.display().to_string(), net.clone());
    }
    let manifest_path = dir.join("chaos.manifest");
    std::fs::write(&manifest_path, manifest).unwrap();
    (manifest_path, by_path)
}

fn chaos_options() -> BatchOptions {
    BatchOptions {
        seed: RUN_SEED,
        backoff: BackoffPolicy::immediate(2),
        failpoints: Some(SCHEDULE.to_string()),
        threads: 1,
        ..BatchOptions::default()
    }
}

/// Chops up to `max` trailing bytes off the journal — what a power
/// cut mid-append leaves behind. Never more than the final record,
/// so only the torn-tail path is exercised.
fn tear_journal_tail(path: &Path, rng: &mut Rng, max: usize) {
    let bytes = std::fs::read(path).unwrap();
    let last_line_len = bytes
        .iter()
        .rev()
        .skip(1)
        .take_while(|&&b| b != b'\n')
        .count()
        + 1;
    let chop = (rng.next_u64() as usize) % (max.min(last_line_len) + 1);
    if chop > 0 {
        let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        f.set_len((bytes.len() - chop) as u64).unwrap();
    }
}

#[test]
fn chaos_batch_survives_faults_kills_and_tail_loss() {
    let _guard = chaos_lock();
    quiet_injected_panics();
    let scratch = Scratch::new("batch");
    let dir = &scratch.0;
    let (manifest, nets) = build_suite(dir);

    // Reference: the same seeded chaos, uninterrupted.
    let reference_cfg = BatchConfig {
        manifest: manifest.clone(),
        journal: dir.join("ref.journal"),
        report: dir.join("ref.report.json"),
        resume: false,
        options: chaos_options(),
    };
    let summary = run_batch(&reference_cfg).unwrap();
    assert_eq!(summary.pending, 0);
    assert!(
        summary.failed > 0,
        "the schedule should terminally fail at least one job; got {summary:?}"
    );
    assert!(
        summary.done > 0,
        "the schedule should let most jobs finish; got {summary:?}"
    );
    let reference_report = std::fs::read_to_string(&reference_cfg.report).unwrap();

    // The same batch, killed after every few terminal records — with
    // the journal tail torn between lives — until it completes.
    let mut crash_cfg = BatchConfig {
        manifest,
        journal: dir.join("crash.journal"),
        report: dir.join("crash.report.json"),
        resume: false,
        options: BatchOptions {
            stop_after_jobs: Some(7),
            ..chaos_options()
        },
    };
    let mut tear_rng = Rng::seed_from_u64(RUN_SEED ^ 0x7ea4);
    let mut rounds = 0;
    loop {
        let summary = run_batch(&crash_cfg).unwrap();
        rounds += 1;
        assert!(rounds <= 40, "crash loop did not converge: {summary:?}");
        if summary.pending == 0 && !summary.stopped_early {
            break;
        }
        assert!(summary.report_path.is_none(), "no report while jobs remain");
        tear_journal_tail(&crash_cfg.journal, &mut tear_rng, 8);
        crash_cfg.resume = true;
    }
    assert!(
        rounds >= 3,
        "stop_after_jobs=7 over 50 jobs must crash repeatedly"
    );

    // Contract 1: byte-identical report.
    let crash_report = std::fs::read_to_string(&crash_cfg.report).unwrap();
    assert_eq!(
        crash_report, reference_report,
        "kill/tear/resume must reproduce the uninterrupted report byte for byte"
    );

    // Contract 2: every job exactly one terminal record — none lost,
    // none duplicated.
    let loaded = journal::load(&crash_cfg.journal).unwrap();
    let events: Vec<Event> = loaded
        .records
        .iter()
        .map(|r| Event::parse(r).unwrap())
        .collect();
    let mut terminals = vec![0usize; JOBS];
    for ev in &events {
        match ev {
            Event::Done(d) => terminals[d.job] += 1,
            Event::Fail {
                job,
                is_final: true,
                ..
            } => terminals[*job] += 1,
            Event::Shed { job } => terminals[*job] += 1,
            _ => {}
        }
    }
    for (job, &n) in terminals.iter().enumerate() {
        assert_eq!(n, 1, "job {job} has {n} terminal records");
    }

    // Contract 3: every completed verdict's witness points are
    // confirmed safe by the exhaustive oracle.
    let manifest_text = std::fs::read_to_string(&crash_cfg.manifest).unwrap();
    let jobs = xrta::batch::parse_manifest(&manifest_text).unwrap();
    let mut oracle_checked = 0;
    for ev in &events {
        let Event::Done(d) = ev else { continue };
        let net = &nets[&jobs[d.job].path];
        for point in &d.answer.points {
            assert_eq!(point.len(), net.inputs().len(), "job {}", d.job);
            if net.inputs().len() <= MAX_ORACLE_INPUTS {
                assert!(
                    point_safe(net, &UnitDelay, &d.answer.req, point),
                    "job {} ({}): unsafe point {:?} for req {:?}",
                    d.job,
                    jobs[d.job].path,
                    point,
                    d.answer.req
                );
                oracle_checked += 1;
            }
        }
    }
    assert!(
        oracle_checked > 20,
        "expected plenty of oracle-checkable points, got {oracle_checked}"
    );
}

/// Memory chaos: every governed allocation site reports pressure
/// through the same meter, so forging pressure at the meter exercises
/// the whole degradation ladder at once. `exhaust` forges the hard
/// watermark (cooperative memory-out), `err` the soft one (in-place
/// reclamation that must never change answers).
const MEM_SCHEDULE: &str = "mem::pressure=exhaust%2,err%2";

#[test]
fn chaos_memory_pressure_degrades_soundly_and_resumes_byte_identical() {
    let _guard = chaos_lock();
    quiet_injected_panics();
    let scratch = Scratch::new("mem");
    let dir = &scratch.0;
    let (manifest, _nets) = build_suite(dir);

    let mem_options = || BatchOptions {
        seed: RUN_SEED ^ 0x3e30,
        backoff: BackoffPolicy::immediate(2),
        failpoints: Some(MEM_SCHEDULE.to_string()),
        threads: 1,
        // A tiny hard budget arms every pressure check; the failpoint
        // then decides deterministically (per attempt seed) when the
        // watermarks "trip".
        mem_limit: Some(32 << 20),
        // No rung ladder: a memory-out must surface as a journaled
        // transient failure and be retried under a tighter budget,
        // rather than silently degrading to the topological rung.
        fallback: false,
        ..BatchOptions::default()
    };

    // Reference: the same seeded pressure schedule, uninterrupted.
    let reference_cfg = BatchConfig {
        manifest: manifest.clone(),
        journal: dir.join("memref.journal"),
        report: dir.join("memref.report.json"),
        resume: false,
        options: mem_options(),
    };
    let summary = run_batch(&reference_cfg).unwrap();
    assert_eq!(summary.pending, 0);
    assert!(
        summary.done > 0,
        "pressure must not starve the whole batch; got {summary:?}"
    );
    let reference_report = std::fs::read_to_string(&reference_cfg.report).unwrap();

    // MemoryOut provenance reaches the journal: attempts that die at
    // the hard watermark are journaled with the budget named, classed
    // transient, and retried under a tighter budget.
    let loaded = journal::load(&reference_cfg.journal).unwrap();
    let events: Vec<Event> = loaded
        .records
        .iter()
        .map(|r| Event::parse(r).unwrap())
        .collect();
    let mem_fail_jobs: Vec<usize> = events
        .iter()
        .filter_map(|ev| match ev {
            Event::Fail { job, error, .. } if error.contains("memory-out") => Some(*job),
            _ => None,
        })
        .collect();
    assert!(
        !mem_fail_jobs.is_empty(),
        "the pressure schedule must journal memory-out provenance"
    );
    let recovered = mem_fail_jobs.iter().any(|&job| {
        events
            .iter()
            .any(|ev| matches!(ev, Event::Done(d) if d.job == job))
    });
    assert!(
        recovered,
        "some job should succeed on a tighter-budget retry after a memory-out"
    );

    // The same batch killed every few jobs — with the journal tail
    // torn between lives — must resume to a byte-identical report.
    let mut crash_cfg = BatchConfig {
        manifest,
        journal: dir.join("memcrash.journal"),
        report: dir.join("memcrash.report.json"),
        resume: false,
        options: BatchOptions {
            stop_after_jobs: Some(9),
            ..mem_options()
        },
    };
    let mut tear_rng = Rng::seed_from_u64(RUN_SEED ^ 0x3e31);
    let mut rounds = 0;
    loop {
        let summary = run_batch(&crash_cfg).unwrap();
        rounds += 1;
        assert!(rounds <= 40, "crash loop did not converge: {summary:?}");
        if summary.pending == 0 && !summary.stopped_early {
            break;
        }
        tear_journal_tail(&crash_cfg.journal, &mut tear_rng, 8);
        crash_cfg.resume = true;
    }
    assert!(rounds >= 3, "stop_after_jobs=9 over 50 jobs must crash");
    let crash_report = std::fs::read_to_string(&crash_cfg.report).unwrap();
    assert_eq!(
        crash_report, reference_report,
        "memory chaos + kill/tear/resume must reproduce the report byte for byte"
    );
}

#[test]
fn injected_rung_failures_drive_graceful_degradation() {
    let _guard = chaos_lock();
    quiet_injected_panics();
    // The first rung transition forges a deadline exhaustion; with
    // fallback on, the session answers one rung lower and records the
    // injected error as provenance.
    failpoint::arm("session::rung=err@1", 7).unwrap();
    let net = fig4();
    let req = vec![Time::new(2)];
    let opts = SessionOptions {
        fallback: true,
        ..SessionOptions::default()
    };
    let report = run_with_fallback(&net, &UnitDelay, &req, Verdict::Exact, &opts).unwrap();
    failpoint::disarm();
    assert!(report.degraded(), "requested exact, must step down");
    assert_eq!(report.requested, Verdict::Exact);
    assert_eq!(report.attempts[0].rung, Verdict::Exact);
    assert!(
        report.attempts[0].error.is_some(),
        "provenance of the fault"
    );
}

#[test]
fn chaos_verdicts_match_the_fault_free_truth_where_completed() {
    let _guard = chaos_lock();
    quiet_injected_panics();
    // A job that *completes at its requested rung* under chaos must
    // produce exactly what a fault-free run produces: retries and
    // re-validation may cost time but never change answers.
    let scratch = Scratch::new("truth");
    let dir = &scratch.0;
    let net = c17();
    std::fs::write(dir.join("c17.bench"), write_bench(&net)).unwrap();
    let manifest = dir.join("one.manifest");
    std::fs::write(
        &manifest,
        format!("{} algo=approx2\n", dir.join("c17.bench").display()),
    )
    .unwrap();

    let run = |tag: &str, failpoints: Option<String>| {
        let cfg = BatchConfig {
            manifest: manifest.clone(),
            journal: dir.join(format!("{tag}.journal")),
            report: dir.join(format!("{tag}.report.json")),
            resume: false,
            options: BatchOptions {
                failpoints,
                ..chaos_options()
            },
        };
        run_batch(&cfg).unwrap();
        let loaded = journal::load(&cfg.journal).unwrap();
        loaded
            .records
            .iter()
            .map(|r| Event::parse(r).unwrap())
            .find_map(|ev| match ev {
                Event::Done(d) => Some(d.answer),
                _ => None,
            })
    };
    let clean = run("clean", None).expect("fault-free run completes");
    assert_eq!(clean.verdict, Verdict::Approx2);
    // A mild schedule that can fail attempts but leaves room to
    // succeed within the retry budget.
    let chaotic = run("chaos", Some("sat::conflict=exhaust%2".to_string()));
    if let Some(chaotic) = chaotic {
        if chaotic.verdict == Verdict::Approx2 {
            assert_eq!(chaotic.points, clean.points, "same maximal safe points");
            assert_eq!(chaotic.nontrivial, clean.nontrivial);
        }
    }
}
