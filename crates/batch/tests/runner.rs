//! Integration tests for the batch runner's happy paths, refusal
//! paths and crash/resume contract — all without fault injection (the
//! chaos tests at the workspace level cover that, behind the
//! `failpoints` feature).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use xrta_batch::{run_batch, BatchConfig, BatchError, BatchOptions, Event};
use xrta_circuits::{bypass_chain, c17, fig4};
use xrta_core::{Answer, Verdict};
use xrta_network::write_bench;
use xrta_robust::backoff::BackoffPolicy;
use xrta_robust::jsonflat::Fields;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "xrta_batch_{tag}_{}_{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the standard three-netlist manifest and returns its path.
fn write_suite(dir: &Scratch, manifest_body: impl Fn(&Path) -> String) -> PathBuf {
    for (name, net) in [
        ("c17.bench", c17()),
        ("fig4.bench", fig4()),
        ("bypass.bench", bypass_chain(3, 2).unwrap()),
    ] {
        std::fs::write(dir.path(name), write_bench(&net)).unwrap();
    }
    let manifest = dir.path("suite.manifest");
    std::fs::write(&manifest, manifest_body(&dir.0)).unwrap();
    manifest
}

fn config(dir: &Scratch, manifest: PathBuf) -> BatchConfig {
    BatchConfig {
        manifest,
        journal: dir.path("batch.journal"),
        report: dir.path("report.json"),
        resume: false,
        options: BatchOptions {
            backoff: BackoffPolicy::immediate(2),
            ..BatchOptions::default()
        },
    }
}

#[test]
fn fresh_run_completes_and_writes_report() {
    let dir = Scratch::new("fresh");
    let manifest = write_suite(&dir, |d| {
        format!(
            "{0}/c17.bench algo=approx2\n{0}/fig4.bench algo=exact\n{0}/bypass.bench algo=topo\n",
            d.display()
        )
    });
    let cfg = config(&dir, manifest);
    let summary = run_batch(&cfg).unwrap();
    assert_eq!(summary.jobs, 3);
    assert_eq!(summary.done, 3);
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.pending, 0);
    assert_eq!(summary.report_path.as_deref(), Some(cfg.report.as_path()));

    let report = std::fs::read_to_string(&cfg.report).unwrap();
    assert!(report.contains("\"done\": 3"), "{report}");
    assert!(report.contains("\"outcome\":\"done\""));
    // fig4 is the paper's false-path example: its exact analysis finds
    // a requirement beyond the topological one.
    assert!(report.contains("\"nontrivial\":true"), "{report}");

    // Every journal line is a parseable record.
    let journal = std::fs::read_to_string(&cfg.journal).unwrap();
    for line in journal.lines() {
        let data = line
            .strip_prefix("{\"crc\":\"")
            .and_then(|rest| rest.split_once("\",\"data\":"))
            .map(|(_, d)| d.strip_suffix('}').unwrap())
            .unwrap();
        Event::parse(data).unwrap();
    }
}

#[test]
fn existing_journal_without_resume_is_refused() {
    let dir = Scratch::new("norerun");
    let manifest = write_suite(&dir, |d| format!("{}/c17.bench\n", d.display()));
    let cfg = config(&dir, manifest);
    run_batch(&cfg).unwrap();
    match run_batch(&cfg) {
        Err(BatchError::Setup(e)) => assert!(e.contains("--resume"), "{e}"),
        other => panic!("expected a setup refusal, got {other:?}"),
    }
}

#[test]
fn resume_refuses_a_changed_manifest() {
    let dir = Scratch::new("pinned");
    let manifest = write_suite(&dir, |d| format!("{}/c17.bench\n", d.display()));
    let mut cfg = config(&dir, manifest.clone());
    run_batch(&cfg).unwrap();
    std::fs::write(&manifest, format!("{}/fig4.bench\n", dir.0.display())).unwrap();
    cfg.resume = true;
    match run_batch(&cfg) {
        Err(BatchError::Setup(e)) => assert!(e.contains("manifest changed"), "{e}"),
        other => panic!("expected a manifest-pin refusal, got {other:?}"),
    }
}

#[test]
fn crash_and_resume_report_is_byte_identical() {
    let dir = Scratch::new("crash");
    let manifest = write_suite(&dir, |d| {
        format!(
            "{0}/c17.bench\n{0}/missing.bench\n{0}/fig4.bench algo=exact\n{0}/bypass.bench\n",
            d.display()
        )
    });
    // Reference: one uninterrupted run.
    let mut cfg = config(&dir, manifest);
    run_batch(&cfg).unwrap();
    let reference = std::fs::read_to_string(&cfg.report).unwrap();
    std::fs::remove_file(&cfg.journal).unwrap();
    std::fs::remove_file(&cfg.report).unwrap();

    // Same batch, crashing after each terminal record until done.
    cfg.options.stop_after_jobs = Some(1);
    let mut rounds = 0;
    loop {
        let summary = run_batch(&cfg).unwrap();
        rounds += 1;
        assert!(rounds <= 8, "resume loop did not converge");
        if summary.pending == 0 && !summary.stopped_early {
            break;
        }
        assert!(summary.report_path.is_none(), "no report mid-crash-loop");
        cfg.resume = true;
    }
    let resumed = std::fs::read_to_string(&cfg.report).unwrap();
    assert_eq!(
        resumed, reference,
        "kill/resume must reproduce the uninterrupted report byte for byte"
    );
}

#[test]
fn permanent_failures_are_not_retried() {
    let dir = Scratch::new("perm");
    let manifest = write_suite(&dir, |d| format!("{}/missing.bench\n", d.display()));
    let cfg = config(&dir, manifest);
    let summary = run_batch(&cfg).unwrap();
    assert_eq!(summary.failed, 1);
    let report = std::fs::read_to_string(&cfg.report).unwrap();
    assert!(report.contains("\"attempts\":1"), "{report}");
    assert!(report.contains("\"class\":\"permanent\""), "{report}");
}

#[test]
fn transient_failures_retry_up_to_the_cap() {
    let dir = Scratch::new("retry");
    // timeout=0: the per-rung deadline is already expired at entry, so
    // every attempt fails with DeadlineExceeded — a transient failure.
    let manifest = write_suite(&dir, |d| {
        format!("{}/bypass.bench algo=exact timeout=0\n", d.display())
    });
    let mut cfg = config(&dir, manifest);
    cfg.options.fallback = false;
    cfg.options.backoff = BackoffPolicy::immediate(2);
    let summary = run_batch(&cfg).unwrap();
    assert_eq!(summary.failed, 1);
    let report = std::fs::read_to_string(&cfg.report).unwrap();
    assert!(
        report.contains("\"attempts\":3"),
        "initial + 2 retries: {report}"
    );
    assert!(report.contains("\"class\":\"transient\""), "{report}");
    assert!(report.contains("\"error\":\"deadline\""), "{report}");
}

#[test]
fn zero_aggregate_budget_sheds_everything() {
    let dir = Scratch::new("shed");
    let manifest = write_suite(&dir, |d| {
        format!("{0}/c17.bench\n{0}/fig4.bench\n", d.display())
    });
    let mut cfg = config(&dir, manifest);
    cfg.options.aggregate_timeout = Some(Duration::ZERO);
    let summary = run_batch(&cfg).unwrap();
    assert_eq!(summary.shed, 2);
    assert_eq!(summary.done, 0);
    assert!(summary.report_path.is_some(), "shed jobs are terminal");
    let report = std::fs::read_to_string(&cfg.report).unwrap();
    assert!(report.contains("\"outcome\":\"shed\""), "{report}");
}

/// Every `results` row parses as one flat object whatever the manifest
/// paths hold, and a `done` row embeds the answer record.
#[test]
fn report_rows_escape_paths_and_embed_the_answer() {
    let dir = Scratch::new("escape");
    let odd = dir.path("q\"uo\\te");
    std::fs::create_dir_all(&odd).unwrap();
    std::fs::write(odd.join("c17.bench"), write_bench(&c17())).unwrap();
    let done = format!("{}/c17.bench", odd.display());
    let failed = format!("{}/missing.bench", odd.display());
    let manifest = dir.path("odd.manifest");
    std::fs::write(&manifest, format!("{done} algo=approx2\n{failed}\n")).unwrap();

    let cfg = config(&dir, manifest);
    let mut shed_cfg = cfg.clone();
    shed_cfg.journal = dir.path("shed.journal");
    shed_cfg.report = dir.path("shed.json");
    shed_cfg.options.aggregate_timeout = Some(Duration::ZERO);
    for (cfg, outcomes) in [(cfg, ["done", "failed"]), (shed_cfg, ["shed", "shed"])] {
        run_batch(&cfg).unwrap();
        let report = std::fs::read_to_string(&cfg.report).unwrap();
        let rows: Vec<&str> = report
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"job\""))
            .collect();
        assert_eq!(rows.len(), 2, "{report}");
        for (row, (path, outcome)) in rows.iter().zip([&done, &failed].into_iter().zip(outcomes)) {
            let row = Fields::parse(row).unwrap_or_else(|e| panic!("{e}: {row}"));
            assert_eq!(row.get("path").unwrap(), path);
            assert_eq!(row.get("outcome").unwrap(), outcome);
            if outcome == "done" {
                assert_eq!(row.get_u64("attempts").unwrap(), 1);
                let answer = Answer::from_fields(&row).unwrap();
                assert_eq!(answer.verdict, Verdict::Approx2);
                assert_eq!(answer.req.len(), 2, "one required time per c17 output");
            }
        }
    }
}

#[test]
fn cancel_stops_the_run_resumably() {
    let dir = Scratch::new("cancel");
    let manifest = write_suite(&dir, |d| {
        format!("{0}/c17.bench\n{0}/fig4.bench\n", d.display())
    });
    let cancel = Arc::new(AtomicBool::new(true));
    let mut cfg = config(&dir, manifest);
    cfg.options.cancel = Some(Arc::clone(&cancel));
    let summary = run_batch(&cfg).unwrap();
    assert!(summary.interrupted);
    assert_eq!(summary.pending, 2);
    assert!(summary.report_path.is_none());

    cancel.store(false, Ordering::Relaxed);
    cfg.resume = true;
    let summary = run_batch(&cfg).unwrap();
    assert!(!summary.interrupted);
    assert_eq!(summary.done, 2);
    assert!(summary.report_path.is_some());
}

#[test]
fn remote_mode_offloads_jobs_to_a_daemon() {
    let dir = Scratch::new("remote");
    let manifest = write_suite(&dir, |d| {
        format!(
            "{0}/c17.bench algo=approx2\n{0}/fig4.bench algo=exact\n",
            d.display()
        )
    });
    let server = xrta_serve::start(xrta_serve::ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        ..xrta_serve::ServeOptions::default()
    })
    .unwrap();
    let mut cfg = config(&dir, manifest);
    cfg.options.route = Some(server.addr().to_string());
    let summary = run_batch(&cfg).unwrap();
    assert_eq!(summary.done, 2, "{summary:?}");
    assert_eq!(summary.failed, 0);
    let report = std::fs::read_to_string(&cfg.report).unwrap();
    // fig4's exact analysis finds the false-path requirement remotely
    // just as it does locally.
    assert!(report.contains("\"nontrivial\":true"), "{report}");
    server.shutdown();
    server.join();
}

#[test]
fn remote_mode_classifies_a_dead_daemon_as_transient() {
    let dir = Scratch::new("remote_dead");
    let manifest = write_suite(&dir, |d| format!("{}/c17.bench\n", d.display()));
    // Bind-then-drop yields an address where connects are refused.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe);
    let mut cfg = config(&dir, manifest);
    cfg.options.route = Some(addr);
    cfg.options.backoff = BackoffPolicy::immediate(1);
    let summary = run_batch(&cfg).unwrap();
    assert_eq!(summary.failed, 1);
    let journal = std::fs::read_to_string(&cfg.journal).unwrap();
    // Each attempt journals a transient remote failure; the retry cap
    // (1 retry) makes the second one final.
    assert!(journal.contains("remote: "), "{journal}");
    assert!(journal.contains("transient"), "{journal}");
}
