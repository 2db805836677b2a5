//! Smoke tests for the `xrta` command-line binary against the bundled
//! netlists.

use std::process::Command;

fn xrta(args: &[&str]) -> (bool, String) {
    let (code, text) = xrta_code(args);
    (code == Some(0), text)
}

/// Like [`xrta`] but exposes the exact exit code (degradation protocol:
/// 0 answered as requested, 3 degraded, 1 analysis failed, 2 usage).
fn xrta_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xrta"))
        .args(args)
        .output()
        .expect("binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

fn netlist(name: &str) -> String {
    format!("{}/netlists/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn stats_on_c17() {
    let (ok, text) = xrta(&["stats", &netlist("c17.bench")]);
    assert!(ok, "{text}");
    assert!(text.contains("inputs      : 5"), "{text}");
    assert!(text.contains("gates       : 6"), "{text}");
}

#[test]
fn truedelay_flags_false_paths() {
    let (ok, text) = xrta(&["truedelay", &netlist("bypass.bench")]);
    assert!(ok, "{text}");
    assert!(text.contains("false paths"), "{text}");
}

#[test]
fn reqtime_approx1_on_fig4() {
    let (ok, text) = xrta(&[
        "reqtime",
        &netlist("fig4.blif"),
        "--algo",
        "approx1",
        "--req",
        "2",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("non-trivial: true"), "{text}");
    assert!(
        text.contains("1@0/0@1"),
        "x2's split deadline shown: {text}"
    );
}

#[test]
fn reqtime_exact_on_fig4_prints_minterm_tables() {
    let (ok, text) = xrta(&[
        "reqtime",
        &netlist("fig4.blif"),
        "--algo",
        "exact",
        "--req",
        "2",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("x = 00"), "{text}");
    assert!(text.contains("∞"), "{text}");
}

#[test]
fn reqtime_approx2_on_bypass() {
    let (ok, text) = xrta(&["reqtime", &netlist("bypass.bench"), "--algo", "approx2"]);
    assert!(ok, "{text}");
    assert!(text.contains("maximal point"), "{text}");
    assert!(text.contains("topological"), "{text}");
}

#[test]
fn slack_on_named_node() {
    let (ok, text) = xrta(&[
        "slack",
        &netlist("bypass.bench"),
        "--node",
        "b1",
        "--engine",
        "bdd",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("slack"), "{text}");
}

#[test]
fn macro_model_table() {
    let (ok, text) = xrta(&["macro", &netlist("bypass.bench"), "--engine", "bdd"]);
    assert!(ok, "{text}");
    assert!(text.contains("tightened pairs: 2"), "{text}");
}

#[test]
fn bad_usage_reports_error() {
    let (code, text) = xrta_code(&["frobnicate", &netlist("c17.bench")]);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("usage"), "{text}");
    let (code, text) = xrta_code(&["stats", "/nonexistent/path.blif"]);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("reading"), "{text}");
}

#[test]
fn unknown_extension_double_failure_reports_both_parsers() {
    let path = std::env::temp_dir().join("xrta_cli_garbage.netlist");
    std::fs::write(&path, "this is neither blif nor bench =(\n").expect("tmp write");
    let (code, text) = xrta_code(&["stats", path.to_str().expect("utf8 path")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("as bench"), "{text}");
    assert!(text.contains("as blif"), "{text}");
}

#[test]
fn reqtime_timeout_degrades_with_exit_code_3() {
    let (code, text) = xrta_code(&[
        "reqtime",
        &netlist("mult4.bench"),
        "--algo",
        "exact",
        "--timeout",
        "0.02",
        "--fallback",
        "on",
    ]);
    assert_eq!(code, Some(3), "{text}");
    assert!(text.contains("degraded"), "{text}");
    assert!(text.contains("requested exact"), "{text}");
    // Whatever rung answered printed a table (every renderer mentions a
    // deadline column header or condition row).
    assert!(
        text.contains("topological") || text.contains("condition") || text.contains("x ="),
        "{text}"
    );
}

#[test]
fn reqtime_timeout_without_fallback_fails_with_exit_code_1() {
    let (code, text) = xrta_code(&[
        "reqtime",
        &netlist("mult4.bench"),
        "--algo",
        "exact",
        "--timeout",
        "0.02",
        "--fallback",
        "off",
    ]);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("analysis failed"), "{text}");
    assert!(text.contains("deadline"), "{text}");
}

#[test]
fn reqtime_zero_node_limit_degrades_with_exit_code_3() {
    let (code, text) = xrta_code(&[
        "reqtime",
        &netlist("c17.bench"),
        "--algo",
        "exact",
        "--node-limit",
        "0",
        "--fallback",
        "on",
    ]);
    assert_eq!(code, Some(3), "{text}");
    assert!(text.contains("degraded"), "{text}");
}

#[test]
fn reqtime_zero_node_limit_without_fallback_fails_with_exit_code_1() {
    let (code, text) = xrta_code(&[
        "reqtime",
        &netlist("c17.bench"),
        "--algo",
        "exact",
        "--node-limit",
        "0",
        "--fallback",
        "off",
    ]);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("analysis failed"), "{text}");
}

/// Runs `xrta fuzz` once per row over a fresh corpus directory: each row
/// must exit 0, print its summary fragment and the shared failure count.
fn fuzz_rows_exit_cleanly(tag: &str, rows: &[(&[&str], &str)]) {
    for (k, (flags, want)) in rows.iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("xrta_cli_{tag}_{}_{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut argv = vec!["fuzz", "--corpus", dir.to_str().expect("utf8 path")];
        argv.extend_from_slice(flags);
        let (code, text) = xrta_code(&argv);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(code, Some(0), "{flags:?}: {text}");
        assert!(text.contains(want), "{flags:?}: {text}");
        assert!(text.contains("| 0 failure(s)"), "{flags:?}: {text}");
    }
}

/// The engine and ECO differentials, and a zero time cap that runs no case.
#[test]
fn fuzz_smoke_exits_cleanly() {
    fuzz_rows_exit_cleanly(
        "fuzz",
        &[
            (
                &["--seeds", "2", "--max-inputs", "4"],
                "2 of 2 seeds run | max inputs 4 |",
            ),
            (
                &["--edits", "2", "--max-inputs", "4"],
                "2 of 2 edit sequences run |",
            ),
            (
                &["--seeds", "5", "--time-cap", "0"],
                "0 of 5 seeds run (time-capped) |",
            ),
        ],
    );
}

#[test]
fn resynth_fuzz_smoke_exits_cleanly() {
    fuzz_rows_exit_cleanly(
        "rfuzz",
        &[(
            &["--resynth", "2", "--max-inputs", "5"],
            "2 of 2 resynth seeds run |",
        )],
    );
}

#[test]
fn fuzz_rejects_oversized_max_inputs() {
    // Conflicting mode flags are usage errors too, never silently dropped.
    let pick_one = "--seeds, --edits and --resynth each pick a differential";
    let cases: [(&[&str], &str); 5] = [
        (&["--seeds", "1", "--max-inputs", "99"], "max-inputs"),
        (&["--edits", "2", "--resynth", "3"], pick_one),
        (
            &["--edits", "2", "--resynth", "3", "--seeds", "5"],
            pick_one,
        ),
        (&["--edits", "2", "--seeds", "5"], pick_one),
        (&["--seeds", "5", "--resynth", "3"], pick_one),
    ];
    for (flags, want) in cases {
        let mut argv = vec!["fuzz"];
        argv.extend_from_slice(flags);
        let (code, text) = xrta_code(&argv);
        assert_eq!(code, Some(2), "{flags:?}: {text}");
        assert!(text.contains(want), "{flags:?}: {text}");
    }
}

#[test]
fn reqtime_topological_rung_directly() {
    let (code, text) = xrta_code(&["reqtime", &netlist("c17.bench"), "--algo", "topological"]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("topological required"), "{text}");
}

#[test]
fn gen_adder_writes_a_parsable_netlist() {
    let path = std::env::temp_dir().join(format!("xrta_cli_gen_{}.bench", std::process::id()));
    let (code, text) = xrta_code(&[
        "gen",
        "adder",
        "--bits",
        "4",
        "--out",
        path.to_str().expect("utf8 path"),
    ]);
    assert_eq!(code, Some(0), "{text}");
    let (ok, stats) = xrta(&["stats", path.to_str().expect("utf8 path")]);
    let _ = std::fs::remove_file(&path);
    assert!(ok, "{stats}");
    assert!(stats.contains("inputs      : 9"), "{stats}");
}

#[test]
fn gen_rejects_unknown_family() {
    let (code, text) = xrta_code(&["gen", "divider"]);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("family"), "{text}");
}

#[test]
fn resynth_improves_the_shipped_add8() {
    let (code, text) = xrta_code(&["resynth", &netlist("add8.bench")]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("improved"), "{text}");
    assert!(text.contains("rewrite(s) kept"), "{text}");
    assert!(text.contains("equivalence proof(s)"), "{text}");
}

#[test]
fn resynth_timeout_degrades_and_preserves_the_netlist() {
    let out = std::env::temp_dir().join(format!("xrta_cli_resynth_{}.bench", std::process::id()));
    let (code, text) = xrta_code(&[
        "resynth",
        &netlist("add8.bench"),
        "--timeout",
        "0",
        "--out",
        out.to_str().expect("utf8 path"),
    ]);
    let written = std::fs::read(&out).expect("degraded run still writes --out");
    let _ = std::fs::remove_file(&out);
    assert_eq!(code, Some(3), "{text}");
    assert!(text.contains("degraded"), "{text}");
    assert!(text.contains("original network preserved"), "{text}");
    let original = std::fs::read(netlist("add8.bench")).expect("shipped netlist");
    assert_eq!(written, original, "degraded --out must be byte-identical");
}

#[test]
fn reqtime_slack_report_emits_json() {
    let (code, text) = xrta_code(&["reqtime", &netlist("bypass.bench"), "--report", "slack"]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.starts_with('{'), "{text}");
    assert!(text.contains("\"true_slack\""), "{text}");
    assert!(text.contains("\"verdict\""), "{text}");
    assert!(text.contains("\"nodes\""), "{text}");
}

/// A journal whose `done` records predate `degraded`/`degraded_reason`
/// is refused on `--resume` as a journal error (exit 1).
#[test]
fn batch_resume_refuses_a_journal_of_the_older_done_format() {
    let dir = std::env::temp_dir().join(format!("xrta_cli_oldjournal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let [manifest, journal, report] = ["m.txt", "m.journal", "m.report.json"].map(|f| dir.join(f));
    let text = format!("{} algo=approx2\n", netlist("c17.bench"));
    std::fs::write(&manifest, &text).expect("write manifest");
    let crc = xrta::robust::fsio::crc32(text.as_bytes());
    let mut j = xrta::robust::journal::Journal::create(&journal).expect("create journal");
    for record in [
        format!("{{\"event\":\"run\",\"jobs\":1,\"seed\":7,\"manifest_crc\":\"{crc:08x}\"}}"),
        "{\"event\":\"start\",\"job\":0,\"attempt\":0}".to_string(),
        "{\"event\":\"done\",\"job\":0,\"attempt\":0,\"requested\":\"approx2\",\
         \"verdict\":\"approx2\",\"nontrivial\":false,\"req\":\"3 3\",\"points\":\"1 1 0 0 1\"}"
            .to_string(),
    ] {
        j.append(&record).expect("append record");
    }
    drop(j);
    let [m, jn, r] = [&manifest, &journal, &report].map(|p| p.to_str().expect("utf8 path"));
    let args = [
        "batch",
        m,
        "--journal",
        jn,
        "--report",
        r,
        "--seed",
        "7",
        "--resume",
    ];
    let (code, out) = xrta_code(&args);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(1), "{out}");
    assert!(
        out.contains("xrta: batch journal: record missing \"degraded_reason\""),
        "{out}"
    );
}
