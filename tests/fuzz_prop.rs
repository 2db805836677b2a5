//! End-to-end differential fuzzing as an integration test: random
//! circuits through every engine/backend/threading/governor
//! configuration, validated against the exhaustive oracle — plus a
//! fault-injection run proving the harness catches and shrinks real
//! disagreements.

use xrta::verify::{fuzz, parse_entry, CheckOptions, Fault, FuzzFailure, FuzzOptions};

/// Debug builds keep the differential sweep snappy; release builds
/// (CI's `cargo test --release`) widen it.
#[cfg(debug_assertions)]
const CLEAN_SEEDS: usize = 8;
#[cfg(not(debug_assertions))]
const CLEAN_SEEDS: usize = 64;

fn render(failures: &[FuzzFailure]) -> String {
    failures
        .iter()
        .map(|f| format!("  seed {}: {}", f.index, f.detail))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn differential_fuzz_runs_clean() {
    let opts = FuzzOptions {
        seeds: CLEAN_SEEDS,
        max_inputs: 6,
        corpus_dir: None,
        ..FuzzOptions::default()
    };
    let report = fuzz(&opts, &CheckOptions::default(), |_| {});
    assert_eq!(report.seeds_run, CLEAN_SEEDS);
    assert!(
        report.failures.is_empty(),
        "engines disagree with the oracle:\n{}",
        render(&report.failures)
    );
}

#[test]
fn injected_fault_is_caught_and_shrunk_small() {
    let dir = std::env::temp_dir().join(format!("xrta_fuzz_prop_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = FuzzOptions {
        seeds: 4,
        max_inputs: 5,
        corpus_dir: Some(dir.clone()),
        ..FuzzOptions::default()
    };
    let check = CheckOptions {
        fault: Some(Fault::LoosenApprox2),
        ..CheckOptions::default()
    };
    let report = fuzz(&opts, &check, |_| {});
    assert!(
        !report.failures.is_empty(),
        "a loosened approx2 must be caught"
    );
    for f in &report.failures {
        let [path] = &f.filed[..] else {
            panic!("seed {} filed {:?}, want one entry", f.index, f.filed);
        };
        let text = std::fs::read_to_string(path).expect("corpus entry written");
        let shrunk = parse_entry(&text).expect("corpus entry parses").case.net;
        let gates = shrunk.node_count() - shrunk.inputs().len();
        assert!(
            gates <= 8,
            "seed {} shrunk to {gates} gates, want ≤ 8",
            f.index
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
