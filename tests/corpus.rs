//! Regression-corpus replay: every shrunk reproducer filed under
//! `netlists/corpus/` must pass the full differential check matrix.
//! A failure here means a previously fixed engine bug has come back.

use std::path::Path;

use xrta::verify::{
    check_case, load_dir, replay_pair, replay_resynth_pair, CheckOptions, CorpusEntry,
};

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("netlists/corpus")
}

#[test]
fn corpus_is_seeded() {
    let entries = load_dir(&corpus_dir()).expect("corpus loads");
    assert!(
        entries.len() >= 3,
        "netlists/corpus/ ships at least the fig4, bypass and c17 seeds"
    );
}

/// Replays every `*{first}.bench` entry against its `*{second}.bench`
/// partner with `replay`, panicking on a missing partner or a
/// regression. Returns the number of pairs replayed.
fn replay_pairs(
    first: &str,
    second: &str,
    replay: fn(&CorpusEntry, &CorpusEntry) -> Result<(), String>,
) -> usize {
    let entries = load_dir(&corpus_dir()).expect("corpus loads");
    let mut pairs = 0;
    for (path, a) in &entries {
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let Some(base) = stem.strip_suffix(first) else {
            continue;
        };
        let b_path = path.with_file_name(format!("{base}{second}.bench"));
        let (_, b) = entries
            .iter()
            .find(|(p, _)| p == &b_path)
            .unwrap_or_else(|| panic!("{} has no paired {}", path.display(), b_path.display()));
        replay(a, b).unwrap_or_else(|e| {
            panic!(
                "{} -> {} ({}) regressed: {e}",
                path.display(),
                b_path.display(),
                a.origin
            )
        });
        pairs += 1;
    }
    pairs
}

/// Every `*_before.bench` entry pairs with an `*_after.bench` entry;
/// replaying the pair with a warm cone cache must compose the
/// byte-identical report a cold analysis produces. A failure here
/// means a previously found incremental-analysis bug has come back.
#[test]
fn eco_pairs_replay_with_a_warm_cone_cache() {
    let pairs = replay_pairs("_before", "_after", replay_pair);
    assert!(pairs >= 1, "netlists/corpus/ ships at least one ECO pair");
}

/// Every `*_pre.bench` entry pairs with a `*_post.bench` entry from a
/// resynthesis run: same interface, same function (exhaustive oracle
/// or SAT miter), and no output's true arrival regresses under the
/// pre entry's delay model. A failure here means a previously kept
/// rewrite was not actually an improvement.
#[test]
fn resynth_pairs_replay_verified() {
    let pairs = replay_pairs("_pre", "_post", replay_resynth_pair);
    assert!(
        pairs >= 1,
        "netlists/corpus/ ships at least one resynth pair"
    );
}

/// The generated carry-skip adder checked in by `xrta gen` loads with
/// its seeded delay overrides and required-time directives intact.
#[test]
fn generated_adder_entry_is_seeded() {
    let entries = load_dir(&corpus_dir()).expect("corpus loads");
    let (_, entry) = entries
        .iter()
        .find(|(p, _)| p.file_name().unwrap() == "add16_bypass.bench")
        .expect("netlists/corpus/add16_bypass.bench ships");
    assert_eq!(entry.case.net.inputs().len(), 33);
    assert!(
        !entry.delays.is_empty(),
        "the generated entry carries seeded delay overrides"
    );
    assert!(entry.origin.starts_with("gen adder"));
}

#[test]
fn corpus_replays_clean() {
    let entries = load_dir(&corpus_dir()).expect("corpus loads");
    for (path, entry) in entries {
        let failures = check_case(&entry.case, &CheckOptions::default());
        assert!(
            failures.is_empty(),
            "{} ({}) regressed:\n{}",
            path.display(),
            entry.origin,
            failures
                .iter()
                .map(|f| format!("  {f}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
