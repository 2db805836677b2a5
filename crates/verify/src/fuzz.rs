//! The one seeded fuzz driver behind every differential.
//!
//! `drive` owns what the differentials share: the case loop, the
//! wall-clock cap, the cancel check, corpus filing and the progress
//! lines. Each differential supplies only its per-case step — draw
//! case `index`, check it, shrink a failure and name the corpus
//! entries to file:
//!
//! * [`crate::harness::fuzz`] — every engine against the exhaustive
//!   oracle on a seeded random DAG;
//! * [`crate::edits::eco_fuzz`] — a warm cone cache against a cold
//!   analysis across a seeded edit script;
//! * [`crate::resynth_fuzz::resynth_fuzz`] — resynthesis against
//!   equivalence and true-delay non-regression.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::corpus::{save, CorpusEntry};

/// Options for a fuzz run, whichever differential it drives.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Number of cases to run.
    pub seeds: usize,
    /// Base seed; each case derives its own from it and its index.
    pub base_seed: u64,
    /// Primary-input ceiling for generated circuits (≤ 16, so the
    /// exhaustive oracle stays the judge).
    pub max_inputs: usize,
    /// Stop early after this much wall clock.
    pub time_cap: Option<Duration>,
    /// Where to file shrunk failures (`None`: don't write). The ECO and
    /// resynthesis differentials also draw bases from the entries
    /// already there.
    pub corpus_dir: Option<PathBuf>,
    /// Cooperative cancellation: checked between cases; raising it
    /// stops the run cleanly with the failures found so far.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seeds: 100,
            base_seed: 0xF0CC,
            max_inputs: 8,
            time_cap: None,
            corpus_dir: None,
            cancel: None,
        }
    }
}

/// What one case's step hands back to `drive`.
#[derive(Debug, Default)]
pub(crate) struct Case {
    /// This case's share of [`FuzzReport::tally`].
    pub tally: usize,
    /// `Some` when the case failed: the failure's one-line description
    /// (what fired, and what it shrank to).
    pub failure: Option<String>,
    /// Corpus entries to file for the failure, by file stem.
    pub entries: Vec<(String, CorpusEntry)>,
}

/// One failing case, after shrinking.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The failing case index.
    pub index: u64,
    /// What fired, and what it shrank to.
    pub detail: String,
    /// The corpus entries written for it (empty when none were).
    pub filed: Vec<PathBuf>,
}

/// Summary of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases actually run.
    pub seeds_run: usize,
    /// The step's own count summed over the run: edits applied for the
    /// ECO differential, cases with a kept rewrite for resynthesis.
    pub tally: usize,
    /// Whether the time cap cut the run short.
    pub time_capped: bool,
    /// Whether the cancel flag cut the run short.
    pub cancelled: bool,
    /// Every failure found.
    pub failures: Vec<FuzzFailure>,
}

/// Runs `step` on case indices `0..opts.seeds` and files every failing
/// case's entries under `opts.corpus_dir`. `noun` names one case in
/// progress lines (`"seed"`, `"sequence"`); `progress` receives one
/// line per noteworthy event, and `step` gets a progress sink that
/// prefixes its lines with the case's noun and index.
pub(crate) fn drive(
    opts: &FuzzOptions,
    noun: &str,
    mut progress: impl FnMut(&str),
    mut step: impl FnMut(u64, &mut dyn FnMut(&str)) -> Case,
) -> FuzzReport {
    let t0 = Instant::now();
    let mut report = FuzzReport::default();
    for index in 0..opts.seeds as u64 {
        let stop = if opts.time_cap.is_some_and(|cap| t0.elapsed() >= cap) {
            report.time_capped = true;
            Some("time cap reached")
        } else if opts
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
        {
            report.cancelled = true;
            Some("cancelled")
        } else {
            None
        };
        if let Some(stop) = stop {
            progress(&format!(
                "{stop} after {} of {} {noun}s",
                report.seeds_run, opts.seeds
            ));
            break;
        }
        let mut case_progress = |line: &str| progress(&format!("{noun} {index}: {line}"));
        let case = step(index, &mut case_progress);
        report.seeds_run += 1;
        report.tally += case.tally;
        let Some(detail) = case.failure else {
            continue;
        };
        let saved = opts.corpus_dir.as_ref().map(|dir| {
            case.entries
                .iter()
                .map(|(stem, entry)| save(dir, stem, entry))
                .collect::<std::io::Result<Vec<PathBuf>>>()
        });
        let filed = match saved {
            None => Vec::new(),
            Some(Ok(paths)) => {
                case_progress(&format!("filed {}", join_paths(&paths)));
                paths
            }
            Some(Err(e)) => {
                case_progress(&format!("corpus write failed: {e}"));
                Vec::new()
            }
        };
        report.failures.push(FuzzFailure {
            index,
            detail,
            filed,
        });
    }
    report
}

/// `a + b + …`: how progress and failure lines list filed entries.
pub fn join_paths(paths: &[PathBuf]) -> String {
    let shown: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
    shown.join(" + ")
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use xrta_circuits::c17;
    use xrta_timing::{topological_delays, UnitDelay};

    use super::*;
    use crate::shrink::TestCase;

    fn c17_entry() -> CorpusEntry {
        let net = c17();
        let req = topological_delays(&net, &UnitDelay);
        CorpusEntry {
            case: TestCase { net, req },
            delays: BTreeMap::new(),
            origin: "driver test".to_string(),
        }
    }

    #[test]
    fn failures_are_counted_and_filed() {
        let dir = std::env::temp_dir().join(format!("xrta_drive_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FuzzOptions {
            seeds: 5,
            corpus_dir: Some(dir.clone()),
            ..FuzzOptions::default()
        };
        let mut lines = Vec::new();
        let report = drive(
            &opts,
            "seed",
            |l| lines.push(l.to_string()),
            |index, _| {
                if index % 2 == 0 {
                    return Case {
                        tally: 1,
                        ..Case::default()
                    };
                }
                Case {
                    tally: 1,
                    failure: Some(format!("odd index {index}")),
                    entries: vec![(format!("odd_{index}"), c17_entry())],
                }
            },
        );
        assert_eq!(report.seeds_run, 5);
        assert_eq!(report.tally, 5);
        assert!(!report.time_capped && !report.cancelled);
        let indices: Vec<u64> = report.failures.iter().map(|f| f.index).collect();
        assert_eq!(indices, vec![1, 3]);
        for f in &report.failures {
            assert_eq!(f.detail, format!("odd index {}", f.index));
            assert_eq!(f.filed.len(), 1);
            assert!(f.filed[0].exists(), "{}", f.filed[0].display());
            let filed = format!("seed {}: filed {}", f.index, f.filed[0].display());
            assert!(lines.contains(&filed), "{lines:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_zero_time_cap_runs_no_case() {
        let opts = FuzzOptions {
            seeds: 5,
            time_cap: Some(Duration::ZERO),
            ..FuzzOptions::default()
        };
        let mut lines = Vec::new();
        let report = drive(
            &opts,
            "seed",
            |l| lines.push(l.to_string()),
            |_, _| panic!("no case may run"),
        );
        assert_eq!(report.seeds_run, 0);
        assert!(report.time_capped && !report.cancelled);
        assert_eq!(lines, vec!["time cap reached after 0 of 5 seeds"]);
    }

    #[test]
    fn a_cancel_raised_inside_a_case_stops_after_it() {
        let cancel = Arc::new(AtomicBool::new(false));
        let opts = FuzzOptions {
            seeds: 5,
            cancel: Some(cancel.clone()),
            ..FuzzOptions::default()
        };
        let mut lines = Vec::new();
        let report = drive(
            &opts,
            "sequence",
            |l| lines.push(l.to_string()),
            |_, _| {
                cancel.store(true, Ordering::Relaxed);
                Case::default()
            },
        );
        assert_eq!(report.seeds_run, 1);
        assert!(report.cancelled && !report.time_capped);
        assert_eq!(lines, vec!["cancelled after 1 of 5 sequences"]);
    }
}
