//! Differential fuzzing for required-time-driven resynthesis.
//!
//! `xrta-resynth` promises two things about every run: the output
//! network computes the *same function* as the input, and no primary
//! output's *true* (false-path-aware) arrival time gets worse. This
//! module attacks both promises with seeded netlists and seeded delay
//! perturbations, re-checking them *independently* — equivalence by
//! the exhaustive oracle (never the SAT miter the resynthesizer itself
//! leans on), delay by a fresh functional-timing run per output — plus
//! the reporting invariant that an unchanged run leaves the netlist
//! byte-identical.
//!
//! Failures shrink through the structural shrinker (delay overrides
//! follow the surviving node names) and are filed as paired
//! `resynth_seed_NNNN_pre`/`_post` corpus entries, replayable via
//! [`replay_resynth_pair`].

use std::collections::BTreeMap;

use xrta_chi::{EngineKind, FunctionalTiming};
use xrta_network::{check_equivalence, write_bench, Equivalence, Network};
use xrta_resynth::{resynthesize, DelaySpec, ResynthOptions, ResynthReport};
use xrta_rng::{mix64, Rng};
use xrta_timing::Time;

use crate::corpus::CorpusEntry;
use crate::fuzz::{drive, Case, FuzzOptions, FuzzReport};
use crate::harness::{base_for, corpus_bases};
use crate::oracle::MAX_ORACLE_INPUTS;
use crate::shrink::{shrink, TestCase};

/// Seeded sparse delay perturbation: a few nodes get 2–4 ticks.
fn perturb_delays(rng: &mut Rng, net: &Network) -> BTreeMap<String, i64> {
    let mut overrides = BTreeMap::new();
    let nodes: Vec<String> = net.node_ids().map(|id| net.node(id).name.clone()).collect();
    let count = rng.range(0, nodes.len().min(4) + 1);
    for _ in 0..count {
        let pick = rng.range(0, nodes.len());
        overrides.insert(nodes[pick].clone(), rng.range_i64(2, 5));
    }
    overrides
}

fn delay_spec(entry: &CorpusEntry) -> DelaySpec {
    DelaySpec {
        default: 1,
        overrides: entry.delays.clone(),
    }
}

/// The judge of one rewrite, shared by the fuzzer and the corpus
/// replay: `post` must compute `pre`'s function (exhaustive oracle up
/// to [`MAX_ORACLE_INPUTS`] inputs, which the fuzzer's bases never
/// exceed; SAT miter beyond) and no output's true arrival under `spec`
/// may get later. Returns every violation, human-readable.
fn judge(pre: &Network, post: &Network, spec: &DelaySpec) -> Vec<String> {
    let (n, outs) = (pre.inputs().len(), pre.outputs().len());
    if post.inputs().len() != n || post.outputs().len() != outs {
        return vec![format!(
            "interface mismatch: {n}x{outs} vs {}x{}",
            post.inputs().len(),
            post.outputs().len()
        )];
    }
    let mut bad = Vec::new();
    if n <= MAX_ORACLE_INPUTS {
        for m in 0..(1u64 << n) {
            let x: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            if pre.eval(&x) != post.eval(&x) {
                bad.push(format!("not equivalent at minterm {m:#b}"));
                break;
            }
        }
    } else if let Equivalence::Differs(x) = check_equivalence(pre, post) {
        bad.push(format!("not equivalent at {x:?}"));
    }
    let before = true_arrivals(pre, spec);
    let after = true_arrivals(post, spec);
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        if a > b {
            bad.push(format!("output {i} true arrival regressed: {b} -> {a}"));
        }
    }
    bad
}

fn true_arrivals(net: &Network, spec: &DelaySpec) -> Vec<Time> {
    let model = spec.model_for(net);
    let zeros = vec![Time::ZERO; net.inputs().len()];
    FunctionalTiming::new(net, &model, zeros, EngineKind::Sat).true_arrivals()
}

/// Resynthesizes `entry` once under an unlimited budget and returns
/// the report with everything it must never break: a degraded run, an
/// unchanged run that moved the netlist bytes, and the [`judge`]'s
/// verdicts.
fn resynth_checked(entry: &CorpusEntry) -> (ResynthReport, Vec<String>) {
    let spec = delay_spec(entry);
    let report = resynthesize(&entry.case.net, &spec, &ResynthOptions::default());
    if let Some(e) = &report.degraded {
        let bad = vec![format!("degraded under an unlimited budget: {e}")];
        return (report, bad);
    }
    let mut bad = Vec::new();
    if !report.changed && write_bench(&report.net) != write_bench(&entry.case.net) {
        bad.push("unchanged run did not preserve the netlist bytes".to_string());
    }
    bad.extend(judge(&entry.case.net, &report.net, &spec));
    (report, bad)
}

/// The resynthesis differential: `opts.seeds` cases through
/// `fuzz::drive`. Bases alternate between corpus entries
/// with at most `opts.max_inputs` inputs and fresh random circuits;
/// each case gets a seeded sparse delay perturbation. A failure shrinks
/// structurally (delay overrides follow the surviving node names) and
/// is filed as a `resynth_seed_NNNN_pre`/`_post` pair. The tally counts
/// clean cases where the resynthesizer kept a rewrite.
pub fn resynth_fuzz(opts: &FuzzOptions, progress: impl FnMut(&str)) -> FuzzReport {
    // Only entries the exhaustive oracle can judge quickly are bases.
    let corpus = corpus_bases(opts, opts.max_inputs);
    drive(opts, "seed", progress, |index, progress| {
        let mut rng = Rng::seed_from_u64(mix64(opts.base_seed ^ mix64(index ^ 0x5E51)));
        let mut entry = base_for(&corpus, opts, 0x5E51, index);
        entry
            .delays
            .extend(perturb_delays(&mut rng, &entry.case.net));
        let (report, checks) = resynth_checked(&entry);
        if checks.is_empty() {
            return Case {
                tally: usize::from(report.changed),
                ..Case::default()
            };
        }
        let checks = checks.join("; ");
        progress(&checks);
        // Shrink structurally; overrides follow the surviving names.
        let with_delays = |case: TestCase| CorpusEntry {
            delays: entry
                .delays
                .iter()
                .filter(|(name, _)| case.net.find(name).is_some())
                .map(|(n, &t)| (n.clone(), t))
                .collect(),
            case,
            origin: format!(
                "resynth fuzz seed {index} base {:#x} ({checks})",
                opts.base_seed
            ),
        };
        let shrunk = with_delays(shrink(&entry.case, |cand| {
            !resynth_checked(&with_delays(cand.clone())).1.is_empty()
        }));
        let gates = shrunk.case.net.gate_count();
        progress(&format!("shrunk to {gates} gate(s)"));
        let post = CorpusEntry {
            case: TestCase {
                net: resynthesize(&shrunk.case.net, &delay_spec(&shrunk), &Default::default()).net,
                req: shrunk.case.req.clone(),
            },
            delays: shrunk.delays.clone(),
            origin: shrunk.origin.clone(),
        };
        Case {
            tally: 0,
            failure: Some(format!("{checks} | shrunk to {gates} gates")),
            entries: vec![
                (format!("resynth_seed_{index:04}_pre"), shrunk),
                (format!("resynth_seed_{index:04}_post"), post),
            ],
        }
    })
}

/// Replays one filed pre/post resynthesis pair through the judge the
/// fuzzer uses, under the pre entry's delay overrides: equivalence and
/// per-output true-arrival non-regression. Used by the corpus
/// regression test.
pub fn replay_resynth_pair(pre: &CorpusEntry, post: &CorpusEntry) -> Result<(), String> {
    let bad = judge(&pre.case.net, &post.case.net, &delay_spec(pre));
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_circuits::ripple_carry_adder;
    use xrta_timing::{topological_delays, UnitDelay};

    #[test]
    fn a_short_run_is_clean_and_finds_improvements() {
        // A 4-bit ripple-carry base (9 inputs) holds a carry spine the
        // resynthesizer rebuilds; random bases this small rarely do.
        let dir = std::env::temp_dir().join(format!("xrta_resynth_fuzz_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let net = ripple_carry_adder(4).unwrap();
        let req = topological_delays(&net, &UnitDelay);
        let base = CorpusEntry {
            case: TestCase { net, req },
            delays: BTreeMap::new(),
            origin: "rca4".to_string(),
        };
        crate::corpus::save(&dir, "rca4", &base).unwrap();
        let opts = FuzzOptions {
            seeds: 6,
            base_seed: 0x5E51,
            max_inputs: 9,
            corpus_dir: Some(dir.clone()),
            ..FuzzOptions::default()
        };
        let report = resynth_fuzz(&opts, |_| {});
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(report.seeds_run, 6);
        assert!(
            report.failures.is_empty(),
            "clean seeds must stay clean: {:?}",
            report.failures
        );
        assert!(report.tally >= 1, "no case kept a rewrite");
    }

    #[test]
    fn replay_accepts_a_genuine_resynthesis_pair() {
        let net = ripple_carry_adder(4).unwrap();
        let req = topological_delays(&net, &UnitDelay);
        let pre = CorpusEntry {
            case: TestCase {
                net: net.clone(),
                req: req.clone(),
            },
            delays: BTreeMap::new(),
            origin: "test".to_string(),
        };
        let r = resynthesize(&net, &DelaySpec::unit(), &ResynthOptions::default());
        let post = CorpusEntry {
            case: TestCase { net: r.net, req },
            delays: BTreeMap::new(),
            origin: "test".to_string(),
        };
        assert_eq!(replay_resynth_pair(&pre, &post), Ok(()));
    }

    #[test]
    fn replay_rejects_a_function_change() {
        let net = ripple_carry_adder(4).unwrap();
        let other = ripple_carry_adder(4).unwrap();
        let req = topological_delays(&net, &UnitDelay);
        let pre = CorpusEntry {
            case: TestCase {
                net: net.clone(),
                req: req.clone(),
            },
            delays: BTreeMap::new(),
            origin: String::new(),
        };
        // Same interface, different function: flip every AND to NAND.
        let text = write_bench(&other).replace("AND", "NAND");
        let broken = xrta_network::parse_bench(&text).unwrap();
        let post = CorpusEntry {
            case: TestCase { net: broken, req },
            delays: BTreeMap::new(),
            origin: String::new(),
        };
        assert!(replay_resynth_pair(&pre, &post).is_err());
    }
}
