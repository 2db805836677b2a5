//! Equivalence of §4.3 searches run side by side on several threads —
//! as `xrta serve --workers` and `table2 --jobs` run them — with the
//! same searches run one after another. Each search owns its cones,
//! frontiers and counters, so sharing the process with other searches
//! may not change what it finds or how many oracle calls it makes. The
//! small circuits fit one support-mask word and two cones; [`WIDE`]
//! spans two words and eight cones.

use std::thread;
use xrta::circuits::{random_circuit, RandomCircuitSpec};
use xrta::prelude::*;

fn spec(seed: u64) -> RandomCircuitSpec {
    RandomCircuitSpec {
        inputs: 5,
        gates: 12,
        outputs: 2,
        max_fanin: 3,
        locality: 50,
        seed,
    }
}

fn seeds() -> impl Iterator<Item = u64> {
    (0..10u64).map(|i| 0x9E37u64.wrapping_mul(2654435761).wrapping_add(i * 487))
}

/// A circuit wider than one 64-input support-mask word, whose climb
/// runs past the 48 oracle calls after which rounds go largest cone
/// first.
const WIDE: RandomCircuitSpec = RandomCircuitSpec {
    inputs: 72,
    gates: 90,
    outputs: 8,
    max_fanin: 3,
    locality: 50,
    seed: 6,
};

fn cases() -> impl Iterator<Item = RandomCircuitSpec> {
    seeds().map(spec).chain(std::iter::once(WIDE))
}

fn opts() -> Approx2Options {
    Approx2Options {
        max_solutions: 3,
        max_oracle_calls: 2_000,
        ..Approx2Options::default()
    }
}

/// Runs `f` once on each of `threads` threads at the same time and
/// returns what each run returned.
fn side_by_side<T: Send>(threads: usize, f: impl Fn() -> T + Sync) -> Vec<T> {
    thread::scope(|s| {
        let runs: Vec<_> = (0..threads).map(|_| s.spawn(&f)).collect();
        runs.into_iter()
            .map(|h| h.join().expect("search thread panicked"))
            .collect()
    })
}

#[test]
fn parallel_and_sequential_find_identical_maximal_sets() {
    for case in cases() {
        let seed = case.seed;
        let net = random_circuit(case).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let seq = approx2_required_times(&net, &UnitDelay, &req, opts());
        for threads in [2usize, 4] {
            let runs = side_by_side(threads, || {
                approx2_required_times(&net, &UnitDelay, &req, opts())
            });
            for par in runs {
                assert_eq!(
                    seq.maximal, par.maximal,
                    "{threads} searches side by side diverged (seed {seed})"
                );
                assert_eq!(seq.r_bottom, par.r_bottom, "seed {seed}");
                assert_eq!(seq.oracle_calls, par.oracle_calls, "seed {seed}");
                assert_eq!(seq.batches, par.batches, "seed {seed}");
                assert_eq!(seq.batched_probes, par.batched_probes, "seed {seed}");
            }
        }
    }
}

/// The rendered latest conditions — the user-visible report — must be
/// byte-identical whether one search runs alone or 2, 4 or 8 run at
/// once.
#[test]
fn rendered_report_is_byte_identical_across_thread_counts() {
    for seed in seeds().take(4) {
        let net = random_circuit(spec(seed)).expect("valid spec");
        let req = vec![Time::ZERO; net.outputs().len()];
        let render = || {
            let r = approx2_required_times(&net, &UnitDelay, &req, opts());
            xrta::core::report::render_conditions(&net, &r.maximal_conditions())
        };
        let baseline = render();
        for threads in [2usize, 4, 8] {
            for report in side_by_side(threads, render) {
                assert_eq!(
                    baseline, report,
                    "report diverged with {threads} searches side by side (seed {seed})"
                );
            }
        }
    }
}
