//! # xrta-bench — the table-reproduction harness
//!
//! Shared machinery for the `table1` and `table2` binaries, which
//! regenerate the paper's two experiment tables on the surrogate suite
//! (see `xrta-circuits::mcnc_rows` / `iscas_rows` and DESIGN.md §3 for
//! the substitution argument).
//!
//! All experiments follow the paper's §6 protocol: unit delay model,
//! required time 0 at every primary output, required times computed at
//! the primary inputs.

use std::time::{Duration, Instant};

use xrta_core::{
    approx1_required_times, approx2_required_times_governed, exact_required_times, Approx1Options,
    Approx2Options, Budget, ExactOptions,
};
use xrta_network::Network;
use xrta_timing::{tokens, Time, UnitDelay};

/// Outcome of one algorithm run on one circuit.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// Completed; wall time and whether a non-trivial (looser than
    /// topological) required time was found.
    Done {
        /// Wall-clock time.
        elapsed: Duration,
        /// Looser-than-topological requirement found (the `*` marker).
        nontrivial: bool,
    },
    /// The BDD node cap was hit (the paper's `memory out`).
    MemoryOut {
        /// Wall-clock time until the cap.
        elapsed: Duration,
    },
    /// The time budget expired (the paper's `> 12 hours` rows); partial
    /// results may still exist.
    OverBudget {
        /// Non-trivial result found before the budget expired?
        nontrivial: bool,
        /// Time to the first non-trivial result, if any.
        first_nontrivial: Option<Duration>,
    },
    /// Deliberately skipped (the paper's `-` cells).
    Skipped,
}

impl RunOutcome {
    /// Renders the wall-time cell like the paper's tables.
    pub fn cell(&self) -> String {
        match self {
            RunOutcome::Done {
                elapsed,
                nontrivial,
            } => format!(
                "{:.2}{}",
                elapsed.as_secs_f64(),
                if *nontrivial { "*" } else { "" }
            ),
            RunOutcome::MemoryOut { .. } => "memory out".to_string(),
            RunOutcome::OverBudget { .. } => "> budget".to_string(),
            RunOutcome::Skipped => "-".to_string(),
        }
    }

    /// Was a non-trivial requirement found?
    pub fn nontrivial(&self) -> bool {
        matches!(
            self,
            RunOutcome::Done {
                nontrivial: true,
                ..
            } | RunOutcome::OverBudget {
                nontrivial: true,
                ..
            }
        )
    }
}

/// Required times per the paper's protocol: zero at every output.
pub fn zero_required(net: &Network) -> Vec<Time> {
    vec![Time::ZERO; net.outputs().len()]
}

/// Runs the exact algorithm (§4.1) with a node cap.
pub fn run_exact(net: &Network, node_cap: usize) -> RunOutcome {
    let start = Instant::now();
    let req = zero_required(net);
    match exact_required_times(
        net,
        &UnitDelay,
        &req,
        ExactOptions {
            node_limit: node_cap,
        },
    ) {
        Ok(mut analysis) => RunOutcome::Done {
            elapsed: start.elapsed(),
            nontrivial: analysis.has_nontrivial_requirement(),
        },
        Err(_) => RunOutcome::MemoryOut {
            elapsed: start.elapsed(),
        },
    }
}

/// Runs the parametric algorithm (§4.2) with a node cap.
pub fn run_approx1(net: &Network, node_cap: usize) -> RunOutcome {
    let start = Instant::now();
    let req = zero_required(net);
    match approx1_required_times(
        net,
        &UnitDelay,
        &req,
        Approx1Options {
            node_limit: node_cap,
            ..Approx1Options::default()
        },
    ) {
        Ok(analysis) => RunOutcome::Done {
            elapsed: start.elapsed(),
            nontrivial: analysis.has_nontrivial_requirement(),
        },
        Err(_) => RunOutcome::MemoryOut {
            elapsed: start.elapsed(),
        },
    }
}

/// Result details of an approx-2 run (Table 2 columns).
#[derive(Clone, Debug)]
pub struct Approx2Report {
    /// Table-1-style outcome.
    pub outcome: RunOutcome,
    /// Time to the first non-trivial validated point.
    pub first_nontrivial: Option<Duration>,
    /// Total search time.
    pub total: Duration,
    /// Oracle calls performed.
    pub oracle_calls: usize,
    /// Safety queries answered from the verdict caches.
    pub cache_hits: usize,
    /// Fraction of safety queries answered without a χ-engine run.
    pub cache_hit_rate: f64,
    /// Oracle batches executed (each shares one χ engine).
    pub batches: usize,
    /// Probes that rode a multi-rung batch (engine state reused).
    pub batched_probes: usize,
    /// [`maximal_fnv`] of the maximal points found.
    pub maximal_fnv: u64,
}

/// FNV-1a 64 over `maximal` sorted, one point per line in the
/// required-time token encoding: a digest of a search's answer that
/// ignores the order the climbs found the points in.
pub fn maximal_fnv(maximal: &[Vec<Time>]) -> u64 {
    let mut points: Vec<&Vec<Time>> = maximal.iter().collect();
    points.sort();
    let mut h = xrta_rng::Fnv64::default();
    for p in points {
        h.write(tokens::encode_times(p).as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// Runs the lattice-climbing algorithm (§4.3) under a wall-clock budget
/// with Table 2's oracle options.
pub fn run_approx2(net: &Network, budget: Duration) -> Approx2Report {
    let req = zero_required(net);
    let r = approx2_required_times_governed(
        net,
        &UnitDelay,
        &req,
        Approx2Options {
            max_solutions: 4,
            max_oracle_calls: 1_000_000,
            // Keep any single oracle query bounded so the wall-clock
            // budget is honoured even on multiplier-class circuits
            // (~20M propagations ≈ a few seconds).
            oracle_conflict_budget: Some(100_000),
            oracle_propagation_budget: Some(20_000_000),
            ..Approx2Options::default()
        },
        &Budget::unlimited().with_timeout(budget),
    )
    .expect("a deadline stop returns the partial result; nothing cancels this budget");
    let nontrivial = r.has_nontrivial_requirement() || r.first_nontrivial.is_some();
    let outcome = if r.completed {
        RunOutcome::Done {
            elapsed: r.total_time,
            nontrivial,
        }
    } else {
        RunOutcome::OverBudget {
            nontrivial,
            first_nontrivial: r.first_nontrivial,
        }
    };
    Approx2Report {
        outcome,
        first_nontrivial: r.first_nontrivial,
        total: r.total_time,
        oracle_calls: r.oracle_calls,
        cache_hits: r.cache_hits,
        cache_hit_rate: r.cache_hit_rate(),
        batches: r.batches,
        batched_probes: r.batched_probes,
        maximal_fnv: maximal_fnv(&r.maximal),
    }
}

/// Minimal std-timer micro-benchmark runner (the workspace builds
/// offline, so `criterion` is not available). Runs one warm-up
/// iteration, then `iters` timed iterations, and prints min / mean /
/// max wall time on a single line.
pub fn microbench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    assert!(iters > 0);
    std::hint::black_box(f());
    let mut times = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        times.push(start.elapsed());
    }
    let min = times.iter().min().copied().unwrap_or_default();
    let max = times.iter().max().copied().unwrap_or_default();
    let mean = times.iter().sum::<Duration>() / iters;
    println!(
        "{name:<40} min {:>10.3?}  mean {:>10.3?}  max {:>10.3?}  ({iters} iters)",
        min, mean, max
    );
}

/// Simple fixed-width table printer.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<String>>(),
    );
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_circuits::{fig4, two_mux_bypass};

    #[test]
    fn outcome_cells() {
        let d = RunOutcome::Done {
            elapsed: Duration::from_millis(1500),
            nontrivial: true,
        };
        assert_eq!(d.cell(), "1.50*");
        assert!(d.nontrivial());
        assert_eq!(RunOutcome::Skipped.cell(), "-");
        assert_eq!(
            RunOutcome::MemoryOut {
                elapsed: Duration::ZERO
            }
            .cell(),
            "memory out"
        );
    }

    #[test]
    fn fig4_runs_all_three() {
        let net = fig4();
        let e = run_exact(&net, 1 << 20);
        assert!(matches!(e, RunOutcome::Done { .. }));
        assert!(e.nontrivial());
        let a1 = run_approx1(&net, 1 << 20);
        assert!(a1.nontrivial());
        let a2 = run_approx2(&net, Duration::from_secs(30));
        assert!(matches!(a2.outcome, RunOutcome::Done { .. }));
    }

    #[test]
    fn maximal_fnv_ignores_point_order() {
        let p = |v: &[i64]| v.iter().map(|&t| Time::new(t)).collect::<Vec<_>>();
        let (a, b) = (p(&[0, 2]), p(&[1, 0]));
        let digest = maximal_fnv(&[a.clone(), b.clone()]);
        assert_eq!(digest, maximal_fnv(&[b.clone(), a.clone()]));
        assert_eq!(digest, xrta_rng::fnv1a64(b"0 2\n1 0\n"));
        assert_ne!(digest, maximal_fnv(&[a]));
    }

    #[test]
    fn bypass_detected_by_approx2() {
        let net = two_mux_bypass();
        let rep = run_approx2(&net, Duration::from_secs(30));
        assert!(rep.outcome.nontrivial());
        assert!(rep.first_nontrivial.is_some());
    }
}
