//! Reproduces the paper's **Table 2**: the second approximate algorithm
//! (lattice climbing with a SAT timing oracle) on (surrogates of) the
//! ISCAS-85 combinational benchmarks.
//!
//! Columns as in the paper: whether non-trivial required times were
//! found, CPU time until the first `r ≠ r⊥`, and CPU time for the whole
//! analysis (or `> budget`, standing in for the paper's `> 12 hours`) —
//! plus the oracle-call and cache statistics of the cone-parallel
//! oracle.
//!
//! Rows run concurrently (`--jobs`, default: available parallelism),
//! each with `--threads` oracle workers (`@N`); `--compare` also runs
//! each row at one thread (`@1`). Every run is appended to a
//! machine-readable JSON report (`--json`, default
//! `BENCH_reqtime.json`).
//!
//! With `--compare`, each `@N` row also reports `speedup_vs_serial`
//! (`@1` wall / `@N` wall) and `oracle_call_ratio` (`@N` calls / `@1`
//! calls) — the two scaling invariants of the parallel oracle.
//! `--baseline OLD.json` diffs the fresh run against a previous report
//! and prints per-circuit wall/call regressions.
//!
//! Usage:
//!
//! ```text
//! table2 [--budget-secs S] [--rows C432,C6288,...] [--jobs J]
//!        [--threads T] [--compare] [--json PATH] [--baseline OLD.json]
//! ```

use std::fmt::Write as _;
use std::time::Duration;

use xrta_bench::{print_table, run_approx2_with, zero_required, RunOutcome};
use xrta_circuits::{carry_skip_adder, iscas_rows, ripple_carry_adder};
use xrta_core::slice_cones;
use xrta_network::Network;
use xrta_resynth::{resynthesize, DelaySpec, ResynthOptions};
use xrta_robust::jsonflat::{escape, Fields};
use xrta_timing::UnitDelay;

/// One (circuit, configuration) run for the table and the JSON report.
struct Record {
    circuit: String,
    config: &'static str,
    threads: usize,
    nontrivial: bool,
    completed: bool,
    first_s: Option<f64>,
    wall_s: f64,
    oracle_calls: usize,
    cache_hits: usize,
    cache_hit_rate: f64,
    steals: usize,
    shard_contention: usize,
    batches: usize,
    batched_probes: usize,
    spec_probes: usize,
    /// Output cones the incremental (delta) path would slice this
    /// circuit into.
    cones: usize,
    /// Distinct cone fingerprints among them. The difference is the
    /// isomorphic-cone reuse a warm cone cache gets for free even on a
    /// cold netlist.
    cone_distinct: usize,
    /// Cones answered from an earlier cone's verdict within one pass:
    /// `cones - cone_distinct`, the intra-netlist cone-hit floor.
    cone_dup_hits: usize,
    /// `@1` wall / this wall, for `@N` rows when the serial twin ran in
    /// the same invocation (`--compare`).
    speedup_vs_serial: Option<f64>,
    /// This run's oracle calls / `@1` calls, same conditions.
    oracle_call_ratio: Option<f64>,
    /// High-water mark of the process-global memory meter over this
    /// row's run, bytes. Rows share one meter, so with `--jobs > 1`
    /// concurrent rows inflate each other's peaks — compare across
    /// reports only at equal job counts (ci uses `--jobs 1`).
    peak_mem: u64,
}

/// One adder-family resynthesis run: the worst-true-delay gain table
/// of the required-time-driven restructuring pass.
struct ResynthRecord {
    netlist: String,
    worst_before: i64,
    worst_after: i64,
    gain: i64,
    chains_improved: usize,
    verified: usize,
    wall_s: f64,
}

/// The adder family the resynthesis bench runs over: ripple-carry
/// chains (long critical carry spines, big gains) and carry-skip
/// variants (the skip muxes already shorten the true path; the pass
/// must still find what is left without regressing anything).
fn adder_family() -> Vec<(String, Network)> {
    let mut fam = Vec::new();
    for bits in [8usize, 12, 16] {
        fam.push((
            format!("rca{bits}"),
            ripple_carry_adder(bits).expect("valid adder"),
        ));
    }
    for (bits, block) in [(8usize, 4usize), (16, 4), (24, 6)] {
        fam.push((
            format!("csk{bits}x{block}"),
            carry_skip_adder(bits, block).expect("valid adder"),
        ));
    }
    fam
}

fn run_resynth_rows() -> Vec<ResynthRecord> {
    adder_family()
        .into_iter()
        .map(|(name, net)| {
            eprintln!("resynthesizing {name} ...");
            let started = std::time::Instant::now();
            let rep = resynthesize(&net, &DelaySpec::unit(), &ResynthOptions::default());
            let wall_s = started.elapsed().as_secs_f64();
            let (before, after) = (rep.worst_before.ticks(), rep.worst_after.ticks());
            ResynthRecord {
                netlist: name,
                worst_before: before,
                worst_after: after,
                gain: before - after,
                chains_improved: rep.improved(),
                verified: rep.equivalence_checks,
                wall_s,
            }
        })
        .collect()
}

fn render_json(budget: Duration, records: &[Record], resynth: &[ResynthRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"reqtime_table2\",");
    let _ = writeln!(out, "  \"budget_secs\": {},", budget.as_secs_f64());
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let _ = writeln!(out, "  \"rows\": [");
    for (k, r) in records.iter().enumerate() {
        let first = r
            .first_s
            .map(|s| format!("{s:.4}"))
            .unwrap_or_else(|| "null".to_string());
        let opt = |v: Option<f64>| {
            v.map(|x| format!("{x:.4}"))
                .unwrap_or_else(|| "null".to_string())
        };
        let _ = writeln!(
            out,
            "    {{\"circuit\": \"{}\", \"config\": \"{}\", \"threads\": {}, \
             \"nontrivial\": {}, \"completed\": {}, \
             \"first_nontrivial_secs\": {}, \"wall_secs\": {:.4}, \
             \"oracle_calls\": {}, \"cache_hits\": {}, \"cache_hit_rate\": {:.4}, \
             \"steals\": {}, \"shard_contention\": {}, \"batches\": {}, \
             \"batched_probes\": {}, \"spec_probes\": {}, \
             \"cones\": {}, \"cone_distinct\": {}, \"cone_dup_hits\": {}, \
             \"speedup_vs_serial\": {}, \"oracle_call_ratio\": {}, \
             \"peak_mem\": {}}}{}",
            escape(&r.circuit),
            r.config,
            r.threads,
            r.nontrivial,
            r.completed,
            first,
            r.wall_s,
            r.oracle_calls,
            r.cache_hits,
            r.cache_hit_rate,
            r.steals,
            r.shard_contention,
            r.batches,
            r.batched_probes,
            r.spec_probes,
            r.cones,
            r.cone_distinct,
            r.cone_dup_hits,
            opt(r.speedup_vs_serial),
            opt(r.oracle_call_ratio),
            r.peak_mem,
            if k + 1 == records.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"resynth\": [");
    for (k, r) in resynth.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"netlist\": \"{}\", \"worst_before\": {}, \"worst_after\": {}, \
             \"gain\": {}, \"chains_improved\": {}, \"verified\": {}, \
             \"wall_secs\": {:.4}}}{}",
            escape(&r.netlist),
            r.worst_before,
            r.worst_after,
            r.gain,
            r.chains_improved,
            r.verified,
            r.wall_s,
            if k + 1 == resynth.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// One row of a previous report: `(circuit, config, wall_secs,
/// oracle_calls, peak_mem)`. `peak_mem` is 0 for reports written
/// before the column existed.
type BaselineRow = (String, String, f64, usize, u64);

/// The row objects carrying `key` in a report this binary wrote
/// earlier. Every row is one flat object on its own line, so each line
/// goes through the workspace's flat-JSON parser.
fn report_rows(text: &str, key: &str) -> Vec<Fields> {
    text.lines()
        .filter_map(|l| Fields::parse(l.trim().trim_end_matches(',')).ok())
        .filter(|f| f.opt(key).is_some())
        .collect()
}

/// Extracts the circuit rows of a previous report. Reports written
/// while the cache strategy was a setting label their rows
/// `dominance@1`/`dominance@N` (the one strategy left) and
/// `exact@1`; the former read as `@1`/`@N`, the latter match nothing.
fn parse_baseline(text: &str) -> Vec<BaselineRow> {
    report_rows(text, "circuit")
        .iter()
        .filter_map(|f| {
            let config = f.opt("config")?;
            Some((
                f.opt("circuit")?.to_string(),
                config
                    .strip_prefix("dominance")
                    .unwrap_or(config)
                    .to_string(),
                f.opt("wall_secs")?.parse().ok()?,
                f.opt("oracle_calls")?.parse().ok()?,
                f.opt("peak_mem").and_then(|v| v.parse().ok()).unwrap_or(0),
            ))
        })
        .collect()
}

/// Prints per-circuit wall/call deltas of `records` against a previous
/// report, flagging regressions beyond the noise floor.
fn print_baseline_diff(baseline: &[BaselineRow], records: &[Record]) {
    const WALL_NOISE: f64 = 1.15; // 1-core containers jitter ±15%
    const WALL_FLOOR_S: f64 = 0.05; // don't flag microsecond rows
    println!(
        "\nBaseline diff (wall regression flagged above {:.0}%):",
        (WALL_NOISE - 1.0) * 100.0
    );
    // Memory regressions only count above real footprints: tiny rows
    // round off in the estimator.
    const MEM_NOISE: f64 = 1.5;
    const MEM_FLOOR: u64 = 32 << 20;
    let mut rows = Vec::new();
    let mut regressions = 0;
    for r in records {
        let Some((_, _, old_wall, old_calls, old_mem)) = baseline
            .iter()
            .find(|(c, cfg, _, _, _)| *c == r.circuit && *cfg == r.config)
        else {
            continue;
        };
        let wall_delta = if *old_wall > 0.0 {
            r.wall_s / old_wall
        } else {
            1.0
        };
        let call_delta = if *old_calls > 0 {
            r.oracle_calls as f64 / *old_calls as f64
        } else {
            1.0
        };
        let mem_delta = if *old_mem > 0 {
            r.peak_mem as f64 / *old_mem as f64
        } else {
            1.0
        };
        let regressed = (wall_delta > WALL_NOISE && r.wall_s > WALL_FLOOR_S)
            || call_delta > 1.1
            || (mem_delta > MEM_NOISE && r.peak_mem > MEM_FLOOR);
        if regressed {
            regressions += 1;
        }
        rows.push(vec![
            r.circuit.clone(),
            r.config.to_string(),
            format!("{old_wall:.2}"),
            format!("{:.2}", r.wall_s),
            format!("{:+.0}%", (wall_delta - 1.0) * 100.0),
            old_calls.to_string(),
            r.oracle_calls.to_string(),
            format!("{:+.0}%", (call_delta - 1.0) * 100.0),
            format!("{:.1}M", *old_mem as f64 / (1 << 20) as f64),
            format!("{:.1}M", r.peak_mem as f64 / (1 << 20) as f64),
            if regressed { "REGRESSED" } else { "ok" }.to_string(),
        ]);
    }
    if rows.is_empty() {
        println!("(baseline has no rows matching this run; diff skipped)");
        return;
    }
    print_table(
        &[
            "circuit",
            "config",
            "wall old",
            "wall new",
            "wall Δ",
            "calls old",
            "calls new",
            "calls Δ",
            "mem old",
            "mem new",
            "verdict",
        ],
        &rows,
    );
    if regressions > 0 {
        println!("{regressions} regression(s) vs baseline");
    } else {
        println!("no regressions vs baseline");
    }
}

/// One resynth row of a previous report: `(netlist, worst_after,
/// gain)`. Empty for reports written before the resynthesis bench
/// existed.
fn parse_baseline_resynth(text: &str) -> Vec<(String, i64, i64)> {
    report_rows(text, "netlist")
        .iter()
        .filter_map(|f| {
            Some((
                f.opt("netlist")?.to_string(),
                f.opt("worst_after")?.parse().ok()?,
                f.opt("gain")?.parse().ok()?,
            ))
        })
        .collect()
}

/// Flags resynthesis-quality regressions against a previous report: a
/// netlist whose restructured worst true delay got slower, or whose
/// gain shrank, means the pass stopped finding rewrites it used to.
fn print_resynth_baseline_diff(baseline: &[(String, i64, i64)], records: &[ResynthRecord]) {
    if baseline.is_empty() {
        println!("\n(baseline has no resynth rows; gain diff skipped)");
        return;
    }
    println!("\nResynthesis gain diff:");
    let mut rows = Vec::new();
    let mut regressions = 0;
    for r in records {
        let Some((_, old_after, old_gain)) = baseline.iter().find(|(n, _, _)| *n == r.netlist)
        else {
            continue;
        };
        let regressed = r.worst_after > *old_after || r.gain < *old_gain;
        if regressed {
            regressions += 1;
        }
        rows.push(vec![
            r.netlist.clone(),
            old_after.to_string(),
            r.worst_after.to_string(),
            old_gain.to_string(),
            r.gain.to_string(),
            if regressed { "REGRESSED" } else { "ok" }.to_string(),
        ]);
    }
    print_table(
        &[
            "netlist",
            "after old",
            "after new",
            "gain old",
            "gain new",
            "verdict",
        ],
        &rows,
    );
    if regressions > 0 {
        println!("{regressions} resynthesis regression(s) vs baseline");
    } else {
        println!("no resynthesis regressions vs baseline");
    }
}

fn main() {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut budget = Duration::from_secs(120);
    let mut row_filter: Option<Vec<String>> = None;
    let mut jobs = host;
    let mut threads = host;
    let mut compare = false;
    let mut json_path = "BENCH_reqtime.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--budget-secs" => {
                budget = Duration::from_secs(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--budget-secs needs a number"),
                );
            }
            "--rows" => {
                row_filter = Some(
                    args.next()
                        .expect("--rows needs a list")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                );
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs needs a number");
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a number");
            }
            "--compare" => compare = true,
            "--json" => {
                json_path = args.next().expect("--json needs a path");
            }
            "--baseline" => {
                baseline_path = Some(args.next().expect("--baseline needs a path"));
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let jobs = jobs.max(1);
    let threads = threads.max(1);

    println!("Table 2: Required Time Computation — ISCAS (approx 2)");
    println!("(surrogate circuits; unit delay; req(PO) = 0; see DESIGN.md §3)");
    println!("per-row budget = {budget:?}, row jobs = {jobs}, oracle threads = {threads}\n");

    // Configurations per row: one oracle thread and `--threads`, or
    // just the latter.
    let configs: Vec<(&'static str, usize)> = if compare {
        vec![("@1", 1), ("@N", threads)]
    } else {
        vec![("@N", threads)]
    };

    let work: Vec<(String, &'static str, usize)> = iscas_rows()
        .iter()
        .filter(|row| {
            row_filter
                .as_ref()
                .is_none_or(|f| f.iter().any(|n| n == row.name))
        })
        .flat_map(|row| {
            configs
                .iter()
                .map(|&(label, t)| (row.name.to_string(), label, t))
        })
        .collect();

    // Run the (circuit, config) items concurrently across `jobs`
    // workers; results land by index so the table stays in row order.
    let mut records: Vec<Option<Record>> = Vec::new();
    records.resize_with(work.len(), || None);
    let workers = jobs.min(work.len()).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let work = &work;
                s.spawn(move || {
                    let mut done = Vec::new();
                    for (k, (name, label, t)) in work.iter().enumerate() {
                        if k % workers != w {
                            continue;
                        }
                        eprintln!("running {name} [{label}] ...");
                        let row = iscas_rows()
                            .into_iter()
                            .find(|r| r.name == name)
                            .expect("known row");
                        let net = row.build();
                        let slices = slice_cones(&net, &UnitDelay, &zero_required(&net));
                        let mut seen = std::collections::HashSet::new();
                        for s in &slices {
                            seen.insert(s.fingerprint);
                        }
                        let (cones, cone_distinct) = (slices.len(), seen.len());
                        drop(slices);
                        let meter = xrta_robust::mem::global();
                        meter.reset_peaks();
                        let rep = run_approx2_with(&net, budget, *t);
                        let peak_mem = meter.total_peak();
                        done.push((
                            k,
                            Record {
                                circuit: name.clone(),
                                config: label,
                                threads: rep.threads_used,
                                nontrivial: rep.outcome.nontrivial(),
                                completed: matches!(rep.outcome, RunOutcome::Done { .. }),
                                first_s: rep.first_nontrivial.map(|d| d.as_secs_f64()),
                                wall_s: rep.total.as_secs_f64(),
                                oracle_calls: rep.oracle_calls,
                                cache_hits: rep.cache_hits,
                                cache_hit_rate: rep.cache_hit_rate,
                                steals: rep.steals,
                                shard_contention: rep.shard_contention,
                                batches: rep.batches,
                                batched_probes: rep.batched_probes,
                                spec_probes: rep.spec_probes,
                                cones,
                                cone_distinct,
                                cone_dup_hits: cones - cone_distinct,
                                speedup_vs_serial: None,
                                oracle_call_ratio: None,
                                peak_mem,
                            },
                        ));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (k, rec) in h.join().expect("table2 worker panicked") {
                records[k] = Some(rec);
            }
        }
    });
    let mut records: Vec<Record> = records.into_iter().flatten().collect();

    // Scaling invariants: relate every `@N` row to its serial twin from
    // the same invocation.
    let serial: Vec<(String, f64, usize)> = records
        .iter()
        .filter(|r| r.config == "@1")
        .map(|r| (r.circuit.clone(), r.wall_s, r.oracle_calls))
        .collect();
    for r in &mut records {
        if r.config != "@N" {
            continue;
        }
        if let Some((_, w1, c1)) = serial.iter().find(|(c, _, _)| *c == r.circuit) {
            if r.wall_s > 0.0 {
                r.speedup_vs_serial = Some(w1 / r.wall_s);
            }
            if *c1 > 0 {
                r.oracle_call_ratio = Some(r.oracle_calls as f64 / *c1 as f64);
            }
        }
    }

    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.circuit.clone(),
                r.config.to_string(),
                if r.nontrivial { "Yes" } else { "No" }.to_string(),
                r.first_s
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "-".to_string()),
                if r.completed {
                    format!("{:.2}", r.wall_s)
                } else {
                    "> budget".to_string()
                },
                r.oracle_calls.to_string(),
                format!("{} ({:.0}%)", r.cache_hits, 100.0 * r.cache_hit_rate),
                format!("{} ({})", r.cones, r.cone_distinct),
                r.speedup_vs_serial
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "-".to_string()),
                r.oracle_call_ratio
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "-".to_string()),
                format!("{:.1}M", r.peak_mem as f64 / (1 << 20) as f64),
            ]
        })
        .collect();
    print_table(
        &[
            "circuit",
            "config",
            "Non-trivial required time?",
            "CPU time first r != r_bot (s)",
            "CPU time r_max (s)",
            "oracle calls",
            "cache hits",
            "cones (distinct)",
            "speedup",
            "call ratio",
            "peak mem",
        ],
        &rows,
    );

    // Resynthesis gain rows: the required-time-driven restructuring
    // pass over the adder family, every kept rewrite proof-verified.
    let resynth = run_resynth_rows();
    let resynth_rows: Vec<Vec<String>> = resynth
        .iter()
        .map(|r| {
            vec![
                r.netlist.clone(),
                r.worst_before.to_string(),
                r.worst_after.to_string(),
                r.gain.to_string(),
                r.chains_improved.to_string(),
                r.verified.to_string(),
                format!("{:.2}", r.wall_s),
            ]
        })
        .collect();
    println!("\nResynthesis gains (unit delay, adder family):");
    print_table(
        &[
            "netlist",
            "worst before",
            "worst after",
            "gain",
            "chains improved",
            "proofs",
            "wall (s)",
        ],
        &resynth_rows,
    );

    if let Some(path) = &baseline_path {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--baseline {path}: {e}"));
        print_baseline_diff(&parse_baseline(&text), &records);
        print_resynth_baseline_diff(&parse_baseline_resynth(&text), &resynth);
    }

    let json = render_json(budget, &records, &resynth);
    // Atomic: never leave a half-written report if the run is killed.
    xrta_robust::fsio::atomic_write(std::path::Path::new(&json_path), json.as_bytes())
        .expect("write JSON report");
    println!("\nwrote {json_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(circuit: &str, config: &'static str, wall_s: f64, oracle_calls: usize) -> Record {
        Record {
            circuit: circuit.to_string(),
            config,
            threads: 2,
            nontrivial: true,
            completed: true,
            first_s: Some(0.5),
            wall_s,
            oracle_calls,
            cache_hits: 3,
            cache_hit_rate: 0.25,
            steals: 0,
            shard_contention: 0,
            batches: 2,
            batched_probes: 4,
            spec_probes: 1,
            cones: 7,
            cone_distinct: 5,
            cone_dup_hits: 2,
            speedup_vs_serial: None,
            oracle_call_ratio: Some(1.0),
            peak_mem: 3 << 20,
        }
    }

    #[test]
    fn rendered_report_reads_back_as_a_baseline() {
        let records = [
            record("C432", "@1", 1.25, 40),
            record("C880", "@N", 0.5, 12),
        ];
        let resynth = [ResynthRecord {
            netlist: "rca8".to_string(),
            worst_before: 17,
            worst_after: 11,
            gain: 6,
            chains_improved: 1,
            verified: 1,
            wall_s: 0.1,
        }];
        let text = render_json(Duration::from_secs(5), &records, &resynth);
        assert_eq!(
            parse_baseline(&text),
            vec![
                ("C432".to_string(), "@1".to_string(), 1.25, 40, 3 << 20),
                ("C880".to_string(), "@N".to_string(), 0.5, 12, 3 << 20),
            ]
        );
        assert_eq!(
            parse_baseline_resynth(&text),
            vec![("rca8".to_string(), 11, 6)]
        );
    }

    #[test]
    fn older_reports_map_dominance_rows_onto_the_current_configs() {
        let old = "  \"rows\": [\n    {\"circuit\": \"C432\", \"config\": \"exact@1\", \
                   \"cache\": \"exact\", \"wall_secs\": 0.0059, \"oracle_calls\": 64},\n    \
                   {\"circuit\": \"C432\", \"config\": \"dominance@1\", \"cache\": \"dominance\", \
                   \"wall_secs\": 0.0019, \"oracle_calls\": 52}\n  ],\n";
        assert_eq!(
            parse_baseline(old),
            vec![
                ("C432".to_string(), "exact@1".to_string(), 0.0059, 64, 0),
                ("C432".to_string(), "@1".to_string(), 0.0019, 52, 0),
            ]
        );
    }
}
