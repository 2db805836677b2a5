//! Benchmark of the xrta workspace: four workloads across the SAT, BDD
//! and serve stacks (see `README.md` beside this package).
//!
//! ```text
//! xrta-benchmark --workload iscas_sat|mult_sat|mcnc_bdd|serve_eco
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` records
//! layer spans from outside the program and reports the per-layer
//! metrics, writing the spans to `traces/<workload>-<seed>.json` as
//! Chrome trace-event JSON. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. Any
//! failed operation or reference check makes the exit code 1.

mod batch;
mod inputs;
mod metrics;
mod probe;
mod serve_eco;
mod trace;

use std::process::ExitCode;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Traced (per-layer) run?
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Writes the traced run's spans as Chrome trace-event JSON and prints
/// the per-layer self times to standard error.
pub fn finish_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    eprintln!("self time per layer (s):");
    for (name, s) in tracer.self_times() {
        eprintln!("  {name:<20} {s:.4}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xrta-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "iscas_sat" | "mult_sat" | "mcnc_bdd" => batch::run(&args),
        "serve_eco" => serve_eco::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xrta-benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    match report.to_json(catalogue) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("xrta-benchmark: {e}");
            return ExitCode::from(1);
        }
    }
    if report.failed > 0 {
        eprintln!(
            "xrta-benchmark: {} of {} operations failed",
            report.failed, report.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
