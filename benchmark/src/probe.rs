//! The χ/SAT layer probe of the traced run: for every output of every
//! circuit, encode its χ literals at its topological arrival and one
//! tick earlier, then solve the stability query under a fixed budget.
//! It is the only outside view of how an oracle call splits between χ
//! encoding and SAT solving.

use std::time::Instant;

use xrta_chi::{ChiSatEngine, Stability};
use xrta_network::Network;
use xrta_robust::mem::{self, Subsystem};
use xrta_timing::{topological_delays, Time, UnitDelay};

use crate::inputs::Circuit;
use crate::metrics::{ratio, Report, MIB};
use crate::trace::Tracer;

/// Conflicts per probe query; an exhausted query reads `Unknown`.
const PROBE_CONFLICTS: u64 = 100;

/// Unit propagations per probe query, bounding the multiplier queries.
const PROBE_PROPAGATIONS: u64 = 1_000_000;

/// Probe totals over every circuit of a workload.
#[derive(Default)]
pub struct Totals {
    encode_s: f64,
    vars: f64,
    memo_bytes: f64,
    solve_s: f64,
    propagations: f64,
    conflicts: f64,
    decisions: f64,
    unknown: f64,
}

impl Totals {
    /// Writes the `chi.*` and `sat.*` metrics.
    pub fn fill(&self, report: &mut Report) {
        report.set("chi.encode_s", self.encode_s);
        report.set("chi.vars", self.vars);
        report.set("chi.memo_mb", self.memo_bytes / MIB);
        report.set("sat.solve_s", self.solve_s);
        report.set("sat.propagations", self.propagations);
        report.set("sat.conflicts", self.conflicts);
        report.set("sat.decisions", self.decisions);
        report.set("sat.props_per_s", ratio(self.propagations, self.solve_s));
        report.set("sat.unknown", self.unknown);
    }
}

/// Runs the probe over `circuits` (parsed as `nets`), one fresh engine
/// per circuit, recording a `probe` span per circuit with `chi.encode`
/// and `sat.solve` children per query.
pub fn run(tracer: &Tracer, circuits: &[Circuit], nets: &[Network]) -> Totals {
    let mut t = Totals::default();
    let meter = mem::global();
    for (k, (c, net)) in circuits.iter().zip(nets).enumerate() {
        let op = 1_000_000 + k as u64;
        tracer.span("probe", 0, op, |root| {
            let memo_before = meter.current(Subsystem::ChiMemo);
            let mut eng = ChiSatEngine::new(net, &UnitDelay, vec![Time::ZERO; net.inputs().len()]);
            eng.set_conflict_budget(Some(PROBE_CONFLICTS));
            eng.set_propagation_budget(Some(PROBE_PROPAGATIONS));
            let topo = topological_delays(net, &UnitDelay);
            let mut vars = 0usize;
            let mut memo_peak = memo_before;
            for (&out, &arrival) in net.outputs().iter().zip(&topo) {
                for at in [arrival, arrival - 1] {
                    let started = Instant::now();
                    tracer.span("chi.encode", root, op, |_| {
                        for value in [true, false] {
                            let lit = eng.chi_lit(net, out, value, at);
                            vars = vars.max(lit.var().index() + 1);
                        }
                    });
                    t.encode_s += started.elapsed().as_secs_f64();
                    memo_peak = memo_peak.max(meter.current(Subsystem::ChiMemo));
                    let started = Instant::now();
                    let verdict =
                        tracer.span("sat.solve", root, op, |_| eng.check_stable(net, out, at));
                    t.solve_s += started.elapsed().as_secs_f64();
                    if verdict == Stability::Unknown {
                        t.unknown += 1.0;
                    }
                }
            }
            let stats = eng.stats();
            t.vars += vars as f64;
            t.memo_bytes += memo_peak.saturating_sub(memo_before) as f64;
            t.propagations += stats.propagations as f64;
            t.conflicts += stats.conflicts as f64;
            t.decisions += stats.decisions as f64;
            eprintln!(
                "probe {}: {} outputs, {vars} χ vars, {} conflicts, {} propagations",
                c.name,
                net.outputs().len(),
                stats.conflicts,
                stats.propagations
            );
        });
    }
    t
}
