//! The metric catalogue, summary statistics and the one-line JSON
//! result every run ends with.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by untraced runs (`--trace 0`) on every
/// workload: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("decided_frac", "ratio"),
    ("peak_mem_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("requests_per_s", "1/s"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`) on every
/// workload; a layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("network.parse_s", "s"),
    ("network.gates", "count"),
    ("cone.slice_s", "s"),
    ("cone.cones", "count"),
    ("cone.cones_distinct", "count"),
    ("timing.topo_s", "s"),
    ("plan.s", "s"),
    ("plan.leaves", "count"),
    ("chi.encode_s", "s"),
    ("chi.vars", "count"),
    ("chi.memo_mb", "MiB"),
    ("sat.solve_s", "s"),
    ("sat.propagations", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.unknown", "count"),
    ("bdd.exact_s", "s"),
    ("bdd.approx1_s", "s"),
    ("bdd.nodes", "count"),
    ("bdd.nodes_per_s", "1/s"),
    ("bdd.capacity_outs", "count"),
    ("approx2.s", "s"),
    ("approx2.oracle_calls", "count"),
    ("approx2.cache_hits", "count"),
    ("approx2.cache_hit_rate", "ratio"),
    ("approx2.ms_per_call", "ms"),
    ("approx2.batches", "count"),
    ("approx2.batched_probes", "count"),
    ("approx2.spec_probes", "count"),
    ("approx2.steals", "count"),
    ("approx2.shard_contention", "count"),
    ("approx2.first_nontrivial_s", "s"),
    ("session.exact_s", "s"),
    ("session.approx1_s", "s"),
    ("session.approx2_s", "s"),
    ("session.degraded", "count"),
    ("mem.bdd_mb", "MiB"),
    ("mem.sat_mb", "MiB"),
    ("mem.chi_memo_mb", "MiB"),
    ("mem.stripes_mb", "MiB"),
    ("mem.cone_mb", "MiB"),
    ("mem.serve_cache_mb", "MiB"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.computations", "count"),
    ("serve.cone_hit_rate", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.sheds", "count"),
    ("serve.stats_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
];

/// Bytes per MiB, for the memory metrics.
pub const MIB: f64 = (1u64 << 20) as f64;

/// What one run reports: operation counts, the correctness verdict and
/// the metric values by name.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (analyses or requests).
    pub attempted: u64,
    /// Operations that errored, were refused or answered wrongly.
    pub failed: u64,
    /// Problems found by the reference checks, one line each.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed check; it counts as one failed operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// The result line: every metric of `catalogue`, in order. A metric
    /// the workload did not set is a bug in the benchmark, not a 0.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Median of `values` (the mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() as f64 * p).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
