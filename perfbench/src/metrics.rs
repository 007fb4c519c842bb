//! The metric catalog and the result line.
//!
//! Every workload reports every metric below, so the names and units
//! here must match `BENCHMARK.json` exactly. End-to-end metrics are
//! measured with tracing off; per-layer metrics come from the traced run
//! and read `0` on a workload that does not exercise the layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("capacity_qps", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("certified_frac", "ratio"),
    ("area_um2_per_mm", "um2/mm"),
    ("delay_ps_per_mm", "ps/mm"),
    ("power_uw_per_mm", "uW/mm"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("serve.queue_us_p50", "us"),
    ("serve.compute_us_p50", "us"),
    ("serve.compute_us_p99", "us"),
    ("serve.io_us_p50", "us"),
    ("serve.batch_mean", "count"),
    ("serve.size_batch_mean", "count"),
    ("serve.plan_cache_hit_rate", "ratio"),
    ("serve.shed_frac", "ratio"),
    ("serve.eval_us_p50", "us"),
    ("serve.yield_us_p50", "us"),
    ("serve.size_us_p50", "us"),
    ("load.late_ms_p99", "ms"),
    ("load.p95_ms", "ms"),
    ("load.p99_ms", "ms"),
    ("core.timing_batch_ns_per_line", "ns"),
    ("core.plan_search_ms", "ms"),
    ("spice.calibrate_s", "s"),
    ("core.ladder_ms_per_link", "ms"),
    ("core.ladder_steps_per_link", "count"),
    ("gp.size_ms_per_link", "ms"),
    ("gp.solve_ms", "ms"),
    ("gp.fallback_frac", "ratio"),
    ("gp.delay_ratio", "ratio"),
    ("yield.estimates_per_link", "count"),
    ("yield.evals_per_estimate", "count"),
    ("yield.ns_per_eval", "ns"),
    ("rt.workers_per_link", "count"),
    ("rt.speedup_vs_serial", "ratio"),
    ("cosi.synth_ms", "ms"),
    ("cosi.filter_s", "s"),
    ("cosi.filter_rounds", "count"),
    ("cosi.net_yield_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name, for the summary.
    pub workload: &'static str,
    /// Operations attempted (requests, sizing answers, networks, checks).
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Descriptions of failed correctness checks (empty when correct).
    pub check_failures: Vec<String>,
    /// End-to-end values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (absent = layer not exercised = 0).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines for the summary.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed correctness check (counted against `ok_frac` by
    /// the workload).
    pub fn check_failed(&mut self, what: String) {
        if self.check_failures.len() < 20 {
            self.check_failures.push(what);
        }
    }

    /// The machine-readable result line.
    ///
    /// # Panics
    ///
    /// Panics if a workload forgot an end-to-end metric or produced a
    /// non-finite value — both are bugs in the benchmark.
    pub fn result_line(&self, trace: bool) -> String {
        let mut metrics = String::new();
        let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = if trace {
                self.per_layer.get(name).copied().unwrap_or(0.0)
            } else {
                *self
                    .end_to_end
                    .get(name)
                    .unwrap_or_else(|| panic!("workload did not report `{name}`"))
            };
            assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.check_failures.is_empty(),
            self.attempted,
            self.failed
        )
    }

    /// Human-readable summary for stderr.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "== {}: attempted {}, failed {}, checks {}\n",
            self.workload,
            self.attempted,
            self.failed,
            if self.check_failures.is_empty() {
                "passed"
            } else {
                "FAILED"
            }
        );
        for f in &self.check_failures {
            let _ = writeln!(out, "   check failed: {f}");
        }
        for (name, unit) in END_TO_END {
            if let Some(v) = self.end_to_end.get(name) {
                let _ = writeln!(out, "   {name:<32} {v:>14.6} {unit}");
            }
        }
        for (name, unit) in PER_LAYER {
            if let Some(v) = self.per_layer.get(name) {
                let _ = writeln!(out, "   {name:<32} {v:>14.6} {unit}");
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "   {n}");
        }
        out
    }
}

/// JSON number text: Rust's shortest round-trip form, which keeps every
/// significant digit; integral values print without a fraction.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}
