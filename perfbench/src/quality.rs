//! Quality of sized lines: repeater area, delay and power per millimetre
//! of wire, the same definition on every workload.

use std::time::Instant;

use pi_core::line::{BufferingPlan, LineEvaluator, LineSpec};
use pi_tech::units::Freq;

use crate::stats::{ratio, secs};

/// Switching activity the power figure is reported at (the `balanced`
/// buffering-objective convention).
pub const ACTIVITY: f64 = 0.25;

/// Running sums over sized lines.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    /// Σ wire length, mm.
    pub length_mm: f64,
    /// Σ repeater area, µm².
    pub area_um2: f64,
    /// Σ line delay, ps.
    pub delay_ps: f64,
    /// Σ line power (dynamic + leakage), µW.
    pub power_uw: f64,
    /// Lines timed through `timing_batch`.
    pub lines: usize,
    /// Seconds spent inside `timing_batch`.
    pub timing_batch_s: f64,
}

impl Quality {
    /// Adds `lines` (all under `ev`) at `clock`, timing them in one
    /// `LineEvaluator::timing_batch` call.
    pub fn add(
        &mut self,
        ev: &LineEvaluator<'_>,
        lines: &[(LineSpec, BufferingPlan)],
        clock: Freq,
    ) {
        if lines.is_empty() {
            return;
        }
        let t = Instant::now();
        let timings = ev.timing_batch(lines);
        self.timing_batch_s += secs(t);
        self.lines += lines.len();
        for ((spec, plan), timing) in lines.iter().zip(timings) {
            self.length_mm += spec.length.as_mm();
            self.area_um2 += ev.repeater_area(plan).as_um2();
            self.delay_ps += timing.delay.as_ps();
            self.power_uw += ev.power(spec, plan, ACTIVITY, clock).total().as_uw();
        }
    }

    /// Writes the three per-millimetre end-to-end metrics and the
    /// `timing_batch` per-line cost into `outcome`.
    pub fn report(&self, outcome: &mut crate::metrics::Outcome) {
        let e = &mut outcome.end_to_end;
        e.insert("area_um2_per_mm", ratio(self.area_um2, self.length_mm));
        e.insert("delay_ps_per_mm", ratio(self.delay_ps, self.length_mm));
        e.insert("power_uw_per_mm", ratio(self.power_uw, self.length_mm));
        outcome.per_layer.insert(
            "core.timing_batch_ns_per_line",
            ratio(self.timing_batch_s * 1e9, self.lines as f64),
        );
    }
}
