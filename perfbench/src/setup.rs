//! Set-up work shared by the workloads, and the Davis length grid.
//!
//! Set-up is deterministic CPU work only: no sleeps and no load-generator
//! threads. Each workload repeats its set-up [`REPS`] times from a cold
//! state (fresh store, cleared characterization cache) and reports the
//! fastest (`stats::fastest`). On a shared host, contention only ever
//! slows a repetition down, and slowed stretches last seconds to tens of
//! seconds, so the repetitions are made in [`ROUNDS`] rounds spread over
//! the run — one before the timed work, the others between its passes,
//! jobs or phases — where a burst of repetitions at the start could fall
//! wholly inside one slowed stretch.

use std::sync::Arc;
use std::time::Instant;

use pi_serve::store::{NodeContext, NodeStore};
use pi_serve::traffic::{wire_length_cdf, PITCH_MM};
use pi_tech::units::Length;
use pi_tech::{Corner, TechNode};

use crate::stats::{fastest, secs};

/// Set-up repetitions per run.
pub const REPS: usize = 24;

/// Rounds the repetitions are made in ([`REPS`] / [`ROUNDS`] each).
pub const ROUNDS: usize = 4;

/// Per-repetition set-up times of a run, seconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Whole set-up.
    pub total: Vec<f64>,
    /// Slow-corner calibration (empty when the workload does not
    /// calibrate).
    pub calibrate: Vec<f64>,
    /// Plan search over the Davis lengths.
    pub plan_search: Vec<f64>,
}

impl SetupTimes {
    /// Reports `setup_s`, `spice.calibrate_s` and `core.plan_search_ms`.
    pub fn report(&self, outcome: &mut crate::metrics::Outcome) {
        outcome.end_to_end.insert("setup_s", fastest(&self.total));
        let l = &mut outcome.per_layer;
        l.insert("core.plan_search_ms", fastest(&self.plan_search) * 1e3);
        if !self.calibrate.is_empty() {
            l.insert("spice.calibrate_s", fastest(&self.calibrate));
        }
    }
}

/// Runs `n` units of timed work (`work(i)`), making the set-up rounds
/// after the first (`ROUNDS - 1` calls of `round`) evenly between them;
/// the last follows the last unit.
///
/// # Errors
///
/// The first error of `work` or `round`.
pub fn spread<T>(
    n: usize,
    mut work: impl FnMut(usize) -> Result<T, String>,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::with_capacity(n);
    let mut rounds = 1;
    for i in 0..n {
        out.push(work(i)?);
        while rounds < ROUNDS && (i + 1) * (ROUNDS - 1) >= rounds * n {
            round()?;
            rounds += 1;
        }
    }
    Ok(out)
}

/// Deadline margin of sizing traffic over the typical delay.
const SIZE_MARGIN: f64 = 1.25;

/// Sizing deadline for a wire of `length_mm`, picoseconds: [`SIZE_MARGIN`]
/// times the typical delay `45 + 130·L` ps. This is the deadline
/// `pi_serve::traffic::TrafficGen::request` gives its sizing queries; the
/// crate computes it inline and does not export it, so a change there
/// must be mirrored here.
pub fn size_deadline_ps(length_mm: f64) -> f64 {
    (45.0 + 130.0 * length_mm) * SIZE_MARGIN
}

/// The technology node every workload uses.
pub const NODE: TechNode = TechNode::N65;

/// The 127 lengths of the Davis wiring distribution (1..=127 pitches).
pub fn davis_lengths() -> Vec<Length> {
    (1..=wire_length_cdf().len())
        .map(|p| Length::mm(p as f64 * PITCH_MM))
        .collect()
}

/// One cold build of the warm store the sizing paths need: the slow
/// corner calibrated live (through pi-spice transient characterization,
/// the char cache cleared first so every repetition simulates), then the
/// delay-optimal plan searched for all 127 Davis lengths at both corners.
#[derive(Debug)]
pub struct WarmStore {
    /// Typical-corner context.
    pub tt: Arc<NodeContext>,
    /// Calibration time, seconds.
    pub calibrate_s: f64,
    /// Plan search time over both corners, seconds.
    pub plan_search_s: f64,
}

impl WarmStore {
    /// Builds the store in `store` from a cold characterization cache.
    ///
    /// # Errors
    ///
    /// Calibration failure or a length with no plan.
    pub fn build(store: &NodeStore) -> Result<WarmStore, String> {
        pi_core::char_cache::clear();
        let t = Instant::now();
        let ss = store.context_at(NODE, Corner::SlowSlow)?;
        let calibrate_s = secs(t);
        let tt = store.context(NODE);
        let t = Instant::now();
        for length in davis_lengths() {
            for ctx in [&tt, &ss] {
                ctx.plan_for(length)
                    .ok_or_else(|| format!("no plan at {} mm", length.as_mm()))?;
            }
        }
        let plan_search_s = secs(t);
        Ok(WarmStore {
            tt,
            calibrate_s,
            plan_search_s,
        })
    }

    /// Set-up seconds this build cost.
    pub fn total_s(&self) -> f64 {
        self.calibrate_s + self.plan_search_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_interleaves_every_round() {
        for n in [1, 2, 3, 5, 20] {
            let mut log = Vec::new();
            let log = std::cell::RefCell::new(&mut log);
            let out = spread(
                n,
                |i| {
                    log.borrow_mut().push(format!("w{i}"));
                    Ok(i)
                },
                || {
                    log.borrow_mut().push("r".to_owned());
                    Ok(())
                },
            )
            .unwrap();
            let log = log.into_inner();
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            assert_eq!(
                log.iter().filter(|e| *e == "r").count(),
                ROUNDS - 1,
                "n = {n}"
            );
            assert_eq!(log.last().map(String::as_str), Some("r"), "n = {n}");
        }
    }
}
