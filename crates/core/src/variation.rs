//! Process-variation analysis of buffered lines.
//!
//! The corner models of `pi-tech` capture die-to-die extremes; this module
//! covers the *statistical* picture: die-to-die (D2D) drive variation
//! shared by every repeater on a line, plus within-die (WID) random
//! variation independent per repeater. The result is a line-delay
//! distribution and a parametric-yield estimate against a clock deadline —
//! the quantity variation-aware sizing optimizes.
//!
//! Physically, drive-strength variation scales each repeater's drive
//! resistance by `1/g` (stronger device, lower resistance) and its intrinsic
//! delay similarly; wire parasitics are left nominal (interconnect
//! variation is tracked separately in practice).
//!
//! The statistics themselves live in the `pi-yield` engine: a calibrated
//! line is lowered to a plain-`f64` [`pi_yield::LineProblem`] (one
//! `(repeater, wire)` delay pair per stage) and every estimator of that
//! crate — naive Monte Carlo, Sobol quasi-Monte-Carlo, mean-shifted
//! importance sampling, and the analytic Gaussian closure — applies. The
//! sampling-based [`LineEvaluator::delay_distribution`] keeps the legacy
//! draw order bit-for-bit; [`LineEvaluator::timing_yield_estimate`]
//! exposes the variance-reduced estimators with confidence intervals.

use pi_rt::Rng;
use pi_tech::units::{Length, Time};
use pi_yield::{
    DriveVariation, EstimatorConfig, LineProblem, Method, SpatialCorrelation, StageDelays,
    YieldEstimate,
};

use crate::line::{BufferingPlan, LineEvaluator, LineSpec, StageTiming};

/// Gaussian variation magnitudes (fractions of nominal drive strength),
/// plus the spatial-correlation knobs of the within-die component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// σ of the die-to-die drive factor (shared by all repeaters).
    pub sigma_d2d: f64,
    /// σ of the within-die drive factor (independent per repeater).
    pub sigma_wid: f64,
    /// Correlation coefficient between the WID factors of repeaters that
    /// share a die region, in `[0, 1]`. `0` (the default) reproduces the
    /// historical fully-independent WID model bit-for-bit.
    pub rho_region: f64,
    /// Edge length of the square spatial-correlation region: repeaters
    /// whose placement falls in the same `region_cell × region_cell` grid
    /// cell (or the same `region_cell` interval along a line) share one
    /// region factor. Ignored when `rho_region == 0`.
    pub region_cell: Length,
}

impl VariationModel {
    /// A representative nanometer-era variation budget: 8 % D2D + 5 % WID.
    ///
    /// # Examples
    ///
    /// ```
    /// use pi_core::coefficients::builtin;
    /// use pi_core::line::{BufferingPlan, LineEvaluator, LineSpec};
    /// use pi_core::variation::VariationModel;
    /// use pi_tech::units::Length;
    /// use pi_tech::{DesignStyle, RepeaterKind, TechNode, Technology};
    ///
    /// let tech = Technology::new(TechNode::N65);
    /// let models = builtin(TechNode::N65);
    /// let evaluator = LineEvaluator::new(&models, &tech);
    /// let spec = LineSpec::global(Length::mm(5.0), DesignStyle::SingleSpacing);
    /// let plan = BufferingPlan {
    ///     kind: RepeaterKind::Inverter,
    ///     count: 8,
    ///     wn: Length::um(6.0),
    ///     staggered: false,
    /// };
    /// let dist = evaluator.delay_distribution(
    ///     &spec,
    ///     &plan,
    ///     &VariationModel::nominal(),
    ///     200,
    ///     42,
    /// );
    /// assert!(dist.std_dev().as_ps() > 0.0);
    /// ```
    #[must_use]
    pub fn nominal() -> Self {
        VariationModel {
            sigma_d2d: 0.08,
            sigma_wid: 0.05,
            rho_region: 0.0,
            region_cell: Length::mm(1.0),
        }
    }

    /// No variation (useful as a control in tests).
    #[must_use]
    pub fn none() -> Self {
        VariationModel {
            sigma_d2d: 0.0,
            sigma_wid: 0.0,
            rho_region: 0.0,
            region_cell: Length::mm(1.0),
        }
    }

    /// The same magnitudes with a regional WID correlation attached.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rho ≤ 1` and `cell` is positive.
    #[must_use]
    pub fn with_regional(self, rho: f64, cell: Length) -> Self {
        assert!(
            (0.0..=1.0).contains(&rho),
            "rho_region must be in [0, 1], got {rho}"
        );
        assert!(cell.si() > 0.0, "region_cell must be positive");
        VariationModel {
            rho_region: rho,
            region_cell: cell,
            ..self
        }
    }

    /// Lowers to the plain-`f64` variation type of the `pi-yield` engine.
    #[must_use]
    pub fn to_drive(&self) -> DriveVariation {
        DriveVariation {
            sigma_d2d: self.sigma_d2d,
            sigma_wid: self.sigma_wid,
        }
    }

    /// The spatial-correlation model for one straight line of `stages`
    /// repeaters spanning `length`: repeater `k` of `n` sits at fraction
    /// `(k + 0.5) / n` along the line, its region is the `region_cell`
    /// interval containing that position, and region ids are densified in
    /// first-occurrence order. Returns the inactive model when
    /// `rho_region == 0` (the lowered problem is then bit-identical to
    /// the historical uncorrelated one).
    ///
    /// # Panics
    ///
    /// Panics if `rho_region > 0` but `region_cell` is not positive.
    #[must_use]
    pub fn line_correlation(&self, stages: usize, length: Length) -> SpatialCorrelation {
        if self.rho_region <= 0.0 || stages == 0 {
            return SpatialCorrelation::none();
        }
        assert!(
            self.region_cell.si() > 0.0,
            "region_cell must be positive when rho_region > 0"
        );
        let cell = self.region_cell.si();
        let raw: Vec<usize> = (0..stages)
            .map(|k| {
                let pos = length.si() * (k as f64 + 0.5) / stages as f64;
                (pos / cell).floor().max(0.0) as usize
            })
            .collect();
        SpatialCorrelation::regional(self.rho_region, dense_regions(&raw))
    }
}

/// Remaps arbitrary region ids to dense `0..R` ids in first-occurrence
/// order (deterministic: independent of the id values themselves).
#[must_use]
pub fn dense_regions(raw: &[usize]) -> Vec<usize> {
    let mut seen: Vec<usize> = Vec::new();
    raw.iter()
        .map(|&id| {
            seen.iter().position(|&s| s == id).unwrap_or_else(|| {
                seen.push(id);
                seen.len() - 1
            })
        })
        .collect()
}

/// The repeater-count ceiling the sizing ladder (and the GP search box)
/// may grow a plan to: one past the starting count, or four repeaters
/// per millimetre of line, whichever is larger. The length-derived term
/// is guarded against NaN/negative lengths — a malformed spec must not
/// collapse the cap to zero through the float→usize cast.
pub(crate) fn ladder_count_cap(spec: &LineSpec, plan: &BufferingPlan) -> usize {
    let per_length = spec.length.as_mm() * 4.0;
    let per_length = if per_length.is_finite() && per_length > 0.0 {
        per_length.ceil() as usize
    } else {
        0
    };
    (plan.count + 1).max(per_length)
}

/// Lowers per-stage timings to the `pi-yield` stage-delay vector (seconds).
fn stage_delays(stages: &[StageTiming]) -> StageDelays {
    StageDelays::new(
        stages.iter().map(|s| s.repeater_delay.si()).collect(),
        stages.iter().map(|s| s.wire_delay.si()).collect(),
    )
}

/// A sampled line-delay distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayDistribution {
    samples: Vec<Time>,
}

impl DelayDistribution {
    /// The raw samples.
    #[must_use]
    pub fn samples(&self) -> &[Time] {
        &self.samples
    }

    /// Sample mean.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty.
    #[must_use]
    pub fn mean(&self) -> Time {
        assert!(!self.samples.is_empty(), "empty distribution");
        let sum: f64 = self.samples.iter().map(|t| t.si()).sum();
        Time::s(sum / self.samples.len() as f64)
    }

    /// Sample standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if the distribution has fewer than two samples.
    #[must_use]
    pub fn std_dev(&self) -> Time {
        assert!(self.samples.len() >= 2, "need ≥ 2 samples");
        let mean = self.mean().si();
        let var: f64 = self
            .samples
            .iter()
            .map(|t| (t.si() - mean).powi(2))
            .sum::<f64>()
            / (self.samples.len() - 1) as f64;
        Time::s(var.sqrt())
    }

    /// Parametric timing yield: the fraction of samples meeting `deadline`.
    #[must_use]
    pub fn yield_at(&self, deadline: Time) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let ok = self.samples.iter().filter(|t| **t <= deadline).count();
        ok as f64 / self.samples.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the distribution.
    ///
    /// # Panics
    ///
    /// Panics on an empty distribution or `q` outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Time {
        assert!(!self.samples.is_empty(), "empty distribution");
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.si().total_cmp(&b.si()));
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }
}

impl LineEvaluator<'_> {
    /// Lowers one buffered line to the plain-`f64` yield problem the
    /// `pi-yield` estimators consume: nominal per-stage delays, the drive
    /// variation budget, and the timing deadline.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no repeaters.
    #[must_use]
    pub fn line_problem(
        &self,
        spec: &LineSpec,
        plan: &BufferingPlan,
        variation: &VariationModel,
        deadline: Time,
    ) -> LineProblem {
        let nominal = self.timing(spec, plan);
        let stages = stage_delays(&nominal.stages);
        LineProblem {
            correlation: variation.line_correlation(stages.len(), spec.length),
            stages,
            variation: variation.to_drive(),
            deadline_s: deadline.si(),
        }
    }

    /// Samples the line-delay distribution under the variation model
    /// (naive Monte Carlo — the reference sampler).
    ///
    /// Deterministic for a given `seed`, and — because sample `i` draws
    /// from its own `Rng::stream(seed, i)` — **bit-identical for any
    /// thread count** (`PI_THREADS=1` included). Each sample draws one
    /// shared D2D drive factor and one WID factor per repeater through
    /// the shared floored draw [`pi_yield::drive_factor`]; a repeater's
    /// delay contribution is its nominal stage delay with the
    /// drive-dependent terms scaled by `1/g` (the wire term is unscaled).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero or the plan has no repeaters.
    #[must_use]
    pub fn delay_distribution(
        &self,
        spec: &LineSpec,
        plan: &BufferingPlan,
        variation: &VariationModel,
        samples: usize,
        seed: u64,
    ) -> DelayDistribution {
        assert!(samples > 0, "need at least one sample");
        let nominal = self.timing(spec, plan);
        let stages = stage_delays(&nominal.stages);
        let drive = variation.to_drive();
        let correlation = variation.line_correlation(stages.len(), spec.length);
        let out = if correlation.is_active() {
            // Correlated draw: route through the problem type (D2D, then
            // the region factors, then one normal per stage).
            let problem = LineProblem {
                stages,
                variation: drive,
                correlation,
                deadline_s: f64::INFINITY,
            };
            pi_rt::par_map_indexed(samples, |i| {
                let mut rng = Rng::stream(seed, i as u64);
                Time::s(problem.sample_delay(&mut rng))
            })
        } else {
            // Legacy draw order, pinned bit-for-bit by tests.
            pi_rt::par_map_indexed(samples, |i| {
                let mut rng = Rng::stream(seed, i as u64);
                Time::s(stages.sample_delay(&mut rng, &drive))
            })
        };
        DelayDistribution { samples: out }
    }

    /// Timing yield of the line against a clock deadline under variation
    /// (naive fixed-count Monte Carlo; the `pi-yield` reference path).
    #[must_use]
    pub fn timing_yield(
        &self,
        spec: &LineSpec,
        plan: &BufferingPlan,
        variation: &VariationModel,
        deadline: Time,
        samples: usize,
        seed: u64,
    ) -> f64 {
        self.delay_distribution(spec, plan, variation, samples, seed)
            .yield_at(deadline)
    }

    /// Timing yield through a configurable `pi-yield` estimator, with a
    /// confidence interval and adaptive early stopping.
    ///
    /// # Panics
    ///
    /// Panics on a nonsensical configuration (zero evaluation budget) or
    /// a plan with no repeaters.
    #[must_use]
    pub fn timing_yield_estimate(
        &self,
        spec: &LineSpec,
        plan: &BufferingPlan,
        variation: &VariationModel,
        deadline: Time,
        config: &EstimatorConfig,
    ) -> YieldEstimate {
        pi_yield::estimate_line_yield(&self.line_problem(spec, plan, variation, deadline), config)
    }

    /// Yield estimates for many queries in one sweep — the batch-friendly
    /// entry point the serve path coalesces concurrent yield requests
    /// into. The deterministic lowering (nominal timing of every query's
    /// line) is dispatched through `pi_rt::par_map` as one structure-of-
    /// arrays pass; the estimators then run per query **in input order**,
    /// so each query's RNG stream assignment — `Rng::stream(seed, die)`
    /// from that query's own seed — is untouched by batching, and every
    /// result is bit-identical to a standalone
    /// [`LineEvaluator::timing_yield_estimate`] call at any `PI_THREADS`.
    ///
    /// # Panics
    ///
    /// Panics on a query with no repeaters or a zero evaluation budget.
    #[must_use]
    pub fn timing_yield_estimate_batch(&self, queries: &[YieldQuery]) -> Vec<YieldEstimate> {
        let problems = pi_rt::par_map(queries, |q| {
            self.line_problem(&q.spec, &q.plan, &q.variation, q.deadline)
        });
        problems
            .iter()
            .zip(queries)
            .map(|(problem, q)| pi_yield::estimate_line_yield(problem, &q.config))
            .collect()
    }
}

/// One self-contained yield query for
/// [`LineEvaluator::timing_yield_estimate_batch`]: everything
/// [`LineEvaluator::timing_yield_estimate`] takes, as plain data so
/// queries can be queued, grouped and shipped between threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldQuery {
    /// The line to analyze.
    pub spec: LineSpec,
    /// Its buffering plan.
    pub plan: BufferingPlan,
    /// The variation budget.
    pub variation: VariationModel,
    /// The timing deadline.
    pub deadline: Time,
    /// Estimator configuration (method, seed, CI target, …).
    pub config: EstimatorConfig,
}

/// Outcome of the yield-driven sizing pass.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldSizing {
    /// The selected plan.
    pub plan: BufferingPlan,
    /// Its sampled timing yield at the deadline.
    pub achieved_yield: f64,
    /// Upsizing steps taken from the starting plan.
    pub steps: usize,
}

impl LineEvaluator<'_> {
    /// Yield-driven sizing of one line: a batch of one through
    /// [`LineEvaluator::size_for_yield_batch`], which documents the greedy
    /// upsizing ladder, the confidence-bound acceptance rule and the
    /// surrogate screen. The solo call keeps its own
    /// `core.size_for_yield` span around the batch span.
    ///
    /// Returns `None` if no plan in range reaches the target.
    ///
    /// # Panics
    ///
    /// Panics if `target_yield` is outside `(0, 1]` or the configuration
    /// has a zero evaluation budget.
    #[must_use]
    pub fn size_for_yield_with(
        &self,
        spec: &LineSpec,
        plan: &BufferingPlan,
        variation: &VariationModel,
        deadline: Time,
        target_yield: f64,
        config: &EstimatorConfig,
    ) -> Option<YieldSizing> {
        let _obs_span = pi_obs::span("core.size_for_yield");
        self.size_for_yield_batch(&[SizeQuery {
            spec: *spec,
            plan: *plan,
            variation: *variation,
            deadline,
            target_yield,
            config: *config,
        }])
        .pop()
        .flatten()
    }

    /// The exact candidate ladder the greedy search walks for `plan`, in
    /// evaluation order: the library drive strengths from the starting
    /// index (the smallest drive not below the plan's width), then added
    /// repeaters at the largest drive up to the length-derived count cap.
    /// Built once per job by [`LineEvaluator::size_for_yield_batch`].
    ///
    /// The ladder **never shrinks** the starting plan: every candidate's
    /// width is `max(plan.wn, drive width)`, so a plan already wider than
    /// the whole library keeps its width (and grows by repeater count
    /// only) instead of being silently downsized to the largest drive.
    fn size_candidates(&self, spec: &LineSpec, plan: &BufferingPlan) -> Vec<BufferingPlan> {
        let unit = self.tech().layout().unit_nmos_width;
        let drives = pi_tech::library::STANDARD_DRIVES;
        let mut current = *plan;
        let mut out = Vec::with_capacity(drives.len());
        // Phase 1: upsize through the library, starting at the smallest
        // drive not below the plan's width (0.1% tolerance for float
        // fuzz), clamped so no rung is narrower than the start.
        for &d in &drives {
            let w = unit * f64::from(d);
            if w >= plan.wn * 0.999 {
                current.wn = w.max(plan.wn);
                out.push(current);
            }
        }
        if out.is_empty() {
            // The plan out-drives the entire library: the ladder starts
            // (and stays) at the plan's own width.
            out.push(current);
        }
        // Phase 2: add repeaters at the maximum drive.
        let max_count = ladder_count_cap(spec, plan);
        for count in (current.count + 1)..=max_count {
            current.count = count;
            out.push(current);
        }
        out
    }

    /// Yield-driven sizing: starting from each query's plan, greedily
    /// upsizes the repeaters through the library drive strengths (and then
    /// adds repeaters) until the timing yield at the deadline reaches the
    /// target, or the search space is exhausted. This is the classic
    /// "sizing for yield improvement under process variation" loop:
    /// nominal-delay slack is bought exactly where the statistical
    /// distribution needs it, instead of blanket guard-banding.
    ///
    /// Each candidate's yield comes from the query's `pi-yield` estimator
    /// (adaptive early stopping included). A candidate is accepted only
    /// when the **lower end of its confidence interval**
    /// (`yield_fraction − half_width`) clears the target, not merely the
    /// point estimate — a plan whose estimate scrapes the target from
    /// below the interval's resolution forces one more upsizing step
    /// instead of shipping on statistical luck. `achieved_yield` still
    /// reports the point estimate.
    ///
    /// When a configuration opts into the control variate
    /// ([`EstimatorConfig::control_variate`]) the caller has declared the
    /// analytic surrogate trustworthy, so every candidate is first
    /// screened through the far cheaper surrogate-IS estimator: a
    /// candidate whose *screen* lower bound already clears the target is
    /// accepted without running the configured estimator at all. The
    /// screen only ever accepts — and only while the surrogate stayed
    /// trusted (no disagreement fallback) — so a candidate that fails the
    /// screen still gets the configured estimator's verdict and the
    /// search can never stop *later* than it would without screening.
    ///
    /// Queries advance in lock step — the batch shape the serve path
    /// coalesces concurrent `/v1/size` requests into, and that
    /// [`LineEvaluator::size_for_yield_with`] runs with one query. Every
    /// round runs **one** [`LineEvaluator::timing_yield_estimate_batch`]
    /// sweep carrying each unfinished job's next probe (its current ladder
    /// candidate, under its screen or main estimator configuration). Jobs
    /// keep independent RNG streams, candidate ladders and surrogate
    /// screens, so each job's answer — and every `sizing.*` counter total
    /// — is the same whichever batch it runs in; batching only changes
    /// how probes are grouped onto the workers.
    ///
    /// Results are in input order; `None` means that query's ladder was
    /// exhausted. The per-round fan-out is visible as the
    /// `core.size_sweep_jobs` histogram.
    ///
    /// # Panics
    ///
    /// Panics if any query's target yield is outside `(0, 1]`, any plan
    /// has no repeaters, or any configuration has a zero budget.
    #[must_use]
    pub fn size_for_yield_batch(&self, queries: &[SizeQuery]) -> Vec<Option<YieldSizing>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let _obs_span = pi_obs::span("core.size_for_yield_batch");
        for q in queries {
            assert!(
                q.target_yield > 0.0 && q.target_yield <= 1.0,
                "target yield must be in (0, 1]"
            );
        }
        struct JobState {
            candidates: Vec<BufferingPlan>,
            idx: usize,
            /// The next probe runs the screen configuration (true) or the
            /// configured estimator (false).
            screening: bool,
            steps: usize,
            result: Option<Option<YieldSizing>>,
        }
        let mut jobs: Vec<JobState> = queries
            .iter()
            .map(|q| JobState {
                candidates: self.size_candidates(&q.spec, &q.plan),
                idx: 0,
                screening: q.config.surrogate_screen().is_some(),
                steps: 0,
                result: None,
            })
            .collect();
        loop {
            // One probe per unfinished job, then one batched sweep.
            let mut round: Vec<(usize, YieldQuery)> = Vec::new();
            for (j, (job, q)) in jobs.iter().zip(queries).enumerate() {
                if job.result.is_some() {
                    continue;
                }
                let config = if job.screening {
                    q.config
                        .surrogate_screen()
                        .expect("screening jobs have a screen config")
                } else {
                    q.config
                };
                round.push((
                    j,
                    YieldQuery {
                        spec: q.spec,
                        plan: job.candidates[job.idx],
                        variation: q.variation,
                        deadline: q.deadline,
                        config,
                    },
                ));
            }
            if round.is_empty() {
                break;
            }
            pi_obs::hist_record("core.size_sweep_jobs", round.len() as f64);
            let probes: Vec<YieldQuery> = round.iter().map(|(_, p)| *p).collect();
            let estimates = self.timing_yield_estimate_batch(&probes);
            for ((j, probe), est) in round.iter().zip(&estimates) {
                let j = *j;
                let target = queries[j].target_yield;
                let job = &mut jobs[j];
                let lower = est.yield_fraction - est.half_width;
                if job.screening {
                    // A fallback run reports `method` as the plain
                    // importance sampler — not trusted to accept.
                    if est.method == Method::SurrogateIs && lower >= target {
                        pi_obs::counter_add("sizing.surrogate_accept", 1);
                        pi_obs::counter_add("sizing.steps", 1);
                        pi_obs::counter_add("sizing.candidate_pass", 1);
                        pi_obs::counter_add("sizing.accepted", 1);
                        job.result = Some(Some(YieldSizing {
                            plan: probe.plan,
                            achieved_yield: est.yield_fraction,
                            steps: job.steps,
                        }));
                    } else {
                        pi_obs::counter_add("sizing.surrogate_screen_miss", 1);
                        // Same candidate, configured estimator next round.
                        job.screening = false;
                    }
                    continue;
                }
                pi_obs::counter_add("sizing.steps", 1);
                if lower >= target {
                    pi_obs::counter_add("sizing.candidate_pass", 1);
                    pi_obs::counter_add("sizing.accepted", 1);
                    job.result = Some(Some(YieldSizing {
                        plan: probe.plan,
                        achieved_yield: est.yield_fraction,
                        steps: job.steps,
                    }));
                } else {
                    pi_obs::counter_add("sizing.candidate_fail", 1);
                    job.steps += 1;
                    job.idx += 1;
                    if job.idx == job.candidates.len() {
                        pi_obs::counter_add("sizing.exhausted", 1);
                        job.result = Some(None);
                    } else {
                        job.screening = queries[j].config.surrogate_screen().is_some();
                    }
                }
            }
        }
        jobs.into_iter()
            .map(|j| j.result.expect("every job resolved"))
            .collect()
    }
}

/// One self-contained sizing query for
/// [`LineEvaluator::size_for_yield_batch`]: everything
/// [`LineEvaluator::size_for_yield_with`] takes, as plain data so queries
/// can be queued, grouped and shipped between threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeQuery {
    /// The line to size.
    pub spec: LineSpec,
    /// The starting buffering plan.
    pub plan: BufferingPlan,
    /// The variation budget.
    pub variation: VariationModel,
    /// The timing deadline.
    pub deadline: Time,
    /// Yield target in `(0, 1]`.
    pub target_yield: f64,
    /// Estimator configuration (method, seed, CI target, …).
    pub config: EstimatorConfig,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coefficients::builtin;
    use pi_tech::units::Length;
    use pi_tech::{DesignStyle, RepeaterKind, TechNode, Technology};

    fn setup() -> (Technology, crate::CalibratedModels) {
        (Technology::new(TechNode::N65), builtin(TechNode::N65))
    }

    /// Fixed-count naive Monte Carlo: exactly `samples` dies, no early
    /// stopping — the draw the pre-estimator sizing loop used.
    fn fixed_naive(samples: usize, seed: u64) -> EstimatorConfig {
        EstimatorConfig::new(Method::Naive)
            .with_seed(seed)
            .with_max_evals(samples)
            .with_target_half_width(0.0)
    }

    fn spec_plan() -> (LineSpec, BufferingPlan) {
        (
            LineSpec::global(Length::mm(8.0), DesignStyle::SingleSpacing),
            BufferingPlan {
                kind: RepeaterKind::Inverter,
                count: 12,
                wn: Length::um(6.0),
                staggered: false,
            },
        )
    }

    #[test]
    fn zero_variation_reproduces_nominal() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = spec_plan();
        let dist = ev.delay_distribution(&spec, &plan, &VariationModel::none(), 16, 1);
        let nominal = ev.timing(&spec, &plan).delay;
        for s in dist.samples() {
            assert!((*s - nominal).abs() < Time::fs(1.0));
        }
        assert_eq!(dist.yield_at(nominal + Time::ps(1.0)), 1.0);
    }

    #[test]
    fn distribution_is_deterministic_by_seed() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = spec_plan();
        let v = VariationModel::nominal();
        let a = ev.delay_distribution(&spec, &plan, &v, 64, 42);
        let b = ev.delay_distribution(&spec, &plan, &v, 64, 42);
        assert_eq!(a, b);
        let c = ev.delay_distribution(&spec, &plan, &v, 64, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_close_to_nominal_and_spread_positive() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = spec_plan();
        let dist = ev.delay_distribution(&spec, &plan, &VariationModel::nominal(), 600, 7);
        let nominal = ev.timing(&spec, &plan).delay;
        let mean = dist.mean();
        assert!(
            ((mean - nominal) / nominal).abs() < 0.05,
            "mean {} vs nominal {}",
            mean.as_ps(),
            nominal.as_ps()
        );
        assert!(dist.std_dev().as_ps() > 1.0);
    }

    #[test]
    fn d2d_variation_spreads_more_than_wid() {
        // Within-die randomness averages out over the stages of a line;
        // die-to-die shifts every stage together. Same σ ⇒ larger total
        // spread for D2D.
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = spec_plan();
        let d2d_only = VariationModel {
            sigma_wid: 0.0,
            ..VariationModel::nominal()
        };
        let wid_only = VariationModel {
            sigma_d2d: 0.0,
            sigma_wid: 0.08,
            ..VariationModel::nominal()
        };
        let s_d2d = ev
            .delay_distribution(&spec, &plan, &d2d_only, 500, 11)
            .std_dev();
        let s_wid = ev
            .delay_distribution(&spec, &plan, &wid_only, 500, 11)
            .std_dev();
        assert!(
            s_d2d.si() > s_wid.si() * 2.0,
            "d2d σ {} ps vs wid σ {} ps",
            s_d2d.as_ps(),
            s_wid.as_ps()
        );
    }

    #[test]
    fn yield_monotone_in_deadline() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = spec_plan();
        let dist = ev.delay_distribution(&spec, &plan, &VariationModel::nominal(), 400, 3);
        let median = dist.quantile(0.5);
        let y_tight = dist.yield_at(median * 0.9);
        let y_median = dist.yield_at(median);
        let y_loose = dist.yield_at(median * 1.2);
        assert!(y_tight < y_median);
        assert!(y_median <= y_loose);
        assert!((0.4..0.6).contains(&y_median), "median yield {y_median}");
        assert!(y_loose > 0.95);
    }

    #[test]
    fn bigger_repeaters_improve_yield_at_tight_deadline() {
        // The yield-aware upsizing intuition: at a deadline near the
        // nominal delay, stronger repeaters buy timing slack that absorbs
        // variation.
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let spec = LineSpec::global(Length::mm(8.0), DesignStyle::SingleSpacing);
        let small = BufferingPlan {
            kind: RepeaterKind::Inverter,
            count: 12,
            wn: Length::um(4.8),
            staggered: false,
        };
        let big = BufferingPlan {
            wn: Length::um(9.6),
            ..small
        };
        let v = VariationModel::nominal();
        // Deadline set at the small plan's nominal delay.
        let deadline = ev.timing(&spec, &small).delay;
        let y_small = ev.timing_yield(&spec, &small, &v, deadline, 500, 5);
        let y_big = ev.timing_yield(&spec, &big, &v, deadline, 500, 5);
        assert!(
            y_big > y_small + 0.2,
            "yield small {y_small} vs big {y_big}"
        );
    }

    #[test]
    fn quantiles_are_ordered() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = spec_plan();
        let dist = ev.delay_distribution(&spec, &plan, &VariationModel::nominal(), 300, 9);
        assert!(dist.quantile(0.1) <= dist.quantile(0.5));
        assert!(dist.quantile(0.5) <= dist.quantile(0.99));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = spec_plan();
        let _ = ev.delay_distribution(&spec, &plan, &VariationModel::nominal(), 0, 1);
    }

    #[test]
    fn yield_sizing_reaches_the_target() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let spec = LineSpec::global(Length::mm(8.0), DesignStyle::SingleSpacing);
        // Start from a small plan whose yield at the deadline is poor.
        let start = BufferingPlan {
            kind: RepeaterKind::Inverter,
            count: 12,
            wn: t.layout().unit_nmos_width * 8.0,
            staggered: false,
        };
        let v = VariationModel::nominal();
        let deadline = Time::ps(560.0);
        let y0 = ev.timing_yield(&spec, &start, &v, deadline, 400, 7);
        assert!(y0 < 0.5, "starting yield {y0} should be poor");
        let sized = ev
            .size_for_yield_with(&spec, &start, &v, deadline, 0.95, &fixed_naive(400, 7))
            .expect("target reachable");
        assert!(sized.achieved_yield >= 0.95);
        assert!(sized.plan.wn > start.wn || sized.plan.count > start.count);
        assert!(sized.steps > 0);
    }

    #[test]
    fn yield_sizing_is_a_noop_when_already_passing() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let spec = LineSpec::global(Length::mm(4.0), DesignStyle::SingleSpacing);
        let start = BufferingPlan {
            kind: RepeaterKind::Inverter,
            count: 8,
            wn: t.layout().unit_nmos_width * 24.0,
            staggered: false,
        };
        let v = VariationModel::nominal();
        // A very loose deadline: already yielding.
        let deadline = Time::ps(1200.0);
        let sized = ev
            .size_for_yield_with(&spec, &start, &v, deadline, 0.95, &fixed_naive(300, 7))
            .expect("already passing");
        assert_eq!(sized.steps, 0);
        assert_eq!(sized.plan.count, start.count);
    }

    #[test]
    fn naive_estimator_reproduces_legacy_yield_bit_for_bit() {
        // The pi-yield naive path must be the *same* estimator as the
        // legacy fixed-count loop: same per-die RNG streams, same draw
        // order, same floored drive factor — so at an identical seed and
        // die count the two yields agree exactly, not just statistically.
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = spec_plan();
        let v = VariationModel::nominal();
        let deadline = Time::ps(600.0);
        let legacy = ev.timing_yield(&spec, &plan, &v, deadline, 1024, 9);
        let cfg = pi_yield::EstimatorConfig::new(pi_yield::Method::Naive)
            .with_seed(9)
            .with_max_evals(1024)
            .with_target_half_width(0.0);
        let est = ev.timing_yield_estimate(&spec, &plan, &v, deadline, &cfg);
        assert_eq!(est.evals, 1024);
        assert_eq!(legacy.to_bits(), est.yield_fraction.to_bits());
    }

    #[test]
    fn estimators_agree_within_their_intervals() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = spec_plan();
        let v = VariationModel::nominal();
        let deadline = Time::ps(600.0);
        let reference = ev.timing_yield(&spec, &plan, &v, deadline, 4000, 17);
        for method in pi_yield::Method::ALL {
            let est = ev.timing_yield_estimate(
                &spec,
                &plan,
                &v,
                deadline,
                &pi_yield::EstimatorConfig::new(method),
            );
            let slack = est.half_width.max(0.02);
            assert!(
                (est.yield_fraction - reference).abs() <= 3.0 * slack,
                "{method}: {} vs reference {reference}",
                est.yield_fraction
            );
        }
    }

    #[test]
    fn estimator_driven_sizing_matches_monte_carlo_sizing() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let spec = LineSpec::global(Length::mm(8.0), DesignStyle::SingleSpacing);
        let start = BufferingPlan {
            kind: RepeaterKind::Inverter,
            count: 12,
            wn: t.layout().unit_nmos_width * 8.0,
            staggered: false,
        };
        let v = VariationModel::nominal();
        let deadline = Time::ps(560.0);
        let mc = ev
            .size_for_yield_with(&spec, &start, &v, deadline, 0.95, &fixed_naive(800, 7))
            .expect("target reachable");
        let cfg = pi_yield::EstimatorConfig::new(pi_yield::Method::SobolScrambled);
        let fast = ev
            .size_for_yield_with(&spec, &start, &v, deadline, 0.95, &cfg)
            .expect("target reachable");
        assert!(fast.achieved_yield >= 0.95);
        // Both searches walk the same discrete ladder; the variance-reduced
        // estimator must land on the same (or an adjacent) rung.
        assert!(
            (fast.steps as i64 - mc.steps as i64).abs() <= 1,
            "MC stopped at step {}, estimator at {}",
            mc.steps,
            fast.steps
        );
    }

    #[test]
    fn batched_sizing_is_bit_identical_to_solo_runs() {
        // Mixed jobs: different methods, seeds, lengths, screens on and
        // off, one already-passing job and one exhausted ladder — so jobs
        // retire in different rounds and the lock-step batching is
        // genuinely exercised, not just a single shared sweep.
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let v = VariationModel::nominal();
        let unit = t.layout().unit_nmos_width;
        let plan = |count: usize, mult: f64| BufferingPlan {
            kind: RepeaterKind::Inverter,
            count,
            wn: unit * mult,
            staggered: false,
        };
        let cfg = |method, seed: u64| {
            EstimatorConfig::new(method)
                .with_seed(seed)
                .with_max_evals(256)
                .with_target_half_width(0.01)
        };
        let spec8 = LineSpec::global(Length::mm(8.0), DesignStyle::SingleSpacing);
        let spec5 = LineSpec::global(Length::mm(5.0), DesignStyle::SingleSpacing);
        let nominal5 = ev.timing(&spec5, &plan(8, 8.0)).delay;
        let queries = vec![
            SizeQuery {
                spec: spec8,
                plan: plan(12, 8.0),
                variation: v,
                deadline: Time::ps(560.0),
                target_yield: 0.95,
                config: cfg(Method::SobolScrambled, 3),
            },
            // Surrogate screen active (control variate opted in).
            SizeQuery {
                spec: spec8,
                plan: plan(12, 8.0),
                variation: v,
                deadline: Time::ps(560.0),
                target_yield: 0.9,
                config: cfg(Method::SobolScrambled, 4).with_control_variate(true),
            },
            SizeQuery {
                spec: spec5,
                plan: plan(8, 8.0),
                variation: v,
                deadline: nominal5 * 1.02,
                target_yield: 0.85,
                config: cfg(Method::Naive, 5),
            },
            // Already passing: accepted on the first rung with zero steps.
            SizeQuery {
                spec: spec5,
                plan: plan(8, 24.0),
                variation: v,
                deadline: nominal5 * 1.5,
                target_yield: 0.9,
                config: cfg(Method::Naive, 6),
            },
            // Hopeless deadline (well under the wire RC alone): the whole
            // ladder is walked and exhausted.
            SizeQuery {
                spec: spec5,
                plan: plan(8, 8.0),
                variation: v,
                deadline: Time::ps(10.0),
                target_yield: 0.9,
                config: cfg(Method::Naive, 7),
            },
        ];
        let batched = ev.size_for_yield_batch(&queries);
        assert_eq!(batched.len(), queries.len());
        assert_eq!(batched[3].as_ref().map(|s| s.steps), Some(0));
        assert!(batched[4].is_none(), "hopeless ladder exhausts");
        for (i, (q, b)) in queries.iter().zip(&batched).enumerate() {
            let solo = ev.size_for_yield_with(
                &q.spec,
                &q.plan,
                &q.variation,
                q.deadline,
                q.target_yield,
                &q.config,
            );
            match (&solo, b) {
                (None, None) => {}
                (Some(s), Some(b)) => {
                    assert_eq!(s.plan, b.plan, "job {i} plan");
                    assert_eq!(s.steps, b.steps, "job {i} steps");
                    assert_eq!(
                        s.achieved_yield.to_bits(),
                        b.achieved_yield.to_bits(),
                        "job {i} yield bits"
                    );
                }
                _ => panic!("job {i}: solo {solo:?} vs batched {b:?}"),
            }
        }
        assert!(ev.size_for_yield_batch(&[]).is_empty());
    }

    #[test]
    fn oversized_starting_plan_is_never_downsized() {
        // Regression: a plan already wider than every library drive used
        // to be silently *downsized* to the largest drive before the
        // search began, so "greedy upsizing" could return a narrower
        // plan. The ladder must keep the start width and grow by count.
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let spec = LineSpec::global(Length::mm(8.0), DesignStyle::SingleSpacing);
        let unit = t.layout().unit_nmos_width;
        let largest = unit * f64::from(*pi_tech::library::STANDARD_DRIVES.last().unwrap());
        let start = BufferingPlan {
            kind: RepeaterKind::Inverter,
            count: 12,
            // Wider than every library drive.
            wn: largest * 2.0,
            staggered: false,
        };
        assert!(start.wn > largest);
        for candidate in ev.size_candidates(&spec, &start) {
            assert!(
                candidate.wn >= start.wn,
                "candidate {candidate:?} narrower than the start {start:?}"
            );
        }
        // An in-range start still walks the classic drive ladder with no
        // rung below the starting width.
        let in_range = BufferingPlan {
            wn: unit * 8.0,
            ..start
        };
        let rungs = ev.size_candidates(&spec, &in_range);
        assert!(rungs.iter().all(|c| c.wn >= in_range.wn));
        assert!(
            rungs.iter().any(|c| c.wn > in_range.wn),
            "ladder still climbs"
        );
        // And the fix holds end to end: sizing from the oversized start
        // returns a plan at least as wide, solo and batched bit-identically.
        let v = VariationModel::nominal();
        let deadline = ev.timing(&spec, &start).delay * 1.02;
        let cfg = EstimatorConfig::new(Method::SobolScrambled)
            .with_seed(21)
            .with_max_evals(512);
        let query = SizeQuery {
            spec,
            plan: start,
            variation: v,
            deadline,
            target_yield: 0.9,
            config: cfg,
        };
        let solo = ev.size_for_yield_with(&spec, &start, &v, deadline, 0.9, &cfg);
        if let Some(sized) = &solo {
            assert!(
                sized.plan.wn >= start.wn,
                "sizing shrank the plan: {:?}",
                sized.plan
            );
        }
        let batched = ev.size_for_yield_batch(&[query]);
        match (&solo, &batched[0]) {
            (None, None) => {}
            (Some(s), Some(b)) => {
                assert_eq!(s.plan, b.plan);
                assert_eq!(s.steps, b.steps);
                assert_eq!(s.achieved_yield.to_bits(), b.achieved_yield.to_bits());
            }
            _ => panic!("solo {solo:?} vs batched {:?}", batched[0]),
        }
    }

    #[test]
    fn malformed_lengths_do_not_zero_the_ladder_cap() {
        // NaN or negative lengths must not collapse the count cap to
        // zero through the float→usize cast; the ladder still offers the
        // plan.count + 1 growth rung.
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (_, plan) = spec_plan();
        for bad in [f64::NAN, -3.0, f64::NEG_INFINITY] {
            let spec = LineSpec {
                length: Length::from_si(bad),
                ..LineSpec::global(Length::mm(1.0), DesignStyle::SingleSpacing)
            };
            assert_eq!(ladder_count_cap(&spec, &plan), plan.count + 1);
            let candidates = ev.size_candidates(&spec, &plan);
            assert!(candidates.iter().any(|c| c.count == plan.count + 1));
        }
    }

    #[test]
    fn sizing_requires_the_lower_confidence_bound_to_clear_the_target() {
        // Walk the same drive ladder the sizing loop uses, find a rung
        // whose estimate has `lower < point`, and place the target inside
        // that gap: the point estimate passes but the lower bound fails,
        // so `size_for_yield_with` must upsize at least one step further
        // than point-estimate stopping would.
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let spec = LineSpec::global(Length::mm(8.0), DesignStyle::SingleSpacing);
        let start = BufferingPlan {
            kind: RepeaterKind::Inverter,
            count: 12,
            wn: t.layout().unit_nmos_width * 8.0,
            staggered: false,
        };
        let v = VariationModel::nominal();
        let deadline = Time::ps(560.0);
        // A deliberately loose interval (few evals, no early-stop target)
        // so the point/lower gap is wide enough to aim a target into.
        let cfg = pi_yield::EstimatorConfig::new(pi_yield::Method::Naive)
            .with_seed(11)
            .with_max_evals(256)
            .with_target_half_width(0.0);
        let unit = t.layout().unit_nmos_width;
        let drives = pi_tech::library::STANDARD_DRIVES;
        let start_idx = drives
            .iter()
            .position(|&d| unit * f64::from(d) >= start.wn * 0.999)
            .expect("start drive in library");
        // First rung where the yield is well inside (0, 1): its interval
        // is the widest, so the midpoint target splits point from lower.
        let (point_steps, target) = drives[start_idx..]
            .iter()
            .enumerate()
            .find_map(|(i, &d)| {
                let candidate = BufferingPlan {
                    wn: unit * f64::from(d),
                    ..start
                };
                let est = ev.timing_yield_estimate(&spec, &candidate, &v, deadline, &cfg);
                let lower = est.yield_fraction - est.half_width;
                (est.yield_fraction > 0.5 && lower > 0.0 && est.half_width > 1e-3)
                    .then(|| (i, (est.yield_fraction + lower) / 2.0))
            })
            .expect("a rung with a usable confidence gap");
        let sized = ev
            .size_for_yield_with(&spec, &start, &v, deadline, target, &cfg)
            .expect("target reachable");
        assert!(
            sized.steps > point_steps,
            "stopped at step {} although the lower bound failed at step {point_steps}",
            sized.steps
        );
        // And the accepted rung really does clear the target by its lower
        // bound, not just its point estimate.
        let est = ev.timing_yield_estimate(&spec, &sized.plan, &v, deadline, &cfg);
        assert!(est.yield_fraction - est.half_width >= target);
    }

    #[test]
    fn surrogate_screened_sizing_matches_the_plain_search() {
        // Opting into the control variate turns on the surrogate-IS
        // acceptance screen: the search must land on the same (or an
        // earlier, still target-clearing) rung as the unscreened search,
        // and the accepted plan must clear the target under an
        // independent reference estimate.
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let spec = LineSpec::global(Length::mm(8.0), DesignStyle::SingleSpacing);
        let start = BufferingPlan {
            kind: RepeaterKind::Inverter,
            count: 12,
            wn: t.layout().unit_nmos_width * 8.0,
            staggered: false,
        };
        let v = VariationModel::nominal();
        let deadline = Time::ps(560.0);
        let cfg = pi_yield::EstimatorConfig::new(pi_yield::Method::SobolScrambled);
        let plain = ev
            .size_for_yield_with(&spec, &start, &v, deadline, 0.95, &cfg)
            .expect("target reachable");
        let screened = ev
            .size_for_yield_with(
                &spec,
                &start,
                &v,
                deadline,
                0.95,
                &cfg.with_control_variate(true),
            )
            .expect("target reachable");
        // The screen only accepts, never rejects, so it cannot stop later.
        assert!(
            screened.steps <= plain.steps,
            "screen stopped at step {} after plain stopped at {}",
            screened.steps,
            plain.steps
        );
        let reference = ev.timing_yield(&spec, &screened.plan, &v, deadline, 4000, 17);
        assert!(
            reference >= 0.95 - 0.02,
            "screened plan only reaches {reference}"
        );
    }

    #[test]
    fn batched_yield_estimates_match_standalone_calls_bit_for_bit() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let v = VariationModel::nominal();
        let queries: Vec<YieldQuery> = [
            (5.0, 600.0, pi_yield::Method::Naive, 11u64),
            (8.0, 620.0, pi_yield::Method::SobolScrambled, 12),
            (3.0, 400.0, pi_yield::Method::ImportanceSampling, 13),
            (5.0, 560.0, pi_yield::Method::Analytic, 14),
        ]
        .iter()
        .map(|&(mm, ps, method, seed)| {
            let spec = LineSpec::global(Length::mm(mm), DesignStyle::SingleSpacing);
            YieldQuery {
                spec,
                plan: BufferingPlan {
                    kind: RepeaterKind::Inverter,
                    count: (mm * 1.5).ceil() as usize,
                    wn: Length::um(6.0),
                    staggered: false,
                },
                variation: v,
                deadline: Time::ps(ps),
                config: pi_yield::EstimatorConfig::new(method)
                    .with_seed(seed)
                    .with_max_evals(2048),
            }
        })
        .collect();
        let batch = ev.timing_yield_estimate_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, got) in queries.iter().zip(&batch) {
            let one =
                ev.timing_yield_estimate(&q.spec, &q.plan, &q.variation, q.deadline, &q.config);
            assert_eq!(one.yield_fraction.to_bits(), got.yield_fraction.to_bits());
            assert_eq!(one.half_width.to_bits(), got.half_width.to_bits());
            assert_eq!(one.evals, got.evals);
            assert_eq!(one.method, got.method);
        }
        assert!(ev.timing_yield_estimate_batch(&[]).is_empty());
    }

    #[test]
    fn line_correlation_buckets_stages_by_position() {
        // 8 stages over 8 mm with a 2 mm cell: stage centers at 0.5, 1.5,
        // … 7.5 mm land two per cell, four cells, densely numbered.
        let v = VariationModel::nominal().with_regional(0.5, Length::mm(2.0));
        let corr = v.line_correlation(8, Length::mm(8.0));
        assert!(corr.is_active());
        assert_eq!(corr.stage_region, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(corr.region_count(), 4);
        // rho = 0 lowers to the inactive (legacy, bit-identical) model.
        let flat = VariationModel::nominal().line_correlation(8, Length::mm(8.0));
        assert!(!flat.is_active());
    }

    #[test]
    fn dense_regions_remaps_in_first_occurrence_order() {
        assert_eq!(dense_regions(&[7, 2, 7, 9, 2]), vec![0, 1, 0, 2, 1]);
        assert_eq!(dense_regions(&[]), Vec::<usize>::new());
    }

    #[test]
    fn correlated_line_problem_round_trips_through_the_evaluator() {
        // rho > 0 must thread through line_problem into the estimators
        // and lower the yield relative to the independent model at a
        // tight deadline (coherent same-region variance stacks up).
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let (spec, plan) = spec_plan();
        let independent = VariationModel::nominal();
        let correlated = independent.with_regional(0.8, Length::mm(2.0));
        let deadline = Time::ps(600.0);
        let p = ev.line_problem(&spec, &plan, &correlated, deadline);
        assert!(p.correlation.is_active());
        let y_ind = pi_yield::line_yield(&ev.line_problem(&spec, &plan, &independent, deadline));
        let y_corr = pi_yield::line_yield(&p);
        assert!(
            y_corr < y_ind,
            "correlated yield {y_corr} should undercut independent {y_ind}"
        );
        // The sampled distribution honours the correlation too: larger
        // spread than the independent model (same marginals, positive
        // covariance between same-region stages).
        let s_ind = ev
            .delay_distribution(&spec, &plan, &independent, 600, 21)
            .std_dev();
        let s_corr = ev
            .delay_distribution(&spec, &plan, &correlated, 600, 21)
            .std_dev();
        assert!(
            s_corr.si() > s_ind.si(),
            "correlated σ {} ps vs independent σ {} ps",
            s_corr.as_ps(),
            s_ind.as_ps()
        );
    }

    #[test]
    fn impossible_yield_target_returns_none() {
        let (t, m) = setup();
        let ev = LineEvaluator::new(&m, &t);
        let spec = LineSpec::global(Length::mm(10.0), DesignStyle::SingleSpacing);
        let start = BufferingPlan {
            kind: RepeaterKind::Inverter,
            count: 4,
            wn: t.layout().unit_nmos_width * 8.0,
            staggered: false,
        };
        // 50 ps for 10 mm is physically unreachable.
        let sized = ev.size_for_yield_with(
            &spec,
            &start,
            &VariationModel::nominal(),
            Time::ps(50.0),
            0.9,
            &fixed_naive(100, 7),
        );
        assert!(sized.is_none());
    }
}
