//! `offline_size`: a fixed set of sizing queries per seed, run in-process
//! through both batch sizing engines — the greedy ladder
//! (`size_for_yield_batch`) and GP (`size_for_yield_gp_batch`).
//!
//! Inputs: [`QUERIES`] Davis lengths drawn by stratified inverse-CDF
//! sampling (query `i` takes a seeded quantile inside the `i`-th of
//! `QUERIES` equal strata, so every seed sees the same length mix),
//! target yield 0.9 and `sobol-scrambled` at a ±2 % CI target. Three
//! queries in four get the serving deadline, 1.25× the typical delay
//! formula of `pi_serve::traffic` (`setup::size_deadline_ps`); every
//! starting plan already meets it, so the ladder accepts its first rung.
//! One query in [`TIGHT_EVERY`], in every batch, instead gets a deadline
//! just above its starting plan's own nominal delay (a margin stratified
//! over [`TIGHT`]): there the starting plan misses at most lengths, the
//! ladder climbs, and at some lengths no plan reaches the target, so the
//! ladder walks to its end and GP falls back to it. Queries go in batches of
//! [`BATCH`]; batch `b` takes every `QUERIES/BATCH`-th query from `b`, so
//! each batch spans the whole length range.
//!
//! Work per run is fixed: `passes(seconds)` identical passes over the
//! set. Every answer of the first pass is re-estimated and must clear the
//! target at its CI lower bound; every later pass must reproduce the
//! first bit for bit.

use std::time::Instant;

use pi_core::line::{BufferingPlan, LineSpec};
use pi_core::variation::{SizeQuery, VariationModel, YieldQuery, YieldSizing};
use pi_core::LineEvaluator;
use pi_rt::Rng;
use pi_serve::store::NodeStore;
use pi_serve::traffic::{TrafficGen, PITCH_MM};
use pi_tech::units::{Freq, Length, Time};
use pi_tech::DesignStyle;
use pi_yield::{EstimatorConfig, Method};

use crate::metrics::Outcome;
use crate::quality::Quality;
use crate::setup::{size_deadline_ps, spread, SetupTimes, WarmStore, REPS, ROUNDS};
use crate::stats::{fastest, median, quantile, ratio, secs};
use crate::Args;

/// Sizing queries per seed.
pub const QUERIES: usize = 1024;

/// Queries per batch call.
pub const BATCH: usize = 16;

/// Yield target of every query.
pub const TARGET: f64 = 0.9;

/// One query in this many gets a tight deadline.
const TIGHT_EVERY: usize = 4;

/// Range of the tight deadlines' margin over the starting plan's nominal
/// delay. Below about 1.1 the starting plan misses the target at most
/// lengths; below about 1.05 no plan in the ladder reaches it at some.
const TIGHT: (f64, f64) = (1.02, 1.12);

/// Timings of each batch behind `gp.solve_ms`.
const SOLVE_REPS: usize = 3;

/// Clock the power metric is reported at (the plan-search objective's).
const CLOCK_GHZ: f64 = 1.0;

/// Passes over the query set for a nominal measuring time (a serial pass
/// takes about a second on a small host).
fn passes(seconds: u64) -> usize {
    (seconds as usize).max(1)
}

/// The seeded query set.
fn queries(seed: u64, warm: &WarmStore, ev: &LineEvaluator<'_>) -> Result<Vec<SizeQuery>, String> {
    let gen = TrafficGen::new(seed, "65nm", 0);
    let method: Method = "sobol-scrambled".parse()?;
    let mut qs = (0..QUERIES)
        .map(|i| {
            let mut rng = Rng::stream(seed, i as u64);
            let u = (i as f64 + rng.random_unit()) / QUERIES as f64;
            let length_mm = gen.pitches_at(u) as f64 * PITCH_MM;
            let length = Length::mm(length_mm);
            let plan = warm
                .tt
                .plan_for(length)
                .ok_or_else(|| format!("no plan at {length_mm} mm"))?;
            Ok(SizeQuery {
                spec: LineSpec::global(length, DesignStyle::SingleSpacing),
                plan,
                variation: VariationModel::nominal(),
                deadline: Time::ps(size_deadline_ps(length_mm)),
                target_yield: TARGET,
                config: EstimatorConfig::new(method)
                    .with_seed(rng.next_u64())
                    .with_target_half_width(0.02),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Tight deadlines go to one query in TIGHT_EVERY in every batch (query
    // `b + k·j` of batch `b` is tight when `b + j` is), and so to one
    // length stratum in TIGHT_EVERY along the whole range. The `j`-th
    // tight query takes its margin from stratum `37·j mod n` of `n` (37 is
    // coprime to n = 256), so margins cover the range evenly and
    // independently of length.
    let k = QUERIES / BATCH;
    let tight: Vec<usize> = (0..QUERIES)
        .filter(|i| (i % k + i / k) % TIGHT_EVERY == TIGHT_EVERY - 1)
        .collect();
    let lines: Vec<_> = tight.iter().map(|&i| (qs[i].spec, qs[i].plan)).collect();
    let nominal = ev.timing_batch(&lines);
    let n = tight.len();
    for (j, (&i, timing)) in tight.iter().zip(nominal).enumerate() {
        let u = ((j * 37) % n) as f64 + Rng::stream(seed ^ 0x7e_57, i as u64).random_unit();
        let margin = TIGHT.0 + (TIGHT.1 - TIGHT.0) * u / n as f64;
        qs[i].deadline = timing.delay * margin;
    }
    Ok(qs)
}

/// The batches: batch `b` holds queries `b, b + k, b + 2k, …` with
/// `k = QUERIES / BATCH` batches in all.
fn batches(queries: &[SizeQuery]) -> Vec<Vec<SizeQuery>> {
    let k = QUERIES / BATCH;
    (0..k)
        .map(|b| queries.iter().skip(b).step_by(k).copied().collect())
        .collect()
}

/// One pass's answers in query order, with its timings.
struct Pass {
    ladder: Vec<Option<YieldSizing>>,
    gp: Vec<Option<YieldSizing>>,
    /// Wall time of each batch's ladder call, seconds.
    ladder_s: Vec<f64>,
    /// Wall time of each batch's GP call, seconds.
    gp_s: Vec<f64>,
}

impl Pass {
    /// Wall time per batch (ladder call + GP call), seconds.
    fn batch_s(&self) -> Vec<f64> {
        self.ladder_s
            .iter()
            .zip(&self.gp_s)
            .map(|(l, g)| l + g)
            .collect()
    }

    fn total_s(&self) -> f64 {
        self.batch_s().iter().sum()
    }
}

fn run_pass(ev: &LineEvaluator<'_>, batches: &[Vec<SizeQuery>]) -> Pass {
    let k = batches.len();
    let mut pass = Pass {
        ladder: vec![None; QUERIES],
        gp: vec![None; QUERIES],
        ladder_s: Vec::with_capacity(k),
        gp_s: Vec::with_capacity(k),
    };
    for (b, batch) in batches.iter().enumerate() {
        let t = Instant::now();
        let l = ev.size_for_yield_batch(std::hint::black_box(batch));
        pass.ladder_s.push(secs(t));
        let t = Instant::now();
        let g = ev.size_for_yield_gp_batch(std::hint::black_box(batch));
        pass.gp_s.push(secs(t));
        for (j, (l, g)) in l.into_iter().zip(g).enumerate() {
            pass.ladder[b + j * k] = l;
            pass.gp[b + j * k] = g;
        }
    }
    pass
}

/// Each batch's fastest time over `passes` (`stats::fastest`), seconds,
/// for the timing `pick` selects. A pass takes about a second and the
/// host's slowed stretches last seconds, so a whole pass is often slowed;
/// a batch takes about ten milliseconds, and over the run each batch
/// meets quiet moments.
fn fastest_batches(passes: &[Pass], pick: fn(&Pass) -> Vec<f64>) -> Vec<f64> {
    let times: Vec<Vec<f64>> = passes.iter().map(pick).collect();
    (0..times[0].len())
        .map(|b| fastest(&times.iter().map(|t| t[b]).collect::<Vec<_>>()))
        .collect()
}

/// Re-estimates every certified answer with the query's own estimator
/// configuration through `timing_yield_estimate_batch`. Returns the
/// number of answers that fail (CI lower bound below target, or an
/// achieved yield the re-estimate does not reproduce), the re-estimate's
/// wall time and its total evaluations.
fn recheck(
    ev: &LineEvaluator<'_>,
    queries: &[SizeQuery],
    answers: &[Option<YieldSizing>],
    engine: &str,
    outcome: &mut Outcome,
) -> (u64, f64, u64) {
    let mut items = Vec::new();
    let mut which = Vec::new();
    for (i, (q, a)) in queries.iter().zip(answers).enumerate() {
        if let Some(a) = a {
            items.push(YieldQuery {
                spec: q.spec,
                plan: a.plan,
                variation: q.variation,
                deadline: q.deadline,
                config: q.config,
            });
            which.push(i);
        }
    }
    let t = Instant::now();
    let estimates = ev.timing_yield_estimate_batch(&items);
    let elapsed = secs(t);
    let mut failed = 0;
    let mut evals = 0u64;
    for (est, &i) in estimates.iter().zip(&which) {
        evals += est.evals as u64;
        let achieved = answers[i].as_ref().map_or(f64::NAN, |a| a.achieved_yield);
        let lower = est.yield_fraction - est.half_width;
        if lower < TARGET || est.yield_fraction.to_bits() != achieved.to_bits() {
            failed += 1;
            outcome.check_failed(format!(
                "{engine} answer {i} ({} mm): re-estimate {} ± {} vs achieved {achieved}",
                queries[i].spec.length.as_mm(),
                est.yield_fraction,
                est.half_width
            ));
        }
    }
    (failed, elapsed, evals)
}

/// Mean time of one GP solve, from public calls only: the query set
/// re-run through `size_for_yield_gp_batch` with the analytic estimator,
/// whose verification (and any ladder fallback) costs microseconds next
/// to a solve, over the solves the program's `gp.solve` counter records
/// for it. Timed untraced, each batch's fastest of [`SOLVE_REPS`]
/// timings; counted in a further, traced run.
fn gp_solve_ms(ev: &LineEvaluator<'_>, batches: &[Vec<SizeQuery>]) -> f64 {
    let analytic: Vec<Vec<SizeQuery>> = batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|q| SizeQuery {
                    config: EstimatorConfig::new(Method::Analytic),
                    ..*q
                })
                .collect()
        })
        .collect();
    let mut batch_s = vec![f64::INFINITY; analytic.len()];
    for _ in 0..SOLVE_REPS {
        for (b, batch) in analytic.iter().enumerate() {
            let t = Instant::now();
            std::hint::black_box(ev.size_for_yield_gp_batch(batch));
            batch_s[b] = batch_s[b].min(secs(t));
        }
    }
    let elapsed: f64 = batch_s.iter().sum();
    crate::trace::start();
    for batch in &analytic {
        std::hint::black_box(ev.size_for_yield_gp_batch(batch));
    }
    let solves = crate::trace::stop().counter("gp.solve");
    ratio(elapsed * 1e3, solves as f64)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        workload: "offline_size",
        ..Outcome::default()
    };

    // Set-up: REPS cold builds in ROUNDS rounds; the first round's last
    // build serves the run.
    let mut setup = SetupTimes::default();
    let round = |setup: &mut SetupTimes| -> Result<WarmStore, String> {
        let mut warm = None;
        for _ in 0..REPS / ROUNDS {
            let w = WarmStore::build(&NodeStore::default())?;
            setup.total.push(w.total_s());
            setup.calibrate.push(w.calibrate_s);
            setup.plan_search.push(w.plan_search_s);
            warm = Some(w);
        }
        Ok(warm.expect("at least one set-up repetition per round"))
    };
    let warm = round(&mut setup)?;
    let ev = warm.tt.evaluator();

    let qs = queries(args.seed, &warm, &ev)?;
    let batches = batches(&qs);
    let n_passes = passes(args.seconds);

    // Untraced passes give the end-to-end timings; in the traced run half
    // of them run with the program's counters on, plus one pass at the
    // default thread count.
    let (plain_passes, traced_passes) = if args.trace {
        ((n_passes / 2).max(1), (n_passes / 2).max(1))
    } else {
        (n_passes, 0)
    };
    let mut runs: Vec<Pass> = spread(
        plain_passes,
        |_| Ok(run_pass(&ev, &batches)),
        || round(&mut setup).map(drop),
    )?;
    let mut snap = None;
    let mut traced_s = 0.0;
    if args.trace {
        crate::trace::start();
        let traced: Vec<Pass> = (0..traced_passes)
            .map(|_| run_pass(&ev, &batches))
            .collect();
        snap = Some(crate::trace::stop());
        // Overhead compares the same figure as `capacity_qps` is made of.
        let plain: f64 = fastest_batches(&runs, Pass::batch_s).iter().sum();
        let with: f64 = fastest_batches(&traced, Pass::batch_s).iter().sum();
        outcome
            .per_layer
            .insert("trace.overhead_frac", ratio(with, plain) - 1.0);
        traced_s = median(&traced.iter().map(Pass::total_s).collect::<Vec<_>>());
        runs.extend(traced);
    }

    // Correctness: pass 0 re-estimated; every pass identical to pass 0.
    let first = &runs[0];
    let (ladder_bad, ladder_est_s, ladder_evals) =
        recheck(&ev, &qs, &first.ladder, "ladder", &mut outcome);
    let (gp_bad, gp_est_s, gp_evals) = recheck(&ev, &qs, &first.gp, "gp", &mut outcome);
    let mut failed = ladder_bad + gp_bad;
    for (p, run) in runs.iter().enumerate().skip(1) {
        for i in 0..QUERIES {
            if run.ladder[i] != first.ladder[i] || run.gp[i] != first.gp[i] {
                failed += 1;
                outcome.check_failed(format!("pass {p} answer {i} differs from pass 0"));
            }
        }
    }
    let answers = 2 * QUERIES as u64;
    outcome.attempted = answers;
    outcome.failed = failed.min(answers);

    // End-to-end. A query's latency is its batch's.
    let plain_runs = &runs[..plain_passes];
    let batch_s = fastest_batches(plain_runs, Pass::batch_s);
    let batch_ms: Vec<f64> = batch_s.iter().map(|s| s * 1e3).collect();
    let certified = first
        .ladder
        .iter()
        .chain(&first.gp)
        .filter(|a| a.is_some())
        .count();
    let e = &mut outcome.end_to_end;
    e.insert("p50_ms", median(&batch_ms));
    e.insert("capacity_qps", QUERIES as f64 / batch_s.iter().sum::<f64>());
    e.insert(
        "ok_frac",
        (answers - outcome.failed) as f64 / answers as f64,
    );
    e.insert("certified_frac", certified as f64 / answers as f64);
    let mut quality = Quality::default();
    let mut lines: Vec<(LineSpec, BufferingPlan)> = Vec::new();
    for answers in [&first.ladder, &first.gp] {
        for (q, a) in qs.iter().zip(answers) {
            if let Some(a) = a {
                lines.push((q.spec, a.plan));
            }
        }
    }
    quality.add(&ev, &lines, Freq::ghz(CLOCK_GHZ));
    quality.report(&mut outcome);
    setup.report(&mut outcome);
    outcome
        .end_to_end
        .insert("peak_rss_mb", crate::stats::peak_rss_mb()?);

    // Per-layer.
    let l = &mut outcome.per_layer;
    l.insert("load.p95_ms", quantile(&batch_ms, 0.95));
    let all_ms: Vec<f64> = plain_runs
        .iter()
        .flat_map(Pass::batch_s)
        .map(|s| s * 1e3)
        .collect();
    l.insert("load.p99_ms", quantile(&all_ms, 0.99));
    let ladder_s: f64 = fastest_batches(plain_runs, |p| p.ladder_s.clone())
        .iter()
        .sum();
    let gp_s: f64 = fastest_batches(plain_runs, |p| p.gp_s.clone()).iter().sum();
    l.insert("core.ladder_ms_per_link", ladder_s * 1e3 / QUERIES as f64);
    l.insert("gp.size_ms_per_link", gp_s * 1e3 / QUERIES as f64);
    let steps: usize = first.ladder.iter().flatten().map(|a| a.steps).sum();
    l.insert(
        "core.ladder_steps_per_link",
        ratio(steps as f64, first.ladder.iter().flatten().count() as f64),
    );
    let mut ratios = Vec::new();
    for ((q, a), g) in qs.iter().zip(&first.ladder).zip(&first.gp) {
        if let (Some(a), Some(g)) = (a, g) {
            let t = ev.timing_batch(&[(q.spec, a.plan), (q.spec, g.plan)]);
            ratios.push(t[1].delay.si() / t[0].delay.si());
        }
    }
    l.insert(
        "gp.delay_ratio",
        ratio(ratios.iter().sum(), ratios.len() as f64),
    );
    l.insert(
        "yield.ns_per_eval",
        ratio(
            (ladder_est_s + gp_est_s) * 1e9,
            (ladder_evals + gp_evals) as f64,
        ),
    );
    if let Some(snap) = snap {
        let links = (traced_passes * QUERIES * 2) as f64;
        let estimates = snap.counter("yield.estimates") as f64;
        l.insert("yield.estimates_per_link", estimates / links);
        l.insert(
            "yield.evals_per_estimate",
            ratio(snap.counter("yield.evals") as f64, estimates),
        );
        l.insert(
            "gp.fallback_frac",
            ratio(
                snap.counter("gp.fallback") as f64,
                (traced_passes * QUERIES) as f64,
            ),
        );
        l.insert("gp.solve_ms", gp_solve_ms(&ev, &batches));
        // The same inputs at the default thread count, counters on as in
        // the traced serial passes it is compared with.
        let (threaded, snap) = crate::trace::at_default_threads(|| {
            crate::trace::start();
            let pass = run_pass(&ev, &batches);
            (pass, crate::trace::stop())
        });
        l.insert(
            "rt.workers_per_link",
            crate::trace::span_count(&snap, "rt.worker") as f64 / (2 * QUERIES) as f64,
        );
        l.insert("rt.speedup_vs_serial", traced_s / threaded.total_s());
        let differ = (0..QUERIES)
            .filter(|&i| threaded.ladder[i] != first.ladder[i] || threaded.gp[i] != first.gp[i])
            .count() as u64;
        if differ > 0 {
            outcome.failed = (outcome.failed + differ).min(answers);
            outcome.check_failed(format!(
                "{differ} default-thread answers differ from serial"
            ));
        }
    }
    let pass_s: Vec<String> = runs.iter().map(|r| format!("{:.3}", r.total_s())).collect();
    outcome.notes.push(format!(
        "{n_passes} passes x {QUERIES} queries in {} batches of {BATCH}; pass seconds {}",
        QUERIES / BATCH,
        pass_s.join(" ")
    ));
    Ok(outcome)
}
