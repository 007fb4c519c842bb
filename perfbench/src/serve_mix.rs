//! `serve_mix`: an open-loop, pipelined HTTP stream to an in-process
//! `pi_serve::Server` on its default configuration (ephemeral port).
//!
//! Requests come from `TrafficGen::with_mix` over the 127 Davis lengths:
//! [`YIELD_PCT`] % yield queries, [`SIZE_PCT`] % sizing queries (a quarter
//! of them GP), the rest evals; [`SS_PCT`] % of the eval and yield
//! queries are sent at the `ss` corner. Sizing queries take their length
//! from the midpoints of a stratified Davis sequence instead of an
//! independent draw, so the few hundred of them in a run cover the
//! distribution the same way for every seed (their deadline follows the
//! length as in `TrafficGen`; estimator, GP choice and estimator seed
//! still come from the seed).
//!
//! The stream first runs at [`FIXED_QPS`] for half the measuring time
//! (p50 over one-second windows, `ok_frac`, sizing quality; p95 and p99
//! per layer), then a capacity search finds the offered rate at which a
//! one-second trial keeps its p99 within [`LIMIT_MS`] with at least
//! 99.9 % answered 200 and no growing backlog (see `Phase::meets_limit`)
//! half the time.
//!
//! Correctness: every fixed-rate request must be answered 200; every
//! sizing answer and one in [`SAMPLE_EVERY`] of the others must be
//! byte-identical to the answer the same request gets in-process from
//! `pi_serve::execute_batch`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use pi_core::line::{BufferingPlan, LineSpec};
use pi_rt::Rng;
use pi_serve::api::ApiRequest;
use pi_serve::json::Json;
use pi_serve::store::NodeStore;
use pi_serve::traffic::PITCH_MM;
use pi_serve::{execute_batch, Batcher, Client, ServeConfig, Server, ServerStats, TrafficGen};
use pi_tech::units::{Freq, Length};
use pi_tech::{Corner, DesignStyle};

use crate::load::{self, Answer};
use crate::metrics::Outcome;
use crate::quality::Quality;
use crate::setup::{davis_lengths, size_deadline_ps, SetupTimes, WarmStore, NODE, REPS, ROUNDS};
use crate::stats::{median, quantile, ratio, secs, windowed};
use crate::Args;

/// Share of yield queries, percent: `pi-load`'s default, and the mix of
/// the 2000 req/s `serve_*` runs in `crates/bench/benches/baseline.rs`.
pub const YIELD_PCT: u32 = 10;
/// Share of sizing queries, percent (`TrafficGen` sends a quarter of them
/// to GP): the sizing share of the mixed `pi-load` run in
/// `scripts/verify.sh` (`--yield-pct 5 --size-pct 5`), the only recorded
/// mix that carries sizing next to evals.
pub const SIZE_PCT: u32 = 5;
/// Share of eval and yield queries sent at the `ss` corner, percent. No
/// recorded run sends corner traffic (`TrafficGen` never sets a corner),
/// so this share is a choice, not a measurement: large enough that every
/// second of the stream (about 100 requests at 2000/s) reaches the
/// slow-corner context, small enough to leave the typical-corner mix as
/// recorded.
pub const SS_PCT: usize = 5;
/// The fixed offered rate, requests per second.
pub const FIXED_QPS: f64 = 2000.0;
/// The p99 latency limit of the capacity search, milliseconds.
pub const LIMIT_MS: f64 = 100.0;
/// One non-sizing request in this many is checked byte for byte.
pub const SAMPLE_EVERY: usize = 16;
/// Length of one capacity-search trial, seconds.
const TRIAL_S: f64 = 1.0;
/// First rate the capacity search tries, requests per second.
const SEARCH_FROM: f64 = 4000.0;
/// Rate ratio between the capacity search's ramp steps.
const STEP: f64 = 1.5;
/// Trials of the capacity search's staircase.
const STAIRCASE: usize = 20;
/// Staircase trials left out of the estimate while it settles.
const SETTLE: usize = 4;
/// Rate ratio of one staircase step.
const STAIR: f64 = 1.1;
/// Share of a capacity trial that must be answered by the time its last
/// request falls due.
const KEPT_UP: f64 = 0.97;
/// Strata of the sizing-length sequence.
const STRATA: u64 = 64;
/// Unanswered requests are given up on this long after the last is due.
const GRACE: Duration = Duration::from_secs(10);

/// `n` requests of the stream starting at index `first`.
fn requests(gen: &TrafficGen, seed: u64, first: u64, n: u64) -> Vec<ApiRequest> {
    let mut sizes = 0u64;
    (first..first + n)
        .map(|i| {
            let mut req = gen.request(i);
            let mut rng = Rng::stream(seed ^ 0x55_c0_12_e5, i);
            let at_ss = rng.below(100) < SS_PCT;
            match &mut req {
                ApiRequest::Eval(r) if at_ss => r.corner = Some("ss".to_owned()),
                ApiRequest::Yield(r) if at_ss => r.corner = Some("ss".to_owned()),
                ApiRequest::Size(r) => {
                    // Stratum order 0, 37, 10, … visits all STRATA before
                    // repeating (37 is coprime to 64).
                    let stratum = (sizes * 37) % STRATA;
                    sizes += 1;
                    let u = (stratum as f64 + 0.5) / STRATA as f64;
                    r.length_mm = gen.pitches_at(u) as f64 * PITCH_MM;
                    r.deadline_ps = size_deadline_ps(r.length_mm);
                }
                _ => {}
            }
            req
        })
        .collect()
}

/// Complete HTTP/1.1 request bytes.
fn wire(req: &ApiRequest) -> Vec<u8> {
    let mut out = Vec::new();
    pi_serve::http::write_request(
        &mut out,
        "POST",
        req.path(),
        req.to_json().render().as_bytes(),
    )
    .expect("writing to a Vec cannot fail");
    out
}

/// The answer the same request gets in-process: a batch of one through
/// `execute_batch` on the process-global store the server also uses.
fn in_process(req: &ApiRequest) -> String {
    let queue = Batcher::new(1);
    let rx = queue
        .submit(req.clone())
        .expect("an empty queue admits one job");
    let jobs = queue.take_batch(Duration::ZERO).expect("the queue is open");
    execute_batch(NodeStore::global(), jobs, &ServerStats::default());
    rx.recv()
        .expect("execute_batch answers every job")
        .0
        .to_json()
        .render()
}

fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let resp = Client::connect(&addr.to_string())?.roundtrip("GET", path, b"")?;
    Ok(resp.body_str()?.to_owned())
}

/// The value of an unlabelled or `window="60s"` sample in a Prometheus
/// exposition; `0` when absent.
fn prom(text: &str, name: &str) -> f64 {
    let windowed = format!("{name}{{window=\"60s\"}} ");
    let plain = format!("{name} ");
    text.lines()
        .find_map(|l| {
            l.strip_prefix(windowed.as_str())
                .or_else(|| l.strip_prefix(plain.as_str()))
        })
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// One open-loop phase: its requests and what came back.
struct Phase {
    requests: Vec<ApiRequest>,
    run: load::Run,
    rate: f64,
}

impl Phase {
    fn go(
        addr: SocketAddr,
        gen: &TrafficGen,
        seed: u64,
        first: u64,
        rate: f64,
        seconds: f64,
    ) -> Result<Phase, String> {
        let requests = requests(gen, seed, first, (rate * seconds).round() as u64);
        let bytes: Vec<Vec<u8>> = requests.iter().map(wire).collect();
        let keep: Vec<bool> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| matches!(r, ApiRequest::Size(_)) || i % SAMPLE_EVERY == 0)
            .collect();
        let run = load::run(addr, &bytes, rate, &|i| keep[i], GRACE)?;
        Ok(Phase {
            requests,
            run,
            rate,
        })
    }

    /// Latencies with every failed request counted at the grace limit.
    fn latencies_ms(&self) -> Vec<f64> {
        let missed = GRACE.as_secs_f64() * 1e3;
        self.run
            .answers
            .iter()
            .map(|a| match a {
                Some(Answer {
                    status: 200,
                    latency_ms,
                    ..
                }) => *latency_ms,
                _ => missed,
            })
            .collect()
    }

    /// `(p50, p95)` over one-second windows of due times (see
    /// `stats::windowed`), milliseconds.
    fn windowed(&self) -> (f64, f64) {
        let windows: Vec<Vec<f64>> = self
            .latencies_ms()
            .chunks(self.rate.round().max(1.0) as usize)
            .map(<[f64]>::to_vec)
            .collect();
        windowed(&windows)
    }

    fn ok(&self) -> usize {
        self.run
            .answers
            .iter()
            .filter(|a| matches!(a, Some(Answer { status: 200, .. })))
            .count()
    }

    /// The capacity criteria: p99 within the limit, at least 99.9 %
    /// answered 200, and no growing backlog: by the time the last request
    /// falls due, at least [`KEPT_UP`] of the stream has been answered
    /// (a server short of the offered rate by a few percent falls behind
    /// by that share within the trial, long before its p99 reaches the
    /// limit).
    fn meets_limit(&self) -> bool {
        let lat = self.latencies_ms();
        let last_due_ms = (lat.len() - 1) as f64 / self.rate * 1e3;
        let kept_up = lat
            .iter()
            .enumerate()
            .filter(|&(i, l)| i as f64 / self.rate * 1e3 + l <= last_due_ms)
            .count();
        quantile(&lat, 0.99) <= LIMIT_MS
            && self.ok() as f64 >= 0.999 * lat.len() as f64
            && kept_up as f64 >= KEPT_UP * lat.len() as f64
    }
}

/// The capacity search. A ramp steps the rate up by [`STEP`] from
/// [`SEARCH_FROM`] until a rate misses the limit in two trials running.
/// A staircase then runs [`STAIRCASE`] one-second trials from one
/// [`STAIR`] below that rate, stepping down by [`STAIR`] after a miss and
/// up after a pass, so it settles around the rate at which half the
/// trials meet the limit. Capacity is the geometric mean of the rates of
/// the staircase trials after the first [`SETTLE`]. `between` runs
/// between the ramp and the staircase. Near capacity, host
/// interference decides single trials either way; averaging over the
/// staircase repeats from run to run where a bisection, whose path turns
/// on every single outcome, does not. Returns the capacity and a trial
/// log.
fn capacity(
    addr: SocketAddr,
    gen: &TrafficGen,
    seed: u64,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<(f64, Vec<String>), String> {
    let mut log = Vec::new();
    let mut trial = 0u64;
    let mut meets = |rate: f64, log: &mut Vec<String>| -> Result<bool, String> {
        trial += 1;
        let phase = Phase::go(addr, gen, seed, trial << 32, rate, TRIAL_S)?;
        let pass = phase.meets_limit();
        let lat = phase.latencies_ms();
        log.push(format!(
            "capacity trial {rate:.0}/s: p50 {:.2} ms, p99 {:.2} ms, {}/{} ok, {}",
            median(&lat),
            quantile(&lat, 0.99),
            phase.ok(),
            lat.len(),
            if pass { "pass" } else { "miss" }
        ));
        Ok(pass)
    };
    let mut rate = SEARCH_FROM;
    while meets(rate, &mut log)? || meets(rate, &mut log)? {
        rate *= STEP;
        if rate > 1e6 {
            return Err("capacity search found no limit below 1e6/s".to_owned());
        }
    }
    between()?;
    rate /= STAIR;
    let mut settled = Vec::with_capacity(STAIRCASE - SETTLE);
    for i in 0..STAIRCASE {
        if i >= SETTLE {
            settled.push(rate.ln());
        }
        rate = if meets(rate, &mut log)? {
            rate * STAIR
        } else {
            rate / STAIR
        };
    }
    let capacity = (settled.iter().sum::<f64>() / settled.len() as f64).exp();
    Ok((capacity, log))
}

/// Per-layer serving figures from `/metrics`, `/v1/stats` deltas and the
/// program's counters over the traced phase.
fn serve_layers(
    outcome: &mut Outcome,
    traced: &Phase,
    metrics: &str,
    stats: (&Json, &Json),
    plans: ((u64, u64), (u64, u64)),
    snap: &pi_obs::Snapshot,
) {
    let l = &mut outcome.per_layer;
    let requests = traced.requests.len() as f64;
    let m = |name: &str| prom(metrics, name);
    l.insert("serve.queue_us_p50", m("serve_phase_queue_us_p50"));
    l.insert("serve.compute_us_p50", m("serve_phase_compute_us_p50"));
    l.insert("serve.compute_us_p99", m("serve_phase_compute_us_p99"));
    l.insert(
        "serve.io_us_p50",
        m("serve_phase_parse_us_p50")
            + m("serve_phase_render_us_p50")
            + m("serve_phase_flush_us_p50"),
    );
    l.insert("serve.eval_us_p50", m("serve_endpoint_eval_us_p50"));
    l.insert("serve.yield_us_p50", m("serve_endpoint_yield_us_p50"));
    l.insert("serve.size_us_p50", m("serve_endpoint_size_us_p50"));
    let d = |key: &str| {
        let v = |s: &Json| s.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        v(stats.1) - v(stats.0)
    };
    l.insert("serve.batch_mean", ratio(d("batched_jobs"), d("batches")));
    l.insert(
        "serve.size_batch_mean",
        ratio(d("size_jobs"), d("size_sweeps")),
    );
    l.insert("serve.shed_frac", d("shed") / requests);
    let ((h0, m0), (h1, m1)) = plans;
    let (hits, misses) = ((h1 - h0) as f64, (m1 - m0) as f64);
    l.insert("serve.plan_cache_hit_rate", ratio(hits, hits + misses));
    let estimates = snap.counter("yield.estimates") as f64;
    l.insert("yield.estimates_per_link", estimates / requests);
    l.insert(
        "yield.evals_per_estimate",
        ratio(snap.counter("yield.evals") as f64, estimates),
    );
    let gp_sizes = traced
        .requests
        .iter()
        .filter(|r| matches!(r, ApiRequest::Size(s) if s.gp))
        .count() as f64;
    l.insert(
        "gp.fallback_frac",
        ratio(snap.counter("gp.fallback") as f64, gp_sizes),
    );
    l.insert(
        "rt.workers_per_link",
        crate::trace::span_count(snap, "rt.worker") as f64 / requests,
    );
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        workload: "serve_mix",
        ..Outcome::default()
    };
    let config = ServeConfig {
        port: 0,
        ..ServeConfig::default()
    };

    // Set-up, REPS times in ROUNDS rounds (one now, one after the fixed
    // phase, one between the capacity search's ramp and staircase or
    // after the traced phase, one at the end): server start to first
    // answered health check, then a cold warm-store build (SS calibration
    // + plan search). The run's server is idle during a round.
    let mut setup = SetupTimes::default();
    let round = |setup: &mut SetupTimes| -> Result<(), String> {
        for _ in 0..REPS / ROUNDS {
            let t = Instant::now();
            let mut server = Server::start(&config).map_err(|e| format!("server start: {e}"))?;
            Client::connect(&server.addr().to_string())?.roundtrip("GET", "/healthz", b"")?;
            let ready_s = secs(t);
            server.shutdown();
            let warm = WarmStore::build(&NodeStore::default())?;
            setup.total.push(ready_s + warm.total_s());
            setup.calibrate.push(warm.calibrate_s);
            setup.plan_search.push(warm.plan_search_s);
        }
        Ok(())
    };
    round(&mut setup)?;
    // The server answers from the process-global store: warm it the same
    // way (the characterization cache is warm by now).
    let global = NodeStore::global();
    for corner in [Corner::Typical, Corner::SlowSlow] {
        let ctx = global.context_at(NODE, corner)?;
        for length in davis_lengths() {
            ctx.plan_for(length).ok_or("no plan for a Davis length")?;
        }
    }

    let mut server = Server::start(&config).map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    let gen = TrafficGen::with_mix(args.seed, "65nm", YIELD_PCT, SIZE_PCT);
    let fixed_s = (args.seconds as f64 / 2.0).max(1.0);
    let fixed = Phase::go(addr, &gen, args.seed, 0, FIXED_QPS, fixed_s)?;
    // Peak memory of set-up plus the fixed-rate phase: the capacity
    // search's trial streams grow with the rate it reaches.
    let peak_rss_mb = crate::stats::peak_rss_mb()?;
    round(&mut setup)?;
    let mut capacity_qps = 0.0;
    if args.trace {
        // A second fixed-rate phase with the program's counters on; the
        // telemetry windows are reset so /metrics covers it alone.
        let stats_before = pi_serve::json::parse(&get(addr, "/v1/stats")?)?;
        let plans_before = pi_serve::store::plan_cache_counts();
        crate::trace::start();
        pi_obs::window::reset();
        let traced = Phase::go(addr, &gen, args.seed, 1 << 31, FIXED_QPS, fixed_s)?;
        let metrics = get(addr, "/metrics")?;
        let stats_after = pi_serve::json::parse(&get(addr, "/v1/stats")?)?;
        let plans_after = pi_serve::store::plan_cache_counts();
        server.shutdown(); // joins the batcher, flushing its counters
        let snap = crate::trace::stop();
        round(&mut setup)?;
        serve_layers(
            &mut outcome,
            &traced,
            &metrics,
            (&stats_before, &stats_after),
            (plans_before, plans_after),
            &snap,
        );
        let plain = fixed.windowed().0;
        let with = traced.windowed().0;
        outcome
            .per_layer
            .insert("trace.overhead_frac", ratio(with, plain) - 1.0);
    } else {
        let (cap, log) = capacity(addr, &gen, args.seed, &mut || round(&mut setup))?;
        capacity_qps = cap;
        outcome.notes.extend(log);
        server.shutdown();
    }
    round(&mut setup)?;

    // Correctness: all answered 200; kept bodies byte-identical to the
    // in-process answers.
    let n = fixed.requests.len();
    let mut failed = n - fixed.ok();
    if failed > 0 {
        outcome.check_failed(format!(
            "{failed} of {n} fixed-rate requests not answered 200"
        ));
    }
    let tt = global.context(NODE);
    let mut checked = 0;
    let (mut sizes, mut certified) = (0usize, 0usize);
    let mut lines: Vec<(LineSpec, BufferingPlan)> = Vec::new();
    for (i, (req, answer)) in fixed.requests.iter().zip(&fixed.run.answers).enumerate() {
        if let ApiRequest::Size(_) = req {
            sizes += 1;
        }
        let Some(Answer {
            status: 200,
            body: Some(body),
            ..
        }) = answer
        else {
            continue;
        };
        checked += 1;
        if body.as_slice() != in_process(req).as_bytes() {
            failed += 1;
            outcome.check_failed(format!("request {i}: served bytes differ from in-process"));
            continue;
        }
        // Served sizing answers: certified plans and their quality.
        if let ApiRequest::Size(r) = req {
            certified += 1;
            let v = pi_serve::json::parse(std::str::from_utf8(body).map_err(|e| e.to_string())?)?;
            let length = Length::mm(r.length_mm);
            let base = tt.plan_for(length).ok_or("no plan for a served length")?;
            let plan = BufferingPlan {
                count: v
                    .get("count")
                    .and_then(Json::as_usize)
                    .ok_or("size answer lacks count")?,
                wn: Length::um(
                    v.get("wn_um")
                        .and_then(Json::as_f64)
                        .ok_or("size answer lacks wn_um")?,
                ),
                ..base
            };
            lines.push((LineSpec::global(length, DesignStyle::SingleSpacing), plan));
        }
    }
    outcome.attempted = n as u64;
    outcome.failed = failed.min(n) as u64;
    let mut quality = Quality::default();
    quality.add(&tt.evaluator(), &lines, Freq::ghz(1.0));
    quality.report(&mut outcome);
    setup.report(&mut outcome);

    let (p50, p95) = fixed.windowed();
    let e = &mut outcome.end_to_end;
    e.insert("p50_ms", p50);
    if !args.trace {
        e.insert("capacity_qps", capacity_qps);
    }
    e.insert("ok_frac", (n as u64 - outcome.failed) as f64 / n as f64);
    e.insert("certified_frac", ratio(certified as f64, sizes as f64));
    e.insert("peak_rss_mb", peak_rss_mb);

    let l = &mut outcome.per_layer;
    l.insert("load.late_ms_p99", quantile(&fixed.run.late_ms, 0.99));
    l.insert("load.p95_ms", p95);
    l.insert("load.p99_ms", quantile(&fixed.latencies_ms(), 0.99));
    if args.trace {
        // The fixed phase's eval lines through `timing_batch` in batches of
        // the server's mean size, as the benchmark's own span.
        let mut items = Vec::new();
        for req in &fixed.requests {
            if let ApiRequest::Eval(r) = req {
                let length = Length::mm(r.length_mm);
                let plan = tt.plan_for(length).ok_or("no plan for an eval length")?;
                items.push((LineSpec::global(length, DesignStyle::SingleSpacing), plan));
            }
        }
        let batch = l
            .get("serve.batch_mean")
            .copied()
            .unwrap_or(1.0)
            .round()
            .max(1.0) as usize;
        let ev = tt.evaluator();
        let t = Instant::now();
        for chunk in items.chunks(batch) {
            std::hint::black_box(ev.timing_batch(chunk));
        }
        l.insert(
            "core.timing_batch_ns_per_line",
            ratio(secs(t) * 1e9, items.len() as f64),
        );
    }
    type Pick = fn(&ApiRequest) -> bool;
    let kinds: [(&str, Pick); 3] = [
        ("eval", |r| matches!(r, ApiRequest::Eval(_))),
        ("yield", |r| matches!(r, ApiRequest::Yield(_))),
        ("size", |r| matches!(r, ApiRequest::Size(_))),
    ];
    let lat = fixed.latencies_ms();
    let mut head = vec![format!(
        "fixed phase: {n} requests at {FIXED_QPS}/s, {checked} checked byte for byte"
    )];
    for (kind, pick) in kinds {
        let kind_lat: Vec<f64> = fixed
            .requests
            .iter()
            .zip(&lat)
            .filter(|(r, _)| pick(r))
            .map(|(_, &l)| l)
            .collect();
        head.push(format!(
            "{kind}: {} requests, pooled p50 {:.3} ms, p99 {:.3} ms",
            kind_lat.len(),
            median(&kind_lat),
            quantile(&kind_lat, 0.99)
        ));
    }
    head.append(&mut outcome.notes);
    outcome.notes = head;
    Ok(outcome)
}
