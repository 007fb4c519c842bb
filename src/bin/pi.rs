//! `pi` — command-line front end for the predictive-interconnect library.
//!
//! ```text
//! pi <delay|optimize|reach|noc|yield|size|report|serve|load|scaling> [--options]
//! pi obs-report <journal.jsonl> [--check | --diff <a> <b>]
//! pi obs-top    <host:port> [--interval 2] [--count N] [--raw]
//! ```
//!
//! `pi <command> --help` lists the options a command accepts (the
//! [`COMMANDS`] table); any other option is an error. `pi yield` and
//! `pi size` decode their options into the `/v1/yield` and `/v1/size`
//! requests of `pi serve` and lower them through the same validator.
//! Quantities accept unit suffixes: lengths `mm`/`um`, clocks `GHz`/`MHz`,
//! times `ps`/`ns`.

use std::collections::HashMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use predictive_interconnect::cosi::model::{LinkCostModel, OriginalLinkModel, ProposedLinkModel};
use predictive_interconnect::cosi::report::evaluate;
use predictive_interconnect::cosi::router::RouterParams;
use predictive_interconnect::cosi::synthesis::{synthesize, SynthesisConfig, YieldFilter};
use predictive_interconnect::cosi::{mesh_network, testcases};
use predictive_interconnect::models::buffering::{BufferingObjective, SearchSpace};
use predictive_interconnect::models::line::{BufferingPlan, LineSpec};
use predictive_interconnect::models::variation::VariationModel;
use predictive_interconnect::serve::api::{SizeRequest, YieldRequest};
use predictive_interconnect::serve::batch::{lower_size, lower_yield};
use predictive_interconnect::serve::{NodeContext, NodeStore};
use predictive_interconnect::stats::Method;
use predictive_interconnect::tech::units::{Freq, Length, Time};
use predictive_interconnect::tech::{DesignStyle, RepeaterKind, TechNode, Technology};

/// A unit suffix and the constructor of a quantity in that unit.
type Unit<T> = (&'static str, fn(f64) -> T);

/// Parses `<number><unit>` against `units` (case-insensitive); a bare
/// number takes the first unit.
fn parse_quantity<T>(s: &str, what: &str, units: &[Unit<T>]) -> Result<T, String> {
    let s = s.trim().to_ascii_lowercase();
    let (number, unit) = units
        .iter()
        .find_map(|(suffix, unit)| Some((s.strip_suffix(suffix)?, unit)))
        .unwrap_or((s.as_str(), &units[0].1));
    let names: Vec<&str> = units.iter().map(|(suffix, _)| *suffix).collect();
    let value = number
        .parse()
        .map_err(|_| format!("bad {what} `{s}` (units: {})", names.join(", ")))?;
    Ok(unit(value))
}

fn parse_length(s: &str) -> Result<Length, String> {
    let length = parse_quantity(s, "length", &[("mm", Length::mm), ("um", Length::um)])?;
    // `f64::parse` happily accepts "nan", "inf" and negatives — all of
    // which would poison sizing and synthesis downstream.
    if !(length.is_finite() && length.si() > 0.0) {
        return Err(format!("length must be positive and finite, got `{s}`"));
    }
    Ok(length)
}

fn parse_clock(s: &str) -> Result<Freq, String> {
    parse_quantity(s, "clock", &[("ghz", Freq::ghz), ("mhz", Freq::mhz)])
}

fn parse_time(s: &str) -> Result<Time, String> {
    parse_quantity(s, "time", &[("ps", Time::ps), ("ns", Time::ns)])
}

/// Parses the optional `--rho` spatial-correlation coefficient; `None`
/// when absent or zero.
fn parse_rho(opts: &Opts) -> Result<Option<f64>, String> {
    let Some(rho) = opts.parse_opt::<f64>("rho")? else {
        return Ok(None);
    };
    if !(0.0..=1.0).contains(&rho) {
        return Err("--rho must be in [0, 1]".to_owned());
    }
    Ok((rho > 0.0).then_some(rho))
}

fn parse_style(s: &str) -> Result<DesignStyle, String> {
    match s.to_ascii_lowercase().as_str() {
        "ss" | "single" => Ok(DesignStyle::SingleSpacing),
        "sh" | "shielded" => Ok(DesignStyle::Shielded),
        "dw" | "double" => Ok(DesignStyle::DoubleSpacing),
        other => Err(format!("unknown style `{other}` (ss, sh, dw)")),
    }
}

/// One `pi` command: its root trace span `pi.<command>`, the
/// space-separated options that take a value and boolean flags it
/// accepts, and its runner. [`Opts::parse`] rejects any other option,
/// and `pi <command> --help` prints exactly these lists.
struct Command {
    span: &'static str,
    values: &'static str,
    flags: &'static str,
    run: fn(&Opts) -> Result<(), String>,
}

impl Command {
    fn name(&self) -> &'static str {
        &self.span["pi.".len()..]
    }

    /// The accepted options, as `--help` prints them and unknown-option
    /// errors quote them.
    fn usage(&self) -> String {
        let values = self
            .values
            .split_whitespace()
            .map(|v| format!(" [--{v} <value>]"));
        let flags = self.flags.split_whitespace().map(|f| format!(" [--{f}]"));
        format!(
            "usage: pi {}{}",
            self.name(),
            values.chain(flags).collect::<String>()
        )
    }
}

/// Every option-parsed command, in `USAGE` order.
const COMMANDS: &[Command] = &[
    Command {
        span: "pi.delay",
        values: "tech length style count drive",
        flags: "staggered",
        run: cmd_delay,
    },
    Command {
        span: "pi.optimize",
        values: "tech length clock style weight",
        flags: "staggered",
        run: cmd_optimize,
    },
    Command {
        span: "pi.reach",
        values: "tech clock style",
        flags: "staggered",
        run: cmd_reach,
    },
    Command {
        span: "pi.noc",
        values: "design spec tech clock model yield-target rho cell",
        flags: "",
        run: cmd_noc,
    },
    Command {
        span: "pi.yield",
        values: "tech length deadline samples estimator ci seed rho regions",
        flags: "cv",
        run: cmd_yield,
    },
    Command {
        span: "pi.size",
        values: "tech length deadline target estimator seed ci",
        flags: "gp",
        run: cmd_size,
    },
    Command {
        span: "pi.report",
        values: "tech length clock style bits",
        flags: "full",
        run: cmd_report,
    },
    Command {
        span: "pi.serve",
        values: "port batch-window queue-depth io",
        flags: "",
        run: cmd_serve,
    },
    Command {
        span: "pi.load",
        values: "addr qps concurrency conns duration yield-pct size-pct seed tech",
        flags: "json",
        run: cmd_load,
    },
    Command {
        span: "pi.scaling",
        values: "",
        flags: "",
        run: cmd_scaling,
    },
];

/// Parsed `--key value` options plus boolean flags.
struct Opts {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Opts {
    /// Parses `args` against `cmd`'s accepted options: an unknown option,
    /// a positional argument or a value-less `--key` is an error.
    fn parse(args: &[String], cmd: &Command) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut args = args.iter();
        while let Some(a) = args.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            if cmd.flags.split_whitespace().any(|f| f == key) {
                flags.push(key.to_owned());
            } else if cmd.values.split_whitespace().any(|v| v == key) {
                let value = args
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                values.insert(key.to_owned(), value.clone());
            } else {
                return Err(format!(
                    "unknown option `{a}` for `pi {}`\n{}",
                    cmd.name(),
                    cmd.usage()
                ));
            }
        }
        Ok(Opts { values, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// The parsed value of `--key`, if given.
    fn parse_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.get(key)
            .map(|v| v.parse().map_err(|e| format!("bad --{key}: {e}")))
            .transpose()
    }

    /// The parsed value of `--key`, or `default` when absent.
    fn parse_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The typical-corner models of `--tech` — the same context `pi serve`
    /// answers from.
    fn context(&self) -> Result<Arc<NodeContext>, String> {
        NodeStore::default().context_for(self.require("tech")?, None)
    }
}

fn cmd_delay(opts: &Opts) -> Result<(), String> {
    let ctx = opts.context()?;
    let (tech, ev) = (&ctx.tech, ctx.evaluator());
    let node = tech.node();
    let length = parse_length(opts.require("length")?)?;
    let style = parse_style(opts.get("style").unwrap_or("ss"))?;
    let spec = LineSpec::global(length, style);
    let plan = if let (Some(count), Some(drive)) =
        (opts.parse_opt("count")?, opts.parse_opt::<f64>("drive")?)
    {
        BufferingPlan {
            kind: RepeaterKind::Inverter,
            count,
            wn: tech.layout().unit_nmos_width * drive,
            staggered: opts.flag("staggered"),
        }
    } else {
        let obj = BufferingObjective::balanced(Freq::ghz(1.0));
        let mut space = SearchSpace::for_length(length);
        space.staggered = opts.flag("staggered");
        ev.optimize_buffering(&spec, &obj, &space)
            .ok_or("empty search space")?
            .plan
    };
    let timing = ev.timing(&spec, &plan);
    println!(
        "{node} {} mm {} | {} x inverter (wn {:.1} um{})",
        length.as_mm(),
        style.code(),
        plan.count,
        plan.wn.as_um(),
        if plan.staggered { ", staggered" } else { "" }
    );
    println!(
        "delay {:.0} ps | output slew {:.0} ps",
        timing.delay.as_ps(),
        timing.output_slew().as_ps()
    );
    Ok(())
}

fn cmd_optimize(opts: &Opts) -> Result<(), String> {
    let ctx = opts.context()?;
    let (node, ev) = (ctx.tech.node(), ctx.evaluator());
    let length = parse_length(opts.require("length")?)?;
    let clock = parse_clock(opts.require("clock")?)?;
    let style = parse_style(opts.get("style").unwrap_or("ss"))?;
    let weight: f64 = opts.parse_or("weight", 0.5)?;
    let spec = LineSpec::global(length, style);
    let objective = BufferingObjective {
        delay_weight: weight,
        activity: 0.25,
        clock,
    };
    let mut space = SearchSpace::for_length(length);
    space.staggered = opts.flag("staggered");
    let r = ev
        .optimize_buffering(&spec, &objective, &space)
        .ok_or("empty search space")?;
    println!(
        "{node} {} mm {} @ {} GHz, weight {weight}",
        length.as_mm(),
        style.code(),
        clock.as_ghz()
    );
    println!(
        "plan: {} x inverter, wn {:.1} um{}",
        r.plan.count,
        r.plan.wn.as_um(),
        if r.plan.staggered { " (staggered)" } else { "" }
    );
    println!(
        "delay {:.0} ps | power {:.1} uW/bit ({:.1} dynamic + {:.2} leakage)",
        r.timing.delay.as_ps(),
        r.power.total().as_uw(),
        r.power.dynamic.as_uw(),
        r.power.leakage.as_uw()
    );
    Ok(())
}

fn cmd_reach(opts: &Opts) -> Result<(), String> {
    let ctx = opts.context()?;
    let (node, ev) = (ctx.tech.node(), ctx.evaluator());
    let clock = parse_clock(opts.require("clock")?)?;
    let style = parse_style(opts.get("style").unwrap_or("ss"))?;
    let objective = BufferingObjective::balanced(clock);
    let reach =
        ev.max_feasible_length_opts(style, clock.period(), &objective, opts.flag("staggered"));
    println!(
        "{node} {} @ {} GHz: max single-cycle link {:.2} mm{}",
        style.code(),
        clock.as_ghz(),
        reach.as_mm(),
        if opts.flag("staggered") {
            " (staggered)"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_noc(opts: &Opts) -> Result<(), String> {
    let ctx = opts.context()?;
    let (tech, ev) = (&ctx.tech, ctx.evaluator());
    let clock = parse_clock(opts.require("clock")?)?;
    let spec = if let Some(path) = opts.get("spec") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        predictive_interconnect::cosi::parse_spec(&text).map_err(|e| e.to_string())?
    } else {
        match opts.require("design")?.to_ascii_lowercase().as_str() {
            "dvopd" => testcases::dvopd(),
            "vproc" => testcases::vproc(),
            other => return Err(format!("unknown design `{other}` (dvopd, vproc)")),
        }
    };
    let mut config = SynthesisConfig::at_clock(clock);
    if let Some(target) = opts.parse_opt::<f64>("yield-target")? {
        if !(0.0..=1.0).contains(&target) || target == 0.0 {
            return Err("--yield-target must be in (0, 1]".to_owned());
        }
        let mut variation = VariationModel::nominal();
        if let Some(rho) = parse_rho(opts)? {
            let cell = opts
                .get("cell")
                .map(parse_length)
                .transpose()?
                .unwrap_or(Length::mm(2.0));
            variation = variation.with_regional(rho, cell);
        }
        config = config.with_yield_filter(YieldFilter::new(target, variation));
    }
    let routers = RouterParams::for_tech(tech);
    let which = opts.get("model").unwrap_or("proposed").to_ascii_lowercase();
    let proposed = ProposedLinkModel::new(&ev, DesignStyle::SingleSpacing, clock, 0.25);
    let network = match which.as_str() {
        "proposed" => synthesize(&spec, &proposed, &config),
        "original" => {
            let original = OriginalLinkModel::new(tech, clock, 0.25);
            synthesize(&spec, &original, &config)
        }
        "mesh" => mesh_network(&spec, &proposed as &dyn LinkCostModel, &config),
        other => {
            return Err(format!(
                "unknown model `{other}` (proposed, original, mesh)"
            ))
        }
    }
    .map_err(|e| e.to_string())?;
    println!("{}", evaluate(&spec.name, &network, &routers, clock));
    Ok(())
}

/// `pi yield` decodes its flags into the `/v1/yield` request and lowers
/// it through the service's validator, so both accept the same inputs and
/// the estimator path answers exactly what the service answers.
fn cmd_yield(opts: &Opts) -> Result<(), String> {
    // `--regions N` slices the line into N equal correlation cells.
    let regions: u64 = opts.parse_or("regions", 4)?;
    let request = YieldRequest {
        tech: opts.require("tech")?.to_owned(),
        length_mm: parse_length(opts.require("length")?)?.as_mm(),
        deadline_ps: parse_time(opts.require("deadline")?)?.as_ps(),
        // The sampled-distribution path runs no estimator; naive stands in
        // so the request lowers all the same.
        estimator: opts.get("estimator").unwrap_or("naive").to_owned(),
        seed: opts.parse_or("seed", 1)?,
        ci_pct: opts.parse_or("ci", 0.5)?,
        cv: opts.flag("cv"),
        rho: opts.parse_opt("rho")?,
        regions: Some(regions),
        corner: None,
    };
    let samples: usize = opts.parse_or("samples", 2000)?;
    if samples == 0 {
        return Err("--samples must be at least 1".to_owned());
    }
    let ctx = opts.context()?;
    let query = lower_yield(&ctx, &request)?;
    let ev = ctx.evaluator();
    let node = ctx.tech.node();
    let (length_mm, plan, variation) = (request.length_mm, query.plan, query.variation);
    if variation.rho_region > 0.0 {
        println!(
            "spatial correlation: rho {}, {} regions of {:.2} mm",
            variation.rho_region,
            regions,
            variation.region_cell.as_mm()
        );
    }

    if opts.get("estimator").is_some() {
        // Variance-reduced estimator with a confidence interval. The CI
        // target is given in percent yield (default ±0.5% at 95%).
        let config = query.config;
        let est = ev
            .timing_yield_estimate_batch(&[query])
            .pop()
            .expect("one query, one estimate");
        println!(
            "{node} {length_mm} mm, {} x inverter wn {:.1} um, estimator {}{}",
            plan.count,
            plan.wn.as_um(),
            est.method,
            if config.control_variate { " +cv" } else { "" }
        );
        println!(
            "timing yield @ {:.0} ps: {:.2}% (±{:.2}% at 95%, {} line evaluations)",
            request.deadline_ps,
            est.yield_fraction * 100.0,
            est.half_width * 100.0,
            est.evals
        );
        if config.method == Method::SurrogateIs || config.control_variate {
            println!(
                "surrogate disagreement: {:.3}% of dies{}",
                est.surrogate_disagreement * 100.0,
                if est.method != config.method {
                    " (above threshold -- fell back to the plain estimator)"
                } else {
                    ""
                }
            );
        }
        return Ok(());
    }

    let dist = ev.delay_distribution(&query.spec, &plan, &variation, samples, request.seed);
    println!(
        "{node} {length_mm} mm, {} x inverter wn {:.1} um, {samples} samples",
        plan.count,
        plan.wn.as_um()
    );
    println!(
        "delay mean {:.0} ps, sigma {:.1} ps, p99 {:.0} ps",
        dist.mean().as_ps(),
        dist.std_dev().as_ps(),
        dist.quantile(0.99).as_ps()
    );
    println!(
        "timing yield @ {:.0} ps: {:.1}%",
        request.deadline_ps,
        dist.yield_at(query.deadline) * 100.0
    );
    Ok(())
}

/// `pi size` decodes its flags into the `/v1/size` request, lowers it
/// through the service's validator and runs the batch engine `/v1/size`
/// runs, on a batch of one.
fn cmd_size(opts: &Opts) -> Result<(), String> {
    let request = SizeRequest {
        tech: opts.require("tech")?.to_owned(),
        length_mm: parse_length(opts.require("length")?)?.as_mm(),
        deadline_ps: parse_time(opts.require("deadline")?)?.as_ps(),
        target_yield: opts.parse_or("target", 0.9)?,
        estimator: opts
            .get("estimator")
            .unwrap_or("sobol-scrambled")
            .to_owned(),
        seed: opts.parse_or("seed", 1)?,
        ci_pct: opts.parse_or("ci", 0.5)?,
        gp: opts.flag("gp"),
        corner: None,
    };
    let ctx = opts.context()?;
    let query = lower_size(&ctx, &request)?;
    let ev = ctx.evaluator();
    let (engine, mut sized) = if request.gp {
        ("gp", ev.size_for_yield_gp_batch(&[query]))
    } else {
        ("ladder", ev.size_for_yield_batch(&[query]))
    };
    let sized = sized
        .pop()
        .flatten()
        .ok_or("no plan in the search range reaches the target yield")?;
    let timing = ev.timing(&query.spec, &sized.plan);
    let power = ev.power(&query.spec, &sized.plan, 0.25, Freq::ghz(1.0));
    println!(
        "{} {} mm, engine {engine}, start {} x wn {:.1} um",
        ctx.tech.node(),
        request.length_mm,
        query.plan.count,
        query.plan.wn.as_um()
    );
    println!(
        "sized plan: {} x inverter wn {:.2} um ({} steps)",
        sized.plan.count,
        sized.plan.wn.as_um(),
        sized.steps
    );
    println!(
        "yield @ {:.0} ps: {:.2}% (target {:.2}%), nominal delay {:.0} ps, power {:.1} uW/bit",
        request.deadline_ps,
        sized.achieved_yield * 100.0,
        request.target_yield * 100.0,
        timing.delay.as_ps(),
        power.total().as_uw()
    );
    Ok(())
}

fn cmd_report(opts: &Opts) -> Result<(), String> {
    use predictive_interconnect::report::{link_datasheet, DatasheetOptions};
    let ctx = opts.context()?;
    let (node, ev) = (ctx.tech.node(), ctx.evaluator());
    let length = parse_length(opts.require("length")?)?;
    let clock = parse_clock(opts.require("clock")?)?;
    let style = parse_style(opts.get("style").unwrap_or("ss"))?;
    let spec = LineSpec::global(length, style);
    let plan = ev
        .optimize_with_deadline(
            &spec,
            clock.period(),
            &BufferingObjective::balanced(clock),
            &SearchSpace::for_length(length),
        )
        .ok_or("link is infeasible at this clock")?
        .plan;
    let mut options = if opts.flag("full") {
        DatasheetOptions::full(clock)
    } else {
        DatasheetOptions::at_clock(clock)
    };
    options.n_bits = opts.parse_or("bits", options.n_bits)?;
    let sheet = link_datasheet(node, &spec, &plan, &options).map_err(|e| e.to_string())?;
    print!("{sheet}");
    Ok(())
}

/// `pi obs-report <journal.jsonl> [--check]` — renders a pi-obs JSONL trace
/// journal (see `docs/OBSERVABILITY.md`) as a span tree plus metric tables.
/// With `--check`, validates every line against the schema and the
/// wall-clock accounting bound instead of printing the report. With
/// `--diff <a> <b>`, prints per-span self-time and counter deltas between
/// two journals instead (e.g. before/after a perf change).
fn cmd_obs_report(args: &[String]) -> Result<(), String> {
    const OBS_REPORT_USAGE: &str =
        "usage: pi obs-report <journal.jsonl> [--check] | pi obs-report --diff <a.jsonl> <b.jsonl>";
    let mut paths: Vec<&str> = Vec::new();
    let mut check = false;
    let mut diff = false;
    for a in args {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{OBS_REPORT_USAGE}");
                return Ok(());
            }
            "--check" => check = true,
            "--diff" => diff = true,
            other if !other.starts_with("--") => paths.push(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if diff {
        let [a, b] = paths[..] else {
            return Err(OBS_REPORT_USAGE.to_owned());
        };
        let ta = std::fs::read_to_string(a).map_err(|e| format!("cannot read `{a}`: {e}"))?;
        let tb = std::fs::read_to_string(b).map_err(|e| format!("cannot read `{b}`: {e}"))?;
        print!("{}", predictive_interconnect::obs::report::diff(&ta, &tb)?);
        return Ok(());
    }
    let [path] = paths[..] else {
        return Err(OBS_REPORT_USAGE.to_owned());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if check {
        predictive_interconnect::obs::report::check(&text)?;
        println!("obs-report: `{path}` OK");
    } else {
        print!("{}", predictive_interconnect::obs::report::render(&text)?);
    }
    Ok(())
}

/// One parsed Prometheus-exposition sample: metric name, label pairs,
/// value. Comment/`# TYPE` lines are dropped by the parser.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses Prometheus text exposition (the `GET /metrics` body) into flat
/// samples. Lines that do not parse are skipped rather than fatal — a
/// scrape mid-restart should degrade, not crash the console.
fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((head, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = if let Some((name, rest)) = head.split_once('{') {
            let body = rest.strip_suffix('}').unwrap_or(rest);
            let labels = body
                .split(',')
                .filter_map(|kv| {
                    let (k, v) = kv.split_once('=')?;
                    Some((k.to_owned(), v.trim_matches('"').to_owned()))
                })
                .collect();
            (name.to_owned(), labels)
        } else {
            (head.to_owned(), Vec::new())
        };
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    out
}

/// Looks up a sample by name, optionally requiring a `window="..."` label.
fn sample_value(samples: &[Sample], name: &str, window: Option<&str>) -> Option<f64> {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && window.is_none_or(|w| s.labels.iter().any(|(k, v)| k == "window" && v == w))
        })
        .map(|s| s.value)
}

/// Renders one `pi obs-top` refresh from parsed exposition samples.
fn render_top(addr: &str, tick: u64, samples: &[Sample]) -> String {
    let v = |name: &str, w: Option<&str>| sample_value(samples, name, w).unwrap_or(0.0);
    let mut out = format!("pi obs-top {addr}  tick {tick}\n");
    out.push_str(&format!(
        "qps {:.0}/{:.0}/{:.0} (1s/10s/60s)  shed/s {:.1}  err/s {:.1}\n",
        v("serve_requests_rate", Some("1s")),
        v("serve_requests_rate", Some("10s")),
        v("serve_requests_rate", Some("60s")),
        v("serve_shed_rate", Some("10s")),
        v("serve_responses_err_rate", Some("10s")),
    ));
    out.push_str(&format!(
        "queue {:.0} (hwm {:.0}, shed at {:.0})  batch mean {:.2}  \
         size batch mean {:.2}  plan-cache hit {:.1}%\n",
        v("serve_queue_depth", None),
        v("serve_queue_depth_hwm_total", None),
        v("serve_shed_threshold", None),
        v("serve_batch_mean", None),
        v("serve_size_batch_mean", None),
        v("serve_plan_cache_hit_rate", None) * 100.0,
    ));
    out.push_str("endpoint     p50[10s]     p99[10s]     p50[60s]     p99[60s]\n");
    for endpoint in ["request", "eval", "yield", "size", "net_yield", "other"] {
        let base = if endpoint == "request" {
            "serve_request_us".to_owned()
        } else {
            format!("serve_endpoint_{endpoint}_us")
        };
        // Endpoints that never saw traffic have no histogram yet.
        if sample_value(samples, &format!("{base}_p50"), Some("10s")).is_none() {
            continue;
        }
        out.push_str(&format!(
            "{endpoint:<12} {:>9.0}us {:>9.0}us {:>9.0}us {:>9.0}us\n",
            v(&format!("{base}_p50"), Some("10s")),
            v(&format!("{base}_p99"), Some("10s")),
            v(&format!("{base}_p50"), Some("60s")),
            v(&format!("{base}_p99"), Some("60s")),
        ));
    }
    out
}

/// `pi obs-top <host:port> [--interval S] [--count N] [--raw]` — polls the
/// server's `GET /metrics` exposition and renders a one-screen live
/// summary per tick: windowed QPS, shed and error rates, queue depth
/// against the shed threshold, batch means, and per-endpoint p50/p99 over
/// the 10 s and 60 s windows. `--count N` stops after N scrapes (default:
/// until ctrl-c). With `--raw` each scrape prints the exposition text
/// verbatim — `pi obs-top <addr> --count 1 --raw` is a zero-dependency
/// stand-in for `curl <addr>/metrics`.
fn cmd_obs_top(args: &[String]) -> Result<(), String> {
    const OBS_TOP_USAGE: &str = "usage: pi obs-top <host:port> [--interval S] [--count N] [--raw]";
    use predictive_interconnect::serve::{install_shutdown_signals, signalled, Client};
    let mut addr: Option<&str> = None;
    let mut interval_s = 2.0f64;
    let mut count = 0u64; // 0 = poll until interrupted
    let mut raw = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{OBS_TOP_USAGE}");
                return Ok(());
            }
            "--raw" => raw = true,
            "--interval" => {
                i += 1;
                let v = args.get(i).ok_or("--interval needs seconds")?;
                interval_s = v.parse().map_err(|e| format!("bad --interval: {e}"))?;
            }
            "--count" => {
                i += 1;
                let v = args.get(i).ok_or("--count needs a number")?;
                count = v.parse().map_err(|e| format!("bad --count: {e}"))?;
            }
            other if !other.starts_with("--") && addr.is_none() => addr = Some(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    let addr = addr.ok_or(OBS_TOP_USAGE)?;
    if !(interval_s.is_finite() && interval_s > 0.0) {
        return Err(format!("--interval must be positive, got {interval_s}"));
    }
    install_shutdown_signals();
    let mut tick = 0u64;
    loop {
        let body = Client::connect(addr)
            .and_then(|mut c| c.roundtrip("GET", "/metrics", b""))
            .and_then(|resp| {
                if resp.status == 200 {
                    Ok(resp.body_str()?.to_owned())
                } else {
                    Err(format!("GET /metrics returned status {}", resp.status))
                }
            })?;
        tick += 1;
        if raw {
            print!("{body}");
        } else {
            print!("{}", render_top(addr, tick, &parse_exposition(&body)));
        }
        if count != 0 && tick >= count {
            return Ok(());
        }
        // Sleep in short slices so ctrl-c lands promptly.
        let wake = std::time::Instant::now() + std::time::Duration::from_secs_f64(interval_s);
        while std::time::Instant::now() < wake {
            if signalled() {
                return Ok(());
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        if signalled() {
            return Ok(());
        }
    }
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use predictive_interconnect::serve::{
        install_shutdown_signals, signalled, IoMode, ServeConfig, Server,
    };
    let mut config = ServeConfig::from_env();
    config.port = opts.parse_or("port", config.port)?;
    config.batch_window_us = opts.parse_or("batch-window", config.batch_window_us)?;
    config.queue_depth = opts.parse_or("queue-depth", config.queue_depth)?;
    if let Some(v) = opts.get("io") {
        config.io = match v.to_ascii_lowercase().as_str() {
            "poll" => IoMode::Poll,
            "threads" => IoMode::Threads,
            other => return Err(format!("bad --io `{other}` (poll or threads)")),
        };
    }
    install_shutdown_signals();
    let mut server = Server::start(&config).map_err(|e| format!("bind failed: {e}"))?;
    println!(
        "pi serve listening on {} ({} mode)",
        server.addr(),
        server.io_mode().name()
    );
    println!(
        "endpoints: POST /v1/eval /v1/yield /v1/size /v1/net-yield | \
         GET /healthz /v1/stats | POST /admin/shutdown (or ctrl-c / SIGTERM)"
    );
    while !signalled() && !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.shutdown();
    let stats = server.stats();
    println!(
        "served {} requests in {} batches (mean batch size {:.2})",
        stats.requests.load(std::sync::atomic::Ordering::Relaxed),
        stats.batches.load(std::sync::atomic::Ordering::Relaxed),
        stats.batch_mean(),
    );
    Ok(())
}

fn cmd_load(opts: &Opts) -> Result<(), String> {
    use predictive_interconnect::serve::{run_load, LoadConfig};
    let mut config = LoadConfig::default();
    if let Some(v) = opts.get("addr") {
        config.addr = v.to_owned();
    }
    config.qps = opts.parse_or("qps", config.qps)?;
    config.concurrency = opts.parse_or("concurrency", config.concurrency)?;
    config.conns = opts.parse_or("conns", config.conns)?;
    config.duration_s = opts.parse_or("duration", config.duration_s)?;
    config.yield_pct = opts.parse_or("yield-pct", config.yield_pct)?;
    config.size_pct = opts.parse_or("size-pct", config.size_pct)?;
    config.seed = opts.parse_or("seed", config.seed)?;
    if let Some(v) = opts.get("tech") {
        config.tech = v.to_owned();
    }
    let report = run_load(&config)?;
    if opts.flag("json") {
        println!("{}", report.to_json().render());
    } else {
        println!("{}", report.render());
    }
    if report.errors > 0 {
        return Err(format!(
            "{} of {} requests failed",
            report.errors, report.sent
        ));
    }
    Ok(())
}

fn cmd_scaling(_: &Opts) -> Result<(), String> {
    use predictive_interconnect::wire::WireRc;
    println!("node   Vdd [V]  R [ohm/mm]  C [fF/mm]");
    for node in TechNode::ALL {
        let tech = Technology::new(node);
        let rc = WireRc::from_layer(tech.global_layer(), DesignStyle::SingleSpacing);
        println!(
            "{:>5}  {:>7.2}  {:>10.0}  {:>9.0}",
            node.name(),
            tech.vdd().as_v(),
            rc.r_per_m * 1e-3,
            (rc.cg_per_m + rc.cc_per_m) * 1e-3 * 1e15
        );
    }
    Ok(())
}

const USAGE: &str =
    "usage: pi <delay|optimize|reach|noc|yield|size|report|serve|load|obs-report|obs-top|scaling> [--options]
run `pi <command> --help` to list the options a command accepts.
set PI_OBS=summary or PI_OBS=jsonl[:path] to trace any command (docs/OBSERVABILITY.md)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = if cmd == "obs-report" {
        // Takes a positional journal path; not traced itself.
        cmd_obs_report(rest)
    } else if cmd == "obs-top" {
        // Takes a positional server address; a client-side poller, so
        // tracing it would only add noise to the journal.
        cmd_obs_top(rest)
    } else {
        let command = COMMANDS.iter().find(|c| c.name() == cmd);
        let run = {
            // One main-thread root span covering the whole run, so a
            // `PI_OBS=jsonl` journal has a single root.
            let _root = predictive_interconnect::obs::span(command.map_or("pi.main", |c| c.span));
            match command {
                None => Err(format!("unknown command `{cmd}`\n{USAGE}")),
                Some(c) if rest.iter().any(|a| a == "--help" || a == "-h") => {
                    println!("{}", c.usage());
                    Ok(())
                }
                Some(c) => Opts::parse(rest, c).and_then(|opts| (c.run)(&opts)),
            }
        };
        predictive_interconnect::obs::finish();
        run
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_parsing() {
        assert!((parse_length("5mm").unwrap().as_mm() - 5.0).abs() < 1e-12);
        assert!((parse_length("350um").unwrap().as_um() - 350.0).abs() < 1e-12);
        assert!((parse_length("2.5").unwrap().as_mm() - 2.5).abs() < 1e-12);
        assert!(parse_length("five").is_err());
        // Finite-positive validation: f64::parse accepts these spellings,
        // so the guard has to reject them explicitly.
        for bad in ["nan", "inf", "-inf", "-3mm", "0", "0um", "nanmm"] {
            assert!(parse_length(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn clock_parsing() {
        assert!((parse_clock("2GHz").unwrap().as_ghz() - 2.0).abs() < 1e-12);
        assert!((parse_clock("750MHz").unwrap().as_ghz() - 0.75).abs() < 1e-12);
        assert!(parse_clock("fast").is_err());
    }

    #[test]
    fn time_parsing() {
        assert!((parse_time("560ps").unwrap().as_ps() - 560.0).abs() < 1e-12);
        assert!((parse_time("1.2ns").unwrap().as_ps() - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn style_parsing() {
        assert_eq!(parse_style("ss").unwrap(), DesignStyle::SingleSpacing);
        assert_eq!(parse_style("SH").unwrap(), DesignStyle::Shielded);
        assert!(parse_style("zz").is_err());
    }

    #[test]
    fn opts_parsing_values_and_flags() {
        let args: Vec<String> = ["--tech", "65nm", "--staggered", "--length", "5mm"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let o = Opts::parse(&args, command("delay")).unwrap();
        assert_eq!(o.get("tech"), Some("65nm"));
        assert_eq!(o.get("length"), Some("5mm"));
        assert!(o.flag("staggered"));
        assert!(o.require("missing").is_err());
        assert_eq!(o.parse_or("count", 3usize), Ok(3));
        // Options outside the command's list, and values missing their
        // argument, are errors naming the option.
        for bad in [
            &["--lenght", "5mm"][..],
            &["--length"],
            &["--length", "--tech"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| (*s).to_owned()).collect();
            let err = Opts::parse(&args, command("delay"))
                .err()
                .expect("rejected");
            assert!(err.contains(bad[0]), "{err}");
        }
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS
            .iter()
            .find(|c| c.name() == name)
            .expect("known command")
    }

    #[test]
    fn opts_rejects_positional_arguments() {
        let args: Vec<String> = vec!["positional".to_owned()];
        assert!(Opts::parse(&args, command("delay")).is_err());
    }

    #[test]
    fn exposition_parsing_handles_labels_and_skips_junk() {
        let text = "# TYPE serve_requests_total counter\n\
                    serve_requests_total 128\n\
                    serve_requests_rate{window=\"1s\"} 42.5\n\
                    serve_requests_rate{window=\"60s\"} 7.25\n\
                    serve_request_us_bucket{le=\"+Inf\"} 128\n\
                    not a metric line at all\n\
                    serve_queue_depth 3\n";
        let samples = parse_exposition(text);
        assert_eq!(samples.len(), 5, "comment and junk lines dropped");
        assert_eq!(
            sample_value(&samples, "serve_requests_total", None),
            Some(128.0)
        );
        assert_eq!(
            sample_value(&samples, "serve_requests_rate", Some("1s")),
            Some(42.5)
        );
        assert_eq!(
            sample_value(&samples, "serve_requests_rate", Some("60s")),
            Some(7.25)
        );
        assert_eq!(
            sample_value(&samples, "serve_requests_rate", Some("10s")),
            None
        );
        assert_eq!(sample_value(&samples, "serve_queue_depth", None), Some(3.0));
        assert_eq!(sample_value(&samples, "missing", None), None);
    }

    #[test]
    fn obs_top_renders_rates_and_endpoint_rows() {
        let text = "serve_requests_rate{window=\"1s\"} 1000\n\
                    serve_requests_rate{window=\"10s\"} 950\n\
                    serve_requests_rate{window=\"60s\"} 900\n\
                    serve_queue_depth 2\n\
                    serve_shed_threshold 768\n\
                    serve_batch_mean 7.5\n\
                    serve_plan_cache_hit_rate 0.93\n\
                    serve_request_us_p50{window=\"10s\"} 210\n\
                    serve_request_us_p99{window=\"10s\"} 900\n\
                    serve_request_us_p50{window=\"60s\"} 215\n\
                    serve_request_us_p99{window=\"60s\"} 950\n\
                    serve_endpoint_eval_us_p50{window=\"10s\"} 200\n\
                    serve_endpoint_eval_us_p99{window=\"10s\"} 850\n";
        let top = render_top("127.0.0.1:7878", 3, &parse_exposition(text));
        assert!(top.contains("tick 3"));
        assert!(top.contains("qps 1000/950/900 (1s/10s/60s)"));
        assert!(top.contains("queue 2 (hwm 0, shed at 768)"));
        assert!(top.contains("plan-cache hit 93.0%"));
        assert!(top.contains("request"));
        assert!(top.contains("eval"));
        assert!(!top.contains("net_yield"), "traffic-free endpoints hidden");
    }
}
