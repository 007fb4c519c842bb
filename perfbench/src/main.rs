//! `pi-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <serve_mix|offline_size|noc_yield> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload makes its inputs from `--seed`, sets up several times
//! (reporting the median as `setup_s`), runs a fixed amount of work sized
//! by `--seconds`, checks every output it can, and prints one JSON object
//! as the last line of stdout: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. A human-readable summary goes
//! to stderr. See `perfbench/README.md` for the metric definitions.

mod load;
mod metrics;
mod noc;
mod offline;
mod quality;
mod serve_mix;
mod setup;
mod stats;
mod trace;

use std::process::ExitCode;

use metrics::Outcome;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Nominal measuring time; sets the fixed amount of work.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop HTTP mix against an in-process server.
    ServeMix,
    /// Batched ladder and GP sizing of a fixed query set.
    OfflineSize,
    /// Yield-filtered NoC synthesis of the two testcases.
    NocYield,
}

const USAGE: &str = "usage: pi-perfbench --workload <serve_mix|offline_size|noc_yield> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve_mix" => Workload::ServeMix,
                    "offline_size" => Workload::OfflineSize,
                    "noc_yield" => Workload::NocYield,
                    other => return Err(format!("unknown workload `{other}`")),
                });
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?);
            }
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in [1, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pi-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The benchmark fixes the program's knobs: observability is driven by
    // `--trace`, never by a stray environment variable, and the
    // characterization cache stays in memory. Timed work runs with one
    // worker thread (see `trace::SERIAL`); the traced run times the
    // default thread count separately as `rt.speedup_vs_serial`.
    std::env::remove_var("PI_OBS");
    std::env::remove_var("PI_CHAR_CACHE");
    std::env::set_var("PI_THREADS", trace::SERIAL);
    pi_obs::reinit_from_env();

    let outcome: Result<Outcome, String> = match args.workload {
        Workload::ServeMix => serve_mix::run(&args),
        Workload::OfflineSize => offline::run(&args),
        Workload::NocYield => noc::run(&args),
    };
    match outcome {
        Ok(outcome) => {
            eprint!("{}", outcome.summary());
            println!("{}", outcome.result_line(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pi-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
