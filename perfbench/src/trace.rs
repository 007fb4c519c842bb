//! Switching the program's own `pi_obs` counters on for the traced run.
//!
//! The benchmark adds no probe to the program: per-layer counts come from
//! the counters and spans the crates already record, read back through
//! `pi_obs::snapshot`, while the benchmark's own spans are plain
//! `Instant` timings around each public call.

/// The `PI_THREADS` value timed work runs at. On a small shared host,
/// `pi_rt::par_map` spawning its workers on every call makes
/// default-thread timings swing by several times with the host's load,
/// while serial timings repeat; the default-thread path is measured
/// separately through [`at_default_threads`].
pub const SERIAL: &str = "1";

/// Runs `f` at the program's default thread count (`PI_THREADS` unset),
/// then restores [`SERIAL`]. Call only while no other thread runs.
pub fn at_default_threads<R>(f: impl FnOnce() -> R) -> R {
    std::env::remove_var("PI_THREADS");
    let r = f();
    std::env::set_var("PI_THREADS", SERIAL);
    r
}

/// Turns `pi_obs` aggregation on (summary mode, in memory) with a clean
/// slate. Call only while no other thread is probing.
pub fn start() {
    std::env::set_var("PI_OBS", "summary");
    pi_obs::reinit_from_env();
}

/// Reads the aggregate and turns `pi_obs` off again.
pub fn stop() -> pi_obs::Snapshot {
    let snap = pi_obs::snapshot();
    std::env::remove_var("PI_OBS");
    pi_obs::reinit_from_env();
    snap
}

/// Number of completed spans named `name`.
pub fn span_count(snap: &pi_obs::Snapshot, name: &str) -> u64 {
    snap.spans.get(name).map_or(0, |s| s.count)
}
