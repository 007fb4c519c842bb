//! Small statistics helpers shared by the workloads.

use std::time::Instant;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples;
/// `0` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Smallest of the samples; `0` for an empty set. The figure reported for
/// identical work repeated within a run (a set-up, one batch of sizing
/// queries): host contention only ever adds time to a repetition, so the
/// fastest is the one least disturbed.
pub fn fastest(samples: &[f64]) -> f64 {
    quantile(samples, 0.0)
}

/// Median of unsorted samples; `0` for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The quantile over a run's windows that is reported (the lower
/// quartile): up to three quarters of the windows may be disturbed
/// without moving a figure.
pub const QUIET: f64 = 0.25;

/// `(p50, p95)` of answer latencies taken per window, then the lower
/// quartile of each over the windows. The host's vCPU preemptions come in
/// bursts that only ever add latency (a disturbed second's p95 reads 2–10×
/// a quiet one's), so the quiet windows show the program's own cost while
/// still moving with every change to it.
pub fn windowed(windows: &[Vec<f64>]) -> (f64, f64) {
    let p50: Vec<f64> = windows.iter().map(|w| median(w)).collect();
    let p95: Vec<f64> = windows.iter().map(|w| quantile(w, 0.95)).collect();
    (quantile(&p50, QUIET), quantile(&p95, QUIET))
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `num / den`, or `0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
