//! Host and run fingerprint, process memory, and the order statistics
//! every reported number goes through.

use std::path::Path;
use std::time::Instant;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1)
}

/// CPU model string from `/proc/cpuinfo` (`"unknown"` elsewhere).
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| {
            let (key, value) = l.split_once(':')?;
            matches!(key.trim(), "model name" | "Model" | "cpu model")
                .then(|| value.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Process memory high-water mark (`VmHWM`) in MiB; 0 where the kernel
/// does not publish it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out under `root`, read from `.git` without
/// running git; `"unknown"` for a plain source tree.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The benchmark's clock: every time a run reports is read through
/// [`now`] and [`secs_since`].
pub fn now() -> Instant {
    // ct: allow(the benchmark measures wall time by design)
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    // ct: allow(the benchmark measures wall time by design)
    t.elapsed().as_secs_f64()
}

/// Sum in iteration order, so a report's totals never depend on how a
/// reduction is associated.
pub fn total(xs: impl IntoIterator<Item = f64>) -> f64 {
    // ct: allow(pinned fold: one sequential in-order sum)
    xs.into_iter().fold(0.0, |a, b| a + b)
}

/// Median (mean of the middle pair for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `p ∈ (0, 1]`; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.8), 8.0);
        assert_eq!(percentile(&[], 0.8), 0.0);
    }
}
