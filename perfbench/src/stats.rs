//! Exact order statistics over raw samples, and process figures.

/// The `q`-quantile (nearest rank) of `samples`, which it sorts.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Whether at least ten of `n` samples lie beyond the `q`-quantile — the
/// rule for reporting a percentile at all.
pub fn supported(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank + 10
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    quantile(&mut v, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `VmHWM` of this process in MiB (peak resident set).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Bytes of a file, 0 if it does not exist.
pub fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Machine-wide processor time from `/proc/stat`: (busy, steal, total)
/// clock ticks since boot. Steal is time the hypervisor gave to others.
pub fn cpu_ticks() -> (u64, u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    let get = |i: usize| v.get(i).copied().unwrap_or(0);
    let total: u64 = v.iter().take(8).sum();
    let idle = get(3) + get(4);
    (total - idle - get(7), get(7), total)
}

/// "busy x%, steal y%" of the machine between two [`cpu_ticks`] readings.
pub fn cpu_share(before: (u64, u64, u64), after: (u64, u64, u64)) -> String {
    let total = (after.2 - before.2).max(1) as f64;
    format!(
        "machine processors busy {:.0}%, stolen by the hypervisor {:.1}%",
        100.0 * (after.0 - before.0) as f64 / total,
        100.0 * (after.1 - before.1) as f64 / total
    )
}
