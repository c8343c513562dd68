//! Sample statistics and process / machine facts read from `/proc`.

use std::path::Path;

/// The `q`-quantile (0..=1) of `samples` by nearest rank; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Fewest samples in one window of [`windowed`]: ten beyond a p90.
const WINDOW_MIN: usize = 100;
/// Most windows [`windowed`] cuts a run into.
const WINDOWS_MAX: usize = 5;

/// `stat` of a run's samples, robust to a disturbance that hits only part
/// of the run: the samples are cut, in order, into up to five windows of
/// at least 100 each, and the median of `stat` over the windows is
/// returned. A run with fewer than 200 samples is one window.
pub fn windowed(samples: &[f64], mut stat: impl FnMut(&[f64]) -> f64) -> f64 {
    let n = samples.len();
    let w = (n / WINDOW_MIN).clamp(1, WINDOWS_MAX);
    let stats: Vec<f64> = (0..w)
        .map(|i| stat(&samples[i * n / w..(i + 1) * n / w]))
        .collect();
    median(&stats)
}

/// Nanosecond samples as milliseconds.
pub fn ns_to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// User + system CPU time of this process, in milliseconds.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 1000.0 / CLOCK_TICKS_PER_S
}

/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The machine facts each result is recorded with.
pub fn machine_lines(data_dir: &Path) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|l| {
            l.trim_start_matches([' ', '\t', ':'])
                .split_whitespace()
                .collect()
        })
        .unwrap_or_default();
    let has = |f: &str| if flags.contains(&f) { "yes" } else { "no" };
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |l| l.trim_start_matches([' ', '\t', ':']));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
    vec![
        format!("machine: nproc={nproc} cpu=\"{model}\""),
        format!(
            "machine: sha_ni={} avx2={} avx512f={} kernel={kernel}",
            has("sha_ni"),
            has("avx2"),
            has("avx512f")
        ),
        format!(
            "machine: data_dir={} fs={}",
            data_dir.display(),
            filesystem_of(data_dir)
        ),
    ]
}

/// Filesystem type of the mount holding `path` (from `/proc/self/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_dev, at, fs) = (it.next()?, it.next()?, it.next()?);
            path.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(quantile(&s, 0.9), 90.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn windows_hold_at_least_a_hundred_samples() {
        let lens = |n: usize| {
            let s = vec![1.0; n];
            let mut seen = Vec::new();
            windowed(&s, |w| {
                seen.push(w.len());
                0.0
            });
            seen
        };
        assert_eq!(lens(150), vec![150]);
        assert_eq!(lens(250), vec![125, 125]);
        assert_eq!(lens(2001).len(), 5);
        assert!(lens(501).iter().all(|&l| l >= 100));
        // One slow window out of five does not move the result.
        let mut s = vec![10.0; 1000];
        s[..200].fill(50.0);
        assert_eq!(windowed(&s, |w| quantile(w, 0.9)), 10.0);
    }
}
