//! Measurement helpers shared by every workload: order statistics, the
//! per-run op record, peak memory and the metric list a run reports.

use std::time::{Duration, Instant};

/// One reported metric: name, value and unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in the order they are printed.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and returns its median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 0.5)
}

/// Quartiles `(q1, median, q3)` with the same interpolation as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// repeat mode reports the spreads an external check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        let m = (n + 1) as i64;
        let j = (i as i64 * m / 4).clamp(1, n as i64 - 1);
        let delta = i as i64 * m - j * 4;
        let j = j as usize;
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A run's timing metrics are medians over at most this many equal
/// windows of the run; see [`OpRecord::end_to_end`].
const MAX_WINDOWS: usize = 30;

/// The closed-loop record of one run: every op attempted, how many
/// failed, the completion time and latency of each op that completed,
/// and the wall time of the measured window.
#[derive(Debug)]
pub struct OpRecord {
    pub attempted: u64,
    pub failed: u64,
    start: Instant,
    /// (seconds from `start` to completion, latency in µs) per completed
    /// op; `f32` halves the record's share of peak RSS.
    done: Vec<(f32, f32)>,
    pub window: Duration,
}

impl OpRecord {
    /// An empty record of a window that began at `start`. Reserves room
    /// for every op up front: pages are only touched as ops are written,
    /// so the record adds to peak RSS in proportion to the ops run instead
    /// of in doubling steps.
    pub fn new(start: Instant) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            start,
            done: Vec::with_capacity(1 << 22),
            window: Duration::ZERO,
        }
    }

    /// Records an op that completed just now after `latency_us`.
    pub fn complete(&mut self, latency_us: f64) {
        let end = self.start.elapsed().as_secs_f32();
        self.done.push((end, latency_us as f32));
    }

    /// Adds another record of the same window (same `start`).
    pub fn merge(&mut self, other: OpRecord) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.done.extend(other.done);
        self.window = self.window.max(other.window);
    }

    /// Throughput, median and tail metrics, each the median of its value
    /// over equal windows of the run, so a burst of host noise shorter
    /// than half the run does not move it. `tail` is the workload's fixed
    /// tail percentile (0.99 or 0.90); the run has as many windows as
    /// keep ten ops beyond it in each, at most [`MAX_WINDOWS`].
    pub fn end_to_end(&mut self, tail: f64) -> Metrics {
        let min_ops = (10.0 / (1.0 - tail)).round() as usize;
        let k = (self.done.len() / min_ops).clamp(1, MAX_WINDOWS);
        let width = self.window.as_secs_f64() / k as f64;
        self.done.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut rate, mut p50, mut p_tail) = (Vec::new(), Vec::new(), Vec::new());
        let mut lat = Vec::new();
        let mut rest = &self.done[..];
        for w in 1..=k {
            let edge = (w as f64 * width) as f32;
            let n = if w == k {
                rest.len()
            } else {
                rest.partition_point(|op| op.0 < edge)
            };
            let (window, tail_ops) = rest.split_at(n);
            rest = tail_ops;
            rate.push(n as f64 / width);
            if window.is_empty() {
                continue;
            }
            lat.clear();
            lat.extend(window.iter().map(|op| f64::from(op.1)));
            lat.sort_by(f64::total_cmp);
            p50.push(percentile_sorted(&lat, 0.5));
            p_tail.push(percentile_sorted(&lat, tail));
            if n < min_ops {
                eprintln!(
                    "warning: a window of {n} ops has fewer than ten beyond p{:.0}",
                    tail * 100.0
                );
            }
        }
        let mut m = Metrics::default();
        m.push("throughput_per_s", median(&rate), "1/s");
        if p50.is_empty() {
            return m;
        }
        m.push("op_p50_us", median(&p50), "us");
        m.push("op_tail_us", median(&p_tail), "us");
        m
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The number of CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A deterministic 64-bit mixer (SplitMix64 finalizer) used to derive
/// every input of a run from its `--seed`.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates over [`mix`]).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5], n=4) == [1.25, 2.5, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0]), (1.25, 2.5, 4.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
    }

    #[test]
    fn windowed_metrics_are_medians_over_windows() {
        let start = Instant::now();
        let mut rec = OpRecord::new(start);
        // 3000 ops over 3 s: three p99 windows of 1000, one of them slow.
        for i in 0..3000 {
            let lat = if i < 1000 { 500.0 } else { 100.0 };
            rec.done.push((i as f32 / 1000.0, lat));
        }
        rec.attempted = 3000;
        rec.window = Duration::from_secs(3);
        let m = rec.end_to_end(0.99);
        let get = |n: &str| m.0.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("throughput_per_s"), 1000.0);
        assert_eq!(get("op_p50_us"), 100.0);
        assert_eq!(get("op_tail_us"), 100.0);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(50, 7);
        assert_ne!(p, (0..50).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }
}
