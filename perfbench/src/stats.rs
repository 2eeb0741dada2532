//! Order statistics, a latency recorder that keeps every sample, and the
//! process counters read from `/proc`.

use std::time::Duration;

/// Linearly interpolated `q`-quantile of an ascending slice (the
/// "linear" method of NumPy and of Python's `statistics.quantiles`
/// inclusive mode). `None` when the slice is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of unsorted values; 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5).unwrap_or(0.0)
}

/// Mean of the values; 0 for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples below this many nanoseconds are counted in a dense array
/// indexed by the exact value; slower ones are stored individually.
const FINE_NS: usize = 1 << 16;

/// Every latency sample of a phase at nanosecond resolution.
///
/// A cache-served job completes in well under a microsecond, so a run
/// can produce tens of millions of samples; those land in a dense count
/// array (256 KiB) instead of a vector that grows with the run. Samples
/// of 65 µs or more are rare enough at that rate to keep one by one.
pub struct LatencyRecorder {
    fine: Vec<u32>,
    coarse: Vec<u64>,
    count: u64,
}

impl LatencyRecorder {
    pub fn new() -> Self {
        let mut fine = vec![0u32; FINE_NS];
        // Touch every page now, so the recorder's share of the peak RSS
        // does not depend on which latencies happen to occur.
        for i in (0..FINE_NS).step_by(1024) {
            fine[i] = std::hint::black_box(0);
        }
        LatencyRecorder {
            fine,
            // Reserved up front so its pages fill in proportion to the
            // slow samples, without capacity-doubling steps.
            coarse: Vec::with_capacity(1 << 18),
            count: 0,
        }
    }

    /// Forgets every sample, keeping the memory.
    pub fn clear(&mut self) {
        self.fine.fill(0);
        self.coarse.clear();
        self.count = 0;
    }

    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        match usize::try_from(ns).ok().and_then(|i| self.fine.get_mut(i)) {
            Some(slot) => *slot += 1,
            None => self.coarse.push(ns),
        }
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `k`-th smallest sample (0-based), in nanoseconds.
    fn order_statistic(&self, k: u64, coarse_sorted: &[u64]) -> u64 {
        let mut seen = 0u64;
        for (ns, &c) in self.fine.iter().enumerate() {
            seen += u64::from(c);
            if seen > k {
                return ns as u64;
            }
        }
        coarse_sorted[(k - seen) as usize]
    }

    /// Linearly interpolated `q`-quantile in milliseconds; 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut coarse = self.coarse.clone();
        coarse.sort_unstable();
        let pos = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let lo = pos.floor() as u64;
        let hi = (lo + 1).min(self.count - 1);
        let a = self.order_statistic(lo, &coarse) as f64;
        let b = self.order_statistic(hi, &coarse) as f64;
        (a + (b - a) * (pos - lo as f64)) * 1e-6
    }
}

/// CPU seconds every live thread of this process has run so far, at
/// nanosecond resolution (`/proc/self/task/*/schedstat`).
pub fn process_cpu_seconds() -> f64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task");
    let mut ns = 0u64;
    for task in tasks.flatten() {
        // A thread that exits between the listing and the read has no
        // file left; its time is gone either way.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .expect("schedstat starts with the on-CPU nanoseconds");
        }
    }
    ns as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantiles_match_linear_method() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&v, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn recorder_merges_fine_and_coarse_samples() {
        let mut r = LatencyRecorder::new();
        for ns in [500u64, 2_000_000, 1_000, 3_000_000] {
            r.record(Duration::from_nanos(ns));
        }
        assert_eq!(r.count(), 4);
        // Sorted: 500, 1000, 2e6, 3e6 ns; the median interpolates the
        // middle pair.
        let p50 = r.quantile_ms(0.5);
        assert!((p50 - 1.0005).abs() < 1e-9, "{p50}");
        assert!((r.quantile_ms(1.0) - 3.0).abs() < 1e-9);
    }
}
