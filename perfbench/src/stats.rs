//! Exact sample statistics, process memory and the benchmark's own
//! seeded random numbers.

use std::time::Duration;

/// Raw latency samples of one operation kind, kept in full so every
/// quantile is an exact order statistic.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.values.push(d.as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The nearest-rank `p`-quantile in seconds: the smallest sample with
    /// at least `p` of all samples at or below it. `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        nearest_rank(&v, p)
    }

    /// How many samples lie strictly above the `p`-quantile: the tail a
    /// percentile rests on.
    pub fn beyond(&self, p: f64) -> usize {
        match self.quantile(p) {
            Some(q) => self.values.iter().filter(|&&x| x > q).count(),
            None => 0,
        }
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }
}

fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a small set of repeated measurements (set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5).unwrap_or(0.0)
}

/// A field of `/proc/self/status` in MiB (`VmHWM`, `VmRSS`); 0 where the
/// file does not exist.
pub fn proc_status_mib(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's CPU time so far, in ticks: `(steal, total)` from the first
/// line of `/proc/stat`; `None` where it is unavailable. Steal is time a
/// virtual CPU was runnable but the hypervisor ran something else.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// splitmix64: the benchmark's own seeded choices (operation mixes,
/// round-robin orders). Workload structure comes from the seeded
/// generators of `eve-workload`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponentially distributed with mean 1: the gaps of a Poisson
    /// arrival process.
    pub fn exponential(&mut self) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        -(1.0 - u).ln()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for ms in 1..=100u64 {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.quantile(0.5), Some(0.050));
        assert_eq!(s.quantile(0.9), Some(0.090));
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(s.quantile(1.0), Some(0.100));
    }
}
