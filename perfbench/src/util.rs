//! Seeded input streams, order statistics and `/proc/self` readings.

use std::time::Instant;

/// A splitmix64 stream: the benchmark's only source of randomness, so the
/// same `--seed` always generates the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6265_6e63_686d_6b21)
    }

    /// An independent stream for `(seed, lane)`, e.g. one per client.
    pub fn lane(seed: u64, lane: u64) -> Self {
        Self::new(monityre_obs::splitmix64(
            seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        monityre_obs::splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Zipf(s = 1) ranks over `n` items, sampled by inverting the CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Exclusive quartile-style quantile (linear between order statistics),
/// the estimator Python's `statistics.quantiles` uses.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latency percentile in milliseconds from nanosecond samples.
pub fn percentile_ms(samples_ns: &[u64], q: f64) -> f64 {
    let values: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    quantile(&values, q)
}

/// Process resource readings from `/proc/self`; `None` off Linux.
#[derive(Debug, Clone, Copy)]
pub struct ProcReading {
    pub vm_hwm_kb: u64,
    pub vm_size_kb: u64,
    pub threads: u64,
    pub maps: u64,
}

pub fn read_proc() -> Option<ProcReading> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| -> Option<u64> {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    };
    let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
    Some(ProcReading {
        vm_hwm_kb: field("VmHWM:")?,
        vm_size_kb: field("VmSize:")?,
        threads: field("Threads:")?,
        maps: maps.lines().count() as u64,
    })
}

/// This process's VmHWM (peak resident set) in MB; NaN off Linux. The
/// workloads read it once they have done a fixed amount of work, so the
/// figure is memory per that work, not per second of run.
pub fn vm_hwm_mb() -> f64 {
    read_proc().map_or(f64::NAN, |p| p.vm_hwm_kb as f64 / 1024.0)
}

/// Records threads, VmSize and mappings of this process — read while the
/// workload's threads (and server) are still alive — as per-layer
/// readings.
pub fn record_proc(layer: &mut std::collections::BTreeMap<&'static str, f64>) {
    if let Some(proc) = read_proc() {
        layer.insert("process.threads", proc.threads as f64);
        layer.insert("process.vm_mb", proc.vm_size_kb as f64 / 1024.0);
        layer.insert("process.maps", proc.maps as f64);
    }
}

/// The `q` quantile (microseconds) of a Prometheus histogram in the
/// server's `metrics` text, interpolated inside the bucket that holds it
/// the way `histogram_quantile` does.
pub fn prometheus_quantile_us(text: &str, histogram: &str, q: f64) -> Option<f64> {
    let prefix = format!("{histogram}_seconds_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let (le, tail) = rest.split_once("\"}")?;
        let count: f64 = tail.split_whitespace().next()?.parse().ok()?;
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().ok()?
        };
        buckets.push((le, count));
    }
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = q * total;
    let mut lower = (0.0, 0.0);
    for &(le, count) in &buckets {
        if count >= rank {
            if le.is_infinite() {
                return Some(lower.0 * 1e6);
            }
            let share = if count > lower.1 {
                (rank - lower.1) / (count - lower.1)
            } else {
                0.0
            };
            return Some((lower.0 + (le - lower.0) * share) * 1e6);
        }
        lower = (le, count);
    }
    None
}
