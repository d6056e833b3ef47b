//! Small numeric helpers: quantiles, medians, the outcome digest and the
//! process's peak resident memory.

use ars::core::QueryOutcome;

/// A measurement that reads as `f64` (`u64` nanoseconds and counts are
/// far below 2^53).
pub trait Sample: Copy {
    fn f64(self) -> f64;
}

impl Sample for f64 {
    fn f64(self) -> f64 {
        self
    }
}

impl Sample for u64 {
    fn f64(self) -> f64 {
        self as f64
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule on a
/// sorted copy. Returns 0 for an empty slice.
pub fn quantile<T: Sample>(values: &[T], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.iter().map(|&v| v.f64()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a, fed field by field.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Every field of an outcome.
    pub fn outcome(&mut self, o: &QueryOutcome) {
        let ranges = std::iter::once(&o.query).chain(o.best_match.as_ref());
        for r in ranges {
            self.u64(r.intervals().len() as u64);
            for &(lo, hi) in r.intervals() {
                self.u64(((lo as u64) << 32) | hi as u64);
            }
        }
        self.u64(o.best_match.is_some() as u64);
        self.u64(o.similarity.to_bits());
        self.u64(o.recall.to_bits());
        self.u64(o.exact as u64);
        self.u64(o.stored as u64);
        self.u64(o.hops.len() as u64);
        for &h in &o.hops {
            self.u64(h as u64);
        }
        for &id in &o.identifiers {
            self.u64(id as u64);
        }
        self.u64(o.peers_contacted as u64);
        self.u64(o.attempts as u64);
        self.u64(o.fell_back_to_source as u64);
        self.u64(o.partition_degraded as u64);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
