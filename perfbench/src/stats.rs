//! Small measurement helpers: order statistics, the output digest, peak
//! memory, and the ledger of attempted and failed operations.

use std::fmt::{self, Write};

use sdfm_types::stats::{percentile, Percentile};

/// Median of `samples` (`0.0` when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, Percentile::P50).unwrap_or(0.0)
}

/// The tail percentile reported as `p9x`: the highest of p99, p95 and
/// p90 that still has at least ten samples beyond it, or p90 when the
/// sample is too small for any of them. Returns `(percentile, value)`.
pub fn p9x(samples: &[f64]) -> (u32, f64) {
    let n = samples.len() as f64;
    let p = [99u32, 95, 90]
        .into_iter()
        .find(|&p| n * (1.0 - f64::from(p) / 100.0) >= 10.0)
        .unwrap_or(90);
    let tail = Percentile::new(f64::from(p)).expect("90, 95 and 99 are percentiles");
    (p, percentile(samples, tail).unwrap_or(0.0))
}

/// Nanosecond samples as milliseconds.
pub fn ns_to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// 64-bit FNV-1a over everything written into it. The workloads feed it
/// the `Debug` rendering of their simulated outputs: `Debug` prints every
/// field and the shortest round-tripping form of every float, so two
/// outputs hash equal only when they are identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds the `Debug` rendering of `value` into the digest.
    pub fn add(&mut self, value: &impl fmt::Debug) {
        // Writing into the hasher cannot fail.
        let _ = write!(self, "{value:?};");
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `0.0`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Attempted and failed operations of one run. Workload steps, kernel
/// calls and correctness checks all count; every failure keeps a line
/// saying what failed.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records one operation; `what` describes it when it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(what());
            }
        }
    }

    /// Records a fallible step, returning its value when it succeeded.
    pub fn step<T, E: fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.op(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p9x_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(p9x(&xs).0, 99);
        assert_eq!(p9x(&xs[..200]).0, 95);
        assert_eq!(p9x(&xs[..100]).0, 90);
        assert_eq!(p9x(&xs[..20]).0, 90);
        assert_eq!(p9x(&[]), (90, 0.0));
    }

    #[test]
    fn digest_separates_values() {
        let mut a = Digest::default();
        a.add(&(1u32, 2.5f64));
        let mut b = Digest::default();
        b.add(&(1u32, 2.5f64));
        let mut c = Digest::default();
        c.add(&(1u32, 2.5000001f64));
        assert_eq!(a.value(), b.value());
        assert_ne!(a.value(), c.value());
    }

    #[test]
    fn ledger_counts_failures() {
        let mut l = Ledger::default();
        l.op(true, || unreachable!());
        assert_eq!(l.step("s", Err::<(), _>("boom")), None);
        assert_eq!((l.attempted, l.failed), (2, 1));
        assert_eq!(l.failures, vec!["s: boom".to_string()]);
    }
}
