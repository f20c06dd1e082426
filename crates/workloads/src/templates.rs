//! Job archetype templates.
//!
//! Each template describes one family of WSC applications with
//! characteristic memory size, page-popularity skew, frozen-tail size
//! (never-touched data: caches of stale entries, archival buffers, leaked
//! allocations), diurnal sensitivity, and content mix. Sampling a template
//! yields a concrete [`JobProfile`] with per-job variation — the source of
//! the fleet heterogeneity in Figures 2 and 3.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::profile::{DiurnalPattern, JobPriority, JobProfile, RateBucket};
use sdfm_compress::gen::{CompressibilityMix, PageClass};
use sdfm_types::time::SimDuration;

/// Buckets in the hot band (rates from `top_rate` down to the hot floor).
const HOT_BUCKETS: usize = 8;
/// Buckets in the warm band (rates spanning the threshold-control zone).
const WARM_BUCKETS: usize = 12;
/// Buckets in the cool band.
const COOL_BUCKETS: usize = 8;
/// Slowest "hot" rate: touched about once a minute, safely inside any
/// working set.
const HOT_FLOOR: f64 = 1.0 / 60.0;
/// Warm band: idle times ~1.5 minutes to 1 hour. This is where the SLO
/// bites — accesses to these pages are the would-be promotions that force
/// the controller's threshold upward, so most of this band stays in DRAM.
const WARM_FAST: f64 = 1.0 / 90.0;
const WARM_SLOW: f64 = 1.0 / 3_600.0;
/// Cool band: idle 1–8 hours; cheap to keep in far memory, the bulk of
/// realized coverage.
const COOL_FAST: f64 = 1.0 / 4_000.0;
const COOL_SLOW: f64 = 1.0 / 28_800.0;
/// Rate of "frozen" pages: about one touch per month.
const FROZEN_RATE: f64 = 1.0 / (30.0 * 86_400.0);

/// The job archetypes the synthetic fleet is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobTemplate {
    /// User-facing web serving: small, hot, strongly diurnal.
    WebFrontend,
    /// Bigtable-like storage serving: large caches, diurnal, moderate
    /// cold tail (the §6.4 case study).
    Bigtable,
    /// ML training pipelines: throughput-oriented, large working sets.
    MlTraining,
    /// Batch analytics: bursty scans over mostly-cold data.
    BatchAnalytics,
    /// In-memory key-value cache: very large cold tail of stale entries.
    KeyValueCache,
    /// Video/media serving: incompressible buffers, moderate cold tail.
    VideoServer,
    /// Log ingestion/archival: write-once data that goes cold fast.
    LogProcessor,
}

impl JobTemplate {
    /// All templates.
    pub const ALL: [JobTemplate; 7] = [
        JobTemplate::WebFrontend,
        JobTemplate::Bigtable,
        JobTemplate::MlTraining,
        JobTemplate::BatchAnalytics,
        JobTemplate::KeyValueCache,
        JobTemplate::VideoServer,
        JobTemplate::LogProcessor,
    ];

    /// Default mixture weight of this template in a generic cluster,
    /// tuned so the fleet-average cold fraction at the 120 s threshold
    /// lands near the paper's 32% (Figure 1).
    pub fn fleet_weight(self) -> f64 {
        match self {
            JobTemplate::WebFrontend => 0.22,
            JobTemplate::Bigtable => 0.18,
            JobTemplate::MlTraining => 0.14,
            JobTemplate::BatchAnalytics => 0.16,
            JobTemplate::KeyValueCache => 0.12,
            JobTemplate::VideoServer => 0.08,
            JobTemplate::LogProcessor => 0.10,
        }
    }

    fn params(self) -> TemplateParams {
        match self {
            JobTemplate::WebFrontend => TemplateParams {
                pages: (2_000, 10_000),
                frozen_frac: (0.005, 0.02),
                warm_frac: (0.03, 0.09),
                cool_frac: (0.01, 0.05),
                burst_hours: (6.0, 24.0),
                top_rate: (1.0, 5.0),
                diurnal_amp: (0.4, 0.7),
                cores: (0.5, 4.0),
                lifetime_hours: (24.0, 24.0 * 14.0),
                priority: JobPriority::LatencySensitive,
                mix_bias: Some((PageClass::Text, 2.0)),
            },
            JobTemplate::Bigtable => TemplateParams {
                pages: (20_000, 120_000),
                frozen_frac: (0.01, 0.05),
                warm_frac: (0.08, 0.16),
                cool_frac: (0.03, 0.08),
                burst_hours: (12.0, 48.0),
                top_rate: (0.5, 3.0),
                diurnal_amp: (0.3, 0.6),
                cores: (2.0, 12.0),
                lifetime_hours: (24.0 * 7.0, 24.0 * 60.0),
                priority: JobPriority::LatencySensitive,
                mix_bias: Some((PageClass::StructuredRecords, 2.5)),
            },
            JobTemplate::MlTraining => TemplateParams {
                pages: (10_000, 60_000),
                frozen_frac: (0.02, 0.06),
                warm_frac: (0.12, 0.24),
                cool_frac: (0.05, 0.12),
                burst_hours: (2.0, 8.0),
                top_rate: (0.5, 2.0),
                diurnal_amp: (0.0, 0.15),
                cores: (4.0, 16.0),
                lifetime_hours: (4.0, 72.0),
                priority: JobPriority::Batch,
                mix_bias: Some((PageClass::HeapPointers, 1.8)),
            },
            JobTemplate::BatchAnalytics => TemplateParams {
                pages: (5_000, 50_000),
                frozen_frac: (0.03, 0.09),
                warm_frac: (0.18, 0.32),
                cool_frac: (0.08, 0.16),
                burst_hours: (2.0, 6.0),
                top_rate: (0.2, 1.5),
                diurnal_amp: (0.0, 0.3),
                cores: (1.0, 8.0),
                lifetime_hours: (1.0, 24.0),
                priority: JobPriority::Batch,
                mix_bias: None,
            },
            JobTemplate::KeyValueCache => TemplateParams {
                pages: (10_000, 100_000),
                frozen_frac: (0.05, 0.15),
                warm_frac: (0.22, 0.38),
                cool_frac: (0.10, 0.20),
                burst_hours: (24.0, 96.0),
                top_rate: (1.0, 6.0),
                diurnal_amp: (0.2, 0.5),
                cores: (0.5, 4.0),
                lifetime_hours: (24.0 * 3.0, 24.0 * 30.0),
                priority: JobPriority::LatencySensitive,
                mix_bias: Some((PageClass::StructuredRecords, 1.6)),
            },
            JobTemplate::VideoServer => TemplateParams {
                pages: (5_000, 40_000),
                frozen_frac: (0.03, 0.08),
                warm_frac: (0.12, 0.24),
                cool_frac: (0.06, 0.12),
                burst_hours: (12.0, 48.0),
                top_rate: (0.5, 2.0),
                diurnal_amp: (0.3, 0.6),
                cores: (1.0, 6.0),
                lifetime_hours: (24.0, 24.0 * 14.0),
                priority: JobPriority::LatencySensitive,
                mix_bias: Some((PageClass::Multimedia, 4.0)),
            },
            JobTemplate::LogProcessor => TemplateParams {
                pages: (2_000, 25_000),
                frozen_frac: (0.06, 0.18),
                warm_frac: (0.22, 0.38),
                cool_frac: (0.12, 0.28),
                burst_hours: (4.0, 12.0),
                top_rate: (0.3, 2.0),
                diurnal_amp: (0.1, 0.3),
                cores: (0.5, 3.0),
                lifetime_hours: (6.0, 24.0 * 7.0),
                priority: JobPriority::BestEffort,
                mix_bias: Some((PageClass::Text, 3.0)),
            },
        }
    }

    /// Samples a concrete job profile from this template.
    pub fn sample_profile<R: Rng + ?Sized>(self, rng: &mut R) -> JobProfile {
        let p = self.params();
        let pages = rng.gen_range(p.pages.0..=p.pages.1);
        let warm_frac = rng.gen_range(p.warm_frac.0..=p.warm_frac.1);
        let cool_frac = rng.gen_range(p.cool_frac.0..=p.cool_frac.1);
        let frozen_frac = rng.gen_range(p.frozen_frac.0..=p.frozen_frac.1);
        let top_rate = rng.gen_range(p.top_rate.0..=p.top_rate.1);
        let rate_buckets = band_rate_buckets(pages, warm_frac, cool_frac, frozen_frac, top_rate);
        let amplitude = rng.gen_range(p.diurnal_amp.0..=p.diurnal_amp.1);
        // Peak load clusters in the regional evening: fleet-level traffic
        // is diurnally correlated, not phase-uniform (that's what makes
        // Figure 2's "time of day" variation and §6.4's swing visible at
        // aggregate level).
        let diurnal = DiurnalPattern {
            amplitude,
            phase_secs: rng.gen_range(57_600..72_000),
        };
        let mix = match p.mix_bias {
            Some((class, factor)) => {
                let weights = CompressibilityMix::fleet_default()
                    .entries()
                    .iter()
                    .map(|&(c, w)| (c, if c == class { w * factor } else { w }))
                    .collect();
                // sdfm-lint: allow(P1) reason="scaling strictly positive weights by a positive factor keeps the mix valid"
                CompressibilityMix::new(weights).expect("scaled weights stay valid")
            }
            None => CompressibilityMix::fleet_default(),
        };
        let lifetime_hours = rng.gen_range(p.lifetime_hours.0..=p.lifetime_hours.1);
        JobProfile {
            template: self.to_string(),
            rate_buckets,
            diurnal,
            mix,
            cpu_cores: rng.gen_range(p.cores.0..=p.cores.1),
            write_fraction: rng.gen_range(0.05..0.35),
            burst_interval: Some(SimDuration::from_secs(
                (rng.gen_range(p.burst_hours.0..=p.burst_hours.1) * 3600.0) as u64,
            )),
            priority: p.priority,
            lifetime: SimDuration::from_secs((lifetime_hours * 3600.0) as u64),
        }
    }
}

impl fmt::Display for JobTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            JobTemplate::WebFrontend => "web-frontend",
            JobTemplate::Bigtable => "bigtable",
            JobTemplate::MlTraining => "ml-training",
            JobTemplate::BatchAnalytics => "batch-analytics",
            JobTemplate::KeyValueCache => "kv-cache",
            JobTemplate::VideoServer => "video-server",
            JobTemplate::LogProcessor => "log-processor",
        };
        write!(f, "{name}")
    }
}

struct TemplateParams {
    pages: (u64, u64),
    warm_frac: (f64, f64),
    cool_frac: (f64, f64),
    frozen_frac: (f64, f64),
    burst_hours: (f64, f64),
    top_rate: (f64, f64),
    diurnal_amp: (f64, f64),
    cores: (f64, f64),
    lifetime_hours: (f64, f64),
    priority: JobPriority,
    mix_bias: Option<(PageClass, f64)>,
}

/// Splits `pages` into four popularity bands:
///
/// * a **hot** band (rates geometric from `top_rate` down to
///   [`HOT_FLOOR`]) — the working set;
/// * a **warm** band (idle ~1.5 min–1 h) — its accesses are the would-be
///   promotions that keep the controller's threshold honest; most of it
///   must stay in DRAM under the SLO;
/// * a **cool** band (idle 1–8 h) — safely compressible, the bulk of
///   realized coverage;
/// * a small **frozen** band ([`FROZEN_RATE`]) — archival data.
///
/// Weighting cold mass toward the shorter idle times reproduces the
/// paper's steeply decaying cold-age distribution (Figure 1), which is
/// what makes the threshold choice — and therefore `K`/`S` tuning —
/// consequential.
pub(crate) fn band_rate_buckets(
    pages: u64,
    warm_frac: f64,
    cool_frac: f64,
    frozen_frac: f64,
    top_rate: f64,
) -> Vec<RateBucket> {
    if pages == 0 {
        return Vec::new();
    }
    let warm = (pages as f64 * warm_frac) as u64;
    let cool = (pages as f64 * cool_frac) as u64;
    let frozen = (pages as f64 * frozen_frac) as u64;
    let hot = pages - warm - cool - frozen;
    let mut buckets = Vec::with_capacity(HOT_BUCKETS + WARM_BUCKETS + COOL_BUCKETS + 1);
    push_geometric_band(
        &mut buckets,
        hot,
        top_rate.max(HOT_FLOOR),
        HOT_FLOOR,
        HOT_BUCKETS,
    );
    push_geometric_band(&mut buckets, warm, WARM_FAST, WARM_SLOW, WARM_BUCKETS);
    push_geometric_band(&mut buckets, cool, COOL_FAST, COOL_SLOW, COOL_BUCKETS);
    if frozen > 0 {
        buckets.push(RateBucket {
            pages: frozen,
            rate_per_sec: FROZEN_RATE,
        });
    }
    buckets
}

/// Distributes `count` pages evenly over `n` buckets whose rates step
/// geometrically from `fast` down to `slow`.
fn push_geometric_band(buckets: &mut Vec<RateBucket>, count: u64, fast: f64, slow: f64, n: usize) {
    if count == 0 {
        return;
    }
    let per = count / n as u64;
    let mut assigned = 0u64;
    for b in 0..n {
        let pages = if b == n - 1 { count - assigned } else { per };
        assigned += pages;
        if pages == 0 {
            continue;
        }
        // Geometric interpolation of the rate at the bucket midpoint.
        let t = (b as f64 + 0.5) / n as f64;
        let rate = fast * (slow / fast).powf(t);
        buckets.push(RateBucket {
            pages,
            rate_per_sec: rate,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn band_buckets_conserve_pages_and_decrease_in_rate() {
        let buckets = band_rate_buckets(10_000, 0.2, 0.15, 0.05, 2.0);
        let total: u64 = buckets.iter().map(|b| b.pages).sum();
        assert_eq!(total, 10_000);
        for w in buckets.windows(2) {
            assert!(
                w[1].rate_per_sec <= w[0].rate_per_sec,
                "rates must fall across bands"
            );
        }
        assert!(buckets[0].rate_per_sec <= 2.0 + 1e-9);
        assert_eq!(
            buckets.last().unwrap().rate_per_sec,
            FROZEN_RATE,
            "frozen band last"
        );
    }

    #[test]
    fn band_buckets_handle_tiny_jobs() {
        assert!(band_rate_buckets(0, 0.2, 0.2, 0.1, 1.0).is_empty());
        for n in [1u64, 5, 23] {
            let b = band_rate_buckets(n, 0.3, 0.2, 0.1, 1.0);
            assert_eq!(b.iter().map(|x| x.pages).sum::<u64>(), n, "n={n}");
        }
    }

    #[test]
    fn band_cold_fraction_is_predictable() {
        // warm 20% + cool 10% + frozen 5%: cold at 120 s should be
        // roughly 0.75×warm + cool + frozen.
        let buckets = band_rate_buckets(100_000, 0.20, 0.10, 0.05, 2.0);
        let cold: f64 = buckets
            .iter()
            .map(|b| b.pages as f64 * (-b.rate_per_sec * 120.0).exp())
            .sum::<f64>()
            / 100_000.0;
        assert!(
            (0.24..=0.36).contains(&cold),
            "cold fraction {cold} not ≈ 0.75*warm + cool + frozen"
        );
    }

    #[test]
    fn cold_age_distribution_decays_steeply() {
        // The paper's Figure 1: cold memory at 8 h is a small fraction of
        // cold memory at 120 s — most cold memory is only minutes-to-hours
        // idle. This steep decay is what makes threshold tuning matter.
        let buckets = band_rate_buckets(100_000, 0.20, 0.10, 0.03, 2.0);
        let cold_at = |secs: f64| -> f64 {
            buckets
                .iter()
                .map(|b| b.pages as f64 * (-b.rate_per_sec * secs).exp())
                .sum()
        };
        let c120 = cold_at(120.0);
        let c8h = cold_at(28_800.0);
        assert!(
            c8h / c120 < 0.45,
            "cold(8h)/cold(120s) = {:.2} — distribution too flat",
            c8h / c120
        );
        assert!(c8h / c120 > 0.05, "frozen core vanished");
    }

    #[test]
    fn all_templates_sample_valid_profiles() {
        let mut rng = StdRng::seed_from_u64(1);
        for t in JobTemplate::ALL {
            for _ in 0..10 {
                let p = t.sample_profile(&mut rng);
                p.validate()
                    .unwrap_or_else(|e| panic!("{t}: invalid profile: {e}"));
                assert_eq!(p.template, t.to_string());
            }
        }
    }

    #[test]
    fn template_cold_fractions_span_the_papers_range() {
        // Figure 3: per-job cold fraction at T=120 s spans <9% (bottom
        // decile) to >43% (top decile). Check template families order
        // correctly and cover the span.
        let mut rng = StdRng::seed_from_u64(7);
        let mean_cold = |t: JobTemplate, rng: &mut StdRng| -> f64 {
            let mut acc = 0.0;
            for _ in 0..30 {
                let p = t.sample_profile(rng);
                acc += p.expected_cold_fraction(120.0, 1.0);
            }
            acc / 30.0
        };
        let web = mean_cold(JobTemplate::WebFrontend, &mut rng);
        let log = mean_cold(JobTemplate::LogProcessor, &mut rng);
        let batch = mean_cold(JobTemplate::BatchAnalytics, &mut rng);
        assert!(web < 0.25, "web frontends too cold: {web}");
        assert!(log > 0.45, "log processors too hot: {log}");
        assert!(
            batch > web && batch < log,
            "ordering violated: {web} {batch} {log}"
        );
    }

    #[test]
    fn fleet_weights_sum_to_one() {
        let sum: f64 = JobTemplate::ALL.iter().map(|t| t.fleet_weight()).sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
    }

    #[test]
    fn video_server_mix_is_heavily_incompressible() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = JobTemplate::VideoServer.sample_profile(&mut rng);
        assert!(
            p.mix.incompressible_fraction() > 0.4,
            "video mix only {} incompressible",
            p.mix.incompressible_fraction()
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = JobTemplate::Bigtable.sample_profile(&mut StdRng::seed_from_u64(5));
        let b = JobTemplate::Bigtable.sample_profile(&mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }
}
