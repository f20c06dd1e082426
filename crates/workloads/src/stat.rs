//! The analytic (statistical) job model for fleet-scale simulation.
//!
//! For a page accessed as a Poisson process with rate λ, the steady-state
//! idle time is exponentially distributed, so the kstaled age distribution
//! and the would-be promotion rates have closed forms:
//!
//! * `P(age ≥ k scans) = exp(-λ · 120k) = q^k` with `q = exp(-120λ)`;
//! * the rate of accesses that find the page at age `k` is
//!   `λ · (q^k − q^{k+1})`.
//!
//! Summing over the profile's rate buckets gives the exact expected
//! cold-age histogram, promotion histogram, and working set for any window
//! — no per-page state. The histograms are those expectations rounded once
//! per age: each bucket's expected pages and promotions are summed per age
//! across the buckets, and every age's total is stochastically rounded to
//! whole pages, so a window costs at most two rounding draws per age
//! whatever the bucket count. Slowly-varying multiplicative noise (AR(1) in
//! log space) and the diurnal multiplier supply the variance the fleet
//! figures need. A validation test in `tests/` checks this model against
//! the page-level kernel simulation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::profile::JobProfile;
use sdfm_types::histogram::{
    ColdAgeHistogram, PageAge, PromotionHistogram, AGE_BUCKETS, MAX_AGE_SCANS,
};
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime, KSTALED_SCAN_PERIOD};

/// One window's synthetic kernel-view observation of a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowObservation {
    /// Window end.
    pub at: SimTime,
    /// Window length.
    pub window: SimDuration,
    /// Working set (pages accessed within one scan period).
    pub working_set: PageCount,
    /// Expected cold-age histogram at window end.
    pub cold_hist: ColdAgeHistogram,
    /// Would-be promotions during the window, by age at access.
    pub promo_delta: PromotionHistogram,
    /// The diurnal × noise multiplier in force.
    pub multiplier: f64,
}

/// Generates per-window observations for one job from its profile.
#[derive(Debug)]
pub struct StatJobModel {
    profile: JobProfile,
    rng: StdRng,
    /// Per-bucket slowly-varying multiplier, AR(1) in log space.
    bucket_noise: Vec<f64>,
    /// AR(1) persistence per step.
    rho: f64,
    /// Stationary sigma of the log-noise.
    sigma: f64,
    /// The last moment every page was touched at once: job start, or the
    /// most recent full-memory burst. Page ages cannot exceed the time
    /// since this.
    last_reset: SimTime,
}

// Fleet simulators step job models for disjoint job sets on worker
// threads; the model (including its per-job RNG) must stay plain owned
// data.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StatJobModel>();
};

impl StatJobModel {
    /// Default log-noise sigma (≈ ±20% rate wobble).
    pub const DEFAULT_SIGMA: f64 = 0.2;

    /// Creates a model with the default noise.
    pub fn new(profile: JobProfile, seed: u64) -> Self {
        Self::with_noise(profile, seed, Self::DEFAULT_SIGMA)
    }

    /// Creates a model with explicit log-noise sigma (0 disables noise,
    /// making observations deterministic expectations).
    pub fn with_noise(profile: JobProfile, seed: u64, sigma: f64) -> Self {
        let n = profile.rate_buckets.len();
        StatJobModel {
            profile,
            rng: StdRng::seed_from_u64(seed),
            bucket_noise: vec![1.0; n],
            rho: 0.9,
            sigma,
            last_reset: SimTime::ZERO,
        }
    }

    /// Declares when the job started (all pages age from here). Also used
    /// by tests to place the model deep in steady state.
    pub fn set_start(&mut self, at: SimTime) {
        self.last_reset = at;
    }

    /// The underlying profile.
    pub fn profile(&self) -> &JobProfile {
        &self.profile
    }

    /// Produces the observation for the window ending at `at`.
    ///
    /// Age distributions are the steady-state exponentials truncated at
    /// the time since the last full reset (job start or burst). With
    /// probability `window / burst_interval` the window carries a
    /// full-memory burst: every page is touched — the promotion histogram
    /// receives the entire pre-burst age distribution, the working set
    /// spikes to the whole job, and ages restart.
    pub fn observe(&mut self, at: SimTime, window: SimDuration) -> WindowObservation {
        let diurnal = self.profile.diurnal.multiplier(at);
        self.advance_noise();
        let scan_secs = KSTALED_SCAN_PERIOD.as_secs() as f64;
        let window_secs = window.as_secs() as f64;
        let cap = (at.saturating_duration_since(self.last_reset).as_secs()
            / KSTALED_SCAN_PERIOD.as_secs())
        .min(MAX_AGE_SCANS as u64) as usize;
        let burst = match self.profile.burst_interval {
            Some(interval) if interval > SimDuration::ZERO => {
                let p = (window_secs / interval.as_secs() as f64).clamp(0.0, 1.0);
                self.rng.gen_bool(p)
            }
            _ => false,
        };

        // Expected pages (cold) and expected accesses (promo) by age,
        // summed over the buckets; `top` is the oldest age with mass.
        let mut cold_f = [0.0f64; AGE_BUCKETS];
        let mut promo_f = [0.0f64; AGE_BUCKETS];
        let mut top = 0usize;
        let mut wss = 0.0f64;
        let total_pages: u64 = self.profile.rate_buckets.iter().map(|b| b.pages).sum();

        for (bucket, noise) in self.profile.rate_buckets.iter().zip(&self.bucket_noise) {
            let lambda = bucket.rate_per_sec * diurnal * noise;
            let n = bucket.pages as f64;
            let q = (-lambda * scan_secs).exp();
            // During a burst every page is accessed once at its current
            // age; otherwise the regular accesses arriving this window find
            // pages at age k with probability mass p_age_k.
            let promo_scale = if burst {
                n
            } else {
                wss += n * (1.0 - q);
                n * lambda * window_secs
            };
            // Walk q^k over the truncated age distribution. At k == cap all
            // remaining mass sits at exactly that age (untouched since the
            // last reset).
            let mut qk = 1.0; // q^0
            let mut k = 0usize;
            loop {
                let qk1 = qk * q;
                let at_cap = k >= cap;
                let p_age_k = if at_cap { qk } else { qk - qk1 };
                if !burst {
                    cold_f[k] += n * p_age_k;
                }
                promo_f[k] += promo_scale * p_age_k;
                if at_cap || (qk1 * n < 1e-3 && !burst) {
                    top = top.max(k);
                    if !at_cap && qk1 > 0.0 {
                        // Sub-milli-page tail: collapse to k+1 (or cap).
                        let kt = (k + 1).min(cap);
                        cold_f[kt] += n * qk1;
                        top = top.max(kt);
                    }
                    break;
                }
                qk = qk1;
                k += 1;
            }
        }

        // Round once per age over the summed expectation. Promotions at
        // age 0 are not promotions (the page was already hot).
        let mut cold = ColdAgeHistogram::new();
        let mut promo = PromotionHistogram::new();
        for (age, k) in (0..=MAX_AGE_SCANS).zip(0..=top) {
            self.add_rounded(&mut cold, age, cold_f[k]);
            if age >= 1 {
                self.add_promo_rounded(&mut promo, age, promo_f[k]);
            }
        }

        if burst {
            // Post-burst: every page hot, the whole job is the working set.
            // (The walk left the cold expectations empty.)
            cold.record_page(PageAge::HOT, total_pages);
            wss = total_pages as f64;
            self.last_reset = at;
        }

        WindowObservation {
            at,
            window,
            working_set: PageCount::new(wss.round() as u64),
            cold_hist: cold,
            promo_delta: promo,
            multiplier: diurnal,
        }
    }

    fn advance_noise(&mut self) {
        if self.sigma == 0.0 {
            return;
        }
        let innov_sd = self.sigma * (1.0 - self.rho * self.rho).sqrt();
        // sdfm-lint: allow(P1) reason="innovation sd is finite and non-negative for rho in [0, 1]"
        let normal = Normal::new(0.0, innov_sd).expect("positive sd");
        for x in &mut self.bucket_noise {
            let ln = self.rho * x.ln() + normal.sample(&mut self.rng);
            *x = ln.exp().clamp(0.05, 20.0);
        }
    }

    /// Stochastic rounding keeps sub-unit expectations unbiased. `observe`
    /// applies it once per age to the expectation summed over the rate
    /// buckets, so each age's count is off by less than one page.
    fn round_stochastic(&mut self, v: f64) -> u64 {
        let base = v.floor();
        let frac = v - base;
        base as u64 + u64::from(self.rng.gen_bool(frac.clamp(0.0, 1.0)))
    }

    fn add_rounded(&mut self, hist: &mut ColdAgeHistogram, age: u8, v: f64) {
        if v <= 0.0 {
            return;
        }
        let n = self.round_stochastic(v);
        if n > 0 {
            hist.record_page(PageAge::from_scans(age), n);
        }
    }

    fn add_promo_rounded(&mut self, hist: &mut PromotionHistogram, age: u8, v: f64) {
        if v <= 0.0 {
            return;
        }
        let n = self.round_stochastic(v);
        if n > 0 {
            hist.record_promotion(PageAge::from_scans(age), n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DiurnalPattern, JobPriority, RateBucket};
    use crate::templates::band_rate_buckets;
    use rand::RngCore;
    use sdfm_compress::gen::CompressibilityMix;
    use sdfm_types::time::MINUTE;

    fn profile(buckets: Vec<RateBucket>, diurnal: DiurnalPattern) -> JobProfile {
        JobProfile {
            template: "test".into(),
            rate_buckets: buckets,
            diurnal,
            mix: CompressibilityMix::fleet_default(),
            cpu_cores: 1.0,
            write_fraction: 0.2,
            burst_interval: None,
            priority: JobPriority::Batch,
            lifetime: SimDuration::from_hours(100),
        }
    }

    #[test]
    fn histogram_totals_match_page_count() {
        let p = profile(
            vec![
                RateBucket {
                    pages: 5_000,
                    rate_per_sec: 0.05,
                },
                RateBucket {
                    pages: 5_000,
                    rate_per_sec: 1e-7,
                },
            ],
            DiurnalPattern::FLAT,
        );
        let mut m = StatJobModel::with_noise(p, 1, 0.0);
        let obs = m.observe(SimTime::from_secs(3600), MINUTE * 5);
        let total = obs.cold_hist.total_pages();
        assert!(
            (9_900..=10_100).contains(&total),
            "histogram total {total} far from 10k pages"
        );
    }

    #[test]
    fn hot_bucket_is_working_set_frozen_bucket_is_cold() {
        let p = profile(
            vec![
                RateBucket {
                    pages: 1_000,
                    rate_per_sec: 0.5, // ~60 accesses per scan period
                },
                RateBucket {
                    pages: 9_000,
                    rate_per_sec: 1e-9,
                },
            ],
            DiurnalPattern::FLAT,
        );
        let mut m = StatJobModel::with_noise(p, 2, 0.0);
        let obs = m.observe(SimTime::from_secs(7200), MINUTE);
        let wss = obs.working_set.get();
        assert!((900..=1100).contains(&wss), "wss {wss}");
        let cold = obs.cold_hist.pages_colder_than(PageAge::from_scans(1));
        assert!((8_800..=9_200).contains(&cold), "cold {cold}");
    }

    #[test]
    fn promotion_rate_matches_analytic_form() {
        // One bucket at λ = 1/600 s (idle mean 10 min). Promotions at
        // T = 1 scan over one minute: n·λ·60·q with q = exp(-0.2).
        let lam = 1.0 / 600.0;
        let p = profile(
            vec![RateBucket {
                pages: 100_000,
                rate_per_sec: lam,
            }],
            DiurnalPattern::FLAT,
        );
        let mut m = StatJobModel::with_noise(p, 3, 0.0);
        let obs = m.observe(SimTime::from_secs(120), MINUTE);
        let got = obs
            .promo_delta
            .promotions_colder_than(PageAge::from_scans(1)) as f64;
        let expect = 100_000.0 * lam * 60.0 * (-lam * 120.0).exp();
        let rel = (got - expect).abs() / expect;
        assert!(rel < 0.05, "promotions {got} vs analytic {expect}");
    }

    #[test]
    fn diurnal_trough_reduces_working_set() {
        let d = DiurnalPattern {
            amplitude: 0.8,
            phase_secs: 0,
        };
        let p = profile(
            vec![RateBucket {
                pages: 50_000,
                rate_per_sec: 0.005,
            }],
            d,
        );
        let mut m = StatJobModel::with_noise(p.clone(), 4, 0.0);
        let peak = m.observe(SimTime::from_secs(0), MINUTE).working_set.get();
        let mut m = StatJobModel::with_noise(p, 5, 0.0);
        let trough = m
            .observe(SimTime::from_secs(43_200), MINUTE)
            .working_set
            .get();
        assert!(
            trough < peak * 7 / 10,
            "trough wss {trough} not below peak {peak}"
        );
    }

    #[test]
    fn noise_makes_windows_vary_but_preserves_scale() {
        let p = profile(
            vec![RateBucket {
                pages: 10_000,
                rate_per_sec: 0.01,
            }],
            DiurnalPattern::FLAT,
        );
        let mut m = StatJobModel::new(p, 6);
        let wss: Vec<u64> = (0..20)
            .map(|i| {
                m.observe(SimTime::from_secs(i * 300), MINUTE * 5)
                    .working_set
                    .get()
            })
            .collect();
        let distinct: std::collections::HashSet<_> = wss.iter().collect();
        assert!(distinct.len() > 5, "noise produced no variation: {wss:?}");
        let mean = wss.iter().sum::<u64>() as f64 / wss.len() as f64;
        assert!((4_000.0..9_900.0).contains(&mean), "wss mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let p = profile(
            vec![RateBucket {
                pages: 1_000,
                rate_per_sec: 0.01,
            }],
            DiurnalPattern::FLAT,
        );
        let mut a = StatJobModel::new(p.clone(), 42);
        let mut b = StatJobModel::new(p, 42);
        let oa = a.observe(SimTime::from_secs(300), MINUTE * 5);
        let ob = b.observe(SimTime::from_secs(300), MINUTE * 5);
        assert_eq!(oa, ob);
    }

    /// The exact number of RNG words one `observe` consumes: a clone of
    /// the generator taken before the call is stepped until it reaches
    /// the model's state after it.
    fn draws_of_one_observe(m: &mut StatJobModel, at: SimTime, window: SimDuration) -> usize {
        let mut before = m.rng.clone();
        m.observe(at, window);
        let mut draws = 0;
        while before != m.rng {
            before.next_u64();
            draws += 1;
            assert!(draws <= 1_000_000, "generator never caught up");
        }
        draws
    }

    #[test]
    fn observe_rounds_once_per_age() {
        let mut p = profile(
            band_rate_buckets(100_000, 0.2, 0.15, 0.05, 2.0),
            DiurnalPattern::FLAT,
        );
        p.burst_interval = Some(SimDuration::from_hours(24));
        let buckets = p.rate_buckets.len();
        assert_eq!(buckets, 29);
        let mut m = StatJobModel::new(p, 11);
        // A day in, every bucket's age walk can reach the 255-scan cap.
        let draws = draws_of_one_observe(&mut m, SimTime::from_secs(86_400), MINUTE * 5);
        let cap = usize::from(MAX_AGE_SCANS);
        // One burst draw, two uniforms per bucket's noise innovation, and
        // at most one rounding draw per age for each histogram.
        assert!(
            draws <= 2 * (cap + 1) + 1 + 2 * buckets,
            "{draws} draws for {buckets} buckets"
        );
        assert_eq!(draws, 570);
    }
}
