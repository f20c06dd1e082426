//! Property tests for the statistical job model and templates.

use proptest::prelude::*;
use sdfm_compress::gen::CompressibilityMix;
use sdfm_types::histogram::PageAge;
use sdfm_types::time::{SimDuration, SimTime};
use sdfm_workloads::profile::{DiurnalPattern, JobPriority, JobProfile, RateBucket};
use sdfm_workloads::templates::JobTemplate;
use sdfm_workloads::StatJobModel;

fn profile_from(buckets: Vec<(u64, f64)>, burst_hours: Option<u64>) -> JobProfile {
    JobProfile {
        template: "prop".into(),
        rate_buckets: buckets
            .into_iter()
            .map(|(pages, rate)| RateBucket {
                pages,
                rate_per_sec: rate,
            })
            .collect(),
        diurnal: DiurnalPattern::FLAT,
        mix: CompressibilityMix::fleet_default(),
        cpu_cores: 1.0,
        write_fraction: 0.1,
        burst_interval: burst_hours.map(SimDuration::from_hours),
        priority: JobPriority::Batch,
        lifetime: SimDuration::from_hours(1_000),
    }
}

proptest! {
    /// The model's cold-age histogram always sums to the job's page count
    /// (within stochastic-rounding slack), regardless of rates, time, or
    /// bursts.
    #[test]
    fn histogram_mass_is_conserved(
        buckets in prop::collection::vec((1u64..20_000, 1e-9f64..1.0), 1..6),
        at_secs in 300u64..500_000,
        burst in prop::option::of(1u64..48),
    ) {
        let total: u64 = buckets.iter().map(|(p, _)| p).sum();
        let mut m = StatJobModel::with_noise(profile_from(buckets, burst), 1, 0.0);
        let obs = m.observe(SimTime::from_secs(at_secs), SimDuration::from_secs(300));
        let hist_total = obs.cold_hist.total_pages();
        let slack = 64 + total / 100;
        prop_assert!(
            hist_total.abs_diff(total) <= slack,
            "histogram {hist_total} vs {total} pages"
        );
    }

    /// Ages never exceed the time since the model's start (the truncation
    /// invariant that makes young jobs look young).
    #[test]
    fn ages_are_capped_by_job_age(
        age_secs in 0u64..50_000,
        pages in 100u64..10_000,
    ) {
        let start = SimTime::from_secs(1_000_000);
        let now = SimTime::from_secs(1_000_000 + age_secs);
        let mut m = StatJobModel::with_noise(
            profile_from(vec![(pages, 1e-9)], None),
            2,
            0.0,
        );
        m.set_start(start);
        let obs = m.observe(now, SimDuration::from_secs(300));
        let cap_scans = (age_secs / 120).min(255) as u8;
        if cap_scans < 255 {
            let beyond = obs
                .cold_hist
                .pages_colder_than(PageAge::from_scans(cap_scans.saturating_add(1)));
            prop_assert_eq!(beyond, 0, "pages older than the job itself");
        }
    }

    /// Working set plus cold pages at the minimum threshold ≈ total pages
    /// (they partition the job's memory).
    #[test]
    fn wss_and_cold_partition_memory(
        buckets in prop::collection::vec((100u64..20_000, 1e-9f64..0.5), 1..5),
    ) {
        let total: u64 = buckets.iter().map(|(p, _)| p).sum();
        let mut m = StatJobModel::with_noise(profile_from(buckets, None), 3, 0.0);
        let obs = m.observe(SimTime::from_secs(604_800), SimDuration::from_secs(300));
        let wss = obs.working_set.get();
        let cold = obs.cold_hist.pages_colder_than(PageAge::from_scans(1));
        let slack = 64 + total / 50;
        prop_assert!(
            (wss + cold).abs_diff(total) <= slack,
            "wss {wss} + cold {cold} vs total {total}"
        );
    }

    /// Every template's sampled profiles are valid and deterministic per
    /// seed.
    #[test]
    fn templates_always_produce_valid_profiles(seed in any::<u64>(), idx in 0usize..7) {
        use rand::SeedableRng;
        let template = JobTemplate::ALL[idx];
        let a = template.sample_profile(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let b = template.sample_profile(&mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert!(a.validate().is_ok());
        prop_assert_eq!(a, b);
    }

    /// Burst windows spike the working set to the whole job and reset the
    /// next window's ages.
    #[test]
    fn bursts_reset_ages(pages in 1_000u64..20_000) {
        // Burst interval of ~1 window: force a burst quickly.
        let mut m = StatJobModel::with_noise(
            profile_from(vec![(pages, 1e-9)], Some(1)),
            7,
            0.0,
        );
        // Give ages time to accumulate first.
        m.set_start(SimTime::ZERO);
        let mut burst_seen = false;
        for w in 1..=60u64 {
            let obs = m.observe(
                SimTime::from_secs(100_000 + w * 300),
                SimDuration::from_secs(300),
            );
            if obs.working_set.get() == pages {
                burst_seen = true;
                // All promotions this window, none cold afterwards.
                prop_assert_eq!(
                    obs.cold_hist.pages_colder_than(PageAge::from_scans(1)),
                    0,
                    "post-burst histogram must be all-hot"
                );
            }
        }
        prop_assert!(burst_seen, "a ~5-min-interval burst never fired in 60 windows");
    }

    /// Arbitrary profiles — huge, empty, zero-page and frozen-to-frantic
    /// buckets, empty and hour-long windows, windows that end before the
    /// job started, with noise and bursts — never panic, and the working
    /// set never exceeds the job.
    #[test]
    fn observe_survives_arbitrary_profiles(
        buckets in prop::collection::vec((0u64..=1 << 40, -9.0f64..1.0), 0..=64),
        start_secs in 0u64..1_000_000,
        at_secs in 0u64..1_000_000,
        window_secs in 0u64..=3_600,
        burst in prop::option::of(1u64..48),
        sigma in prop::option::of(0.0f64..1.0),
    ) {
        let buckets: Vec<(u64, f64)> =
            buckets.into_iter().map(|(p, e)| (p, 10f64.powf(e))).collect();
        let total: u64 = buckets.iter().map(|(p, _)| p).sum();
        let profile = profile_from(buckets, burst);
        let mut m = StatJobModel::with_noise(
            profile,
            9,
            sigma.unwrap_or(StatJobModel::DEFAULT_SIGMA),
        );
        m.set_start(SimTime::from_secs(start_secs));
        for w in 0..3u64 {
            let obs = m.observe(
                SimTime::from_secs(at_secs + w * window_secs),
                SimDuration::from_secs(window_secs),
            );
            prop_assert!(obs.working_set.get() <= total, "wss above job size");
        }
    }

    /// Without noise or bursts the rounded histogram differs from the
    /// page count by less than one page per age: each age is rounded once
    /// over the expectation summed across buckets.
    #[test]
    fn rounding_error_is_at_most_one_page_per_age(
        buckets in prop::collection::vec((0u64..=1 << 40, -9.0f64..1.0), 0..=64),
        start_secs in 0u64..1_000_000,
        at_secs in 0u64..1_000_000,
        window_secs in 0u64..=3_600,
    ) {
        let buckets: Vec<(u64, f64)> =
            buckets.into_iter().map(|(p, e)| (p, 10f64.powf(e))).collect();
        let total: u64 = buckets.iter().map(|(p, _)| p).sum();
        let mut m = StatJobModel::with_noise(profile_from(buckets, None), 10, 0.0);
        m.set_start(SimTime::from_secs(start_secs));
        let obs = m.observe(SimTime::from_secs(at_secs), SimDuration::from_secs(window_secs));
        let cap = (at_secs.saturating_sub(start_secs) / 120).min(255);
        let hist_total = obs.cold_hist.total_pages();
        prop_assert!(
            hist_total.abs_diff(total) <= cap + 1,
            "histogram {hist_total} vs {total} pages at cap {cap}"
        );
    }
}

/// Nothing to observe: an empty profile and a profile of zero-page buckets
/// give empty histograms and no working set, with or without noise.
#[test]
fn empty_and_zero_page_profiles_observe_nothing() {
    let profiles = [
        profile_from(Vec::new(), Some(1)),
        profile_from(vec![(0, 1e-9), (0, 0.5), (0, 10.0)], Some(1)),
    ];
    for profile in profiles {
        for sigma in [0.0, StatJobModel::DEFAULT_SIGMA] {
            let mut m = StatJobModel::with_noise(profile.clone(), 11, sigma);
            for w in 1..=3u64 {
                let obs = m.observe(
                    SimTime::from_secs(100_000 + w * 300),
                    SimDuration::from_secs(300),
                );
                assert_eq!(obs.working_set.get(), 0);
                assert_eq!(obs.cold_hist.total_pages(), 0);
                assert_eq!(
                    obs.promo_delta
                        .promotions_colder_than(PageAge::from_scans(1)),
                    0
                );
            }
        }
    }
}
