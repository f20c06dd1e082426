//! Trace export for offline analysis (§5.3).
//!
//! The node agent periodically exports each job's far-memory state to an
//! external database; the fast far memory model replays those traces under
//! candidate parameter configurations. Each [`TraceRecord`] is one job's
//! 5-minute aggregate: working set size, the instantaneous cold-age
//! histogram, and the promotion histogram *delta* over the window.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use sdfm_types::histogram::{ColdAgeHistogram, PromotionHistogram};
use sdfm_types::ids::JobId;
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime};

/// One exported far-memory trace entry (§5.3: "each far memory trace entry
/// includes job's working set size, promotion histogram, and cold page
/// histogram, aggregated over a 5-minute period").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The job.
    pub job: JobId,
    /// Window end time.
    pub at: SimTime,
    /// Window length.
    pub window: SimDuration,
    /// Working-set estimate at window end.
    pub working_set: PageCount,
    /// Instantaneous cold-age histogram at window end.
    pub cold_hist: ColdAgeHistogram,
    /// Promotions recorded during the window, by age at access.
    pub promo_delta: PromotionHistogram,
    /// Estimated fraction of the job's cold pages that are incompressible
    /// (zswap rejects them, so they never produce actual faults). The
    /// offline model uses this to convert would-be promotions into
    /// realized ones.
    pub incompressible_fraction: f64,
}

impl TraceRecord {
    /// The compressible share of the job's pages, per mille: the integer
    /// scale the far-memory ledger applies to the cold mass and its
    /// promotions (`1000 − round(incompressible_fraction × 1000)`).
    pub fn stored_permille(&self) -> u32 {
        1000 - (self.incompressible_fraction.clamp(0.0, 1.0) * 1000.0).round() as u32
    }
}

/// The default export period.
pub const EXPORT_PERIOD: SimDuration = SimDuration::from_secs(300);

#[derive(Debug, Clone)]
struct JobExportState {
    last_export: SimTime,
    prev_promo: PromotionHistogram,
}

/// Accumulates per-job state and emits a [`TraceRecord`] once per export
/// period.
#[derive(Debug)]
pub struct TraceExporter {
    period: SimDuration,
    jobs: BTreeMap<JobId, JobExportState>,
}

impl TraceExporter {
    /// Creates an exporter with the given period (5 minutes in
    /// production).
    pub fn new(period: SimDuration) -> Self {
        assert!(period > SimDuration::ZERO, "export period must be positive");
        TraceExporter {
            period,
            jobs: BTreeMap::new(),
        }
    }

    /// The export period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Observes a job's current kernel state; returns a record when the
    /// job's export window has elapsed. The first observation of a job
    /// only initializes its window.
    pub fn observe(
        &mut self,
        now: SimTime,
        job: JobId,
        working_set: PageCount,
        cold: &ColdAgeHistogram,
        promo_cumulative: &PromotionHistogram,
        incompressible_fraction: f64,
    ) -> Option<TraceRecord> {
        let state = self.jobs.entry(job).or_insert_with(|| JobExportState {
            last_export: now,
            prev_promo: promo_cumulative.clone(),
        });
        let window = now.saturating_duration_since(state.last_export);
        if window < self.period {
            return None;
        }
        let mut promo_delta = PromotionHistogram::new();
        for ((age, now_count), (_, prev_count)) in
            promo_cumulative.iter().zip(state.prev_promo.iter())
        {
            promo_delta.record_promotion(age, now_count - prev_count);
        }
        state.last_export = now;
        state.prev_promo = promo_cumulative.clone();
        Some(TraceRecord {
            job,
            at: now,
            window,
            working_set,
            cold_hist: cold.clone(),
            promo_delta,
            incompressible_fraction: incompressible_fraction.clamp(0.0, 1.0),
        })
    }

    /// Forgets a job (exit); its partial window is discarded.
    pub fn forget(&mut self, job: JobId) {
        self.jobs.remove(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfm_types::histogram::PageAge;
    use sdfm_types::time::MINUTE;

    #[test]
    fn first_observation_initializes_without_emitting() {
        let mut ex = TraceExporter::new(EXPORT_PERIOD);
        let cold = ColdAgeHistogram::new();
        let promo = PromotionHistogram::new();
        assert!(ex
            .observe(
                SimTime::ZERO,
                JobId::new(1),
                PageCount::ZERO,
                &cold,
                &promo,
                0.3
            )
            .is_none());
    }

    #[test]
    fn emits_after_period_with_delta() {
        let mut ex = TraceExporter::new(EXPORT_PERIOD);
        let job = JobId::new(1);
        let cold = ColdAgeHistogram::new();
        let mut promo = PromotionHistogram::new();
        promo.record_promotion(PageAge::from_scans(4), 10);
        ex.observe(SimTime::ZERO, job, PageCount::new(100), &cold, &promo, 0.3);
        // Minute-by-minute observations inside the window emit nothing.
        for m in 1..5u64 {
            assert!(ex
                .observe(
                    SimTime::ZERO + MINUTE * m,
                    job,
                    PageCount::new(100),
                    &cold,
                    &promo,
                    0.3,
                )
                .is_none());
        }
        promo.record_promotion(PageAge::from_scans(4), 7);
        let rec = ex
            .observe(
                SimTime::ZERO + MINUTE * 5,
                job,
                PageCount::new(120),
                &cold,
                &promo,
                0.3,
            )
            .expect("window elapsed");
        assert_eq!(rec.window, EXPORT_PERIOD);
        assert_eq!(rec.working_set, PageCount::new(120));
        // Only the 7 new promotions are in the delta (the first 10 were
        // recorded before the window started).
        assert_eq!(
            rec.promo_delta
                .promotions_colder_than(PageAge::from_scans(1)),
            7
        );
    }

    #[test]
    fn consecutive_windows_have_independent_deltas() {
        let mut ex = TraceExporter::new(MINUTE);
        let job = JobId::new(2);
        let cold = ColdAgeHistogram::new();
        let mut promo = PromotionHistogram::new();
        ex.observe(SimTime::ZERO, job, PageCount::new(1), &cold, &promo, 0.0);
        promo.record_promotion(PageAge::from_scans(1), 3);
        let r1 = ex
            .observe(
                SimTime::ZERO + MINUTE,
                job,
                PageCount::new(1),
                &cold,
                &promo,
                0.0,
            )
            .unwrap();
        let r2 = ex
            .observe(
                SimTime::ZERO + MINUTE * 2,
                job,
                PageCount::new(1),
                &cold,
                &promo,
                0.0,
            )
            .unwrap();
        assert_eq!(r1.promo_delta.total_promotions(), 3);
        assert_eq!(r2.promo_delta.total_promotions(), 0);
    }

    #[test]
    fn forget_resets_job_state() {
        let mut ex = TraceExporter::new(MINUTE);
        let job = JobId::new(3);
        let cold = ColdAgeHistogram::new();
        let promo = PromotionHistogram::new();
        ex.observe(SimTime::ZERO, job, PageCount::ZERO, &cold, &promo, 0.0);
        ex.forget(job);
        // After forgetting, the next observation re-initializes.
        assert!(ex
            .observe(
                SimTime::ZERO + MINUTE * 10,
                job,
                PageCount::ZERO,
                &cold,
                &promo,
                0.0
            )
            .is_none());
    }

    #[test]
    #[should_panic(expected = "export period must be positive")]
    fn zero_period_rejected() {
        let _ = TraceExporter::new(SimDuration::ZERO);
    }

    #[test]
    fn serde_roundtrip() {
        let rec = TraceRecord {
            job: JobId::new(9),
            at: SimTime::from_secs(300),
            window: EXPORT_PERIOD,
            working_set: PageCount::new(42),
            cold_hist: ColdAgeHistogram::new(),
            promo_delta: PromotionHistogram::new(),
            incompressible_fraction: 0.31,
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn stored_permille_rounds_the_compressible_share() {
        let with = |f: f64| TraceRecord {
            job: JobId::new(9),
            at: SimTime::from_secs(300),
            window: EXPORT_PERIOD,
            working_set: PageCount::new(42),
            cold_hist: ColdAgeHistogram::new(),
            promo_delta: PromotionHistogram::new(),
            incompressible_fraction: f,
        };
        assert_eq!(with(0.0).stored_permille(), 1000);
        assert_eq!(with(0.3).stored_permille(), 700);
        assert_eq!(with(0.31).stored_permille(), 690);
        assert_eq!(with(1.0).stored_permille(), 0);
        assert_eq!(with(1.5).stored_permille(), 0, "clamped");
    }
}
