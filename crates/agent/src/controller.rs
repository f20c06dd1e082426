//! The per-job threshold controller (§4.3).

use serde::{Deserialize, Serialize};

use crate::params::{AgentParams, SloConfig};
use sdfm_types::histogram::{ColdAgeHistogram, PageAge, PromotionHistogram, MAX_AGE_SCANS};
use sdfm_types::rate::{NormalizedPromotionRate, PromotionRate};
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime};

/// One minute's control decision for one job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlDecision {
    /// Whether proactive zswap should run this minute.
    pub zswap_enabled: bool,
    /// The operating cold-age threshold (meaningful when enabled).
    pub threshold: PageAge,
    /// The best (smallest SLO-satisfying) threshold for the window that
    /// just ended.
    pub best_last_window: PageAge,
    /// The K-th percentile of the history pool.
    pub pool_percentile: PageAge,
    /// Working-set estimate used for normalization.
    pub working_set: PageCount,
    /// The observed normalized promotion rate over the window **under the
    /// minimum threshold** — the most aggressive rate the SLI could take.
    pub observed_rate: NormalizedPromotionRate,
}

/// Computes the best threshold for a finished window: the smallest
/// cold-age threshold whose would-be promotions stay within the SLO budget.
///
/// `promo_now` and `promo_prev` are cumulative kernel histograms at the
/// window's end and start; the difference of their suffix sums is the
/// would-be promotion count for each candidate threshold (§4.3's insight:
/// one histogram answers the question for *every* threshold at once).
///
/// Returns the smallest satisfying threshold, searching from
/// `slo.min_threshold` up; if even the maximum age violates the budget,
/// returns [`PageAge::MAX`] (the least aggressive choice).
pub fn best_threshold_for_window(
    promo_now: &PromotionHistogram,
    promo_prev: &PromotionHistogram,
    working_set: PageCount,
    window: SimDuration,
    slo: &SloConfig,
) -> PageAge {
    // Promotions per minute allowed by the SLO.
    let budget = slo.target.fraction_per_min() * working_set.get() as f64;
    let window_mins = window.as_mins_f64();
    if window_mins <= 0.0 {
        return slo.min_threshold;
    }
    // One backward pass builds the suffix counts for every threshold at
    // once (the histograms' whole point, §4.3); then take the smallest
    // satisfying threshold.
    let mut delta = [0u64; 256];
    for (((age, now), (_, prev)), slot) in promo_now
        .iter()
        .zip(promo_prev.iter())
        .zip(delta.iter_mut())
    {
        debug_assert!(now >= prev, "cumulative histogram went backwards");
        let _ = age;
        *slot = now - prev;
    }
    let mut suffix = 0u64;
    let mut best = PageAge::MAX;
    for scans in (slo.min_threshold.as_scans()..=MAX_AGE_SCANS).rev() {
        suffix += delta[scans as usize];
        if suffix as f64 / window_mins <= budget {
            best = PageAge::from_scans(scans);
        } else {
            // Suffix counts only grow as the threshold drops: every lower
            // threshold violates too.
            break;
        }
    }
    best
}

/// The sliding history of per-window best thresholds whose K-th
/// percentile sets the operating threshold (§4.3). Shared by the online
/// [`JobController`] and the fast model's offline replay.
#[derive(Debug, Clone, Default)]
pub struct ThresholdPool {
    best: Vec<PageAge>,
}

impl ThresholdPool {
    /// Maximum control periods of best-threshold history retained.
    ///
    /// The pool is a *sliding* window, not the job's whole life: an
    /// unbounded pool makes the K-th percentile ratchet ever more
    /// conservative (a single early spike stays in the top percentiles
    /// forever), so steady-state coverage would decay with job age and the
    /// controller could never adapt to behavior changes. Three hours of
    /// 5-minute periods keeps enough samples for percentile resolution at
    /// production K values while aging spikes out.
    pub const CAP: usize = 36;

    /// Appends one window's best threshold, dropping the oldest entries
    /// beyond [`CAP`](Self::CAP).
    pub fn push(&mut self, best: PageAge) {
        self.best.push(best);
        if self.best.len() > Self::CAP {
            let excess = self.best.len() - Self::CAP;
            self.best.drain(..excess);
        }
    }

    /// Number of windows in the pool.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }

    /// The most recently pushed best threshold.
    pub fn last(&self) -> Option<PageAge> {
        self.best.last().copied()
    }

    /// The K-th percentile of the pool (nearest-rank, rounding up —
    /// conservative); [`PageAge::MAX`] while the pool is empty.
    pub fn kth_percentile(&self, k: f64) -> PageAge {
        if self.best.is_empty() {
            return PageAge::MAX;
        }
        let mut sorted = self.best.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = ((k / 100.0) * n as f64).ceil() as usize;
        sorted[rank.clamp(1, n) - 1]
    }
}

/// The per-job control state: threshold history pool, previous histogram
/// snapshot, and warmup tracking.
#[derive(Debug, Clone)]
pub struct JobController {
    params: AgentParams,
    slo: SloConfig,
    started_at: SimTime,
    last_tick: SimTime,
    pool: ThresholdPool,
    prev_promo: PromotionHistogram,
}

// Fleet simulators step controllers for disjoint job sets on worker
// threads; the controller must stay plain owned data.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<JobController>();
};

impl JobController {
    /// Creates a controller for a job that started at `started_at`.
    pub fn new(params: AgentParams, slo: SloConfig, started_at: SimTime) -> Self {
        JobController {
            params,
            slo,
            started_at,
            last_tick: started_at,
            pool: ThresholdPool::default(),
            prev_promo: PromotionHistogram::new(),
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> AgentParams {
        self.params
    }

    /// Replaces the parameters (autotuner rollout). History is kept: the
    /// pool is parameter-independent (it stores per-minute *best*
    /// thresholds, not decisions).
    pub fn set_params(&mut self, params: AgentParams) {
        self.params = params;
    }

    /// The SLO in force.
    pub fn slo(&self) -> SloConfig {
        self.slo
    }

    /// Number of window observations accumulated.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Runs one control period: consumes the kernel-exported histograms,
    /// updates the pool, and returns the decision for the next minute.
    ///
    /// `cold` is the instantaneous cold-age histogram; `promo_cumulative`
    /// is the kernel's cumulative promotion histogram (the controller
    /// snapshots it internally to form windows).
    pub fn on_minute(
        &mut self,
        now: SimTime,
        cold: &ColdAgeHistogram,
        promo_cumulative: &PromotionHistogram,
    ) -> ControlDecision {
        let window = now.saturating_duration_since(self.last_tick);
        self.last_tick = now;

        let working_set = PageCount::new(cold.pages_younger_than(self.slo.min_threshold));
        let best = best_threshold_for_window(
            promo_cumulative,
            &self.prev_promo,
            working_set,
            window,
            &self.slo,
        );
        let observed_count = promo_cumulative.promotions_colder_than(self.slo.min_threshold)
            - self
                .prev_promo
                .promotions_colder_than(self.slo.min_threshold);
        let observed_rate =
            PromotionRate::from_count(observed_count, window).normalized(working_set);
        self.prev_promo = promo_cumulative.clone();
        self.pool.push(best);

        let pool_percentile = self.pool.kth_percentile(self.params.k_percentile);
        // Spike reaction: never undercut what the last window needed.
        let threshold = pool_percentile.max(best);
        let warmed_up = now.saturating_duration_since(self.started_at) >= self.params.s_warmup;

        ControlDecision {
            zswap_enabled: warmed_up,
            threshold,
            best_last_window: best,
            pool_percentile,
            working_set,
            observed_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfm_types::time::MINUTE;

    fn slo() -> SloConfig {
        SloConfig::default()
    }

    /// Builds a cumulative promotion histogram from (age, count) pairs.
    fn promo(entries: &[(u8, u64)]) -> PromotionHistogram {
        let mut h = PromotionHistogram::new();
        for &(age, n) in entries {
            h.record_promotion(PageAge::from_scans(age), n);
        }
        h
    }

    fn cold(entries: &[(u8, u64)]) -> ColdAgeHistogram {
        let mut h = ColdAgeHistogram::new();
        for &(age, n) in entries {
            h.record_page(PageAge::from_scans(age), n);
        }
        h
    }

    #[test]
    fn best_threshold_picks_smallest_satisfying() {
        // WSS 10_000 pages, SLO 0.2%/min -> budget 20 promotions/min.
        // 100 promotions at age>=1, 15 at age>=3: threshold 3 satisfies.
        let now = promo(&[(1, 50), (2, 35), (3, 10), (10, 5)]);
        let prev = PromotionHistogram::new();
        let t = best_threshold_for_window(&now, &prev, PageCount::new(10_000), MINUTE, &slo());
        assert_eq!(t.as_scans(), 3);
    }

    #[test]
    fn best_threshold_saturates_when_everything_violates() {
        let now = promo(&[(255, 1_000_000)]);
        let prev = PromotionHistogram::new();
        let t = best_threshold_for_window(&now, &prev, PageCount::new(100), MINUTE, &slo());
        assert_eq!(t, PageAge::MAX);
    }

    #[test]
    fn best_threshold_uses_window_deltas_not_cumulative() {
        // Cumulative history has huge counts, but the last window added
        // nothing: the minimum threshold satisfies.
        let prev = promo(&[(5, 1_000_000)]);
        let now = prev.clone();
        let t = best_threshold_for_window(&now, &prev, PageCount::new(100), MINUTE, &slo());
        assert_eq!(t, slo().min_threshold);
    }

    #[test]
    fn best_threshold_normalizes_by_window_length() {
        // 40 promotions at age>=1 over 2 minutes = 20/min = exactly budget
        // for WSS 10_000.
        let now = promo(&[(1, 40)]);
        let prev = PromotionHistogram::new();
        let t = best_threshold_for_window(&now, &prev, PageCount::new(10_000), MINUTE * 2, &slo());
        assert_eq!(t, slo().min_threshold);
    }

    #[test]
    fn warmup_disables_zswap_for_s_seconds() {
        let params = AgentParams::new(90.0, SimDuration::from_mins(5)).unwrap();
        let mut ctl = JobController::new(params, slo(), SimTime::ZERO);
        let c = cold(&[(0, 100)]);
        let p = PromotionHistogram::new();
        let mut now = SimTime::ZERO;
        for minute in 1..=6 {
            now += MINUTE;
            let d = ctl.on_minute(now, &c, &p);
            if minute < 5 {
                assert!(!d.zswap_enabled, "minute {minute} should be warmup");
            } else {
                assert!(d.zswap_enabled, "minute {minute} should be active");
            }
        }
    }

    #[test]
    fn pool_percentile_is_conservative_with_k_high() {
        let params = AgentParams::new(100.0, SimDuration::ZERO).unwrap();
        let mut ctl = JobController::new(params, slo(), SimTime::ZERO);
        let wss = cold(&[(0, 10_000)]);
        let mut cum = PromotionHistogram::new();
        let mut now = SimTime::ZERO;
        // Nine quiet minutes (best = min threshold), one noisy minute.
        for minute in 0..10 {
            now += MINUTE;
            if minute == 4 {
                // 3000 promotions at age >= 6 in this window: best jumps to 7.
                cum.record_promotion(PageAge::from_scans(6), 3000);
            }
            ctl.on_minute(now, &wss, &cum);
        }
        now += MINUTE;
        let d = ctl.on_minute(now, &wss, &cum);
        // K=100 -> percentile = max of pool = the noisy minute's best.
        assert_eq!(d.pool_percentile.as_scans(), 7);
        assert_eq!(d.threshold.as_scans(), 7);
    }

    #[test]
    fn pool_percentile_with_k_low_tracks_common_case() {
        let params = AgentParams::new(50.0, SimDuration::ZERO).unwrap();
        let mut ctl = JobController::new(params, slo(), SimTime::ZERO);
        let wss = cold(&[(0, 10_000)]);
        let mut cum = PromotionHistogram::new();
        let mut now = SimTime::ZERO;
        for minute in 0..10 {
            now += MINUTE;
            if minute == 4 {
                cum.record_promotion(PageAge::from_scans(6), 3000);
            }
            ctl.on_minute(now, &wss, &cum);
        }
        now += MINUTE;
        let d = ctl.on_minute(now, &wss, &cum);
        // Median of mostly-quiet pool is the minimum threshold.
        assert_eq!(d.pool_percentile, slo().min_threshold);
    }

    #[test]
    fn spike_reaction_overrides_percentile() {
        let params = AgentParams::new(50.0, SimDuration::ZERO).unwrap();
        let mut ctl = JobController::new(params, slo(), SimTime::ZERO);
        let wss = cold(&[(0, 10_000)]);
        let mut cum = PromotionHistogram::new();
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += MINUTE;
            ctl.on_minute(now, &wss, &cum);
        }
        // Sudden burst in the current window.
        cum.record_promotion(PageAge::from_scans(9), 5000);
        now += MINUTE;
        let d = ctl.on_minute(now, &wss, &cum);
        assert_eq!(d.best_last_window.as_scans(), 10);
        assert_eq!(
            d.threshold.as_scans(),
            10,
            "threshold must jump with the spike even though the pool median is low"
        );
    }

    #[test]
    fn observed_rate_reports_min_threshold_rate() {
        let params = AgentParams::new(98.0, SimDuration::ZERO).unwrap();
        let mut ctl = JobController::new(params, slo(), SimTime::ZERO);
        let wss = cold(&[(0, 1_000)]);
        let mut cum = PromotionHistogram::new();
        ctl.on_minute(SimTime::ZERO + MINUTE, &wss, &cum);
        cum.record_promotion(PageAge::from_scans(2), 2);
        let d = ctl.on_minute(SimTime::ZERO + MINUTE * 2, &wss, &cum);
        // 2 promotions / min over 1000 pages = 0.2%/min.
        assert!((d.observed_rate.percent_per_min() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_pool_yields_max_age() {
        assert_eq!(ThresholdPool::default().kth_percentile(98.0), PageAge::MAX);
    }

    #[test]
    fn pool_slides_over_the_last_cap_windows() {
        let mut pool = ThresholdPool::default();
        // One early spike, then CAP quiet windows: the spike ages out.
        pool.push(PageAge::from_scans(200));
        for _ in 0..ThresholdPool::CAP {
            pool.push(PageAge::from_scans(2));
        }
        assert_eq!(pool.len(), ThresholdPool::CAP);
        assert_eq!(pool.kth_percentile(100.0), PageAge::from_scans(2));
        assert_eq!(pool.last(), Some(PageAge::from_scans(2)));
    }

    #[test]
    fn set_params_takes_effect() {
        let mut ctl = JobController::new(
            AgentParams::new(98.0, SimDuration::from_mins(30)).unwrap(),
            slo(),
            SimTime::ZERO,
        );
        ctl.set_params(AgentParams::new(50.0, SimDuration::ZERO).unwrap());
        let d = ctl.on_minute(
            SimTime::ZERO + MINUTE,
            &cold(&[(0, 10)]),
            &PromotionHistogram::new(),
        );
        assert!(d.zswap_enabled, "new zero warmup applies immediately");
    }
}
