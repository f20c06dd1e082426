//! Figures 5–7: the deployment timeline, coverage distributions, and the
//! autotuner's effect on promotion rates (§6.1, §6.2).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use super::{collect_fleet_traces, Scale};
use crate::autotune::AutotunePipeline;
use crate::fleet_sim::FleetSim;
use sdfm_agent::{AgentParams, SloConfig};
use sdfm_types::stats::{Cdf, FiveNumberSummary, Percentile};
use sdfm_types::time::SimDuration;

/// The three deployment phases of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RolloutPhase {
    /// Initial static parameters from small-scale experiments (A→B).
    Static,
    /// Manually tuned parameters (B→C).
    HandTuned,
    /// ML-autotuned parameters (C→D).
    Autotuned,
}

/// One Figure-5 sample: fleet coverage at a point in the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig5Point {
    /// Hours since the start of the timeline.
    pub hours: f64,
    /// Fleet cold-memory coverage.
    pub coverage: f64,
    /// Which phase was in force.
    pub phase: RolloutPhase,
}

/// Figure-5 parameter sets: deliberately conservative static parameters,
/// the §4.3 hand-tuned defaults, and whatever the autotuner finds.
pub fn static_params() -> AgentParams {
    // The first rollout was deliberately timid: take the maximum of the
    // threshold pool and keep zswap off for the first six hours of every
    // job.
    AgentParams::new(100.0, SimDuration::from_hours(6)).expect("valid literal")
}

/// The hand-tuned (B→C) configuration.
pub fn hand_tuned_params() -> AgentParams {
    AgentParams::hand_tuned()
}

/// Figure 5: fleet-wide cold-memory coverage over the rollout timeline.
/// Each phase runs `scale.measure_windows` windows; the autotuned phase
/// uses parameters found by the real pipeline on traces collected during
/// the hand-tuned phase.
pub fn figure5(scale: &Scale) -> (Vec<Fig5Point>, AgentParams) {
    let mut sim = FleetSim::new(scale.fleet_config(), scale.seed);
    let window_hours = sim.window().as_secs() as f64 / 3600.0;
    let mut points = Vec::new();
    let mut hours = 0.0;

    let run_phase = |sim: &mut FleetSim,
                     points: &mut Vec<Fig5Point>,
                     hours: &mut f64,
                     phase: RolloutPhase,
                     windows: usize| {
        for _ in 0..windows {
            let s = sim.step_window().expect("fleet window step");
            *hours += window_hours;
            points.push(Fig5Point {
                hours: *hours,
                coverage: s.coverage(),
                phase,
            });
        }
    };

    sim.set_params(static_params());
    run_phase(
        &mut sim,
        &mut points,
        &mut hours,
        RolloutPhase::Static,
        scale.warmup_windows + scale.measure_windows,
    );

    sim.set_params(hand_tuned_params());
    run_phase(
        &mut sim,
        &mut points,
        &mut hours,
        RolloutPhase::HandTuned,
        scale.measure_windows,
    );

    // Autotune on a collected fleet trace. The trace must span at least
    // the controller's history window plus the measurement horizon, or the
    // model cannot resolve K at the pool sizes the deployment will run at.
    let trace_windows = (sdfm_agent::ThresholdPool::CAP + scale.measure_windows).max(8);
    let traces = collect_fleet_traces(scale, trace_windows);
    let model = scale.fast_model(traces);
    let mut pipeline = AutotunePipeline::new(model, SloConfig::default(), scale.seed ^ 0xA77);
    // Anchor the search on the deployed incumbent so the rollout can only
    // move forward from the hand-tuned configuration.
    pipeline.observe_params(hand_tuned_params());
    pipeline.run(18);
    let tuned = pipeline.best_params().unwrap_or_else(hand_tuned_params);

    sim.set_params(tuned);
    run_phase(
        &mut sim,
        &mut points,
        &mut hours,
        RolloutPhase::Autotuned,
        scale.measure_windows,
    );
    (points, tuned)
}

/// Mean coverage of the tail of a phase (skipping its transient).
pub fn phase_steady_coverage(points: &[Fig5Point], phase: RolloutPhase) -> f64 {
    let phase_points: Vec<f64> = points
        .iter()
        .filter(|p| p.phase == phase)
        .map(|p| p.coverage)
        .collect();
    let tail = &phase_points[phase_points.len() / 2..];
    if tail.is_empty() {
        0.0
    } else {
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// Figure 6: distribution of per-machine coverage across the top-10
/// clusters, under the hand-tuned configuration at steady state.
pub fn figure6(scale: &Scale) -> Vec<super::coldness::ClusterDistribution> {
    let mut sim = FleetSim::new(scale.fleet_config(), scale.seed ^ 0xF16);
    for _ in 0..scale.warmup_windows {
        sim.step_window().expect("fleet window step");
    }
    // Accumulate per-machine cold/far over the measurement span.
    let mut per_machine: BTreeMap<(u64, usize), (u64, u64)> = BTreeMap::new();
    for _ in 0..scale.measure_windows {
        let s = sim.step_window().expect("fleet window step");
        for j in &s.per_job {
            let e = per_machine
                .entry((j.cluster.raw(), j.machine))
                .or_insert((0, 0));
            e.0 += j.far_pages;
            e.1 += j.cold_pages;
        }
    }
    let mut by_cluster: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for ((ci, _), (far, cold)) in per_machine {
        if cold > 0 {
            by_cluster
                .entry(ci as usize)
                .or_default()
                .push(far as f64 / cold as f64);
        }
    }
    by_cluster
        .into_iter()
        .map(
            |(cluster, coverages)| super::coldness::ClusterDistribution {
                cluster,
                summary: FiveNumberSummary::from_samples(&coverages).expect("cluster has machines"),
            },
        )
        .collect()
}

/// Figure 7 output: normalized promotion-rate CDFs before and after the
/// autotuner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7 {
    /// `(percent of WSS per minute, cumulative fraction)` — hand-tuned.
    pub before: Vec<(f64, f64)>,
    /// Same series under autotuned parameters.
    pub after: Vec<(f64, f64)>,
    /// p98 before (percent of WSS per minute).
    pub p98_before: f64,
    /// p98 after.
    pub p98_after: f64,
    /// Median before / after.
    pub p50_before: f64,
    /// Median after.
    pub p50_after: f64,
}

/// Figure 7: the fleet distribution of per-job normalized promotion rates
/// before (hand-tuned) and after (autotuned) parameters.
pub fn figure7(scale: &Scale, tuned: AgentParams) -> Fig7 {
    let collect = |params: AgentParams, seed: u64| -> Vec<f64> {
        let mut cfg = scale.fleet_config();
        cfg.params = params;
        let mut sim = FleetSim::new(cfg, seed);
        for _ in 0..scale.warmup_windows {
            sim.step_window().expect("fleet window step");
        }
        let mut rates = Vec::new();
        for _ in 0..scale.measure_windows {
            let s = sim.step_window().expect("fleet window step");
            rates.extend(
                s.per_job
                    .iter()
                    .filter(|j| j.enabled)
                    .map(|j| j.normalized_rate * 100.0), // fraction/min -> %/min
            );
        }
        rates
    };
    // Same seed for both arms: paired comparison.
    let before = collect(hand_tuned_params(), scale.seed ^ 0x7A);
    let after = collect(tuned, scale.seed ^ 0x7A);
    let cdf_b = Cdf::from_samples(&before).expect("fleet produced rates");
    let cdf_a = Cdf::from_samples(&after).expect("fleet produced rates");
    Fig7 {
        p98_before: cdf_b.value_at(Percentile::P98),
        p98_after: cdf_a.value_at(Percentile::P98),
        p50_before: cdf_b.value_at(Percentile::P50),
        p50_after: cdf_a.value_at(Percentile::P50),
        before: cdf_b.series(50),
        after: cdf_a.series(50),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfm_types::rate::NormalizedPromotionRate;

    #[test]
    fn figure5_coverage_improves_across_phases() {
        let (points, tuned) = figure5(&Scale::small());
        let stat = phase_steady_coverage(&points, RolloutPhase::Static);
        let hand = phase_steady_coverage(&points, RolloutPhase::HandTuned);
        let auto = phase_steady_coverage(&points, RolloutPhase::Autotuned);
        // The phase deltas are modest in the paper too (13% → 15% → 20%);
        // allow sampling noise on the static/hand comparison but require a
        // clear autotuner win.
        assert!(
            hand > stat - 0.02,
            "hand-tuned {hand} well below static {stat}"
        );
        assert!(
            auto >= hand * 1.10,
            "autotuned {auto} not a clear improvement over hand-tuned {hand}"
        );
        assert!(tuned.k_percentile <= 100.0);
        // Coverage magnitudes in the paper's neighborhood (the paper
        // reaches 15–20%; our synthetic fleet lands in the same regime).
        assert!(hand > 0.05 && hand < 0.8, "hand-tuned coverage {hand}");
    }

    #[test]
    fn figure6_has_ten_clusters_with_spread() {
        let rows = figure6(&Scale::small());
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.summary.min >= 0.0 && r.summary.max <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn figure7_p98_stays_at_or_under_slo_scale() {
        let f = figure7(&Scale::small(), hand_tuned_params());
        let slo_pct = NormalizedPromotionRate::PAPER_SLO_TARGET.percent_per_min();
        assert!(
            f.p98_before <= slo_pct * 3.0,
            "p98 {} way above SLO {}",
            f.p98_before,
            slo_pct
        );
        // Monotone CDFs.
        for series in [&f.before, &f.after] {
            for w in series.windows(2) {
                assert!(w[1].1 >= w[0].1);
            }
        }
    }
}
