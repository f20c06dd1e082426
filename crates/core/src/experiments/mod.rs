//! Reproductions of every figure and headline result in the paper's
//! evaluation (§2.2 and §6).
//!
//! Each `figure*`/`table*` function is pure data generation — the
//! `sdfm-bench` binaries print the rows. Everything accepts a [`Scale`] so
//! tests can run the same code small while the bench binaries run it at
//! paper-shaped scale.
//!
//! | Function | Paper result |
//! |---|---|
//! | [`figure1`](coldness::figure1) | cold % and promotion rate vs threshold T |
//! | [`figure2`](coldness::figure2) | per-machine cold % across the top-10 clusters |
//! | [`figure3`](coldness::figure3) | CDF of per-job cold % |
//! | [`figure5`](rollout::figure5) | coverage over the rollout timeline |
//! | [`figure6`](rollout::figure6) | per-machine coverage across clusters |
//! | [`figure7`](rollout::figure7) | promotion-rate CDF before/after autotuning |
//! | [`figure8`](overhead::figure8) | CPU overhead CDFs (per job / per machine) |
//! | [`figure9a`](overhead::figure9a) | compression-ratio distribution |
//! | [`figure9b`](overhead::figure9b) | decompression-latency distribution |
//! | [`figure10`](bigtable::figure10) | Bigtable A/B: coverage and IPC delta |
//! | [`table1`](tables::table1) | headline TCO arithmetic |
//! | [`table2`](tables::table2) | the §4.3 worked example |
//! | [`table_fn1`](tables::table_fn1) | lzo/lz4/snappy trade-off (footnote 1) |
//! | [`experiment_two_tier`](two_tier::experiment_two_tier) | §8 future work: zswap vs NVM vs two-tier |

pub mod ablations;
pub mod bigtable;
pub mod coldness;
pub mod overhead;
pub mod rollout;
pub mod tables;
pub mod two_tier;

use crate::fleet_sim::FleetSimConfig;
use sdfm_agent::TraceRecord;
use sdfm_model::{group_traces, FarMemoryModel, JobTrace};
use sdfm_types::time::{SimDuration, SimTime, DAY};
use sdfm_workloads::fleet::FleetSpec;
use sdfm_workloads::StatJobModel;
use serde::{Deserialize, Serialize};

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scale {
    /// Machines per cluster (the paper's clusters have tens of thousands).
    pub machines_per_cluster: usize,
    /// Windows (5 min each) to run before measuring.
    pub warmup_windows: usize,
    /// Windows measured.
    pub measure_windows: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for fleet-window stepping (0 = one per available
    /// core). The simulation output is identical at any setting.
    pub threads: usize,
}

impl Scale {
    /// Tiny: unit-test sized (seconds of wall time).
    pub fn small() -> Self {
        Scale {
            machines_per_cluster: 2,
            warmup_windows: 18,
            measure_windows: 12,
            seed: 42,
            threads: 0,
        }
    }

    /// The scale the bench binaries run at: hundreds of machines,
    /// day-scale measurement.
    pub fn paper() -> Self {
        Scale {
            machines_per_cluster: 20,
            warmup_windows: 72,   // 6 hours
            measure_windows: 288, // one day
            seed: 42,
            threads: 0,
        }
    }

    /// The worker count of every pool built at this scale: the
    /// `threads` override when set, else `SDFM_THREADS`, else all cores.
    pub fn workers(&self) -> usize {
        sdfm_pool::resolve_threads(self.threads)
    }

    /// A fleet-simulator config at this scale's worker count.
    pub fn fleet_config(&self) -> FleetSimConfig {
        let mut cfg = FleetSimConfig::new(self.machines_per_cluster);
        cfg.threads = self.workers();
        cfg
    }

    /// A fast far memory model over `traces` at this scale's worker count.
    pub fn fast_model(&self, traces: Vec<JobTrace>) -> FarMemoryModel {
        FarMemoryModel::new(traces).with_threads(self.workers())
    }
}

/// Builds a one-job-per-model fleet (no controller) for distribution
/// studies: returns `(cluster index, machine index, model)` triples.
pub(crate) fn build_stat_fleet(
    spec: &FleetSpec,
    seed: u64,
    noise: f64,
) -> Vec<(usize, usize, StatJobModel)> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for (ci, cluster) in spec.clusters.iter().enumerate() {
        for machine in 0..cluster.machines {
            let (lo, hi) = cluster.jobs_per_machine;
            let count = rng.gen_range(lo..=hi);
            for _ in 0..count {
                let template = cluster.sample_template(&mut rng);
                let profile = template.sample_profile(&mut rng);
                let s = rng.gen();
                // Stationary ages: stagger each job's start over its
                // lifetime (capped at a day) before the observation epoch.
                let span = profile.lifetime.as_secs().min(DAY.as_secs()).max(1);
                let head_start = rng.gen_range(0..span);
                let mut model = StatJobModel::with_noise(profile, s, noise);
                model.set_start(SimTime::from_secs(DAY.as_secs().saturating_sub(head_start)));
                out.push((ci, machine, model));
            }
        }
    }
    out
}

/// Collects a fleet trace (the §5.3 export format) by observing every job
/// of a fresh synthetic fleet for `windows` windows — the input to the
/// fast far memory model and the autotuner.
pub fn collect_fleet_traces(scale: &Scale, windows: usize) -> Vec<JobTrace> {
    let spec = FleetSpec::paper_default(scale.machines_per_cluster);
    let mut fleet = build_stat_fleet(&spec, scale.seed, StatJobModel::DEFAULT_SIGMA);
    let window = SimDuration::from_secs(300);
    let mut records: Vec<TraceRecord> = Vec::new();
    for (ji, (_, _, model)) in fleet.iter_mut().enumerate() {
        let job = sdfm_types::ids::JobId::new(ji as u64 + 1);
        let incompressible_fraction = model.profile().mix.incompressible_fraction();
        for w in 1..=windows {
            let at = SimTime::ZERO + DAY + window * w as u64;
            let obs = model.observe(at, window);
            records.push(TraceRecord {
                job,
                at,
                window,
                working_set: obs.working_set,
                cold_hist: obs.cold_hist,
                promo_delta: obs.promo_delta,
                incompressible_fraction,
            });
        }
    }
    group_traces(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fleet_covers_every_cluster() {
        let spec = FleetSpec::paper_default(2);
        let fleet = build_stat_fleet(&spec, 1, 0.0);
        for ci in 0..spec.clusters.len() {
            assert!(fleet.iter().any(|(c, _, _)| *c == ci), "cluster {ci} empty");
        }
    }

    /// A `--threads N` override reaches the fleet simulator and the fast
    /// model alike.
    #[test]
    fn thread_override_reaches_every_pool() {
        let scale = Scale {
            threads: 3,
            ..Scale::small()
        };
        assert_eq!(scale.workers(), 3);
        assert_eq!(scale.fleet_config().threads, 3);
        assert_eq!(scale.fast_model(Vec::new()).threads(), 3);
    }

    #[test]
    fn trace_collection_produces_grouped_windows() {
        let scale = Scale {
            machines_per_cluster: 1,
            warmup_windows: 0,
            measure_windows: 0,
            seed: 9,
            threads: 0,
        };
        let traces = collect_fleet_traces(&scale, 4);
        assert!(!traces.is_empty());
        for t in &traces {
            assert_eq!(t.len(), 4);
        }
    }
}
