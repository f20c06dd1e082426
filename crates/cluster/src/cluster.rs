//! A Borg-like cluster: best-fit placement, pending queue, churn, and
//! eviction handling.

use std::collections::VecDeque;
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::eviction::EvictionTracker;
use crate::machine::{Machine, MachineReport};
use crate::telemetry::TelemetryDb;
use sdfm_agent::{AgentParams, SloConfig};
use sdfm_kernel::KernelConfig;
use sdfm_pool::WorkerPool;
use sdfm_types::ids::{ClusterId, JobId, MachineId};
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime, MINUTE};
use sdfm_workloads::profile::JobProfile;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Cluster identity.
    pub id: ClusterId,
    /// Number of machines.
    pub machines: usize,
    /// Per-machine kernel configuration.
    pub kernel: KernelConfig,
    /// Node-agent parameters (uniform across the cluster).
    pub agent: AgentParams,
    /// The far-memory SLO.
    pub slo: SloConfig,
    /// Trace export period.
    pub export_period: SimDuration,
    /// Worker threads for the per-machine step (1 = sequential). Each
    /// machine is self-contained (kernel, agent, drivers); the machines are
    /// cut into contiguous index chunks whose telemetry and reports are
    /// merged back in chunk order, so the cluster trajectory is
    /// bit-for-bit identical at any thread count.
    pub threads: usize,
}

impl ClusterConfig {
    /// A small configuration for tests and examples: 4 machines of 50k
    /// frames each.
    pub fn small_test() -> Self {
        ClusterConfig {
            id: ClusterId::new(0),
            machines: 4,
            kernel: KernelConfig {
                capacity: PageCount::new(50_000),
                ..KernelConfig::default()
            },
            agent: AgentParams::default(),
            slo: SloConfig::default(),
            export_period: SimDuration::from_secs(300),
            // 0 = unrequested: honors `SDFM_THREADS`, then host parallelism.
            threads: sdfm_pool::resolve_threads(0),
        }
    }
}

/// What happened during one cluster minute.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MinuteReport {
    /// Jobs placed this minute.
    pub placed: Vec<JobId>,
    /// Jobs that exited normally.
    pub exited: Vec<JobId>,
    /// Jobs evicted under pressure (requeued automatically).
    pub evicted: Vec<JobId>,
    /// Jobs still waiting for capacity.
    pub pending: usize,
    /// Actual promotions across the cluster this minute.
    pub promotions: u64,
}

// The machine step hands contiguous machine chunks to the worker pool;
// everything a machine owns (kernel, node agent, drivers) must therefore
// cross thread boundaries.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<TelemetryDb>();
    assert_send::<MachineReport>();
};

/// The cluster: machines plus scheduler state.
pub struct BorgCluster {
    config: ClusterConfig,
    machines: Vec<Machine>,
    pending: VecDeque<(JobId, JobProfile)>,
    telemetry: TelemetryDb,
    evictions: EvictionTracker,
    now: SimTime,
    next_job: u64,
    rng: StdRng,
    /// The persistent worker pool, created lazily on the first minute and
    /// shut down — workers joined — when the cluster drops.
    pool: OnceLock<WorkerPool>,
}

impl std::fmt::Debug for BorgCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BorgCluster")
            .field("machines", &self.machines.len())
            .field("pending", &self.pending.len())
            .field("now", &self.now)
            .finish()
    }
}

impl BorgCluster {
    /// Builds a cluster at `t = 0`.
    pub fn new(config: ClusterConfig, seed: u64) -> Self {
        let machines = (0..config.machines)
            .map(|i| {
                Machine::new(
                    MachineId::new(i as u64),
                    config.id,
                    config.kernel,
                    config.agent,
                    config.slo,
                    config.export_period,
                )
            })
            .collect();
        BorgCluster {
            config,
            machines,
            pending: VecDeque::new(),
            telemetry: TelemetryDb::new(),
            evictions: EvictionTracker::new(),
            now: SimTime::ZERO,
            next_job: 1,
            rng: StdRng::seed_from_u64(seed),
            pool: OnceLock::new(),
        }
    }

    /// Submits a job for scheduling; placement happens on subsequent
    /// minutes.
    pub fn submit(&mut self, profile: JobProfile) -> JobId {
        let id = JobId::new(self.next_job);
        self.next_job += 1;
        self.pending.push_back((id, profile));
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The machines (read access).
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// Accumulated telemetry.
    pub fn telemetry(&self) -> &TelemetryDb {
        &self.telemetry
    }

    /// Mutable telemetry access (draining traces into the model pipeline).
    pub fn telemetry_mut(&mut self) -> &mut TelemetryDb {
        &mut self.telemetry
    }

    /// Eviction-SLO bookkeeping.
    pub fn evictions(&self) -> &EvictionTracker {
        &self.evictions
    }

    /// Total jobs running across machines.
    pub fn running_jobs(&self) -> usize {
        self.machines.iter().map(|m| m.job_count()).sum()
    }

    /// Rolls out new agent parameters cluster-wide (autotuner deployment).
    pub fn set_agent_params(&mut self, params: AgentParams) {
        for m in &mut self.machines {
            m.set_agent_params(params);
        }
    }

    /// Advances the cluster by one minute: places pending jobs best-fit,
    /// steps every machine, requeues evicted jobs.
    ///
    /// The machine step fans out across [`ClusterConfig::threads`]
    /// workers in contiguous machine chunks; each chunk returns its own
    /// telemetry buffer and report list, and both are merged back in
    /// chunk order, so the telemetry streams, the report, and the
    /// eviction requeue order are bit-for-bit identical at any thread
    /// count. Placement (which draws cluster RNG) stays sequential before
    /// the fan-out; requeueing stays sequential after it.
    pub fn step_minute(&mut self) -> MinuteReport {
        self.now += MINUTE;
        let mut report = MinuteReport::default();

        // Best-fit placement: tightest machine that still fits.
        let mut still_pending = VecDeque::new();
        while let Some((job, profile)) = self.pending.pop_front() {
            let needed = profile.total_pages();
            let candidate = self
                .machines
                .iter()
                .enumerate()
                // sdfm-lint: allow(U1) reason="one resident page occupies exactly one frame in this machine model"
                .filter(|(_, m)| m.free_frames() >= needed)
                .min_by_key(|(_, m)| m.free_frames().get());
            match candidate {
                Some((idx, _)) => {
                    let seed = self.rng.gen();
                    if self.machines[idx].try_place(job, &profile, self.now, seed) {
                        report.placed.push(job);
                    } else {
                        still_pending.push_back((job, profile));
                    }
                }
                None => still_pending.push_back((job, profile)),
            }
        }
        self.pending = still_pending;

        let now = self.now;
        let threads = self.config.threads;
        let chunk = self.machines.len().div_ceil(threads.max(1)).max(1);
        let pool = self.pool.get_or_init(|| WorkerPool::new(threads));
        let tasks: Vec<_> = self
            .machines
            .chunks_mut(chunk)
            .map(|machines| {
                move || {
                    let mut db = TelemetryDb::new();
                    let reports: Vec<MachineReport> = machines
                        .iter_mut()
                        .map(|m| m.step_minute(now, &mut db))
                        .collect();
                    (db, reports)
                }
            })
            .collect();
        let chunks = pool.run(tasks).unwrap_or_else(|e| {
            // A machine-step panic is a simulator bug, not a recoverable
            // condition; re-raise it with context instead of silently
            // dropping the minute.
            // sdfm-lint: allow(P1) reason="re-raises a worker panic; swallowing it would silently drop the minute's machine state"
            panic!("cluster minute worker panicked: {e}")
        });
        // Merge in chunk order: telemetry insertion order, the report's job
        // lists, and the eviction requeue order all come out exactly as a
        // single machine-index-order loop produces them.
        for (db, reports) in chunks {
            self.telemetry.merge(db);
            for r in reports {
                Self::fold_report(r, &mut report, &mut self.evictions, &mut self.pending);
            }
        }
        self.evictions
            .record_runtime(self.running_jobs() as u64, MINUTE);
        report.pending = self.pending.len();
        report
    }

    /// Folds one machine's minute report into the cluster report,
    /// recording evictions and requeueing evicted jobs. Called in
    /// machine-index order so the outcome is scheduling-independent.
    fn fold_report(
        r: MachineReport,
        report: &mut MinuteReport,
        evictions: &mut EvictionTracker,
        pending: &mut VecDeque<(JobId, JobProfile)>,
    ) {
        report.promotions += r.promotions;
        report.exited.extend(r.exited);
        for (job, profile) in r.evicted {
            evictions.record_eviction();
            report.evicted.push(job);
            // Borg reschedules evicted jobs elsewhere.
            pending.push_back((job, profile));
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfm_compress::gen::CompressibilityMix;
    use sdfm_workloads::profile::{DiurnalPattern, JobPriority, RateBucket};

    fn profile(pages: u64, lifetime_mins: u64) -> JobProfile {
        JobProfile {
            template: "t".into(),
            rate_buckets: vec![
                RateBucket {
                    pages: pages / 4,
                    rate_per_sec: 0.3,
                },
                RateBucket {
                    pages: pages - pages / 4,
                    rate_per_sec: 1e-9,
                },
            ],
            diurnal: DiurnalPattern::FLAT,
            mix: CompressibilityMix::fleet_default(),
            cpu_cores: 1.0,
            write_fraction: 0.1,
            burst_interval: None,
            priority: JobPriority::Batch,
            lifetime: SimDuration::from_mins(lifetime_mins),
        }
    }

    #[test]
    fn jobs_get_placed_and_run() {
        let mut c = BorgCluster::new(ClusterConfig::small_test(), 1);
        let a = c.submit(profile(10_000, 500));
        let b = c.submit(profile(10_000, 500));
        let r = c.step_minute();
        assert_eq!(r.placed, vec![a, b]);
        assert_eq!(c.running_jobs(), 2);
        assert_eq!(r.pending, 0);
    }

    #[test]
    fn oversized_jobs_stay_pending() {
        let mut c = BorgCluster::new(ClusterConfig::small_test(), 2);
        c.submit(profile(60_000, 100)); // bigger than any machine
        let r = c.step_minute();
        assert!(r.placed.is_empty());
        assert_eq!(r.pending, 1);
    }

    #[test]
    fn queue_drains_as_capacity_frees() {
        let mut c = BorgCluster::new(
            ClusterConfig {
                machines: 1,
                ..ClusterConfig::small_test()
            },
            3,
        );
        c.submit(profile(40_000, 3)); // fills the machine, exits at t=3min
        c.submit(profile(40_000, 100)); // must wait
        let r1 = c.step_minute();
        assert_eq!(r1.placed.len(), 1);
        assert_eq!(r1.pending, 1);
        let mut placed_later = false;
        for _ in 0..6 {
            let r = c.step_minute();
            if !r.placed.is_empty() {
                placed_later = true;
            }
        }
        assert!(placed_later, "queued job never placed after capacity freed");
    }

    #[test]
    fn best_fit_packs_tightest_machine() {
        let mut c = BorgCluster::new(ClusterConfig::small_test(), 4);
        // Two jobs on one machine leave it tighter; the third small job
        // should go there.
        c.submit(profile(30_000, 1000));
        c.step_minute();
        c.submit(profile(15_000, 1000));
        c.step_minute();
        // Machine 0 now has 5_000 free; a 4_000-page job best-fits there.
        c.submit(profile(4_000, 1000));
        c.step_minute();
        let m0_jobs = c.machines()[0].job_count();
        assert_eq!(m0_jobs, 3, "best-fit did not pack machine 0");
    }

    /// Machine-sharded stepping must be invisible: the same seed and
    /// submission schedule produce identical reports and identical
    /// telemetry streams — snapshot by snapshot, in the same insertion
    /// order — at threads 1, 2, and 4 (the ISSUE's acceptance gate).
    /// Eviction pressure is forced so the requeue path is exercised too.
    #[test]
    fn cluster_step_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut c = BorgCluster::new(
                ClusterConfig {
                    threads,
                    ..ClusterConfig::small_test()
                },
                7,
            );
            // Overcommit the cluster so placements, exits, and evictions
            // all occur within the run.
            for i in 0..10 {
                c.submit(profile(20_000 + 2_000 * i, 4 + i));
            }
            let mut reports = Vec::new();
            for _ in 0..12 {
                reports.push(c.step_minute());
            }
            (reports, c)
        };
        let (r1, c1) = run(1);
        for threads in [2, 3, 4] {
            let (r, c) = run(threads);
            assert_eq!(r1, r, "reports diverged at {threads} threads");
            assert_eq!(
                c1.telemetry().job_snapshots(),
                c.telemetry().job_snapshots(),
                "job snapshots diverged at {threads} threads"
            );
            assert_eq!(
                c1.telemetry().machine_snapshots(),
                c.telemetry().machine_snapshots(),
                "machine snapshots diverged at {threads} threads"
            );
            assert_eq!(
                c1.telemetry().traces(),
                c.telemetry().traces(),
                "trace records diverged at {threads} threads"
            );
        }
        // The schedule actually exercised the chunk merge.
        assert!(r1.iter().any(|r| !r.placed.is_empty()), "nothing placed");
        assert!(
            !c1.telemetry().machine_snapshots().is_empty(),
            "no telemetry produced"
        );
    }

    #[test]
    fn telemetry_and_eviction_tracking_accumulate() {
        let mut c = BorgCluster::new(ClusterConfig::small_test(), 5);
        c.submit(profile(10_000, 100));
        for _ in 0..10 {
            c.step_minute();
        }
        assert!(!c.telemetry().machine_snapshots().is_empty());
        assert!(c.evictions().job_time().as_secs() > 0);
        assert!(c.evictions().meets_slo(1.0));
        assert_eq!(c.now().as_secs(), 600);
    }
}
