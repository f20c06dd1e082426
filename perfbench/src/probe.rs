//! Per-call timings of the two stat-tier layers `FleetSim::step_window`
//! calls internally, which the benchmark cannot wrap from outside: the
//! stat model's `observe` and the controller's `on_minute`. Both are timed
//! over a job population drawn from the same paper-default `FleetSpec`,
//! with job ages staggered over their lifetimes the way the fleet
//! simulator staggers them. The fleet workload interleaves probe windows
//! with its one-thread windows, so both see the same host conditions.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdfm_agent::{AgentParams, JobController, SloConfig};
use sdfm_types::histogram::PromotionHistogram;
use sdfm_types::time::{SimDuration, SimTime, DAY};
use sdfm_workloads::{FleetBuilder, FleetSpec, StatJobModel};

use crate::trace::Tracer;
use crate::Options;

/// A population of stat-tier jobs with their controllers.
pub struct Probe {
    jobs: Vec<(StatJobModel, JobController, PromotionHistogram)>,
    epoch: SimTime,
    windows: u64,
}

/// Mean microseconds per call of each probed layer.
#[derive(Debug, Clone, Copy)]
pub struct PerCall {
    /// `StatJobModel::observe`.
    pub observe_us: f64,
    /// `JobController::on_minute`.
    pub on_minute_us: f64,
}

const WINDOW: SimDuration = SimDuration::from_secs(300);

impl Probe {
    /// Draws the population from the workload seed.
    pub fn new(opts: &Options) -> Self {
        let spec = FleetSpec::paper_default(opts.size.probe_machines_per_cluster);
        let placed = FleetBuilder::new(spec, opts.seed).build();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let epoch = SimTime::ZERO + DAY;
        let jobs = placed
            .into_iter()
            .map(|p| {
                let span = p.profile.lifetime.as_secs().min(DAY.as_secs()).max(1);
                let started = SimTime::from_secs(epoch.as_secs() - rng.gen_range(0..span));
                let mut model =
                    StatJobModel::with_noise(p.profile, rng.gen(), StatJobModel::DEFAULT_SIGMA);
                model.set_start(started);
                let ctl = JobController::new(AgentParams::default(), SloConfig::default(), started);
                (model, ctl, PromotionHistogram::new())
            })
            .collect();
        Probe {
            jobs,
            epoch,
            windows: 0,
        }
    }

    /// Observes every job for one more window and feeds the controller,
    /// one span per call.
    pub fn step(&mut self, tracer: &mut Tracer) {
        self.windows += 1;
        let now = self.epoch + WINDOW * self.windows;
        tracer.span("probe.window", |t| {
            for (model, ctl, cumulative) in &mut self.jobs {
                let obs = t.span("workloads.stat.observe", |_| model.observe(now, WINDOW));
                cumulative.merge(&obs.promo_delta);
                let decision = t.span("agent.controller.on_minute", |_| {
                    ctl.on_minute(now, &obs.cold_hist, cumulative)
                });
                std::hint::black_box(decision);
            }
        });
    }

    /// Mean per-call times over the probe spans recorded in `spans`.
    pub fn per_call(tracer: &Tracer, spans: &Range<usize>) -> PerCall {
        let mean_us = |name| {
            let ns = tracer.durations(spans, name);
            ns.iter().sum::<u64>() as f64 / 1e3 / ns.len().max(1) as f64
        };
        PerCall {
            observe_us: mean_us("workloads.stat.observe"),
            on_minute_us: mean_us("agent.controller.on_minute"),
        }
    }
}

/// Runs `probe_windows` probe windows on their own (inside `tracer`,
/// which must be on).
pub fn run(opts: &Options, tracer: &mut Tracer) -> PerCall {
    let mut probe = Probe::new(opts);
    let mark = tracer.mark();
    for _ in 0..opts.size.probe_windows {
        probe.step(tracer);
    }
    Probe::per_call(tracer, &(mark..tracer.mark()))
}
