//! `autotune`: GP-Bandit trials over the fast far-memory model (§5.3).
//!
//! The set-up collects a day of fleet traces with
//! `collect_fleet_traces` and builds a [`FarMemoryModel`] over a fixed
//! number of them. A round then
//! runs a fixed number of trials, each `GpBandit::suggest` →
//! `FarMemoryModel::evaluate` → `GpBandit::observe`, from a fresh bandit
//! seeded with the workload seed. Work is configuration evaluations.

use std::ops::Range;
use std::time::Instant;

use sdfm_agent::{AgentParams, SloConfig};
use sdfm_autotuner::{BanditConfig, GpBandit, SearchSpace};
use sdfm_core::experiments::{collect_fleet_traces, Scale};
use sdfm_model::{FarMemoryModel, FleetModelResult, ModelConfig};
use sdfm_types::time::SimDuration;

use crate::stats::{median, ns_to_ms, p9x, Digest, Ledger};
use crate::trace::Tracer;
use crate::{overhead_pct, probe, Estimator, Options, Outcome, Timed, TRACE_PAIRS};

/// Builds the model the trials evaluate against, over the first
/// `trace_jobs` traces.
fn setup(
    opts: &Options,
    threads: usize,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> (FarMemoryModel, f64) {
    let t0 = Instant::now();
    let scale = Scale {
        machines_per_cluster: opts.size.trace_machines_per_cluster,
        warmup_windows: 0,
        measure_windows: opts.size.trace_windows,
        seed: opts.seed,
        threads,
    };
    let model = tracer.span("setup", |t| {
        let mut traces = t.span("core.experiments.collect_fleet_traces", |_| {
            collect_fleet_traces(&scale, opts.size.trace_windows)
        });
        let collected = traces.len();
        ledger.op(collected >= opts.size.trace_jobs, || {
            format!(
                "autotune: collected {collected} traces, fewer than {}",
                opts.size.trace_jobs
            )
        });
        traces.truncate(opts.size.trace_jobs);
        t.span("model.fleet.new", |_| {
            FarMemoryModel::new(traces).with_threads(threads)
        })
    });
    (model, t0.elapsed().as_secs_f64())
}

/// One round's measurements.
struct Round {
    spans: Range<usize>,
    trial_ns: Vec<u64>,
    evaluate_ns: u64,
    windows_replayed: u64,
    digest: u64,
    best: Option<FleetModelResult>,
    feasible: usize,
}

fn round(
    opts: &Options,
    model: &FarMemoryModel,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Round {
    let slo = SloConfig::default();
    let limit = slo.target.fraction_per_min();
    let mut bandit = GpBandit::new(
        SearchSpace::agent_params(),
        BanditConfig::default().with_constraint_limit(limit),
        opts.seed,
    );
    let mut digest = Digest::default();
    let mut results: Vec<(Vec<f64>, FleetModelResult)> = Vec::with_capacity(opts.size.trials);
    let mut trial_ns = Vec::with_capacity(opts.size.trials);
    let mut evaluate_ns = 0u64;
    let mut windows_replayed = 0u64;
    let mark = tracer.mark();
    for _ in 0..opts.size.trials {
        let t0 = Instant::now();
        let trial = tracer.span("autotune.trial", |t| {
            let point = t.span("autotuner.bandit.suggest", |_| bandit.suggest());
            let params = AgentParams::new(
                point[0].clamp(0.0, 100.0),
                SimDuration::from_secs(point[1].max(0.0) as u64),
            );
            let params = ledger.step("autotune: suggested parameters", params)?;
            let config = ModelConfig {
                slo,
                ..ModelConfig::new(params)
            };
            let e0 = Instant::now();
            let result = t.span("model.fleet.evaluate", |_| model.evaluate(&config));
            let eval_ns = e0.elapsed().as_nanos() as u64;
            // An unmeasured constraint is a violation; the penalty stays
            // finite so the GP's standardization keeps working.
            let constraint = result
                .p98_normalized_rate
                .map_or(limit * 10.0, |p| p.fraction_per_min());
            t.span("autotuner.bandit.observe", |_| {
                bandit.observe(point.clone(), result.avg_cold_pages, constraint)
            });
            Some((point, result, eval_ns))
        });
        trial_ns.push(t0.elapsed().as_nanos() as u64);
        let Some((point, result, eval_ns)) = trial else {
            continue;
        };
        evaluate_ns += eval_ns;
        windows_replayed += result.windows as u64;
        ledger.op(result.jobs == model.job_count(), || {
            format!(
                "autotune: evaluate replayed {} of {} jobs",
                result.jobs,
                model.job_count()
            )
        });
        digest.add(&(&point, &result));
        results.push((point, result));
    }
    let feasible = results
        .iter()
        .filter(|(_, r)| r.meets_slo(slo.target))
        .count();
    // The bandit's own best feasible observation, matched back to the
    // trial that produced it.
    let best = bandit.best_feasible().and_then(|o| {
        results
            .iter()
            .rev()
            .find(|(p, _)| *p == o.point)
            .map(|(_, r)| *r)
    });
    ledger.op(best.is_some(), || {
        "autotune: no feasible configuration found".into()
    });
    digest.add(&best);
    Round {
        spans: mark..tracer.mark(),
        trial_ns,
        evaluate_ns,
        windows_replayed,
        digest: digest.value(),
        best,
        feasible,
    }
}

fn coverage_and_p98(r: &Round) -> (f64, f64) {
    r.best.map_or((0.0, 0.0), |b| {
        (
            b.mean_coverage,
            b.p98_normalized_rate.map_or(0.0, |p| p.fraction_per_min()),
        )
    })
}

/// Runs the workload.
pub fn run(opts: &Options, tracer: &mut Tracer, ledger: &mut Ledger) -> Outcome {
    let mut out = Outcome::default();
    if !opts.trace {
        let first = crate::untraced(opts, ledger, &mut out, Estimator::RoundMedian, |ledger| {
            let (model, setup_s) = setup(opts, opts.threads, tracer, ledger);
            let r = round(opts, &model, tracer, ledger);
            let timed = Timed {
                setup_s,
                step_ns: r.trial_ns.clone(),
                work: r.trial_ns.len() as f64,
                digest: r.digest,
            };
            Some((timed, r))
        });
        if let Some(f) = first {
            let (coverage, p98) = coverage_and_p98(&f);
            out.values.insert("cold_coverage", coverage);
            out.values.insert("promo_rate_p98", p98);
            out.notes.push(format!(
                "trials={} feasible_trials={}",
                f.trial_ns.len(),
                f.feasible
            ));
        }
        return out;
    }

    // Traced run: untraced and traced rounds interleaved on a model at
    // the workload's thread count, then one traced round on a one-thread
    // model over the same traces. All must agree.
    let (model, _) = setup(opts, opts.threads, tracer, ledger);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..TRACE_PAIRS {
        untraced.push(round(opts, &model, &mut Tracer::new(false), ledger));
        traced.push(round(opts, &model, tracer, ledger));
    }
    let model = model.with_threads(1);
    let c = round(opts, &model, tracer, ledger);
    let probe = probe::run(opts, tracer);
    out.rounds = 2 * TRACE_PAIRS + 1;
    let b = &traced[0];
    for r in untraced.iter().chain(&traced).chain([&c]) {
        ledger.op(r.digest == b.digest, || {
            "autotune: traced, untraced and one-thread rounds gave different digests".into()
        });
    }
    out.digest = b.digest;
    let in_traced = |name| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|r| ns_to_ms(&tracer.durations(&r.spans, name)))
            .collect()
    };
    let eval_b = in_traced("model.fleet.evaluate");
    let suggest = in_traced("autotuner.bandit.suggest");
    let observe = in_traced("autotuner.bandit.observe");
    let suggest_last = traced
        .iter()
        .filter_map(|r| {
            tracer
                .durations(&r.spans, "autotuner.bandit.suggest")
                .last()
                .copied()
        })
        .min()
        .unwrap_or(0);
    let eval_c = ns_to_ms(&tracer.durations(&c.spans, "model.fleet.evaluate"));
    let (p, tail) = p9x(&eval_b);
    let v = &mut out.values;
    v.insert(
        "trace.overhead_pct",
        overhead_pct(
            untraced.iter().map(|r| r.trial_ns.as_slice()),
            traced.iter().map(|r| r.trial_ns.as_slice()),
        ),
    );
    v.insert("pool.speedup", median(&eval_c) / median(&eval_b));
    v.insert("workloads.stat.observe.us_per_call", probe.observe_us);
    v.insert("agent.controller.on_minute.us_per_call", probe.on_minute_us);
    v.insert("model.fleet.evaluate.ms_p50", median(&eval_b));
    v.insert("model.fleet.evaluate.ms_p9x", tail);
    v.insert(
        "model.replay.ns_per_job_window",
        c.evaluate_ns as f64 / c.windows_replayed.max(1) as f64,
    );
    v.insert("autotuner.bandit.suggest.ms_p50", median(&suggest));
    v.insert(
        "autotuner.bandit.suggest.ms_last",
        suggest_last as f64 / 1e6,
    );
    v.insert("autotuner.bandit.observe.ms_p50", median(&observe));
    v.insert("autotune.trials", b.trial_ns.len() as f64);
    v.insert("autotune.feasible_trials", b.feasible as f64);
    let (coverage, p98) = coverage_and_p98(b);
    out.notes.push(format!(
        "evaluate samples={} tail=p{p}; replay ns uses the 1-thread round",
        eval_b.len()
    ));
    out.notes
        .push(format!("cold_coverage={coverage} promo_rate_p98={p98}"));
    out
}
