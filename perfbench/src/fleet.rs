//! `fleet`: the stat-tier fleet simulator on the paper-default fleet.
//!
//! A round builds a [`FleetSim`] (the set-up), steps a few untimed
//! warm-up windows, then times `fleet_windows` calls of
//! [`FleetSim::step_window`]. Work is job-windows: every job alive in a
//! window is one.

use std::ops::Range;
use std::time::Instant;

use sdfm_core::fleet_sim::{FleetSim, FleetSimConfig, FleetWindowStats, JobWindowStat};
use sdfm_kernel::{ChainPolicy, PrefetchMode, PrefetchPolicy};
use sdfm_types::stats::{percentile, Percentile};

use crate::probe::Probe;
use crate::stats::{median, ns_to_ms, p9x, Digest, Ledger};
use crate::trace::Tracer;
use crate::{overhead_pct, Estimator, Options, Outcome, Size, Timed, TRACE_PAIRS};

/// The simulator configuration of the workload: every machine on the stat
/// tier, churn on, the paper-default three-tier chain and stride+Markov
/// prefetch.
fn config(size: &Size, threads: usize) -> FleetSimConfig {
    let mut cfg = FleetSimConfig::new(size.fleet_machines_per_cluster);
    cfg.chain = Some(ChainPolicy::paper_default(size.fleet_ssd_quota_pages));
    cfg.prefetch = Some(PrefetchPolicy::paper_default(PrefetchMode::StrideMarkov));
    cfg.churn = true;
    cfg.fidelity_cutoff = 0;
    cfg.threads = threads;
    cfg
}

/// Exact work counts over the timed windows of a round.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    promotions: u64,
    compress: u64,
    decompress: u64,
    rejected: u64,
    ssd_demotions: u64,
    remote_demotions: u64,
    prefetch_issued: u64,
    prefetch_used: u64,
    prefetch_wasted: u64,
    prefetch_late: u64,
    jobs_spawned: u64,
}

/// One round's measurements.
struct Round {
    /// Spans of the timed windows.
    spans: Range<usize>,
    setup_s: f64,
    step_ns: Vec<u64>,
    job_windows: u64,
    digest: u64,
    coverage: f64,
    p98: f64,
    cpu_pct: f64,
    counts: Counts,
    per_job_bytes: f64,
}

impl Round {
    fn us_per_job_window(&self) -> f64 {
        self.step_ns.iter().sum::<u64>() as f64 / 1e3 / self.job_windows as f64
    }
}

/// Checks the per-job identities DESIGN.md states for the stat tier:
/// `far == store + ssd + remote` while enabled, the decompression ledger,
/// and `used + wasted == issued`. Also checks `far <= cold`.
fn check_window(s: &FleetWindowStats, ledger: &mut Ledger) {
    type Identity = (&'static str, fn(&JobWindowStat) -> bool);
    let identities: [Identity; 4] = [
        ("far == store + ssd + remote", |j| {
            !j.enabled || j.far_pages == j.store_pages + j.ssd_pages + j.remote_pages
        }),
        (
            "decompress == promotions + prefetch_issued + writebacks + demotions",
            |j| {
                j.decompress_events
                    == j.promotions
                        + j.prefetch_issued
                        + j.writeback_events
                        + j.ssd_demotions
                        + j.remote_demotions
            },
        ),
        ("used + wasted == issued", |j| {
            j.prefetch_used + j.prefetch_wasted == j.prefetch_issued
        }),
        ("far <= cold", |j| j.far_pages <= j.cold_pages),
    ];
    for (name, holds) in identities {
        let bad = s.per_job.iter().filter(|j| !holds(j)).count();
        ledger.op(bad == 0, || {
            format!("fleet window at {:?}: {name} fails for {bad} jobs", s.at)
        });
    }
}

/// Runs one round; `between` runs after every timed window.
fn round(
    opts: &Options,
    threads: usize,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    mut between: impl FnMut(&mut Tracer),
) -> Option<Round> {
    let size = &opts.size;
    let t0 = Instant::now();
    let mut sim = tracer.span("setup", |t| {
        t.span("core.fleet_sim.new", |_| {
            FleetSim::new(config(size, threads), opts.seed)
        })
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let mut digest = Digest::default();
    let mut max_id = 0u64;
    for _ in 0..size.fleet_warmup_windows {
        let r = tracer.span("fleet.warmup_window", |t| {
            t.span("core.fleet_sim.step_window", |_| sim.step_window())
        });
        let s = ledger.step("fleet warm-up window", r)?;
        check_window(&s, ledger);
        digest.add(&s);
        max_id = s
            .per_job
            .iter()
            .map(|j| j.job.raw())
            .max()
            .unwrap_or(max_id);
    }

    let mark = tracer.mark();
    let cpu0 = sim.cpu_accounting();
    let window_secs = sim.window().as_secs() as f64;
    let mut step_ns = Vec::with_capacity(size.fleet_windows);
    let mut counts = Counts::default();
    let mut job_windows = 0u64;
    let mut coverage = 0.0;
    let mut rates = Vec::new();
    let mut core_seconds = 0.0;
    let mut per_job_bytes = 0.0;
    for _ in 0..size.fleet_windows {
        let (r, ns) = tracer.span("fleet.window", |t| {
            t.span("core.fleet_sim.step_window", |_| {
                let t = Instant::now();
                let r = sim.step_window();
                (r, t.elapsed().as_nanos() as u64)
            })
        });
        let s = ledger.step("fleet window", r)?;
        step_ns.push(ns);
        check_window(&s, ledger);
        job_windows += s.per_job.len() as u64;
        coverage += s.coverage();
        per_job_bytes += (s.per_job.capacity() * std::mem::size_of::<JobWindowStat>()) as f64;
        for j in &s.per_job {
            if j.enabled {
                rates.push(j.normalized_rate);
            }
            core_seconds += j.cpu_cores * window_secs;
            counts.promotions += j.promotions;
            counts.compress += j.compress_events;
            counts.decompress += j.decompress_events;
            counts.rejected += j.rejected_events;
            counts.ssd_demotions += j.ssd_demotions;
            counts.remote_demotions += j.remote_demotions;
            counts.prefetch_issued += j.prefetch_issued;
            counts.prefetch_used += j.prefetch_used;
            counts.prefetch_wasted += j.prefetch_wasted;
            counts.prefetch_late += j.prefetch_late;
            counts.jobs_spawned += u64::from(j.job.raw() > max_id);
        }
        max_id = s
            .per_job
            .iter()
            .map(|j| j.job.raw())
            .max()
            .unwrap_or(max_id);
        digest.add(&s);
        between(tracer);
    }
    let cpu1 = sim.cpu_accounting();
    digest.add(&cpu1);
    let cpu_ns = (cpu1.compress_ns - cpu0.compress_ns) + (cpu1.decompress_ns - cpu0.decompress_ns);
    let p98 = percentile(&rates, Percentile::P98);
    ledger.op(p98.is_some(), || {
        "fleet: no job-window ran with zswap enabled".into()
    });
    let windows = size.fleet_windows.max(1) as f64;
    Some(Round {
        spans: mark..tracer.mark(),
        setup_s,
        step_ns,
        job_windows,
        digest: digest.value(),
        coverage: coverage / windows,
        p98: p98.unwrap_or(0.0),
        cpu_pct: cpu_ns as f64 / (core_seconds * 1e9).max(1.0) * 100.0,
        counts,
        per_job_bytes: per_job_bytes / windows,
    })
}

/// Runs the workload.
pub fn run(opts: &Options, tracer: &mut Tracer, ledger: &mut Ledger) -> Outcome {
    let mut out = Outcome::default();
    if !opts.trace {
        let first = crate::untraced(opts, ledger, &mut out, Estimator::RoundMedian, |ledger| {
            let r = round(opts, opts.threads, tracer, ledger, |_| ())?;
            let timed = Timed {
                setup_s: r.setup_s,
                step_ns: r.step_ns.clone(),
                work: r.job_windows as f64,
                digest: r.digest,
            };
            Some((timed, r))
        });
        if let Some(f) = first {
            out.values.insert("cold_coverage", f.coverage);
            out.values.insert("promo_rate_p98", f.p98);
            out.notes.push(format!("cpu_overhead_pct={}", f.cpu_pct));
            out.notes
                .push(format!("job_windows_per_round={}", f.job_windows));
        }
        return out;
    }

    // Traced run: untraced and traced rounds interleaved at the
    // workload's thread count, then one traced round at one thread with a
    // stat-probe window after each of its windows. All must agree.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..TRACE_PAIRS {
        untraced.push(round(
            opts,
            opts.threads,
            &mut Tracer::new(false),
            ledger,
            |_| (),
        ));
        traced.push(round(opts, opts.threads, tracer, ledger, |_| ()));
    }
    let mut probe = Probe::new(opts);
    let one = round(opts, 1, tracer, ledger, |t| probe.step(t));
    out.rounds = 2 * TRACE_PAIRS + 1;
    let (Some(untraced), Some(traced), Some(c)) = (
        untraced.into_iter().collect::<Option<Vec<_>>>(),
        traced.into_iter().collect::<Option<Vec<_>>>(),
        one,
    ) else {
        return out;
    };
    let b = &traced[0];
    for r in untraced.iter().chain(&traced).chain([&c]) {
        ledger.op(r.digest == b.digest, || {
            "fleet: traced, untraced and one-thread rounds gave different digests".into()
        });
    }
    out.digest = b.digest;
    let probe = Probe::per_call(tracer, &c.spans);
    let steps_b: Vec<f64> = traced
        .iter()
        .flat_map(|r| ns_to_ms(&tracer.durations(&r.spans, "core.fleet_sim.step_window")))
        .collect();
    let steps_c = ns_to_ms(&tracer.durations(&c.spans, "core.fleet_sim.step_window"));
    let (p, tail) = p9x(&steps_b);
    let v = &mut out.values;
    v.insert(
        "trace.overhead_pct",
        overhead_pct(
            untraced.iter().map(|r| r.step_ns.as_slice()),
            traced.iter().map(|r| r.step_ns.as_slice()),
        ),
    );
    v.insert("pool.speedup", median(&steps_c) / median(&steps_b));
    v.insert("sim.cpu_overhead_pct", b.cpu_pct);
    v.insert("workloads.stat.observe.us_per_call", probe.observe_us);
    v.insert("agent.controller.on_minute.us_per_call", probe.on_minute_us);
    v.insert("core.fleet_sim.step_window.ms_p50", median(&steps_b));
    v.insert("core.fleet_sim.step_window.ms_p9x", tail);
    v.insert(
        "core.fleet_sim.step_window.us_per_job_window",
        b.us_per_job_window(),
    );
    v.insert(
        "core.fleet_sim.unattributed_us_per_job_window",
        c.us_per_job_window() - probe.observe_us - probe.on_minute_us,
    );
    v.insert("core.fleet_sim.per_job_bytes", b.per_job_bytes);
    let k = b.counts;
    v.insert("promotions", k.promotions as f64);
    v.insert(
        "prefetch.issued_per_promotion",
        k.prefetch_issued as f64 / (k.promotions + k.prefetch_used).max(1) as f64,
    );
    v.insert("fleet.compress_events", k.compress as f64);
    v.insert("fleet.decompress_events", k.decompress as f64);
    v.insert("fleet.rejected_events", k.rejected as f64);
    v.insert("fleet.ssd_demotions", k.ssd_demotions as f64);
    v.insert("fleet.remote_demotions", k.remote_demotions as f64);
    v.insert("fleet.prefetch.issued", k.prefetch_issued as f64);
    v.insert("fleet.prefetch.used", k.prefetch_used as f64);
    v.insert("fleet.prefetch.wasted", k.prefetch_wasted as f64);
    v.insert("fleet.prefetch.late", k.prefetch_late as f64);
    v.insert("fleet.jobs_spawned", k.jobs_spawned as f64);
    out.notes.push(format!(
        "step_window samples={} tail=p{p}; unattributed uses the 1-thread round",
        steps_b.len()
    ));
    out.notes.push(format!(
        "cold_coverage={} promo_rate_p98={}",
        b.coverage, b.p98
    ));
    out
}
