//! `machine_real` and `machine_synth`: one page-level machine.
//!
//! The set-up boots a [`Kernel`] with a three-tier demotion chain and the
//! stride+Markov prefetcher, and places one job of each [`JobTemplate`],
//! each rescaled to `pages_per_job` pages. The profiles are drawn from a
//! fixed seed, so the machine is the same for every workload seed, which
//! drives the access streams and page contents. `machine_real` fills
//! pages with real generated contents (`populate_real`), so the codec and
//! zsmalloc do real work; `machine_synth` uses synthetic contents
//! (`populate`), the path `Machine`, `BorgCluster` and the fleet's
//! fidelity cutoff run.
//!
//! Each simulated minute calls `PageLevelDriver::run_window` for every
//! job, `Kernel::run_scan` on the 120 s kstaled cadence, then
//! `NodeAgent::tick`. Work is simulated machine-minutes.

use std::ops::Range;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdfm_agent::{AgentParams, NodeAgent, SloConfig};
use sdfm_kernel::{
    BackendConfig, BackendStats, Kernel, KernelConfig, MemcgStats, PrefetchMode, PrefetchPolicy,
};
use sdfm_types::ids::JobId;
use sdfm_types::size::PageCount;
use sdfm_types::stats::{percentile, Percentile};
use sdfm_types::time::{SimTime, KSTALED_SCAN_PERIOD, MINUTE};
use sdfm_workloads::{JobProfile, JobTemplate, PageLevelDriver};

use crate::stats::{median, ns_to_ms, p9x, Digest, Ledger};
use crate::trace::Tracer;
use crate::{overhead_pct, probe, Estimator, Options, Outcome, Timed, TRACE_PAIRS};

/// Seed of the job profiles. The machine's composition is part of the
/// workload's definition; the workload seed drives each job's access
/// stream and page contents.
const PROFILE_SEED: u64 = 42;

/// Chain positions of the device tiers below the compressed-RAM store.
const SSD: usize = 1;
const REMOTE: usize = 2;

/// Scales a profile's rate buckets to exactly `pages` pages, keeping
/// each bucket's share and rate; buckets that round to nothing are
/// dropped.
fn rescale(mut profile: JobProfile, pages: u64) -> JobProfile {
    let total: u64 = profile.rate_buckets.iter().map(|b| b.pages).sum();
    let mut placed = 0u64;
    for b in &mut profile.rate_buckets {
        b.pages = (u128::from(b.pages) * u128::from(pages) / u128::from(total.max(1))) as u64;
        placed += b.pages;
    }
    if let Some(hot) = profile.rate_buckets.first_mut() {
        hot.pages += pages - placed;
    }
    profile.rate_buckets.retain(|b| b.pages > 0);
    profile
}

/// A booted machine with its jobs placed.
struct Machine {
    kernel: Kernel,
    agent: NodeAgent,
    drivers: Vec<PageLevelDriver>,
    cpu_cores: f64,
}

fn setup(
    opts: &Options,
    real: bool,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Option<(Machine, f64)> {
    let t0 = Instant::now();
    let pages = opts.size.pages_per_job;
    let total = pages * JobTemplate::ALL.len() as u64;
    let mut kernel = Kernel::new(KernelConfig {
        capacity: PageCount::new(2 * total),
        prefetch: PrefetchPolicy::paper_default(PrefetchMode::StrideMarkov).kernel_config(),
        ..KernelConfig::default()
    });
    kernel.enable_chain(&[
        BackendConfig::compressed_ram(),
        BackendConfig::ssd(PageCount::new(total / 16)),
        BackendConfig::remote(),
    ]);
    let mut agent = NodeAgent::new(AgentParams::default(), SloConfig::default());
    let mut profiles = StdRng::seed_from_u64(PROFILE_SEED);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut drivers = Vec::with_capacity(JobTemplate::ALL.len());
    let mut cpu_cores = 0.0;
    let ok = tracer.span("setup", |t| {
        for (i, template) in JobTemplate::ALL.into_iter().enumerate() {
            let profile = rescale(template.sample_profile(&mut profiles), pages);
            cpu_cores += profile.cpu_cores;
            let job = JobId::new(i as u64 + 1);
            let mut driver = PageLevelDriver::new(job, profile, rng.gen());
            let r = t.span("workloads.driver.populate", |_| {
                if real {
                    driver.populate_real(&mut kernel)
                } else {
                    driver.populate(&mut kernel)
                }
            });
            ledger.step("machine: populate", r)?;
            agent.register_job(job, SimTime::ZERO);
            drivers.push(driver);
        }
        Some(())
    });
    ok?;
    let machine = Machine {
        kernel,
        agent,
        drivers,
        cpu_cores,
    };
    Some((machine, t0.elapsed().as_secs_f64()))
}

/// Cumulative kernel counters the round reports as deltas.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    memcg: MemcgStats,
    tiers: [BackendStats; 3],
    store_attempts: u64,
    stores: u64,
    compress_ns: u64,
    decompress_ns: u64,
}

fn totals(k: &Kernel) -> Totals {
    let mut t = Totals::default();
    for job in k.jobs() {
        if let Ok(cg) = k.memcg(job) {
            let s = cg.stats();
            t.memcg.compressions += s.compressions;
            t.memcg.rejections += s.rejections;
            t.memcg.decompressions += s.decompressions;
            t.memcg.writebacks += s.writebacks;
            t.memcg.prefetch_issued += s.prefetch_issued;
            t.memcg.prefetch_used += s.prefetch_used;
            t.memcg.prefetch_wasted += s.prefetch_wasted;
            t.memcg.prefetch_late += s.prefetch_late;
        }
    }
    for (slot, s) in t.tiers.iter_mut().zip(k.chain_stats().unwrap_or_default()) {
        *slot = s;
    }
    let z = k.zswap().stats();
    t.store_attempts = z.store_attempts;
    t.stores = z.stores;
    let cpu = k.cpu_accounting();
    t.compress_ns = cpu.compress_ns;
    t.decompress_ns = cpu.decompress_ns;
    t
}

/// Checks the page-level conservation identities after a minute: every
/// job still holds exactly its pages across DRAM, zswap and the device
/// tiers; the store holds exactly the pages the memcgs say are in it;
/// each device tier holds exactly the pages demoted to it; and no memcg
/// resolved more prefetches than it issued.
fn check_minute(m: &Machine, pages: u64, ledger: &mut Ledger) {
    let k = &m.kernel;
    let mut zswapped = 0u64;
    let mut demoted = [0u64; 3];
    let mut bad_usage = 0;
    let mut bad_prefetch = 0;
    for job in k.jobs() {
        let Ok(cg) = k.memcg(job) else { continue };
        let s = cg.stats();
        zswapped += s.zswapped_pages;
        for (d, p) in demoted.iter_mut().zip(s.demoted_pages) {
            *d += p;
        }
        bad_usage += usize::from(s.usage().get() != pages);
        bad_prefetch += usize::from(s.prefetch_used + s.prefetch_wasted > s.prefetch_issued);
    }
    ledger.op(bad_usage == 0, || {
        format!("machine: {bad_usage} jobs lost or gained pages")
    });
    ledger.op(bad_prefetch == 0, || {
        format!("machine: {bad_prefetch} jobs resolved more prefetches than issued")
    });
    ledger.op(zswapped == k.zswap().resident_objects(), || {
        format!(
            "machine: memcgs count {zswapped} zswapped pages, the store holds {}",
            k.zswap().resident_objects()
        )
    });
    let tiers = k.chain_stats().unwrap_or_default();
    for t in [SSD, REMOTE] {
        let held = tiers.get(t).map_or(0, |s| s.resident_pages);
        ledger.op(demoted[t] == held, || {
            format!(
                "machine: memcgs count {} pages on tier {t}, the tier holds {held}",
                demoted[t]
            )
        });
    }
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    setup_spans: Range<usize>,
    spans: Range<usize>,
    minute_ns: Vec<u64>,
    digest: u64,
    coverage: f64,
    p98: f64,
    cpu_pct: f64,
    pages_touched: u64,
    promotions: u64,
    pages_scanned: u64,
    delta: Totals,
    footprint_pages: u64,
    external_fragmentation: f64,
}

fn round(opts: &Options, real: bool, tracer: &mut Tracer, ledger: &mut Ledger) -> Option<Round> {
    let size = &opts.size;
    let setup_mark = tracer.mark();
    let (mut m, setup_s) = setup(opts, real, tracer, ledger)?;
    let setup_spans = setup_mark..tracer.mark();
    let jobs = m.drivers.len();
    let slo = m.agent.slo();
    let mut digest = Digest::default();
    let mut minute_ns = Vec::with_capacity(size.machine_minutes as usize);
    let mut coverage = Vec::new();
    let mut rates = Vec::new();
    let (mut pages_touched, mut promotions, mut pages_scanned) = (0u64, 0u64, 0u64);
    let mut start = totals(&m.kernel);
    let mut mark = tracer.mark();
    let last = size.machine_warmup_minutes + size.machine_minutes;
    for minute in 1..=last {
        let timed = minute > size.machine_warmup_minutes;
        if minute == size.machine_warmup_minutes + 1 {
            start = totals(&m.kernel);
            mark = tracer.mark();
        }
        let now = SimTime::ZERO + MINUTE * minute;
        let t0 = Instant::now();
        let (drives, scan, decisions) = tracer.span("machine.minute", |t| {
            let drives: Vec<_> = m
                .drivers
                .iter_mut()
                .map(|d| {
                    t.span("workloads.driver.run_window", |_| {
                        d.run_window(&mut m.kernel, now, MINUTE)
                    })
                })
                .collect();
            let scan = now
                .as_secs()
                .is_multiple_of(KSTALED_SCAN_PERIOD.as_secs())
                .then(|| t.span("kernel.run_scan", |_| m.kernel.run_scan()));
            let decisions = t.span("agent.node_agent.tick", |_| {
                m.agent.tick(now, &mut m.kernel)
            });
            (drives, scan, decisions)
        });
        let ns = t0.elapsed().as_nanos() as u64;
        let mut ok = true;
        for d in drives {
            match ledger.step("machine: run_window", d) {
                Some(s) => {
                    digest.add(&s);
                    if timed {
                        pages_touched += s.pages_touched;
                        promotions += s.promotions;
                    }
                }
                None => ok = false,
            }
        }
        if let Some(s) = scan {
            ledger.attempted += 1;
            digest.add(&s);
            if timed {
                pages_scanned += s.pages_scanned;
            }
        }
        let dropped = jobs - decisions.len();
        ledger.op(dropped == 0, || {
            format!("machine: the agent dropped {dropped} jobs")
        });
        digest.add(&decisions);
        check_minute(&m, size.pages_per_job, ledger);
        if !ok || dropped > 0 {
            return None;
        }
        if timed {
            minute_ns.push(ns);
            rates.extend(
                decisions
                    .iter()
                    .filter(|(_, d)| d.zswap_enabled)
                    .map(|(_, d)| d.observed_rate.fraction_per_min()),
            );
            let (mut far, mut cold) = (0u64, 0u64);
            for job in m.kernel.jobs() {
                if let Ok(cg) = m.kernel.memcg(job) {
                    let s = cg.stats();
                    far += s.zswapped_pages + s.demoted_total();
                    cold += cg.cold_pages(slo.min_threshold).get();
                }
            }
            if cold > 0 {
                coverage.push(far as f64 / cold as f64);
            }
        }
    }
    let spans = mark..tracer.mark();
    let end = totals(&m.kernel);
    let arena = m.kernel.zswap().arena_stats();
    let machine_stats = m.kernel.machine_stats();
    digest.add(&machine_stats);
    digest.add(&m.kernel.cpu_accounting());
    // Tear the machine down: every issued prefetch resolves and every
    // store and tier drains back to empty.
    let jobs_before: Vec<JobId> = m.kernel.jobs().collect();
    for job in jobs_before {
        if let Some(s) = ledger.step("machine: remove_memcg", m.kernel.remove_memcg(job)) {
            ledger.op(
                s.prefetch_used + s.prefetch_wasted == s.prefetch_issued,
                || format!("machine: job {job:?} ended with used + wasted != issued"),
            );
            digest.add(&s);
        }
    }
    ledger.op(m.kernel.zswap().resident_objects() == 0, || {
        "machine: zswap still holds pages after every job exited".into()
    });
    let drained = m
        .kernel
        .chain_stats()
        .unwrap_or_default()
        .iter()
        .all(|s| s.resident_pages == 0);
    ledger.op(drained, || {
        "machine: a device tier still holds pages after every job exited".into()
    });
    let p98 = percentile(&rates, Percentile::P98);
    ledger.op(p98.is_some(), || {
        "machine: no job-minute ran with zswap enabled".into()
    });
    let core_ns = m.cpu_cores * (size.machine_minutes * MINUTE.as_secs()) as f64 * 1e9;
    let delta = delta(&start, &end);
    Some(Round {
        setup_s,
        setup_spans,
        spans,
        minute_ns,
        digest: digest.value(),
        coverage: coverage.iter().sum::<f64>() / coverage.len().max(1) as f64,
        p98: p98.unwrap_or(0.0),
        cpu_pct: (delta.compress_ns + delta.decompress_ns) as f64 / core_ns.max(1.0) * 100.0,
        pages_touched,
        promotions,
        pages_scanned,
        delta,
        footprint_pages: arena.zspage_pages,
        external_fragmentation: arena.external_fragmentation(),
    })
}

fn delta(a: &Totals, b: &Totals) -> Totals {
    let mut d = Totals::default();
    d.memcg.compressions = b.memcg.compressions - a.memcg.compressions;
    d.memcg.rejections = b.memcg.rejections - a.memcg.rejections;
    d.memcg.decompressions = b.memcg.decompressions - a.memcg.decompressions;
    d.memcg.writebacks = b.memcg.writebacks - a.memcg.writebacks;
    d.memcg.prefetch_issued = b.memcg.prefetch_issued - a.memcg.prefetch_issued;
    d.memcg.prefetch_used = b.memcg.prefetch_used - a.memcg.prefetch_used;
    d.memcg.prefetch_wasted = b.memcg.prefetch_wasted - a.memcg.prefetch_wasted;
    d.memcg.prefetch_late = b.memcg.prefetch_late - a.memcg.prefetch_late;
    for (t, (x, y)) in d.tiers.iter_mut().zip(a.tiers.iter().zip(&b.tiers)) {
        t.stores = y.stores - x.stores;
        t.loads = y.loads - x.loads;
    }
    d.store_attempts = b.store_attempts - a.store_attempts;
    d.stores = b.stores - a.stores;
    d.compress_ns = b.compress_ns - a.compress_ns;
    d.decompress_ns = b.decompress_ns - a.decompress_ns;
    d
}

/// Runs the workload; `real` selects real page contents.
pub fn run(opts: &Options, real: bool, tracer: &mut Tracer, ledger: &mut Ledger) -> Outcome {
    let mut out = Outcome::default();
    if !opts.trace {
        let first = crate::untraced(opts, ledger, &mut out, Estimator::StepMinimum, |ledger| {
            let r = round(opts, real, tracer, ledger)?;
            let timed = Timed {
                setup_s: r.setup_s,
                step_ns: r.minute_ns.clone(),
                work: r.minute_ns.len() as f64,
                digest: r.digest,
            };
            Some((timed, r))
        });
        if let Some(f) = first {
            out.values.insert("cold_coverage", f.coverage);
            out.values.insert("promo_rate_p98", f.p98);
            out.notes.push(format!("cpu_overhead_pct={}", f.cpu_pct));
        }
        return out;
    }

    // Traced run: untraced and traced rounds interleaved; all must
    // agree. The machine has no pooled layer, so no one-thread round.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..TRACE_PAIRS {
        untraced.push(round(opts, real, &mut Tracer::new(false), ledger));
        traced.push(round(opts, real, tracer, ledger));
    }
    let probe = probe::run(opts, tracer);
    out.rounds = 2 * TRACE_PAIRS;
    let (Some(untraced), Some(traced)) = (
        untraced.into_iter().collect::<Option<Vec<_>>>(),
        traced.into_iter().collect::<Option<Vec<_>>>(),
    ) else {
        return out;
    };
    let b = &traced[0];
    for r in untraced.iter().chain(&traced) {
        ledger.op(r.digest == b.digest, || {
            "machine: traced and untraced rounds gave different digests".into()
        });
    }
    out.digest = b.digest;
    let in_traced = |name| -> Vec<u64> {
        traced
            .iter()
            .flat_map(|r| tracer.durations(&r.spans, name))
            .collect()
    };
    let populate_s: Vec<f64> = traced
        .iter()
        .map(|r| {
            let ns = tracer.durations(&r.setup_spans, "workloads.driver.populate");
            ns.iter().sum::<u64>() as f64 / 1e9
        })
        .collect();
    let run_window = ns_to_ms(&in_traced("workloads.driver.run_window"));
    let scan_ns = in_traced("kernel.run_scan");
    let scan = ns_to_ms(&scan_ns);
    let tick = ns_to_ms(&in_traced("agent.node_agent.tick"));
    let d = &b.delta;
    let v = &mut out.values;
    v.insert(
        "trace.overhead_pct",
        overhead_pct(
            untraced.iter().map(|r| r.minute_ns.as_slice()),
            traced.iter().map(|r| r.minute_ns.as_slice()),
        ),
    );
    v.insert("sim.cpu_overhead_pct", b.cpu_pct);
    v.insert("workloads.stat.observe.us_per_call", probe.observe_us);
    v.insert("agent.controller.on_minute.us_per_call", probe.on_minute_us);
    v.insert("workloads.driver.populate.s", median(&populate_s));
    v.insert("workloads.driver.run_window.ms_p50", median(&run_window));
    v.insert("workloads.driver.run_window.ms_p9x", p9x(&run_window).1);
    v.insert("kernel.run_scan.ms_p50", median(&scan));
    v.insert("kernel.run_scan.ms_p9x", p9x(&scan).1);
    v.insert(
        "kernel.run_scan.ns_per_page_scanned",
        scan_ns.iter().sum::<u64>() as f64 / (b.pages_scanned * TRACE_PAIRS as u64).max(1) as f64,
    );
    v.insert("agent.node_agent.tick.ms_p50", median(&tick));
    v.insert("agent.node_agent.tick.ms_p9x", p9x(&tick).1);
    v.insert("pages_touched", b.pages_touched as f64);
    v.insert("promotions", b.promotions as f64);
    v.insert("pages_scanned", b.pages_scanned as f64);
    v.insert("kernel.kreclaimd.compressions", d.memcg.compressions as f64);
    v.insert("kernel.kreclaimd.rejections", d.memcg.rejections as f64);
    v.insert("kernel.zswap.decompressions", d.memcg.decompressions as f64);
    v.insert("kernel.zswap.writebacks", d.memcg.writebacks as f64);
    v.insert(
        "kernel.zswap.acceptance",
        d.stores as f64 / d.store_attempts.max(1) as f64,
    );
    v.insert("kernel.backend.ssd.demotions", d.tiers[SSD].stores as f64);
    v.insert("kernel.backend.ssd.loads", d.tiers[SSD].loads as f64);
    v.insert(
        "kernel.backend.remote.demotions",
        d.tiers[REMOTE].stores as f64,
    );
    v.insert("kernel.backend.remote.loads", d.tiers[REMOTE].loads as f64);
    v.insert(
        "compress.zsmalloc.footprint_pages",
        b.footprint_pages as f64,
    );
    v.insert(
        "compress.zsmalloc.external_fragmentation",
        b.external_fragmentation,
    );
    v.insert("kernel.prefetch.issued", d.memcg.prefetch_issued as f64);
    v.insert("kernel.prefetch.used", d.memcg.prefetch_used as f64);
    v.insert("kernel.prefetch.wasted", d.memcg.prefetch_wasted as f64);
    v.insert("kernel.prefetch.late", d.memcg.prefetch_late as f64);
    v.insert(
        "kernel.prefetch.accuracy",
        d.memcg.prefetch_used as f64 / d.memcg.prefetch_issued.max(1) as f64,
    );
    v.insert(
        "prefetch.issued_per_promotion",
        d.memcg.prefetch_issued as f64 / (b.promotions + d.memcg.prefetch_used).max(1) as f64,
    );
    out.notes.push(format!(
        "run_window samples={} run_scan samples={} tick samples={}",
        run_window.len(),
        scan.len(),
        tick.len()
    ));
    out.notes.push(format!(
        "cold_coverage={} promo_rate_p98={}",
        b.coverage, b.p98
    ));
    out
}
