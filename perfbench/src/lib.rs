//! End-to-end and per-layer benchmark of the sdfm simulator.
//!
//! One command runs one of four workloads as a closed loop of a single
//! caller and reports completed work per host second at a fixed input
//! size, set-up time, peak memory, and the simulated outcomes the paper
//! judges far memory by. A traced run wraps every public call the
//! workload makes into a layer in a span and reports the per-layer
//! breakdown instead. See `README.md` next to this crate for the
//! workloads, the metric map, and how to run it.

#![warn(missing_docs)]

mod autotune;
mod fleet;
mod machine;
mod probe;
mod stats;
mod trace;

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use serde_json::{Number, Value};

pub use crate::stats::Ledger;

/// End-to-end metrics and their units, in output order. Every workload
/// reports all of them in an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_coverage", "ratio"),
    ("promo_rate_p98", "1/min"),
];

/// Per-layer metrics and their units, in output order. A traced run
/// reports all of them; a layer the workload never calls is measured on
/// the tiny input of a workload that calls it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_pct", "%"),
    ("pool.speedup", "x"),
    ("sim.cpu_overhead_pct", "%"),
    ("workloads.stat.observe.us_per_call", "us"),
    ("agent.controller.on_minute.us_per_call", "us"),
    ("core.fleet_sim.step_window.ms_p50", "ms"),
    ("core.fleet_sim.step_window.ms_p9x", "ms"),
    ("core.fleet_sim.step_window.us_per_job_window", "us"),
    ("core.fleet_sim.unattributed_us_per_job_window", "us"),
    ("core.fleet_sim.per_job_bytes", "bytes"),
    ("model.fleet.evaluate.ms_p50", "ms"),
    ("model.fleet.evaluate.ms_p9x", "ms"),
    ("model.replay.ns_per_job_window", "ns"),
    ("autotuner.bandit.suggest.ms_p50", "ms"),
    ("autotuner.bandit.suggest.ms_last", "ms"),
    ("autotuner.bandit.observe.ms_p50", "ms"),
    ("workloads.driver.populate.s", "s"),
    ("workloads.driver.run_window.ms_p50", "ms"),
    ("workloads.driver.run_window.ms_p9x", "ms"),
    ("kernel.run_scan.ms_p50", "ms"),
    ("kernel.run_scan.ms_p9x", "ms"),
    ("kernel.run_scan.ns_per_page_scanned", "ns"),
    ("agent.node_agent.tick.ms_p50", "ms"),
    ("agent.node_agent.tick.ms_p9x", "ms"),
    ("pages_touched", "count"),
    ("promotions", "count"),
    ("pages_scanned", "count"),
    ("kernel.kreclaimd.compressions", "count"),
    ("kernel.kreclaimd.rejections", "count"),
    ("kernel.zswap.decompressions", "count"),
    ("kernel.zswap.writebacks", "count"),
    ("kernel.zswap.acceptance", "ratio"),
    ("kernel.backend.ssd.demotions", "count"),
    ("kernel.backend.ssd.loads", "count"),
    ("kernel.backend.remote.demotions", "count"),
    ("kernel.backend.remote.loads", "count"),
    ("compress.zsmalloc.footprint_pages", "count"),
    ("compress.zsmalloc.external_fragmentation", "ratio"),
    ("kernel.prefetch.issued", "count"),
    ("kernel.prefetch.used", "count"),
    ("kernel.prefetch.wasted", "count"),
    ("kernel.prefetch.late", "count"),
    ("kernel.prefetch.accuracy", "ratio"),
    ("prefetch.issued_per_promotion", "ratio"),
    ("fleet.compress_events", "count"),
    ("fleet.decompress_events", "count"),
    ("fleet.rejected_events", "count"),
    ("fleet.ssd_demotions", "count"),
    ("fleet.remote_demotions", "count"),
    ("fleet.prefetch.issued", "count"),
    ("fleet.prefetch.used", "count"),
    ("fleet.prefetch.wasted", "count"),
    ("fleet.prefetch.late", "count"),
    ("fleet.jobs_spawned", "count"),
    ("autotune.trials", "count"),
    ("autotune.feasible_trials", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The stat-tier fleet simulator at about a thousand machines.
    Fleet,
    /// GP-Bandit trials over the fast far-memory model.
    Autotune,
    /// One page-level machine with real page contents.
    MachineReal,
    /// The same machine with synthetic page contents.
    MachineSynth,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Fleet,
        Workload::Autotune,
        Workload::MachineReal,
        Workload::MachineSynth,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Autotune => "autotune",
            Workload::MachineReal => "machine_real",
            Workload::MachineSynth => "machine_synth",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The name of the unit of work `work_per_s` counts on this workload.
    pub fn work_name(self) -> &'static str {
        match self {
            Workload::Fleet => "job_windows_per_s",
            Workload::Autotune => "config_evals_per_s",
            Workload::MachineReal | Workload::MachineSynth => "machine_minutes_per_s",
        }
    }
}

/// Input sizes. Every round of a workload does exactly this much work,
/// so its simulated outputs are a function of the seed alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Fleet: machines in each of the ten paper-default clusters.
    pub fleet_machines_per_cluster: usize,
    /// Fleet: untimed windows stepped after set-up.
    pub fleet_warmup_windows: usize,
    /// Fleet: timed windows per round.
    pub fleet_windows: usize,
    /// Fleet: per-job SSD quota of the three-tier chain, in pages.
    pub fleet_ssd_quota_pages: u64,
    /// Autotune: machines per cluster of the fleet the traces come from.
    pub trace_machines_per_cluster: usize,
    /// Autotune: job traces the model keeps (the first this many), so the
    /// input size does not depend on the seed.
    pub trace_jobs: usize,
    /// Autotune: five-minute windows per trace.
    pub trace_windows: usize,
    /// Autotune: GP-Bandit trials per round.
    pub trials: usize,
    /// Machine: pages of each job.
    pub pages_per_job: u64,
    /// Machine: untimed simulated minutes after set-up.
    pub machine_warmup_minutes: u64,
    /// Machine: timed simulated minutes per round.
    pub machine_minutes: u64,
    /// Probes: machines per cluster of the population `observe` and
    /// `on_minute` are timed over.
    pub probe_machines_per_cluster: usize,
    /// Probes: windows observed per probed job.
    pub probe_windows: usize,
    /// Rounds an untraced run makes even when the time budget is spent.
    pub min_rounds: usize,
}

impl Size {
    /// The sizes the benchmark command runs.
    pub fn full() -> Self {
        Size {
            fleet_machines_per_cluster: 100,
            fleet_warmup_windows: 3,
            fleet_windows: 8,
            fleet_ssd_quota_pages: 4096,
            trace_machines_per_cluster: 2,
            trace_jobs: 160,
            trace_windows: 288,
            trials: 40,
            pages_per_job: 8192,
            machine_warmup_minutes: 35,
            machine_minutes: 60,
            probe_machines_per_cluster: 20,
            probe_windows: 3,
            min_rounds: 3,
        }
    }

    /// A tiny budget for the benchmark's own tests.
    pub fn tiny() -> Self {
        Size {
            fleet_machines_per_cluster: 1,
            fleet_warmup_windows: 1,
            fleet_windows: 2,
            fleet_ssd_quota_pages: 256,
            trace_machines_per_cluster: 1,
            trace_jobs: 48,
            trace_windows: 24,
            trials: 7,
            pages_per_job: 256,
            machine_warmup_minutes: 45,
            machine_minutes: 6,
            probe_machines_per_cluster: 1,
            probe_windows: 1,
            min_rounds: 1,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measuring budget of an untraced run, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Worker threads for the pooled layers.
    pub threads: usize,
    /// Where the traced run writes its spans (`None`: keep them in memory
    /// only).
    pub spans_dir: Option<PathBuf>,
}

/// One metric as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload hands back: metric values by name, the digest of its
/// simulated outputs, and the rounds it ran.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (end-to-end or per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Digest of the first round's simulated outputs.
    pub digest: u64,
    /// Rounds run.
    pub rounds: usize,
    /// Extra `key=value` lines for the human-readable output.
    pub notes: Vec<String>,
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Report {
    /// Which workload ran.
    pub workload: Workload,
    /// Every metric of the run's list, in list order.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics of layers the workload does not call, measured
    /// on the tiny input of a workload that calls them.
    pub probed: Vec<&'static str>,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Attempted and failed operations.
    pub ledger: Ledger,
    /// Rounds run.
    pub rounds: usize,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    /// Provenance: host, seed, commit, threads and sizes.
    pub provenance: Vec<(&'static str, String)>,
    /// Host seconds the whole invocation took.
    pub wall_s: f64,
}

impl Report {
    /// Whether every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.ledger.failed == 0
    }

    /// The final JSON result line.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::Object(vec![
                    ("value".into(), Value::Num(Number::F64(m.value))),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        let v = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            (
                "attempted".into(),
                Value::Num(Number::U64(self.ledger.attempted)),
            ),
            ("failed".into(), Value::Num(Number::U64(self.ledger.failed))),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&v).expect("a value tree always serializes")
    }

    /// The human-readable lines printed before the result line.
    pub fn human_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.push(format!("provenance {}", prov.join(" ")));
        out.push(format!("digest {:016x}", self.digest));
        out.push(format!(
            "rounds {} wall_s {:.3} attempted {} failed {} failed_ops_ratio {}",
            self.rounds,
            self.wall_s,
            self.ledger.attempted,
            self.ledger.failed,
            self.ledger.failed as f64 / self.ledger.attempted.max(1) as f64
        ));
        for f in &self.ledger.failures {
            out.push(format!("FAILED {f}"));
        }
        for n in &self.notes {
            out.push(format!("note {n}"));
        }
        for m in &self.metrics {
            let tag = if self.probed.contains(&m.name) {
                "  (probe: not called by this workload; tiny input)"
            } else {
                ""
            };
            out.push(format!("metric {} {} {}{tag}", m.name, m.value, m.unit));
            if m.name == "work_per_s" {
                out.push(format!(
                    "metric {} {} {}",
                    self.workload.work_name(),
                    m.value,
                    m.unit
                ));
            }
        }
        out
    }
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Report {
    let t0 = Instant::now();
    let mut ledger = Ledger::default();
    let mut tracer = trace::Tracer::new(opts.trace);
    let outcome = run_workload(opts, &mut tracer, &mut ledger);
    let list = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut values = outcome.values;
    let mut probed = Vec::new();
    if opts.trace {
        // Layers this workload never calls are timed on the tiny input of
        // a workload that calls them, so every per-layer metric is a
        // measurement.
        for other in [Workload::Fleet, Workload::Autotune, Workload::MachineSynth] {
            if other == opts.workload || list.iter().all(|(n, _)| values.contains_key(n)) {
                continue;
            }
            let probe = Options {
                workload: other,
                size: Size::tiny(),
                spans_dir: None,
                ..opts.clone()
            };
            let o = run_workload(&probe, &mut trace::Tracer::new(true), &mut ledger);
            for (name, v) in o.values {
                if let Entry::Vacant(e) = values.entry(name) {
                    e.insert(v);
                    probed.push(name);
                }
            }
        }
    } else {
        values.insert("peak_rss_mb", stats::peak_rss_mb());
    }
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = values.remove(name).unwrap_or_else(|| {
            ledger.op(false, || format!("metric {name} was not measured"));
            0.0
        });
        ledger.op(value.is_finite(), || {
            format!("metric {name} is not finite: {value}")
        });
        metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }
    for name in values.keys() {
        ledger.op(false, || {
            format!("workload reported unlisted metric {name}")
        });
    }
    let provenance = provenance(opts, outcome.digest);
    if let (Some(dir), true) = (&opts.spans_dir, opts.trace) {
        let name = format!("spans-{}-seed{}.jsonl", opts.workload.name(), opts.seed);
        let path = dir.join(name);
        let written = tracer.write_jsonl(&path, &provenance_json(&provenance));
        ledger.op(written.is_ok(), || {
            format!("could not write spans to {}: {written:?}", path.display())
        });
    }
    Report {
        workload: opts.workload,
        metrics,
        probed,
        digest: outcome.digest,
        ledger,
        rounds: outcome.rounds,
        notes: outcome.notes,
        provenance,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

fn run_workload(opts: &Options, tracer: &mut trace::Tracer, ledger: &mut Ledger) -> Outcome {
    match opts.workload {
        Workload::Fleet => fleet::run(opts, tracer, ledger),
        Workload::Autotune => autotune::run(opts, tracer, ledger),
        Workload::MachineReal => machine::run(opts, true, tracer, ledger),
        Workload::MachineSynth => machine::run(opts, false, tracer, ledger),
    }
}

fn provenance(opts: &Options, digest: u64) -> Vec<(&'static str, String)> {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload", opts.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("host_cpus", host_cpus.to_string()),
        ("threads", opts.threads.to_string()),
        ("commit", commit()),
        ("source_digest", format!("{:016x}", source_digest())),
        ("digest", format!("{digest:016x}")),
        ("sizes", format!("{:?}", opts.size).replace(' ', "")),
    ]
}

fn provenance_json(p: &[(&'static str, String)]) -> String {
    let v = Value::Object(
        p.iter()
            .map(|(k, v)| (k.to_string(), Value::Str(v.clone())))
            .collect(),
    );
    serde_json::to_string(&v).expect("a value tree always serializes")
}

/// Root of the repository the benchmark was built from.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checked-out commit, read from `.git` without running git; `none`
/// in a source tree that is not a repository.
fn commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

/// FNV digest of the sources the benchmark measures (`crates/`, sorted by
/// path), which names the code version where no commit is available.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let root = repo_root().join("crates");
    let mut files = Vec::new();
    walk(&root, &mut files);
    files.sort();
    let mut d = stats::Digest::default();
    for f in files {
        let rel = f.strip_prefix(&root).unwrap_or(&f).display().to_string();
        let body = std::fs::read(&f).unwrap_or_default();
        d.add(&(rel, body.len()));
        std::fmt::Write::write_str(&mut d, &String::from_utf8_lossy(&body))
            .expect("digest writes cannot fail");
    }
    d.value()
}

/// Untraced/traced round pairs a traced run interleaves.
pub(crate) const TRACE_PAIRS: usize = 2;

/// Tracing overhead in percent: the median host time of the traced
/// rounds' timed steps over that of the untraced rounds, minus one.
pub(crate) fn overhead_pct<'a>(
    untraced: impl IntoIterator<Item = &'a [u64]>,
    traced: impl IntoIterator<Item = &'a [u64]>,
) -> f64 {
    let median_s = |rounds: Vec<&[u64]>| {
        let totals: Vec<f64> = rounds
            .iter()
            .map(|r| r.iter().sum::<u64>() as f64)
            .collect();
        stats::median(&totals)
    };
    let (u, t) = (
        median_s(untraced.into_iter().collect()),
        median_s(traced.into_iter().collect()),
    );
    (t / u.max(1.0) - 1.0) * 100.0
}

/// What one round of a workload hands the untraced measurement.
pub(crate) struct Timed {
    /// Host seconds the round's set-up took.
    pub setup_s: f64,
    /// Host nanoseconds of each timed step, in step order.
    pub step_ns: Vec<u64>,
    /// Units of work the timed steps completed.
    pub work: f64,
    /// Digest of the round's simulated outputs.
    pub digest: u64,
}

/// How an untraced run turns its rounds into `work_per_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Estimator {
    /// The median over rounds of the round's work over its timed host
    /// seconds. For long steps (fleet windows, model evaluations) that
    /// span the host's contention bursts, and few rounds.
    RoundMedian,
    /// The work over the sum, across steps, of each step's fastest
    /// reading over the rounds. For millisecond steps repeated over many
    /// rounds: contention only adds time, and some reading of each step
    /// falls between bursts.
    StepMinimum,
}

/// The untraced measurement shared by every workload. Repeats `round`
/// until `seconds` of host time have passed and at least `min_rounds`
/// rounds ran. Every round repeats the same steps on the same inputs, so
/// the rounds must produce the same digest. `work_per_s` comes from the
/// workload's [`Estimator`]; `setup_s` is the median set-up time.
/// Returns the first round's payload.
pub(crate) fn untraced<R>(
    opts: &Options,
    ledger: &mut Ledger,
    out: &mut Outcome,
    estimator: Estimator,
    mut round: impl FnMut(&mut Ledger) -> Option<(Timed, R)>,
) -> Option<R> {
    let t0 = Instant::now();
    let mut first: Option<(Timed, R)> = None;
    let mut fastest: Vec<u64> = Vec::new();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    while out.rounds < opts.size.min_rounds.max(1) || t0.elapsed().as_secs_f64() < opts.seconds {
        let Some((t, r)) = round(ledger) else {
            break;
        };
        out.rounds += 1;
        setups.push(t.setup_s);
        rates.push(t.work / (t.step_ns.iter().sum::<u64>() as f64 / 1e9));
        match &first {
            None => {
                fastest.clone_from(&t.step_ns);
                first = Some((t, r));
            }
            Some((f, _)) => {
                ledger.op(f.digest == t.digest, || {
                    format!("{}: rounds on the same seed diverged", opts.workload.name())
                });
                for (b, &ns) in fastest.iter_mut().zip(&t.step_ns) {
                    *b = (*b).min(ns);
                }
            }
        }
    }
    let (f, payload) = first?;
    out.digest = f.digest;
    let work_per_s = match estimator {
        Estimator::RoundMedian => stats::median(&rates),
        Estimator::StepMinimum => f.work / (fastest.iter().sum::<u64>() as f64 / 1e9),
    };
    out.values.insert("work_per_s", work_per_s);
    out.values.insert("setup_s", stats::median(&setups));
    out.notes.push(format!("round_work_per_s={rates:?}"));
    out.notes.push(format!("round_setup_s={setups:?}"));
    Some(payload)
}
