//! Fast far memory model throughput: windows replayed per second, and
//! scaling with worker threads (§5.3: one week of the whole WSC in under
//! an hour on MapReduce — here, thousands of job-windows per millisecond).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdfm_agent::{AgentParams, TraceRecord};
use sdfm_core::experiments::{collect_fleet_traces, Scale};
use sdfm_model::{FarMemoryModel, JobTrace, ModelConfig};

fn traces() -> Vec<JobTrace> {
    let scale = Scale {
        machines_per_cluster: 2,
        warmup_windows: 0,
        measure_windows: 0,
        seed: 4242,
        threads: 0,
    };
    collect_fleet_traces(&scale, 24)
}

fn total_windows(traces: &[JobTrace]) -> u64 {
    traces.iter().map(|t| t.len() as u64).sum()
}

fn bench_replay_scaling(c: &mut Criterion) {
    let traces = traces();
    let windows = total_windows(&traces);
    let config = ModelConfig::new(AgentParams::default());
    let mut group = c.benchmark_group("fast_model_evaluate");
    group.throughput(Throughput::Elements(windows));
    group.sample_size(20);
    for threads in [1usize, 2, 4, 8] {
        let model = FarMemoryModel::new(traces.clone()).with_threads(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| std::hint::black_box(model.evaluate(&config)));
        });
    }
    group.finish();
}

fn bench_single_job_replay(c: &mut Criterion) {
    let traces = traces();
    let longest = traces
        .iter()
        .max_by_key(|t| t.records.iter().map(TraceRecord::clone).count())
        .expect("non-empty")
        .clone();
    let config = ModelConfig::new(AgentParams::default());
    c.bench_function("replay_one_job_24_windows", |b| {
        b.iter(|| std::hint::black_box(sdfm_model::replay_job(&longest, &config)));
    });
}

criterion_group!(benches, bench_replay_scaling, bench_single_job_replay);
criterion_main!(benches);
