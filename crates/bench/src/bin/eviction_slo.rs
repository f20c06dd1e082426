//! The §4.2 eviction-SLO check: run a memory-tight cluster under churn and
//! decompression pressure; the eviction rate must stay within the Borg SLO
//! ("never been breached in 18 months in production").

use rand::{Rng, SeedableRng};
use sdfm_bench::{emit, parse_options};
use sdfm_cluster::{BorgCluster, ClusterConfig};
use sdfm_kernel::KernelConfig;
use sdfm_types::size::PageCount;
use sdfm_workloads::templates::JobTemplate;

fn main() {
    let options = parse_options();
    let hours = if options.scale.machines_per_cluster >= 20 {
        24
    } else {
        8
    };
    let mut cluster = BorgCluster::new(
        ClusterConfig {
            machines: 6,
            kernel: KernelConfig {
                capacity: PageCount::new(30_000),
                ..KernelConfig::default()
            },
            threads: options.scale.workers(),
            ..ClusterConfig::small_test()
        },
        options.scale.seed,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(options.scale.seed);
    let submit = |cluster: &mut BorgCluster, rng: &mut rand::rngs::StdRng| {
        let t = JobTemplate::ALL[rng.gen_range(0..JobTemplate::ALL.len())];
        let mut p = t.sample_profile(rng);
        for b in &mut p.rate_buckets {
            b.pages = (b.pages / 8).max(1);
        }
        p.lifetime = sdfm_types::time::SimDuration::from_mins(rng.gen_range(60..360));
        cluster.submit(p);
    };
    for _ in 0..14 {
        submit(&mut cluster, &mut rng);
    }
    for _ in 0..hours * 60 {
        if rng.gen_bool(0.05) {
            submit(&mut cluster, &mut rng);
        }
        cluster.step_minute();
    }
    let ev = cluster.evictions();
    let summary = serde_json::json!({
        "hours": hours,
        "evictions": ev.evictions(),
        "oom_kills": ev.oom_kills(),
        "job_time_secs": ev.job_time().as_secs(),
        "evictions_per_job_day": ev.evictions_per_job_day(),
        "slo_0_1_per_job_day_met": ev.meets_slo(0.1),
    });
    emit(&options, &summary, || {
        println!("Eviction SLO — {hours} simulated hours, memory-tight 6-machine cluster\n");
        println!("evictions:             {}", ev.evictions());
        println!("fail-fast OOM kills:   {}", ev.oom_kills());
        println!("job time accumulated:  {}", ev.job_time());
        println!(
            "evictions per job-day: {:.4}",
            ev.evictions_per_job_day().unwrap_or(0.0)
        );
        println!(
            "SLO (≤ 0.1/job-day):   {}",
            if ev.meets_slo(0.1) { "met" } else { "BREACHED" }
        );
    });
}
