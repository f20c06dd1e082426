//! The benchmark command.
//!
//! ```text
//! sdfm-perfbench --workload <fleet|autotune|machine_real|machine_synth>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance, the digest, and every metric with its unit, then
//! one JSON result line. Exits non-zero when any step or correctness
//! check failed.

use std::path::PathBuf;
use std::process::ExitCode;

use sdfm_perfbench::{run, Options, Size, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: sdfm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::full(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        spans_dir: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
    };
    let report = run(&opts);
    for line in report.human_lines() {
        println!("{line}");
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
