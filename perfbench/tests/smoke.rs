//! Tiny-budget runs of every workload: each prints every metric of its
//! list with a unit, passes its own correctness checks, repeats its
//! digest on the same seed, and changes it on another seed.

use sdfm_perfbench::{run, Options, Report, Size, Workload, END_TO_END, PER_LAYER};
use serde_json::Value;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::tiny(),
        threads: 2,
        spans_dir: None,
    })
}

fn assert_complete(r: &Report, list: &[(&str, &str)]) {
    assert!(
        r.correct(),
        "{:?} failed: {:?}",
        r.workload,
        r.ledger.failures
    );
    let printed: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(printed, list, "{:?} metric list", r.workload);
    let lines = r.human_lines();
    for (name, unit) in list {
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with(&format!("metric {name} ")) && l.contains(unit)),
            "{:?} did not print {name} in {unit}",
            r.workload
        );
    }
    let json: Value = serde_json::from_str(&r.json_line()).expect("result line is JSON");
    let Value::Object(top) = json else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_and_repeat_their_digest() {
    for w in Workload::ALL {
        let a = tiny(w, 7, false);
        assert_complete(&a, END_TO_END);
        for m in &a.metrics {
            assert!(m.value > 0.0, "{w:?} {} is {}", m.name, m.value);
        }
        let again = tiny(w, 7, false);
        assert_eq!(
            a.digest, again.digest,
            "{w:?} digest differs on the same seed"
        );
        for (x, y) in a.metrics.iter().zip(&again.metrics) {
            if ["cold_coverage", "promo_rate_p98"].contains(&x.name) {
                assert_eq!(x.value, y.value, "{w:?} simulated {} moved", x.name);
            }
        }
        let other = tiny(w, 8, false);
        assert_ne!(a.digest, other.digest, "{w:?} digest ignores the seed");
    }
}

#[test]
fn traced_runs_measure_every_per_layer_metric_and_match_untraced_digest() {
    for w in Workload::ALL {
        let traced = tiny(w, 7, true);
        assert_complete(&traced, PER_LAYER);
        assert_eq!(
            traced.digest,
            tiny(w, 7, false).digest,
            "{w:?} tracing moved the digest"
        );
        assert!(!traced.probed.is_empty(), "{w:?} calls every layer?");
        // Every timing is a measurement, never a placeholder.
        for m in &traced.metrics {
            if ["s", "ms", "us", "ns"].contains(&m.unit) {
                assert!(m.value != 0.0, "{w:?} {} reads {}", m.name, m.value);
            }
        }
    }
}

/// `BENCHMARK.json` at the repository root names exactly the metrics and
/// workloads this crate reports.
#[test]
fn benchmark_file_matches_the_metric_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
    let Value::Object(top) = serde_json::from_str::<Value>(&text).expect("valid JSON") else {
        panic!("BENCHMARK.json is not an object")
    };
    let field = |key: &str| top.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
    let str_of = |v: &Value, key: &str| match v {
        Value::Object(o) => match o.iter().find(|(k, _)| k == key) {
            Some((_, Value::Str(s))) => s.clone(),
            _ => panic!("entry without string {key}"),
        },
        _ => panic!("entry is not an object"),
    };
    let names_units = |key: &str| -> Vec<(String, String)> {
        let Some(Value::Array(items)) = field(key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|v| (str_of(v, "name"), str_of(v, "unit")))
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_units("end_to_end"), owned(END_TO_END));
    assert_eq!(names_units("per_layer"), owned(PER_LAYER));
    let Some(Value::Array(workloads)) = field("workloads") else {
        panic!("workloads is not a list")
    };
    let names: Vec<String> = workloads.iter().map(|v| str_of(v, "name")).collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, expected);
}
