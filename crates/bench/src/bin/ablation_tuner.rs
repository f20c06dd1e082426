//! Ablation: GP Bandit vs random search vs grid search (§5.3).

use sdfm_bench::{emit, parse_options};
use sdfm_core::experiments::ablations::{ablation_traces, ablation_tuner};
use sdfm_core::experiments::Scale;

fn main() {
    let options = parse_options();
    let scale = Scale {
        measure_windows: options.scale.measure_windows.max(36),
        ..options.scale
    };
    let traces = ablation_traces(&scale);
    let budget = 40;
    let a = ablation_tuner(&scale.fast_model(traces), budget, scale.seed);
    emit(&options, &a, || {
        println!("Ablation — tuner strategy at a {budget}-trial budget\n");
        println!(
            "{:>10} {:>22} {:>8}",
            "strategy", "best feasible obj", "trials"
        );
        for (name, o) in [
            ("gp-bandit", a.bandit),
            ("random", a.random),
            ("grid", a.grid),
        ] {
            println!(
                "{:>10} {:>22.0} {:>8}",
                name,
                if o.best_objective.is_finite() {
                    o.best_objective
                } else {
                    -1.0
                },
                o.trials
            );
        }
    });
}
