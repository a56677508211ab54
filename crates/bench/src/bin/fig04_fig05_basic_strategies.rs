//! Figures 4 and 5: performance and cost of the basic provisioning
//! strategies (SR, OdF, OdM) on the three scenarios, with and without
//! profiling information.
//!
//! Figure 4a: batch completion-time boxplots. Figure 4b: memcached p99
//! latency boxplots. Figure 5: run cost normalized to the static
//! scenario under SR.

use hcloud::{StrategyId, StrategyRef, StrategyRegistry};
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{write_json, ExperimentPlan, Harness, RunSpec, Table};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_workloads::ScenarioKind;

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::FIG04_FIG05;

fn main() -> std::process::ExitCode {
    let mut h = Harness::for_experiment(INFO);
    // The basic (non-hybrid) strategies, with their paper-order index:
    // the JSON strategy column.
    let strategies: Vec<(usize, &StrategyRef)> = StrategyRegistry::paper()
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_hybrid())
        .collect();
    let rates = Rates::default();
    let model = PricingModel::aws();

    // Fan the whole 3x3x2 grid out across the machine up front; the
    // loops below read the cached results in figure order.
    let mut plan = ExperimentPlan::new();
    for kind in ScenarioKind::ALL {
        for &(_, strategy) in &strategies {
            for profiling in [true, false] {
                plan.push(RunSpec::of(kind, strategy).profiling(profiling));
            }
        }
    }
    h.run_plan(plan);

    println!("Figure 4a: batch completion time (minutes)\n");
    let mut t = Table::new(vec![
        "scenario",
        "strategy",
        "profiling",
        "p5",
        "p25",
        "mean",
        "p75",
        "p95",
    ]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for kind in ScenarioKind::ALL {
        for &(si, strategy) in &strategies {
            for profiling in [true, false] {
                let b = h
                    .run(RunSpec::of(kind, strategy).profiling(profiling))
                    .batch_performance_boxplot()
                    .expect("batch jobs present");
                t.row(vec![
                    kind.name().into(),
                    strategy.short_name().into(),
                    if profiling { "with" } else { "without" }.into(),
                    format!("{:.1}", b.p5),
                    format!("{:.1}", b.p25),
                    format!("{:.1}", b.mean),
                    format!("{:.1}", b.p75),
                    format!("{:.1}", b.p95),
                ]);
                json.push(vec![
                    kind as u8 as f64,
                    si as f64,
                    profiling as u8 as f64,
                    b.p5,
                    b.p25,
                    b.mean,
                    b.p75,
                    b.p95,
                ]);
            }
        }
    }
    println!("{t}");
    write_json(
        "fig04a_batch",
        &[
            "scenario",
            "strategy",
            "profiling",
            "p5",
            "p25",
            "mean",
            "p75",
            "p95",
        ],
        &json,
    );

    println!("Figure 4b: memcached p99 request latency (µs)\n");
    let mut t = Table::new(vec![
        "scenario",
        "strategy",
        "profiling",
        "p5",
        "p25",
        "mean",
        "p75",
        "p95",
    ]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for kind in ScenarioKind::ALL {
        for &(si, strategy) in &strategies {
            for profiling in [true, false] {
                let b = h
                    .run(RunSpec::of(kind, strategy).profiling(profiling))
                    .lc_latency_boxplot()
                    .expect("LC jobs present");
                t.row(vec![
                    kind.name().into(),
                    strategy.short_name().into(),
                    if profiling { "with" } else { "without" }.into(),
                    format!("{:.0}", b.p5),
                    format!("{:.0}", b.p25),
                    format!("{:.0}", b.mean),
                    format!("{:.0}", b.p75),
                    format!("{:.0}", b.p95),
                ]);
                json.push(vec![
                    kind as u8 as f64,
                    si as f64,
                    profiling as u8 as f64,
                    b.p5,
                    b.p25,
                    b.mean,
                    b.p75,
                    b.p95,
                ]);
            }
        }
    }
    println!("{t}");
    write_json(
        "fig04b_memcached",
        &[
            "scenario",
            "strategy",
            "profiling",
            "p5",
            "p25",
            "mean",
            "p75",
            "p95",
        ],
        &json,
    );

    println!("Figure 5: cost of fully reserved and on-demand systems");
    println!("(normalized to the static scenario under SR)\n");
    let baseline = h
        .run(RunSpec::of(ScenarioKind::Static, StrategyId::SR))
        .cost(&rates, &model)
        .total();
    let mut t = Table::new(vec!["scenario", "SR", "OdF", "OdM"]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for kind in ScenarioKind::ALL {
        let costs: Vec<f64> = strategies
            .iter()
            .map(|&(_, s)| h.run(RunSpec::of(kind, s)).cost(&rates, &model).total() / baseline)
            .collect();
        t.row(vec![
            kind.name().into(),
            format!("{:.2}", costs[0]),
            format!("{:.2}", costs[1]),
            format!("{:.2}", costs[2]),
        ]);
        json.push(vec![kind as u8 as f64, costs[0], costs[1], costs[2]]);
    }
    println!("{t}");
    println!("(paper: SR lowest per-run charge but needs a 1-year upfront commitment;");
    println!(" on-demand strategies 2.5-3.5x the SR per-run charge)");
    write_json("fig05_cost", &["scenario", "SR", "OdF", "OdM"], &json);

    // Headline check from Section 3.4: SR beats OdM ~2.2x on average.
    let sr = h
        .run(RunSpec::of(ScenarioKind::HighVariability, StrategyId::SR))
        .mean_degradation();
    let odm = h
        .run(RunSpec::of(ScenarioKind::HighVariability, StrategyId::ODM))
        .mean_degradation();
    println!("\nSR vs OdM mean degradation (high variability): {:.2}x vs {:.2}x -> OdM {:.2}x worse (paper: 2.2x)",
        sr, odm, odm / sr);
    h.finish("fig04_fig05")
}
