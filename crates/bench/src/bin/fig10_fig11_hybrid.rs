//! Figures 10 and 11: performance and cost of the hybrid strategies
//! against the statically reserved system.
//!
//! Figure 10: batch and memcached boxplots for SR, HF, HM with and
//! without profiling information. Figure 11: cost split into reserved and
//! on-demand components, normalized to the static scenario under SR.

use hcloud::{StrategyId, StrategyRef, StrategyRegistry};
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{write_json, ExperimentPlan, Harness, RunSpec, Table};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_workloads::ScenarioKind;

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::FIG10_FIG11;

fn main() -> std::process::ExitCode {
    let mut h = Harness::for_experiment(INFO);
    // SR and the two hybrids (the paper strategies holding reserved
    // capacity), with their paper-order index: the JSON strategy column.
    let strategies: Vec<(usize, &StrategyRef)> = StrategyRegistry::paper()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.uses_reserved())
        .collect();
    let rates = Rates::default();
    let model = PricingModel::aws();

    // One plan covers the 3x3x2 figure grid plus the on-demand and
    // no-profiling runs the headline checks compare against.
    let mut plan = ExperimentPlan::new();
    for kind in ScenarioKind::ALL {
        for &(_, strategy) in &strategies {
            for profiling in [true, false] {
                plan.push(RunSpec::of(kind, strategy).profiling(profiling));
            }
        }
    }
    for strategy in StrategyRegistry::paper() {
        plan.push(RunSpec::of(ScenarioKind::HighVariability, strategy));
    }
    h.run_plan(plan);

    for (label, latency) in [
        ("Figure 10a: batch completion time (minutes)", false),
        ("Figure 10b: memcached p99 request latency (µs)", true),
    ] {
        println!("{label}\n");
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
                    let r = h.run(RunSpec::of(kind, strategy).profiling(profiling));
                    let b = if latency {
                        r.lc_latency_boxplot()
                    } else {
                        r.batch_performance_boxplot()
                    }
                    .expect("jobs present");
                    let fmt = |v: f64| {
                        if latency {
                            format!("{v:.0}")
                        } else {
                            format!("{v:.1}")
                        }
                    };
                    t.row(vec![
                        kind.name().into(),
                        strategy.short_name().into(),
                        if profiling { "with" } else { "without" }.into(),
                        fmt(b.p5),
                        fmt(b.p25),
                        fmt(b.mean),
                        fmt(b.p75),
                        fmt(b.p95),
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
            if latency {
                "fig10b_memcached"
            } else {
                "fig10a_batch"
            },
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
    }

    println!("Figure 11: cost comparison SR / HF / HM (normalized to static SR)\n");
    let baseline = h
        .run(RunSpec::of(ScenarioKind::Static, StrategyId::SR))
        .cost(&rates, &model)
        .total();
    let mut t = Table::new(vec![
        "scenario",
        "strategy",
        "reserved",
        "on-demand",
        "total",
    ]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for kind in ScenarioKind::ALL {
        for &(si, strategy) in &strategies {
            let c = h.run(RunSpec::of(kind, strategy)).cost(&rates, &model);
            t.row(vec![
                kind.name().into(),
                strategy.short_name().into(),
                format!("{:.2}", c.reserved / baseline),
                format!("{:.2}", c.on_demand / baseline),
                format!("{:.2}", c.total() / baseline),
            ]);
            json.push(vec![
                kind as u8 as f64,
                si as f64,
                c.reserved / baseline,
                c.on_demand / baseline,
            ]);
        }
    }
    println!("{t}");
    write_json(
        "fig11_cost",
        &["scenario", "strategy", "reserved", "on_demand"],
        &json,
    );

    // Headline checks.
    let kind = ScenarioKind::HighVariability;
    let sr = h
        .run(RunSpec::of(kind, StrategyId::SR))
        .mean_normalized_perf();
    let hf = h
        .run(RunSpec::of(kind, StrategyId::HF))
        .mean_normalized_perf();
    let hm = h
        .run(RunSpec::of(kind, StrategyId::HM))
        .mean_normalized_perf();
    let odf = h
        .run(RunSpec::of(kind, StrategyId::ODF))
        .mean_normalized_perf();
    let odm = h
        .run(RunSpec::of(kind, StrategyId::ODM))
        .mean_normalized_perf();
    println!("\nHeadline checks (high variability):");
    println!(
        "  HF within {:.1}% of SR, HM within {:.1}% of SR (paper: within 8%)",
        (1.0 - hf / sr) * 100.0,
        (1.0 - hm / sr) * 100.0
    );
    println!("  hybrid vs on-demand performance: HF/OdF {:.2}x, HM/OdM {:.2}x (paper: 2.1x avg incl. latency blowups)",
        hf / odf, hm / odm);
    let degs: Vec<f64> = StrategyRegistry::paper()
        .iter()
        .map(|s| h.run(RunSpec::of(kind, s)).mean_degradation())
        .collect();
    println!(
        "  mean degradation factors: SR {:.2}x OdF {:.2}x OdM {:.2}x HF {:.2}x HM {:.2}x",
        degs[0], degs[1], degs[2], degs[3], degs[4]
    );
    println!(
        "  → hybrid-vs-on-demand degradation ratio: HM {:.2}x better than OdM (paper: 2.1x)",
        degs[2] / degs[4]
    );
    for s in [StrategyId::HF, StrategyId::HM].map(StrategyRef::from) {
        if let Some(u) = h.run(RunSpec::of(kind, &s)).mean_reserved_utilization() {
            println!(
                "  {} mean reserved utilization {:.0}% (paper: ~80% in steady state)",
                s,
                u * 100.0
            );
        }
    }
    println!("  with/without profiling improvement (degradation ratio): HF {:.2}x, HM {:.2}x (paper: 2.4x / 2.77x)",
        h.run(RunSpec::of(kind, StrategyId::HF).profiling(false)).mean_degradation() / degs[3],
        h.run(RunSpec::of(kind, StrategyId::HM).profiling(false)).mean_degradation() / degs[4]);
    h.finish("fig10_fig11")
}
