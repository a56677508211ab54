//! Figure 12: sensitivity of provisioning cost to the
//! on-demand:reserved price ratio.
//!
//! Each strategy runs once per scenario; the same usage records are then
//! re-billed under ratios in [0.01, 4] (the paper scales the price of
//! reserved resources). Costs are normalized to the static scenario
//! under SR at the default 2.74 ratio.

use hcloud::{StrategyId, StrategyRegistry};
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{write_json, ExperimentPlan, Harness, RunSpec, Table};
use hcloud_pricing::{PricingModel, Rates, ReservedOnDemandPricing};
use hcloud_workloads::ScenarioKind;

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::FIG12;

fn main() -> std::process::ExitCode {
    let mut h = Harness::for_experiment(INFO);
    let rates = Rates::default();
    let ratios = [0.01, 0.25, 0.5, 1.0, 1.5, 2.0, 2.74, 3.0, 3.5, 4.0];

    // All 15 scenario x strategy simulations fan out once; the ratio
    // sweep below only re-bills cached usage records.
    let mut plan = ExperimentPlan::new();
    for kind in ScenarioKind::ALL {
        for strategy in StrategyRegistry::paper() {
            plan.push(RunSpec::of(kind, strategy));
        }
    }
    h.run_plan(plan);

    let baseline = h
        .run(RunSpec::of(ScenarioKind::Static, StrategyId::SR))
        .cost(&rates, &PricingModel::aws())
        .total();

    println!("Figure 12: cost vs on-demand:reserved price ratio (normalized to static SR @2.74)\n");
    let mut json: Vec<Vec<f64>> = Vec::new();
    for kind in ScenarioKind::ALL {
        println!("{} scenario:", kind.name());
        let mut t = Table::new(vec!["ratio", "SR", "OdF", "OdM", "HF", "HM"]);
        let mut crossover: Option<f64> = None;
        for &ratio in &ratios {
            let model = PricingModel::ReservedOnDemand(ReservedOnDemandPricing::with_ratio(ratio));
            let costs: Vec<f64> = StrategyRegistry::paper()
                .iter()
                .map(|s| h.run(RunSpec::of(kind, s)).cost(&rates, &model).total() / baseline)
                .collect();
            if kind == ScenarioKind::HighVariability && crossover.is_none() && costs[0] <= costs[4]
            {
                crossover = Some(ratio);
            }
            t.row(
                std::iter::once(format!("{ratio:.2}"))
                    .chain(costs.iter().map(|c| format!("{c:.2}")))
                    .collect(),
            );
            json.push(
                std::iter::once(kind as u8 as f64)
                    .chain(std::iter::once(ratio))
                    .chain(costs)
                    .collect(),
            );
        }
        println!("{t}");
        if let Some(r) = crossover {
            println!(
                "SR becomes cheaper than HM at ratio ≈ {r:.2} (paper: ~3 for high variability)\n"
            );
        }
    }
    println!("(paper: on-demand strategies win at low ratios; per scenario there is a");
    println!(" ratio beyond which SR wins, growing with variability; hybrids cheapest");
    println!(" per-hour over extended ratio ranges)");
    write_json(
        "fig12_price_ratio",
        &["scenario", "ratio", "SR", "OdF", "OdM", "HF", "HM"],
        &json,
    );
    h.finish("fig12")
}
