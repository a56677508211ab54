//! Figure 17: sensitivity to the cloud pricing model.
//!
//! The same runs billed under three models: AWS-style reserved +
//! on-demand (the paper's default), Azure-style on-demand only, and
//! GCE-style on-demand with sustained-use discounts. Costs normalized to
//! static-SR under the reserved + on-demand model.

use hcloud::{StrategyId, StrategyRegistry};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_workloads::ScenarioKind;

use crate::{ExperimentPlan, Harness, RunSpec, Table};

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let rates = Rates::default();
    let models = [
        ("reserved+od (AWS)", PricingModel::aws()),
        ("od only (Azure)", PricingModel::azure()),
        ("od+discounts (GCE)", PricingModel::gce()),
    ];

    // All 15 simulations fan out once; each pricing model re-bills the
    // cached usage records.
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

    println!(
        "Figure 17: cost under different pricing models (normalized to static SR, AWS model)\n"
    );
    let mut json: Vec<Vec<f64>> = Vec::new();
    for kind in ScenarioKind::ALL {
        println!("{} scenario:", kind.name());
        let mut t = Table::new(vec!["pricing model", "SR", "OdF", "OdM", "HF", "HM"]);
        for (midx, (name, model)) in models.iter().enumerate() {
            let costs: Vec<f64> = StrategyRegistry::paper()
                .iter()
                .map(|s| h.run(RunSpec::of(kind, s)).cost(&rates, model).total() / baseline)
                .collect();
            t.row(
                std::iter::once(name.to_string())
                    .chain(costs.iter().map(|c| format!("{c:.2}")))
                    .collect(),
            );
            json.push(
                [kind as u8 as f64, midx as f64]
                    .into_iter()
                    .chain(costs)
                    .collect(),
            );
        }
        println!("{t}");
        // The paper's quoted comparison: HM vs OdF under Azure and GCE.
        let hm_azure = h
            .run(RunSpec::of(kind, StrategyId::HM))
            .cost(&rates, &PricingModel::azure())
            .total();
        let odf_azure = h
            .run(RunSpec::of(kind, StrategyId::ODF))
            .cost(&rates, &PricingModel::azure())
            .total();
        let hm_gce = h
            .run(RunSpec::of(kind, StrategyId::HM))
            .cost(&rates, &PricingModel::gce())
            .total();
        let odf_gce = h
            .run(RunSpec::of(kind, StrategyId::ODF))
            .cost(&rates, &PricingModel::gce())
            .total();
        println!(
            "HM saves {:.0}% vs OdF under Azure pricing, {:.0}% under GCE pricing\n",
            (1.0 - hm_azure / odf_azure) * 100.0,
            (1.0 - hm_gce / odf_gce) * 100.0
        );
    }
    println!("(paper: even without reserved resources the hybrid mapping +");
    println!(" preference-aware sizing saves cost — e.g. high variability: HM 32%");
    println!(" below OdF under Azure pricing and 30% under GCE with discounts)");
    h.write_json(
        "fig17_pricing_models",
        &["scenario", "model", "SR", "OdF", "OdM", "HF", "HM"],
        &json,
    );
}
