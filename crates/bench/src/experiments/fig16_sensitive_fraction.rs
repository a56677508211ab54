//! Figure 16: performance and cost sensitivity to workload
//! characteristics — the fraction of interference-sensitive applications
//! (memcached + real-time Spark) sweeps 0–100% on the high-variability
//! scenario.

use std::sync::Arc;

use hcloud::{StrategyId, StrategyRegistry};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_workloads::{Scenario, ScenarioKind};

use crate::{ExperimentPlan, Harness, RunSpec, Table};

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let factory = h.factory();
    let rates = Rates::default();
    let model = PricingModel::aws();
    let fractions = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

    println!("Figure 16: sensitivity to the fraction of interference-sensitive jobs\n");
    let mut perf_t = Table::new(vec!["sensitive %", "SR", "OdF", "OdM", "HF", "HM"]);
    let mut cost_t = Table::new(vec!["sensitive %", "SR", "OdF", "OdM", "HF", "HM"]);
    let mut json: Vec<Vec<f64>> = Vec::new();

    // One modified scenario per sweep point, all runs in one plan
    // (plus the unmodified static-SR cost baseline).
    let scenarios: Vec<Arc<Scenario>> = fractions
        .iter()
        .map(|&f| {
            let mut config = h.ctx().scenario_config(ScenarioKind::HighVariability);
            config.sensitive_fraction = Some(f);
            Arc::new(Scenario::generate(config, &factory))
        })
        .collect();
    let mut plan = ExperimentPlan::new();
    plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::SR));
    for scenario in &scenarios {
        for strategy in StrategyRegistry::paper() {
            plan.push(RunSpec::on(Arc::clone(scenario), strategy));
        }
    }
    h.run_plan(plan);

    // Cost baseline: the unmodified static scenario under SR.
    let baseline_cost = h
        .run(RunSpec::of(ScenarioKind::Static, StrategyId::SR))
        .cost(&rates, &model)
        .total();

    for (scenario, &f) in scenarios.iter().zip(&fractions) {
        let mut perf_row = vec![format!("{:.0}", f * 100.0)];
        let mut cost_row = vec![format!("{:.0}", f * 100.0)];
        let mut jrow = vec![f * 100.0];
        for strategy in StrategyRegistry::paper() {
            let r = h.run(RunSpec::on(Arc::clone(scenario), strategy));
            let p = r.p95_normalized_perf() * 100.0;
            let c = r.cost(&rates, &model).total() / baseline_cost;
            perf_row.push(format!("{p:.0}"));
            cost_row.push(format!("{c:.2}"));
            jrow.push(p);
            jrow.push(c);
        }
        perf_t.row(perf_row);
        cost_t.row(cost_row);
        json.push(jrow);
    }
    println!("p95 performance normalized to isolation (%):\n{perf_t}");
    println!("cost normalized to static-SR:\n{cost_t}");
    println!("(paper: SR behaves well throughout — provisioned for peak, no external");
    println!(" load; hybrids hold up until ~80% sensitive jobs, when reserved");
    println!(" queueing bites; the on-demand strategies degrade the most, and all");
    println!(" strategies except SR grow more expensive as sensitivity rises)");
    h.write_json(
        "fig16_sensitive",
        &[
            "sensitive_pct",
            "SR_perf",
            "SR_cost",
            "OdF_perf",
            "OdF_cost",
            "OdM_perf",
            "OdM_cost",
            "HF_perf",
            "HF_cost",
            "HM_perf",
            "HM_cost",
        ],
        &json,
    );
}
