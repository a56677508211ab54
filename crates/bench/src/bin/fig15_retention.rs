//! Figure 15: performance and cost sensitivity to resource retention
//! time (high-variability scenario).
//!
//! Idle on-demand instances are retained for a multiple of their spin-up
//! overhead before release; the sweep covers 0–500×. Performance is p95
//! normalized to SR; cost is normalized to static-SR.

use hcloud::StrategyId;
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{write_json, ExperimentPlan, Harness, RunSpec, Table};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_workloads::ScenarioKind;

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::FIG15;

fn main() -> std::process::ExitCode {
    let mut h = Harness::for_experiment(INFO);
    let kind = ScenarioKind::HighVariability;
    let rates = Rates::default();
    let model = PricingModel::aws();
    let retentions = [0.0, 1.0, 10.0, 50.0, 100.0, 250.0, 500.0];
    let swept = [
        StrategyId::ODF,
        StrategyId::ODM,
        StrategyId::HF,
        StrategyId::HM,
    ];
    let retention_spec = |strategy, mult| {
        RunSpec::of(kind, strategy).map_config(move |c| c.with_retention_mult(mult))
    };

    let mut plan = ExperimentPlan::new();
    plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::SR));
    plan.push(RunSpec::of(kind, StrategyId::SR));
    for &mult in &retentions {
        for strategy in swept {
            plan.push(retention_spec(strategy, mult));
        }
    }
    h.run_plan(plan);

    let baseline_cost = h
        .run(RunSpec::of(ScenarioKind::Static, StrategyId::SR))
        .cost(&rates, &model)
        .total();
    let sr_p95 = h
        .run(RunSpec::of(kind, StrategyId::SR))
        .p95_normalized_perf();
    println!("Figure 15: sensitivity to retention time (× spin-up overhead)\n");
    let mut perf_t = Table::new(vec!["retention x", "OdF", "OdM", "HF", "HM"]);
    let mut cost_t = Table::new(vec!["retention x", "SR", "OdF", "OdM", "HF", "HM"]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for &mult in &retentions {
        let mut perf_row = vec![format!("{mult:.0}")];
        let mut cost_row = vec![format!("{mult:.0}"), "1.38".to_string()];
        let sr_cost = h
            .run(RunSpec::of(kind, StrategyId::SR))
            .cost(&rates, &model)
            .total()
            / baseline_cost;
        cost_row[1] = format!("{sr_cost:.2}");
        let mut jrow = vec![mult, 100.0, sr_cost];
        for strategy in swept {
            let r = h.run(retention_spec(strategy, mult));
            let p = r.p95_normalized_perf() / sr_p95 * 100.0;
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
    println!("p95 performance normalized to SR (%):\n{perf_t}");
    println!("cost normalized to static-SR:\n{cost_t}");
    println!("(paper: releasing instances immediately hurts performance — fresh");
    println!(" spin-ups on every load change; longer retention raises cost for the");
    println!(" on-demand strategies while SR is unaffected; excessive retention can");
    println!(" slightly hurt OdM/HM because retained instances' quality degrades)");
    write_json(
        "fig15_retention",
        &[
            "retention_mult",
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
    h.finish("fig15")
}
