//! Figures 6 and 7: sensitivity to the application-mapping policy.
//!
//! For the high-variability scenario under HF and HM, runs every mapping
//! policy P1–P8 and reports (Figure 6) the performance of jobs on
//! reserved and on-demand resources normalized to isolation, and
//! (Figure 7) the utilization of reserved resources and total cost
//! normalized to static-SR.

use hcloud::{MappingPolicy, StrategyId, StrategyRef, StrategyRegistry};
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{write_json, ExperimentPlan, Harness, RunSpec, Table};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_sim::stats::mean;
use hcloud_workloads::ScenarioKind;

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::FIG06_FIG07;

fn main() -> std::process::ExitCode {
    let mut h = Harness::for_experiment(INFO);
    let rates = Rates::default();
    let model = PricingModel::aws();
    let kind = ScenarioKind::HighVariability;
    // The two hybrids, with their paper-order index: the JSON strategy
    // column.
    let strategies: Vec<(usize, &StrategyRef)> = StrategyRegistry::paper()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_hybrid())
        .collect();

    // One plan: the SR-static cost baseline plus the 2x8 policy grid.
    let mut plan = ExperimentPlan::new();
    plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::SR));
    for &(_, strategy) in &strategies {
        for (_, policy) in MappingPolicy::paper_set() {
            plan.push(RunSpec::of(kind, strategy).policy(policy));
        }
    }
    h.run_plan(plan);

    let baseline = h
        .run(RunSpec::of(ScenarioKind::Static, StrategyId::SR))
        .cost(&rates, &model)
        .total();

    println!("Figures 6-7: mapping policies P1-P8, high variability scenario\n");
    println!("P1 random | P2 Q>80% reserved | P3 Q>50% | P4 Q>20% |");
    println!("P5 load<50% | P6 load<70% | P7 load<90% | P8 dynamic\n");

    let mut t = Table::new(vec![
        "strategy",
        "policy",
        "perf(reserved)%",
        "perf(on-demand)%",
        "reserved util%",
        "cost(xSR-static)",
    ]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for &(si, strategy) in &strategies {
        for (sidx, (label, policy)) in MappingPolicy::paper_set().into_iter().enumerate() {
            let r = h.run(RunSpec::of(kind, strategy).policy(policy));
            let perf_res = mean(&r.normalized_perf(Some(true))).unwrap_or(f64::NAN) * 100.0;
            let perf_od = mean(&r.normalized_perf(Some(false))).unwrap_or(f64::NAN) * 100.0;
            let util = r.mean_reserved_utilization().unwrap_or(0.0) * 100.0;
            let cost = r.cost(&rates, &model).total() / baseline;
            t.row(vec![
                strategy.short_name().into(),
                label.into(),
                format!("{perf_res:.1}"),
                format!("{perf_od:.1}"),
                format!("{util:.0}"),
                format!("{cost:.2}"),
            ]);
            json.push(vec![si as f64, sidx as f64, perf_res, perf_od, util, cost]);
        }
    }
    println!("{t}");
    println!("(paper: random and static-limit policies hurt one side or the other;");
    println!(" the dynamic policy P8 keeps both sides >85-90% of isolation with");
    println!(" high reserved utilization and the lowest cost)");
    write_json(
        "fig06_07_policies",
        &[
            "strategy",
            "policy",
            "perf_reserved",
            "perf_od",
            "util",
            "cost",
        ],
        &json,
    );
    h.finish("fig06_fig07")
}
