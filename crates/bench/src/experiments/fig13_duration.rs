//! Figure 13: sensitivity of provisioning cost to deployment duration.
//!
//! The workload pattern of each scenario repeats for 1–60 weeks. Reserved
//! capacity pays whole 1-year terms upfront (doubling past 52 weeks);
//! on-demand spend scales with the duration. Absolute dollars, like the
//! paper.

use hcloud::StrategyRegistry;
use hcloud_pricing::{commitment_cost, Rates, ReservedOnDemandPricing};
use hcloud_sim::{SimDuration, SimTime};
use hcloud_workloads::ScenarioKind;

use crate::{ExperimentPlan, Harness, RunSpec, Table};

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let rates = Rates::default();
    let pricing = ReservedOnDemandPricing::default();
    let weeks = [1u64, 5, 10, 15, 18, 20, 25, 30, 40, 50, 52, 60];

    // All 15 scenario x strategy simulations fan out once; the duration
    // sweep below only re-bills cached usage records.
    let mut plan = ExperimentPlan::new();
    for kind in ScenarioKind::ALL {
        for strategy in StrategyRegistry::paper() {
            plan.push(RunSpec::of(kind, strategy));
        }
    }
    h.run_plan(plan);

    println!("Figure 13: absolute cost ($1000s) vs deployment duration (weeks)\n");
    let mut json: Vec<Vec<f64>> = Vec::new();
    for kind in ScenarioKind::ALL {
        println!("{} scenario:", kind.name());
        let mut t = Table::new(vec!["weeks", "SR", "OdF", "OdM", "HF", "HM"]);
        let mut best_changes: Vec<(u64, &'static str)> = Vec::new();
        let mut last_best = "";
        for &w in &weeks {
            let duration = SimDuration::from_hours(w * 7 * 24);
            let mut costs = Vec::new();
            for s in StrategyRegistry::paper() {
                let r = h.run(RunSpec::of(kind, s));
                let run_len = r.makespan.saturating_since(SimTime::ZERO);
                let c = commitment_cost(&r.usage_records, &rates, &pricing, run_len, duration);
                costs.push(c.total() / 1000.0);
            }
            let best_idx = costs
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("non-empty");
            let best = StrategyRegistry::paper()[best_idx].short_name();
            if best != last_best {
                best_changes.push((w, best));
                last_best = best;
            }
            t.row(
                std::iter::once(format!("{w}"))
                    .chain(costs.iter().map(|c| format!("{c:.1}")))
                    .collect(),
            );
            json.push(
                std::iter::once(kind as u8 as f64)
                    .chain(std::iter::once(w as f64))
                    .chain(costs)
                    .collect(),
            );
        }
        println!("{t}");
        let schedule: Vec<String> = best_changes
            .iter()
            .map(|(w, s)| format!("{s} from week {w}"))
            .collect();
        println!("cheapest strategy: {}\n", schedule.join(", "));
    }
    println!("(paper: on-demand cheapest for short deployments; SR only wins for");
    println!(" long static deployments; under high variability HM wins beyond ~18");
    println!(" weeks and the overprovisioned SR is never optimal; SR charge doubles");
    println!(" past the 52-week mark)");
    h.write_json(
        "fig13_duration",
        &["scenario", "weeks", "SR", "OdF", "OdM", "HF", "HM"],
        &json,
    );
}
