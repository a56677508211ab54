//! Figure 18: resource allocation over time for the five strategies on
//! the high-variability scenario — required cores vs reserved and
//! on-demand allocations.

use hcloud::StrategyRegistry;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_workloads::ScenarioKind;

use crate::{sparkline, ExperimentPlan, Harness, RunSpec, Table};

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let kind = ScenarioKind::HighVariability;
    let required = h.scenario(kind).required_cores_series();
    let step = SimDuration::from_mins(4);

    let plan: ExperimentPlan = StrategyRegistry::paper()
        .iter()
        .map(|s| RunSpec::of(kind, s))
        .collect();
    h.run_plan(plan);

    println!("Figure 18: resource allocation, high-variability scenario\n");
    let mut json: Vec<Vec<f64>> = Vec::new();
    for (si, strategy) in StrategyRegistry::paper().iter().enumerate() {
        let r = h.run(RunSpec::of(kind, strategy));
        let end = r.makespan;
        let mut req = Vec::new();
        let mut res = Vec::new();
        let mut od = Vec::new();
        let mut t = SimTime::ZERO;
        while t <= end {
            req.push(required.value_at(t));
            res.push(r.reserved_cores as f64);
            od.push(r.od_allocated.value_at(t));
            t += step;
        }
        println!("Configuration: {}", strategy.short_name());
        println!("  required  {}", sparkline(&req));
        println!(
            "  reserved  {}",
            sparkline(&res.iter().map(|&v| v.max(1e-9)).collect::<Vec<_>>())
        );
        println!("  on-demand {}", sparkline(&od));
        let mean_alloc: f64 =
            res.iter().zip(&od).map(|(a, b)| a + b).sum::<f64>() / res.len() as f64;
        let mean_req: f64 = req.iter().sum::<f64>() / req.len() as f64;
        println!(
            "  makespan {:.0} min, mean allocated {:.0} cores vs mean required {:.0} cores\n",
            end.as_mins_f64(),
            mean_alloc,
            mean_req
        );
        for (i, ((rq, rs), o)) in req.iter().zip(&res).zip(&od).enumerate() {
            json.push(vec![si as f64, i as f64 * step.as_mins_f64(), *rq, *rs, *o]);
        }
    }

    let mut t = Table::new(vec![
        "strategy",
        "od acquired",
        "avg od active",
        "released immediately",
    ]);
    for strategy in StrategyRegistry::paper() {
        let r = h.run(RunSpec::of(kind, strategy));
        let avg_od = r
            .od_allocated
            .time_weighted_mean(SimTime::ZERO, r.makespan)
            .unwrap_or(0.0)
            / 16.0;
        t.row(vec![
            strategy.short_name().into(),
            format!("{}", r.counters.od_acquired),
            format!("{avg_od:.0} servers-equiv"),
            format!(
                "{} ({:.0}%)",
                r.counters.od_released_immediately,
                100.0 * r.counters.od_released_immediately as f64
                    / r.counters.od_acquired.max(1) as f64
            ),
        ]);
    }
    println!("{t}");
    println!("(paper: SR flat at peak+15%; OdF tracks load with overprovisioning and");
    println!(" 132-min completion; OdM tracks tightest but stretches the scenario 48%");
    println!(" and releases 43% of instances immediately; hybrids reserve the");
    println!(" steady-state minimum — HM released 11% immediately)");
    h.write_json(
        "fig18_allocation",
        &["strategy", "minute", "required", "reserved", "on_demand"],
        &json,
    );
}
