//! Figure 21: breakdown of the low-variability allocation by application
//! type under HM, split between reserved and on-demand resources.

use hcloud::StrategyId;
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{sparkline, write_json, Harness, RunSpec};
use hcloud_sim::series::StepSeries;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_workloads::{AppClass, ScenarioKind};

/// The paper's three application groups.
fn group(class: AppClass) -> usize {
    match class {
        AppClass::HadoopRecommender | AppClass::HadoopSvm | AppClass::HadoopMatrixFactorization => {
            0
        }
        AppClass::SparkBatch | AppClass::SparkRealtime => 1,
        AppClass::Memcached => 2,
    }
}

const GROUPS: [&str; 3] = ["Hadoop", "Spark", "memcached"];

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::FIG21;

fn main() -> std::process::ExitCode {
    let mut h = Harness::for_experiment(INFO);
    let r = h
        .run(RunSpec::of(ScenarioKind::LowVariability, StrategyId::HM))
        .clone();

    // Build per-(side, group) allocated-core series from job outcomes.
    let mut series: Vec<Vec<StepSeries>> = (0..2)
        .map(|_| (0..3).map(|_| StepSeries::new(0.0)).collect())
        .collect();
    let mut events: Vec<(SimTime, usize, usize, f64)> = Vec::new();
    for o in &r.outcomes {
        let side = usize::from(!o.on_reserved);
        let g = group(o.class);
        events.push((o.started, side, g, o.cores as f64));
        events.push((o.finished, side, g, -(o.cores as f64)));
    }
    events.sort_by_key(|&(t, _, _, _)| t);
    for (t, side, g, delta) in events {
        series[side][g].record_delta(t, delta);
    }

    println!("Figure 21: allocation breakdown by application type (HM, low variability)\n");
    let step = SimDuration::from_mins(4);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for (side, side_name) in [(0usize, "Reserved resources"), (1, "On-demand resources")] {
        println!("{side_name}:");
        for (g, name) in GROUPS.iter().enumerate() {
            let mut vals = Vec::new();
            let mut t = SimTime::ZERO;
            while t <= r.makespan {
                vals.push(series[side][g].value_at(t));
                t += step;
            }
            let peak = vals.iter().copied().fold(0.0, f64::max);
            println!("  {name:>10} {} (peak {peak:.0} cores)", sparkline(&vals));
        }
        println!();
    }
    let mut t = SimTime::ZERO;
    while t <= r.makespan {
        let mut row = vec![t.as_mins_f64()];
        for side in &series {
            for group_series in side {
                row.push(group_series.value_at(t));
            }
        }
        json.push(row);
        t += step;
    }
    println!("(paper: reserved resources fill with all types until the soft limit;");
    println!(" past it the interference-sensitive memcached occupies most of the");
    println!(" reserved pool while batch work overflows to on-demand; when the");
    println!(" memcached surge exceeds reserved capacity part of it is served by");
    println!(" larger on-demand instances)");
    write_json(
        "fig21_breakdown",
        &[
            "minute",
            "res_hadoop",
            "res_spark",
            "res_memcached",
            "od_hadoop",
            "od_spark",
            "od_memcached",
        ],
        &json,
    );
    h.finish("fig21")
}
