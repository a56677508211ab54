//! Figure 14: performance sensitivity to instance spin-up time and
//! external load (high-variability scenario).
//!
//! Left: p95 performance normalized to SR as the mean spin-up overhead
//! sweeps 0–120 s. Right: p95 performance normalized to isolation as the
//! mean external load sweeps 0–100%.

use hcloud::{StrategyRef, StrategyRegistry};
use hcloud_cloud::{ExternalLoadModel, SpinUpModel};
use hcloud_workloads::ScenarioKind;

use crate::{ExperimentPlan, Harness, RunSpec, Table};

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let kind = ScenarioKind::HighVariability;

    // Both sweeps as one plan: 6 spin-up points x 5 strategies plus
    // 6 external-load points x 5 strategies.
    let spinups = [0.0, 15.0, 30.0, 60.0, 90.0, 120.0];
    let loads = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0];
    let paper = StrategyRegistry::paper();
    let spinup_spec = |strategy: &StrategyRef, secs| {
        RunSpec::of(kind, strategy)
            .map_config(move |c| c.with_spin_up(SpinUpModel::with_mean_secs(secs)))
    };
    let load_spec = |strategy: &StrategyRef, load| {
        RunSpec::of(kind, strategy)
            .map_config(move |c| c.with_external_load(ExternalLoadModel::with_mean(load)))
    };
    let mut plan = ExperimentPlan::new();
    for &secs in &spinups {
        for strategy in paper {
            plan.push(spinup_spec(strategy, secs));
        }
    }
    for &load in &loads {
        for strategy in paper {
            plan.push(load_spec(strategy, load));
        }
    }
    h.run_plan(plan);

    println!("Figure 14a: p95 performance (normalized to SR, %) vs spin-up overhead\n");
    let mut t = Table::new(vec!["spin-up (s)", "SR", "OdF", "OdM", "HF", "HM"]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for &secs in &spinups {
        // SR (paper[0]) pays no spin-up; it is the per-sweep baseline.
        let sr = h.run(spinup_spec(&paper[0], secs)).p95_normalized_perf();
        let mut row = vec![format!("{secs:.0}"), "100".to_string()];
        let mut jrow = vec![secs, 100.0];
        for strategy in &paper[1..] {
            let p = h.run(spinup_spec(strategy, secs)).p95_normalized_perf() / sr * 100.0;
            row.push(format!("{p:.0}"));
            jrow.push(p);
        }
        t.row(row);
        json.push(jrow);
    }
    println!("{t}");
    println!("(paper: SR unaffected; OdF/OdM degrade most with growing spin-up,");
    println!(" hybrids hide part of the overhead in the reserved pool)\n");
    h.write_json(
        "fig14a_spinup",
        &["spinup_s", "SR", "OdF", "OdM", "HF", "HM"],
        &json,
    );

    println!("Figure 14b: p95 performance (normalized to isolation, %) vs external load\n");
    let mut t = Table::new(vec!["external load %", "SR", "OdF", "OdM", "HF", "HM"]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for &load in &loads {
        let mut row = vec![format!("{:.0}", load * 100.0)];
        let mut jrow = vec![load * 100.0];
        for strategy in paper {
            let p = h.run(load_spec(strategy, load)).p95_normalized_perf() * 100.0;
            row.push(format!("{p:.0}"));
            jrow.push(p);
        }
        t.row(row);
        json.push(jrow);
    }
    println!("{t}");
    println!("(paper: SR immune — no external tenants on a private system; OdF/HF");
    println!(" tolerant — full servers; HM degrades little until ~50% load; OdM");
    println!(" suffers most — all of its resources are shared)");
    h.write_json(
        "fig14b_external",
        &["load_pct", "SR", "OdF", "OdM", "HF", "HM"],
        &json,
    );
}
