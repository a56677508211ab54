//! Fault-injection extension: SLO survival under deterministic chaos.
//!
//! Sweeps the `full-chaos` fault plan's intensity across all five
//! provisioning strategies and reports, per cell:
//!
//! * **SLO survival** — the fraction of jobs finishing with normalized
//!   performance ≥ 0.7 (the paper's "acceptable" band);
//! * **cost overhead** — total cost relative to the same strategy at
//!   intensity 0 (retries, replacement instances and lost work all cost
//!   money);
//! * **work lost** — batch core-seconds destroyed by preemptions;
//! * recovery-machinery counters (retries, storm preemptions).
//!
//! Spot is enabled so preemption storms have instances to kill. Every
//! schedule is drawn from its own seeded RNG stream, so the table is
//! bit-identical for any `HCLOUD_JOBS` value.

use hcloud::config::SpotPolicy;
use hcloud::StrategyRegistry;
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{write_json, ExperimentPlan, Harness, RunSpec, Table};
use hcloud_faults::FaultPlanId;
use hcloud_pricing::{PricingModel, Rates};
use hcloud_workloads::ScenarioKind;

/// Jobs at or above this normalized performance kept their SLO.
const SLO_THRESHOLD: f64 = 0.7;

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::EXT_FAULT_RESILIENCE;

fn main() -> std::process::ExitCode {
    let mut h = Harness::for_experiment(INFO);
    let kind = ScenarioKind::HighVariability;
    let rates = Rates::default();
    let model = PricingModel::aws();

    let intensities = [0.0, 0.5, 1.0, 2.0];
    let spec = |strategy, intensity: f64| {
        RunSpec::of(kind, strategy).map_config(move |c| {
            c.with_spot(SpotPolicy::default())
                .with_faults(FaultPlanId::FullChaos.plan().with_intensity(intensity))
        })
    };
    let mut plan = ExperimentPlan::new();
    for strategy in StrategyRegistry::paper() {
        for &intensity in &intensities {
            plan.push(spec(strategy, intensity));
        }
    }
    h.run_plan(plan);

    println!("Fault resilience: full-chaos intensity sweep (high variability)\n");
    let mut t = Table::new(vec![
        "strategy",
        "intensity",
        "SLO survival",
        "cost overhead",
        "work lost (core-s)",
        "retries",
        "storm preemptions",
    ]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for strategy in StrategyRegistry::paper() {
        let base_cost = h.run(spec(strategy, 0.0)).cost(&rates, &model).total();
        for &intensity in &intensities {
            let r = h.run(spec(strategy, intensity));
            let survival = {
                let perfs = r.normalized_perf(None);
                let kept = perfs.iter().filter(|&&p| p >= SLO_THRESHOLD).count();
                kept as f64 / perfs.len().max(1) as f64
            };
            let cost = r.cost(&rates, &model).total();
            let overhead = cost / base_cost.max(1e-9);
            t.row(vec![
                strategy.short_name().into(),
                format!("{intensity:.1}"),
                format!("{:.1}%", survival * 100.0),
                format!("{:.0}%", overhead * 100.0),
                format!("{:.0}", r.counters.work_lost_core_secs),
                format!("{}", r.counters.acquire_retries),
                format!("{}", r.counters.storm_preemptions),
            ]);
            json.push(vec![
                intensity,
                survival,
                overhead,
                r.counters.work_lost_core_secs,
                r.counters.acquire_retries as f64,
                r.counters.storm_preemptions as f64,
                r.counters.spot_terminations as f64,
                r.counters.degraded_instances as f64,
            ]);
        }
    }
    println!("{t}");
    println!("(hybrids ride out chaos best: the reserved pool is immune to every");
    println!(" injected fault class, so only their on-demand tail pays the storm");
    println!(" tax; fully on-demand strategies pay it on every job, and the");
    println!(" recovery machinery — retries, family fallback, requeueing —");
    println!(" converts outright failures into latency and cost instead)");
    write_json(
        "ext_fault_resilience",
        &[
            "intensity",
            "slo_survival",
            "cost_overhead",
            "work_lost_core_secs",
            "acquire_retries",
            "storm_preemptions",
            "spot_terminations",
            "degraded_instances",
        ],
        &json,
    );
    h.finish("ext_fault_resilience")
}
