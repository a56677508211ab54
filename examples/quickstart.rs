//! Quickstart: provision a bursty mixed workload with HCloud's hybrid
//! strategy and compare it against fully reserved and fully on-demand
//! provisioning.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hcloud::{
    runner::{run_scenario, AuditViolation, RunCtx},
    RunConfig, StrategyRegistry,
};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_sim::rng::RngFactory;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};

fn main() -> Result<(), AuditViolation> {
    // Everything is deterministic in one master seed.
    let factory = RngFactory::new(42);

    // A scaled-down version of the paper's high-variability scenario:
    // ~7 minutes of simulated arrivals, load swinging 6x.
    let scenario = Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.25, 40),
        &factory,
    );
    println!(
        "workload: {} jobs over {:.0} minutes, load {:.0}..{:.0} cores\n",
        scenario.jobs().len(),
        scenario.config().duration.as_mins_f64(),
        scenario.stats().max_min_ratio.recip() * 100.0,
        100.0
    );

    let rates = Rates::default();
    let pricing = PricingModel::aws();
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>10}",
        "strategy", "perf", "batch mean", "p99 latency", "run cost"
    );
    for strategy in StrategyRegistry::paper() {
        let config = RunConfig::new(strategy);
        let result = run_scenario(&scenario, &config, &RunCtx::new(&factory))?;
        let batch = result.batch_performance_boxplot().expect("batch jobs");
        let lc = result.lc_latency_boxplot().expect("latency jobs");
        let cost = result.cost(&rates, &pricing);
        println!(
            "{:<8} {:>9.1}% {:>9.1}min {:>10.0}us {:>9.2}$",
            strategy.short_name(),
            result.mean_normalized_perf() * 100.0,
            batch.mean,
            lc.mean,
            cost.total(),
        );
    }
    println!(
        "\nSR is fast but pays for peak capacity around the clock; the on-demand\n\
         strategies pay spin-up and interference; the hybrids (HF/HM) keep the\n\
         sensitive work on reserved capacity and overflow to on-demand."
    );
    Ok(())
}
