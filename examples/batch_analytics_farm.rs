//! An analytics farm: a batch-only, extremely bursty workload (nightly
//! ETL surges), where the interesting question is pure cost — how much
//! does each provisioning strategy pay per unit of useful work?
//!
//! ```text
//! cargo run --release --example batch_analytics_farm
//! ```

use hcloud::{
    runner::{run_scenario, AuditViolation, RunCtx},
    RunConfig, StrategyRegistry,
};
use hcloud_pricing::{commitment_cost, PricingModel, Rates, ReservedOnDemandPricing};
use hcloud_sim::rng::RngFactory;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};

fn main() -> Result<(), AuditViolation> {
    let factory = RngFactory::new(123);

    // Batch-only: the sensitive-fraction override with fraction 0 keeps
    // memcached out entirely.
    let mut config = ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.25, 45);
    config.sensitive_fraction = Some(0.0);
    let scenario = Scenario::generate(config, &factory);
    let work_core_hours: f64 = scenario
        .jobs()
        .iter()
        .map(|j| j.cores as f64 * j.ideal_duration().as_hours_f64())
        .sum();
    println!(
        "analytics farm: {} batch jobs, {:.0} core-hours of work\n",
        scenario.jobs().len(),
        work_core_hours
    );

    let rates = Rates::default();
    let pricing = PricingModel::aws();
    let reserved_pricing = ReservedOnDemandPricing::default();
    println!(
        "{:<8} {:>10} {:>12} {:>16} {:>20}",
        "strategy", "perf", "run cost", "$/core-hour", "26-week deployment"
    );
    for strategy in StrategyRegistry::paper() {
        let result = run_scenario(&scenario, &RunConfig::new(strategy), &RunCtx::new(&factory))?;
        let cost = result.cost(&rates, &pricing).total();
        let long = commitment_cost(
            &result.usage_records,
            &rates,
            &reserved_pricing,
            result.makespan.saturating_since(SimTime::ZERO),
            SimDuration::from_hours(26 * 7 * 24),
        );
        println!(
            "{:<8} {:>9.1}% {:>11.2}$ {:>15.4}$ {:>18.1}k$",
            strategy.short_name(),
            result.mean_normalized_perf() * 100.0,
            cost,
            cost / work_core_hours,
            long.total() / 1000.0,
        );
    }
    println!(
        "\nBatch work tolerates interference, so the mixed-size strategies'\n\
         cheap small instances shine; the statically reserved farm pays for\n\
         its idle peak capacity all night."
    );
    Ok(())
}
