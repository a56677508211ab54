//! Pricing explorer: for a workload you describe with one knob
//! (variability), find which provisioning strategy is cheapest under each
//! provider pricing model and across deployment durations.
//!
//! ```text
//! cargo run --release --example pricing_explorer [static|low|high]
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
    let arg = std::env::args().nth(1).unwrap_or_else(|| "high".into());
    let kind = match arg.as_str() {
        "static" => ScenarioKind::Static,
        "low" => ScenarioKind::LowVariability,
        _ => ScenarioKind::HighVariability,
    };
    let factory = RngFactory::new(2024);
    let scenario = Scenario::generate(ScenarioConfig::scaled(kind, 0.25, 40), &factory);
    println!(
        "workload: {} ({} jobs)\n",
        kind.name(),
        scenario.jobs().len()
    );

    let rates = Rates::default();
    let mut results = Vec::new();
    for s in StrategyRegistry::paper() {
        let r = run_scenario(&scenario, &RunConfig::new(s), &RunCtx::new(&factory))?;
        results.push((s, r));
    }

    println!("Per-run cost under each provider pricing model ($):");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "model", "SR", "OdF", "OdM", "HF", "HM"
    );
    for (name, model) in [
        ("reserved+od (AWS)", PricingModel::aws()),
        ("on-demand only (Azure)", PricingModel::azure()),
        ("sustained-use (GCE)", PricingModel::gce()),
    ] {
        print!("{name:<22}");
        for (_, r) in &results {
            print!(" {:>7.2}", r.cost(&rates, &model).total());
        }
        println!();
    }

    println!("\nCheapest strategy by deployment duration (AWS model, workload repeats):");
    let pricing = ReservedOnDemandPricing::default();
    for weeks in [2u64, 10, 20, 30, 52] {
        let duration = SimDuration::from_hours(weeks * 7 * 24);
        let (best, cost) = results
            .iter()
            .map(|(s, r)| {
                let c = commitment_cost(
                    &r.usage_records,
                    &rates,
                    &pricing,
                    r.makespan.saturating_since(SimTime::ZERO),
                    duration,
                )
                .total();
                (*s, c)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
            .expect("strategies non-empty");
        println!(
            "  {weeks:>3} weeks: {:<4} ({:.1}k$)",
            best.short_name(),
            cost / 1000.0
        );
    }
    println!("\n(Short deployments favour pure on-demand; reservations only pay off");
    println!(" once the workload sticks around — and only its *steady* part.)");
    Ok(())
}
