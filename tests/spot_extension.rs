//! Integration tests for the Section 5.5 spot-instance extension.

use hcloud::config::SpotPolicy;
use hcloud::{
    runner::{run_scenario, RunCtx},
    RunConfig, RunResult, StrategyId, StrategyRegistry,
};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_sim::rng::RngFactory;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};

fn scenario() -> Scenario {
    Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.15, 30),
        &RngFactory::new(21),
    )
}

fn run(spot: Option<SpotPolicy>) -> RunResult {
    let mut config = RunConfig::new(StrategyId::HM);
    config.spot = spot;
    run_scenario(&scenario(), &config, &RunCtx::new(&RngFactory::new(21)))
        .expect("no auditor attached")
}

#[test]
fn spot_reduces_cost_without_losing_jobs() {
    let s = scenario();
    let base = run(None);
    let with = run(Some(SpotPolicy::default()));
    assert_eq!(with.outcomes.len(), s.jobs().len(), "jobs lost under spot");
    assert!(with.counters.spot_acquired > 0, "no spot instances used");
    let rates = Rates::default();
    let model = PricingModel::aws();
    let base_cost = base.cost(&rates, &model).total();
    let with_cost = with.cost(&rates, &model).total();
    assert!(
        with_cost < base_cost,
        "spot should reduce cost: {with_cost:.2} vs {base_cost:.2}"
    );
}

#[test]
fn spot_performance_impact_is_bounded() {
    let base = run(None);
    let with = run(Some(SpotPolicy::default()));
    assert!(
        with.mean_normalized_perf() > base.mean_normalized_perf() - 0.05,
        "spot perf {:.3} collapsed vs base {:.3}",
        with.mean_normalized_perf(),
        base.mean_normalized_perf()
    );
}

#[test]
fn low_bids_get_terminated_more() {
    let aggressive = run(Some(SpotPolicy {
        bid_multiplier: 0.38,
        max_quality: 0.8,
    }));
    let safe = run(Some(SpotPolicy {
        bid_multiplier: 2.0,
        max_quality: 0.8,
    }));
    assert_eq!(safe.counters.spot_terminations, 0, "a 2x bid never loses");
    assert!(
        aggressive.counters.spot_terminations >= safe.counters.spot_terminations,
        "lower bids should terminate at least as often"
    );
    // Terminated jobs still finish (evacuation to on-demand).
    assert_eq!(aggressive.outcomes.len(), scenario().jobs().len());
}

#[test]
fn latency_critical_jobs_never_ride_spot() {
    let with = run(Some(SpotPolicy {
        bid_multiplier: 0.6,
        max_quality: 1.0, // even with the quality gate wide open
    }));
    // Spot usage exists, but memcached outcomes keep their latency intact
    // relative to the no-spot baseline (no LC job was evacuated).
    let base = run(None);
    let lc_with = with.lc_latency_boxplot().expect("LC jobs");
    let lc_base = base.lc_latency_boxplot().expect("LC jobs");
    assert!(
        lc_with.mean < lc_base.mean * 1.25,
        "LC latency degraded under spot: {:.0} vs {:.0}",
        lc_with.mean,
        lc_base.mean
    );
}

#[test]
fn spot_usage_is_billed_at_a_discount() {
    let with = run(Some(SpotPolicy::default()));
    let spot_records: Vec<_> = with
        .usage_records
        .iter()
        .filter(|u| u.rate_multiplier < 0.999)
        .collect();
    assert!(!spot_records.is_empty(), "expected discounted spot records");
    for u in spot_records {
        assert!(
            (0.1..1.0).contains(&u.rate_multiplier),
            "implausible spot multiplier {}",
            u.rate_multiplier
        );
    }
}

#[test]
fn paper_strategies_are_untouched_by_default() {
    // spot: None is the default — the five paper strategies never touch
    // the spot market.
    for strategy in StrategyRegistry::paper() {
        let r = run_scenario(
            &scenario(),
            &RunConfig::new(strategy),
            &RunCtx::new(&RngFactory::new(21)),
        )
        .expect("no auditor attached");
        assert_eq!(r.counters.spot_acquired, 0, "{strategy}");
        assert!(r.usage_records.iter().all(|u| u.rate_multiplier == 1.0));
    }
}
