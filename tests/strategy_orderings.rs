//! Integration tests: the paper's qualitative results hold end-to-end on
//! scaled-down scenarios.

use hcloud::{
    runner::{run_scenario, RunCtx},
    RunConfig, RunResult, StrategyId,
};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_sim::rng::RngFactory;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};

fn scenario(kind: ScenarioKind) -> Scenario {
    Scenario::generate(ScenarioConfig::scaled(kind, 0.15, 30), &RngFactory::new(42))
}

fn run(kind: ScenarioKind, strategy: StrategyId) -> RunResult {
    run_scenario(
        &scenario(kind),
        &RunConfig::new(strategy),
        &RunCtx::new(&RngFactory::new(42)),
    )
    .expect("no auditor attached")
}

#[test]
fn reserved_beats_mixed_on_demand_everywhere() {
    for kind in ScenarioKind::ALL {
        let sr = run(kind, StrategyId::SR);
        let odm = run(kind, StrategyId::ODM);
        assert!(
            sr.mean_normalized_perf() > odm.mean_normalized_perf() + 0.05,
            "{}: SR {:.3} vs OdM {:.3}",
            kind.name(),
            sr.mean_normalized_perf(),
            odm.mean_normalized_perf()
        );
    }
}

#[test]
fn hybrids_stay_close_to_reserved_performance() {
    // Paper: hybrids within ~8% of SR. Allow slack for the scaled-down
    // scenario's smaller sample.
    let kind = ScenarioKind::HighVariability;
    let sr = run(kind, StrategyId::SR).mean_normalized_perf();
    for strategy in [StrategyId::HF, StrategyId::HM] {
        let h = run(kind, strategy).mean_normalized_perf();
        assert!(
            h > sr * 0.85,
            "{strategy}: {h:.3} more than 15% below SR {sr:.3}"
        );
    }
}

#[test]
fn hybrids_outperform_mixed_on_demand() {
    let kind = ScenarioKind::HighVariability;
    let hm = run(kind, StrategyId::HM).mean_normalized_perf();
    let odm = run(kind, StrategyId::ODM).mean_normalized_perf();
    assert!(hm > odm, "HM {hm:.3} should beat OdM {odm:.3}");
}

#[test]
fn odm_latency_blowup_matches_paper_direction() {
    // Paper: memcached suffers large tail-latency increases under OdM.
    let kind = ScenarioKind::HighVariability;
    let sr = run(kind, StrategyId::SR)
        .lc_latency_boxplot()
        .expect("LC jobs");
    let odm = run(kind, StrategyId::ODM)
        .lc_latency_boxplot()
        .expect("LC jobs");
    assert!(
        odm.mean > sr.mean * 2.0,
        "OdM LC mean {:.0}us should be >2x SR {:.0}us",
        odm.mean,
        sr.mean
    );
    assert!(odm.p95 > sr.p95 * 3.0);
}

#[test]
fn per_run_cost_ordering_matches_figure5() {
    // Per-run billing: SR's reserved rate is 2.74x cheaper per hour, so a
    // single run is cheapest under SR, and hybrids undercut the
    // on-demand-only strategies.
    let rates = Rates::default();
    let model = PricingModel::aws();
    for kind in ScenarioKind::ALL {
        let cost = |s: StrategyId| run(kind, s).cost(&rates, &model).total();
        let sr = cost(StrategyId::SR);
        let odf = cost(StrategyId::ODF);
        let odm = cost(StrategyId::ODM);
        let hf = cost(StrategyId::HF);
        let hm = cost(StrategyId::HM);
        assert!(sr < odf && sr < odm, "{}: SR per-run cheapest", kind.name());
        assert!(hf < odf, "{}: HF {hf:.2} < OdF {odf:.2}", kind.name());
        assert!(hm < odm, "{}: HM {hm:.2} < OdM {odm:.2}", kind.name());
    }
}

#[test]
fn hybrid_reserved_utilization_is_high() {
    let kind = ScenarioKind::HighVariability;
    for strategy in [StrategyId::HF, StrategyId::HM] {
        let r = run(kind, strategy);
        let util = r.mean_reserved_utilization().expect("reserved present");
        assert!(
            (0.45..=1.0).contains(&util),
            "{strategy}: reserved utilization {util:.2} implausible"
        );
    }
}

#[test]
fn sr_overprovisions_under_variability() {
    // SR must provision for peak; hybrids for the steady minimum.
    let kind = ScenarioKind::HighVariability;
    let sr = run(kind, StrategyId::SR);
    let hm = run(kind, StrategyId::HM);
    assert!(
        sr.reserved_cores > hm.reserved_cores * 3,
        "SR {} vs HM {} reserved cores",
        sr.reserved_cores,
        hm.reserved_cores
    );
}

#[test]
fn odm_releases_more_instances_immediately_than_hm() {
    // Paper: 43% of OdM's instances were released immediately vs 11% for
    // HM — the hybrid only sends tolerant jobs to shared instances.
    let kind = ScenarioKind::HighVariability;
    let odm = run(kind, StrategyId::ODM);
    let hm = run(kind, StrategyId::HM);
    let rate = |r: &RunResult| {
        r.counters.od_released_immediately as f64 / r.counters.od_acquired.max(1) as f64
    };
    assert!(
        rate(&odm) > rate(&hm),
        "OdM churn {:.2} should exceed HM churn {:.2}",
        rate(&odm),
        rate(&hm)
    );
}

#[test]
fn profiling_information_improves_every_reserved_strategy() {
    let kind = ScenarioKind::LowVariability;
    for strategy in [StrategyId::SR, StrategyId::HF, StrategyId::HM] {
        let s = scenario(kind);
        let factory = RngFactory::new(42);
        let with = run_scenario(&s, &RunConfig::new(strategy), &RunCtx::new(&factory))
            .expect("no auditor attached");
        let without = run_scenario(
            &s,
            &RunConfig::new(strategy).without_profiling(),
            &RunCtx::new(&factory),
        )
        .expect("no auditor attached");
        assert!(
            with.mean_normalized_perf() > without.mean_normalized_perf(),
            "{strategy}: with {:.3} vs without {:.3}",
            with.mean_normalized_perf(),
            without.mean_normalized_perf()
        );
    }
}
