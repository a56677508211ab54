//! Integration tests: extreme and degenerate configurations must degrade
//! gracefully, never panic, and never lose jobs.

use hcloud::{
    runner::{run_scenario, RunCtx},
    RunConfig, StrategyId, StrategyRegistry,
};
use hcloud_cloud::{ExternalLoadModel, SpinUpModel};
use hcloud_sim::rng::RngFactory;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};

fn scenario() -> Scenario {
    Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.08, 15),
        &RngFactory::new(5),
    )
}

fn assert_all_complete(config: &RunConfig, label: &str) {
    let s = scenario();
    let r =
        run_scenario(&s, config, &RunCtx::new(&RngFactory::new(5))).expect("no auditor attached");
    assert_eq!(r.outcomes.len(), s.jobs().len(), "{label}: jobs lost");
    for o in &r.outcomes {
        assert!(o.normalized_perf.is_finite(), "{label}: non-finite perf");
    }
}

#[test]
fn zero_retention_still_completes() {
    for strategy in StrategyRegistry::paper() {
        let mut c = RunConfig::new(strategy);
        c.retention_mult = 0.0;
        assert_all_complete(&c, "zero retention");
    }
}

#[test]
fn saturated_external_load_still_completes() {
    for strategy in [StrategyId::ODM, StrategyId::HM] {
        let mut c = RunConfig::new(strategy);
        c.cloud.external = ExternalLoadModel::with_mean(1.0);
        assert_all_complete(&c, "external load 100%");
    }
}

#[test]
fn free_spin_up_still_completes() {
    let mut c = RunConfig::new(StrategyId::ODF);
    c.cloud.spin_up = SpinUpModel::instant();
    assert_all_complete(&c, "instant spin-up");
}

#[test]
fn huge_spin_up_still_completes() {
    let mut c = RunConfig::new(StrategyId::ODM);
    c.cloud.spin_up = SpinUpModel::with_mean_secs(300.0);
    assert_all_complete(&c, "5-minute spin-up");
}

#[test]
fn starved_reserved_pool_still_completes() {
    // A single reserved server under a hybrid: everything overflows.
    let mut c = RunConfig::new(StrategyId::HM);
    c.reserved_cores_override = Some(16);
    assert_all_complete(&c, "16-core reserved pool");
}

#[test]
fn oversized_reserved_pool_still_completes() {
    let mut c = RunConfig::new(StrategyId::HF);
    c.reserved_cores_override = Some(4096);
    assert_all_complete(&c, "huge reserved pool");
}

#[test]
fn sr_with_tight_capacity_queues_but_finishes() {
    // SR provisioned *below* peak: jobs must queue and still drain.
    let s = scenario();
    let peak = s
        .required_cores_series()
        .max_over(hcloud_sim::SimTime::ZERO, s.ideal_completion());
    let mut c = RunConfig::new(StrategyId::SR);
    c.reserved_cores_override = Some((peak * 0.6) as u32);
    let r = run_scenario(&s, &c, &RunCtx::new(&RngFactory::new(5))).expect("no auditor attached");
    assert_eq!(r.outcomes.len(), s.jobs().len());
    assert!(
        r.counters.queued_jobs > 0,
        "expected queueing under tight capacity"
    );
}

#[test]
fn all_sensitive_workload_completes() {
    let mut config = ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.08, 15);
    config.sensitive_fraction = Some(1.0);
    let s = Scenario::generate(config, &RngFactory::new(5));
    for strategy in StrategyRegistry::paper() {
        let r = run_scenario(
            &s,
            &RunConfig::new(strategy),
            &RunCtx::new(&RngFactory::new(5)),
        )
        .expect("no auditor attached");
        assert_eq!(r.outcomes.len(), s.jobs().len(), "{strategy}");
    }
}

#[test]
fn empty_scenario_is_a_noop() {
    let config = ScenarioConfig::scaled(ScenarioKind::Static, 0.05, 10);
    let s = Scenario::from_jobs(config, vec![]);
    let r = run_scenario(
        &s,
        &RunConfig::new(StrategyId::HM),
        &RunCtx::new(&RngFactory::new(1)),
    )
    .expect("no auditor attached");
    assert!(r.outcomes.is_empty());
    assert_eq!(r.counters.od_acquired, 0);
}

#[test]
fn full_chaos_fault_plan_still_completes_every_strategy() {
    // The deterministic fault plans are stress, not sabotage: every
    // injected failure class has a recovery path, so no strategy may
    // lose a job under the kitchen-sink plan.
    use hcloud::config::SpotPolicy;
    use hcloud_faults::FaultPlanId;
    for strategy in StrategyRegistry::paper() {
        let c = RunConfig::new(strategy)
            .with_spot(SpotPolicy::default())
            .with_faults(FaultPlanId::FullChaos.plan());
        assert_all_complete(&c, "full chaos");
    }
}

#[test]
fn cranked_up_chaos_still_completes() {
    // Double-intensity chaos: more storms, more flaky spin-ups, more
    // stragglers. Completion must still hold.
    use hcloud::config::SpotPolicy;
    use hcloud_faults::FaultPlanId;
    let c = RunConfig::new(StrategyId::HM)
        .with_spot(SpotPolicy::default())
        .with_faults(FaultPlanId::FullChaos.plan().with_intensity(2.0));
    assert_all_complete(&c, "full chaos x2");
}

#[test]
fn preempted_jobs_are_requeued_never_dropped() {
    // Regression for the spot-termination path: a preempted job must
    // re-enter admission (carrying its remaining work) and eventually
    // finish — never silently vanish from the outcome set.
    use hcloud::config::SpotPolicy;
    use hcloud_faults::FaultPlanId;
    let s = scenario();
    let c = RunConfig::new(StrategyId::HM)
        .with_spot(SpotPolicy::default())
        .with_faults(FaultPlanId::PreemptionStorms.plan().with_intensity(3.0));
    let r = run_scenario(&s, &c, &RunCtx::new(&RngFactory::new(5))).expect("no auditor attached");
    assert_eq!(r.outcomes.len(), s.jobs().len(), "preemption dropped jobs");
    assert!(
        r.counters.spot_terminations > 0,
        "storm plan caused no preemptions — the regression test is vacuous"
    );
    assert!(
        r.outcomes.iter().any(|o| o.rescheduled),
        "preempted jobs should surface as rescheduled"
    );
    for o in &r.outcomes {
        assert!(
            o.finished >= o.started,
            "preempted job has a broken timeline"
        );
    }
}

#[test]
fn monitor_blackout_degrades_dynamic_policy_gracefully() {
    // During QoS-signal dropouts the P8 dynamic policy falls back to the
    // static soft-limit rule instead of acting on stale readings.
    use hcloud_faults::FaultPlanId;
    let s = scenario();
    // The stock plan's 30-minute dropout cadence can miss a short smoke
    // scenario entirely; crank intensity so windows land inside the run.
    let c = RunConfig::new(StrategyId::HM)
        .with_faults(FaultPlanId::MonitorBlackout.plan().with_intensity(8.0));
    let r = run_scenario(&s, &c, &RunCtx::new(&RngFactory::new(5))).expect("no auditor attached");
    assert_eq!(r.outcomes.len(), s.jobs().len(), "blackout dropped jobs");
    assert!(
        r.counters.monitor_dropout_ticks > 0,
        "blackout plan never dropped the monitor signal"
    );
    assert!(
        r.counters.policy_fallbacks > 0,
        "dynamic policy never fell back during a dropout"
    );
}

#[test]
fn profiling_off_with_extreme_load_never_panics() {
    let mut c = RunConfig::new(StrategyId::HM).without_profiling();
    c.cloud.external = ExternalLoadModel::with_mean(0.9);
    c.retention_mult = 500.0;
    assert_all_complete(&c, "unprofiled, 90% load, long retention");
}
