//! Integration tests: determinism and workload/strategy independence.

use hcloud::{
    runner::{run_scenario, RunCtx},
    RunConfig, StrategyId, StrategyRegistry,
};
use hcloud_sim::rng::RngFactory;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};

fn scenario(seed: u64) -> Scenario {
    Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.1, 20),
        &RngFactory::new(seed),
    )
}

#[test]
fn identical_seeds_reproduce_runs_bit_for_bit() {
    let run = || {
        let s = scenario(1);
        run_scenario(
            &s,
            &RunConfig::new(StrategyId::HM),
            &RunCtx::new(&RngFactory::new(1)),
        )
        .expect("no auditor attached")
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.counters.od_acquired, b.counters.od_acquired);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.usage_records.len(), b.usage_records.len());
}

#[test]
fn different_seeds_differ() {
    let a = scenario(1);
    let b = scenario(2);
    assert_ne!(
        a.jobs().iter().map(|j| j.arrival).collect::<Vec<_>>(),
        b.jobs().iter().map(|j| j.arrival).collect::<Vec<_>>()
    );
}

#[test]
fn workload_is_identical_across_strategies() {
    // The scenario is generated before any strategy sees it — every
    // strategy must face the same jobs (the paper's repeatable
    // methodology).
    let s = scenario(7);
    let ids: Vec<_> = s.jobs().iter().map(|j| j.id).collect();
    for strategy in StrategyRegistry::paper() {
        let r = run_scenario(
            &s,
            &RunConfig::new(strategy),
            &RunCtx::new(&RngFactory::new(7)),
        )
        .expect("no auditor attached");
        let mut done: Vec<_> = r.outcomes.iter().map(|o| o.id).collect();
        done.sort();
        let mut expect = ids.clone();
        expect.sort();
        assert_eq!(done, expect, "{strategy} lost or invented jobs");
    }
}

#[test]
fn interference_is_repeatable_across_strategies() {
    // Two strategies observing the same instance id at the same time see
    // the same external pressure (the container methodology of §2.2).
    use hcloud_cloud::{Cloud, CloudConfig, InstanceType};
    use hcloud_sim::SimTime;
    let mk = || Cloud::new(CloudConfig::default(), RngFactory::new(99).child("cloud"));
    let mut c1 = mk();
    let mut c2 = mk();
    let a = c1.acquire(InstanceType::standard(2), SimTime::ZERO);
    let b = c2.acquire(InstanceType::standard(2), SimTime::ZERO);
    for k in 1..50 {
        let t = SimTime::from_secs(k * 13);
        assert_eq!(c1.external_pressure(a, t), c2.external_pressure(b, t));
    }
}

#[test]
fn outcomes_are_internally_consistent() {
    let s = scenario(3);
    for strategy in StrategyRegistry::paper() {
        let r = run_scenario(
            &s,
            &RunConfig::new(strategy),
            &RunCtx::new(&RngFactory::new(3)),
        )
        .expect("no auditor attached");
        for o in &r.outcomes {
            assert!(o.started >= o.arrival, "{strategy}: started before arrival");
            assert!(o.finished >= o.started, "{strategy}: finished before start");
            assert!(
                (0.0..=1.0).contains(&o.normalized_perf),
                "{strategy}: perf bounds"
            );
            assert_eq!(
                o.completion.is_some(),
                !o.is_latency_critical(),
                "{strategy}: metric/kind mismatch"
            );
            assert!(
                o.cores >= 1 && o.cores <= 16,
                "{strategy}: cores {}",
                o.cores
            );
        }
        for u in &r.usage_records {
            assert!(u.to >= u.from, "{strategy}: negative usage interval");
        }
    }
}

#[test]
fn identical_fault_plans_reproduce_runs_bit_for_bit() {
    // Fault schedules derive from their own RNG streams of the master
    // seed: the same plan + seed must inject the same faults.
    use hcloud_faults::FaultPlanId;
    let run = || {
        let s = scenario(1);
        let config = RunConfig::new(StrategyId::HM)
            .with_spot(hcloud::config::SpotPolicy::default())
            .with_faults(FaultPlanId::FullChaos.plan());
        run_scenario(&s, &config, &RunCtx::new(&RngFactory::new(1))).expect("no auditor attached")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn off_fault_plan_matches_no_fault_plan() {
    // `HCLOUD_FAULTS=off` must be byte-identical to a build that never
    // heard of fault injection: the off plan consumes no randomness.
    let s = scenario(1);
    let plain = run_scenario(
        &s,
        &RunConfig::new(StrategyId::HM),
        &RunCtx::new(&RngFactory::new(1)),
    )
    .expect("no auditor attached");
    let explicit_off = run_scenario(
        &s,
        &RunConfig::new(StrategyId::HM).with_faults(hcloud_faults::FaultPlan::off()),
        &RunCtx::new(&RngFactory::new(1)),
    )
    .expect("no auditor attached");
    assert_eq!(plain, explicit_off);
}

#[test]
fn faulted_engine_results_are_identical_for_any_worker_count() {
    // The full-chaos plan under 1 and 4 workers: injected faults are
    // drawn per-run from the run's own seed, so fan-out cannot reorder
    // them.
    use hcloud_bench::{Engine, ExperimentCtx, ExperimentPlan, RunSpec};
    use hcloud_faults::FaultPlanId;

    let plan = || -> ExperimentPlan {
        StrategyRegistry::paper()
            .iter()
            .map(|s| {
                RunSpec::of(ScenarioKind::HighVariability, s)
                    .map_config(|c| c.with_spot(hcloud::config::SpotPolicy::default()))
            })
            .collect()
    };
    let run_with = |jobs: usize| {
        let ctx = ExperimentCtx::new(11)
            .with_fast(true)
            .with_jobs(jobs)
            .with_faults(FaultPlanId::FullChaos);
        Engine::new(ctx).run_plan(&plan()).results
    };

    let sequential = run_with(1);
    let parallel = run_with(4);
    assert_eq!(sequential, parallel, "faulted runs differ across workers");
    // Chaos actually happened somewhere in the plan.
    assert!(
        sequential
            .iter()
            .any(|r| r.counters.acquire_retries > 0 || r.counters.storm_preemptions > 0),
        "full-chaos plan injected nothing"
    );
}

#[test]
fn engine_results_are_identical_for_any_worker_count() {
    // The acceptance bar for the parallel experiment engine: the same
    // plan, run with 1 worker and with 4, produces bit-identical results
    // for every strategy (HCLOUD_JOBS must never change the science).
    use hcloud_bench::{Engine, ExperimentCtx, ExperimentPlan, RunSpec};

    let plan = || -> ExperimentPlan {
        StrategyRegistry::paper()
            .iter()
            .map(|s| RunSpec::of(ScenarioKind::HighVariability, s))
            .collect()
    };
    let run_with = |jobs: usize| {
        let ctx = ExperimentCtx::new(11).with_fast(true).with_jobs(jobs);
        Engine::new(ctx).run_plan(&plan()).results
    };

    let sequential = run_with(1);
    let parallel = run_with(4);
    assert_eq!(sequential.len(), StrategyRegistry::paper().len());
    for ((strategy, a), b) in StrategyRegistry::paper()
        .iter()
        .zip(&sequential)
        .zip(&parallel)
    {
        assert_eq!(&a.strategy, strategy, "plan order broken for {strategy}");
        assert_eq!(a, b, "{strategy} differs between 1 and 4 workers");
        assert!(
            a.counters.events_processed > 0,
            "{strategy} telemetry missing"
        );
    }
}
