//! Worker-count digest identity for the `perf_fleet` scenario.
//!
//! The engine promises results are bit-identical regardless of
//! `HCLOUD_JOBS`; this pins that promise on the fleet bench's fast-mode
//! scenario (the same one CI smokes), and pins the digest itself to the
//! committed `crates/bench/goldens/BENCH_fleet_fast.json` golden so a
//! simulation-byte drift fails here before it fails in CI.

use std::sync::Arc;

use hcloud::{RunConfig, StrategyId};
use hcloud_bench::fleet::{fleet_config, run_digest};
use hcloud_bench::{Engine, ExperimentCtx, ExperimentPlan, RunSpec};
use hcloud_sim::rng::RngFactory;
use hcloud_workloads::Scenario;

#[test]
fn fleet_fast_digests_are_identical_across_worker_counts() {
    let scenario = Arc::new(Scenario::generate(fleet_config(true), &RngFactory::new(42)));
    let config = RunConfig::new(StrategyId::ODM).with_retention_mult(0.05);
    let digests: Vec<Vec<String>> = [1usize, 4]
        .iter()
        .map(|&jobs| {
            let engine = Engine::new(ExperimentCtx::new(42).with_jobs(jobs));
            let mut plan = ExperimentPlan::new();
            plan.push(RunSpec::on(scenario.clone(), StrategyId::ODM).config(config.clone()));
            plan.push(
                RunSpec::on(scenario.clone(), StrategyId::ODM)
                    .config(config.clone())
                    .seed(43),
            );
            engine
                .run_plan(&plan)
                .results
                .iter()
                .map(run_digest)
                .collect()
        })
        .collect();
    assert_eq!(
        digests[0], digests[1],
        "HCLOUD_JOBS=1 and 4 must be byte-identical"
    );
    assert_eq!(
        digests[0][0], "1bc1579abdfea0db",
        "seed-42 digest is pinned to the committed BENCH_fleet_fast.json golden"
    );
}

/// Worker-count identity for the two theory-grounded registry
/// strategies: RA's blocking-threshold soft-limit walk and QC's EWMA
/// utilization ceiling both live entirely in simulation time, so
/// `HCLOUD_JOBS` must not perturb them either.
#[test]
fn new_strategy_digests_are_identical_across_worker_counts() {
    use hcloud::StrategyRegistry;

    let scenario = Arc::new(Scenario::generate(fleet_config(true), &RngFactory::new(42)));
    for short in ["RA", "QC"] {
        let strategy = StrategyRegistry::builtin()
            .get(short)
            .expect("registered strategy");
        let digests: Vec<Vec<String>> = [1usize, 4]
            .iter()
            .map(|&jobs| {
                let engine = Engine::new(ExperimentCtx::new(42).with_jobs(jobs));
                let mut plan = ExperimentPlan::new();
                plan.push(RunSpec::on(scenario.clone(), &strategy));
                plan.push(RunSpec::on(scenario.clone(), &strategy).seed(43));
                engine
                    .run_plan(&plan)
                    .results
                    .iter()
                    .map(run_digest)
                    .collect()
            })
            .collect();
        assert_eq!(
            digests[0], digests[1],
            "{short}: HCLOUD_JOBS=1 and 4 must be byte-identical"
        );
    }
}

/// Worker-count identity for a tenanted scenario: the tenancy gate's
/// defer/drain/preempt machinery runs entirely in simulation time, so
/// `HCLOUD_JOBS` must not perturb a multi-tenant run either.
#[test]
fn tenanted_digests_are_identical_across_worker_counts() {
    use hcloud_tenancy::TenancyPlan;
    use hcloud_workloads::{ScenarioConfig, ScenarioKind};

    let base = Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.05, 10),
        &RngFactory::new(42),
    );
    let mut plan = TenancyPlan::zipf(24, 1.1, 48, 0.5);
    let ids: Vec<u64> = base.jobs().iter().map(|j| j.id.0).collect();
    plan.assign_jobs(&ids, &mut RngFactory::new(42).stream("tenant-assign"));
    let scenario = Arc::new(base.with_tenancy(plan));

    let digests: Vec<Vec<String>> = [1usize, 4]
        .iter()
        .map(|&jobs| {
            let engine = Engine::new(ExperimentCtx::new(42).with_jobs(jobs));
            let plan: ExperimentPlan = [StrategyId::SR, StrategyId::HM]
                .iter()
                .map(|&s| RunSpec::on(scenario.clone(), s))
                .collect();
            engine
                .run_plan(&plan)
                .results
                .iter()
                .map(run_digest)
                .collect()
        })
        .collect();
    assert_eq!(
        digests[0], digests[1],
        "HCLOUD_JOBS=1 and 4 must be byte-identical for tenanted runs"
    );
}
