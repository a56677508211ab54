//! Integration tests for the mapping policies (Section 4.2) driving real
//! scenario runs.

use hcloud::{
    runner::{run_scenario, RunCtx},
    MappingPolicy, RunConfig, RunResult, StrategyId,
};
use hcloud_sim::rng::RngFactory;
use hcloud_sim::stats::mean;
use hcloud_workloads::{AppClass, Scenario, ScenarioConfig, ScenarioKind};

fn scenario() -> Scenario {
    Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.12, 25),
        &RngFactory::new(11),
    )
}

fn run_policy(policy: MappingPolicy) -> RunResult {
    run_scenario(
        &scenario(),
        &RunConfig::new(StrategyId::HM).with_policy(policy),
        &RunCtx::new(&RngFactory::new(11)),
    )
    .expect("no auditor attached")
}

#[test]
fn dynamic_policy_beats_random_mapping() {
    let dynamic = run_policy(MappingPolicy::Dynamic);
    let random = run_policy(MappingPolicy::Random);
    assert!(
        dynamic.mean_normalized_perf() > random.mean_normalized_perf(),
        "dynamic {:.3} vs random {:.3}",
        dynamic.mean_normalized_perf(),
        random.mean_normalized_perf()
    );
}

#[test]
fn strict_quality_thresholds_cause_reserved_queueing() {
    // P4 sends almost every job to reserved (Q > 0.2), swamping it.
    let p4 = run_policy(MappingPolicy::QualityThreshold(0.2));
    let p2 = run_policy(MappingPolicy::QualityThreshold(0.8));
    assert!(
        p4.counters.queued_jobs > p2.counters.queued_jobs,
        "P4 queued {} vs P2 queued {}",
        p4.counters.queued_jobs,
        p2.counters.queued_jobs
    );
}

#[test]
fn low_utilization_limits_waste_reserved_capacity() {
    let p5 = run_policy(MappingPolicy::UtilizationLimit(0.5));
    let p7 = run_policy(MappingPolicy::UtilizationLimit(0.9));
    let u5 = p5.mean_reserved_utilization().expect("reserved");
    let u7 = p7.mean_reserved_utilization().expect("reserved");
    assert!(u5 < u7, "util P5 {u5:.2} should be below P7 {u7:.2}");
}

#[test]
fn dynamic_policy_shields_memcached_from_small_instances() {
    // Under the dynamic policy, interference-sensitive memcached should
    // be placed on reserved resources much more often than tolerant
    // batch jobs.
    let r = run_policy(MappingPolicy::Dynamic);
    let frac_reserved = |class_filter: &dyn Fn(AppClass) -> bool| {
        let total = r.outcomes.iter().filter(|o| class_filter(o.class)).count();
        let reserved = r
            .outcomes
            .iter()
            .filter(|o| class_filter(o.class) && o.on_reserved)
            .count();
        reserved as f64 / total.max(1) as f64
    };
    let mc = frac_reserved(&|c| c == AppClass::Memcached);
    let batch = frac_reserved(&|c| c.is_batch() && !c.is_sensitive());
    assert!(
        mc > batch,
        "memcached reserved fraction {mc:.2} should exceed tolerant batch {batch:.2}"
    );
}

#[test]
fn dynamic_policy_keeps_both_sides_healthy() {
    let r = run_policy(MappingPolicy::Dynamic);
    let reserved = mean(&r.normalized_perf(Some(true))).expect("reserved jobs");
    let od = mean(&r.normalized_perf(Some(false))).expect("od jobs");
    assert!(reserved > 0.75, "reserved-side perf {reserved:.2}");
    assert!(od > 0.75, "on-demand-side perf {od:.2}");
}

#[test]
fn soft_limit_trace_is_bounded_and_nonempty() {
    let r = run_policy(MappingPolicy::Dynamic);
    assert!(!r.soft_limit_trace.is_empty());
    for &(_, v) in &r.soft_limit_trace {
        assert!(
            (0.2..=0.9).contains(&v),
            "soft limit {v} escaped its bounds"
        );
    }
}

#[test]
fn wait_estimates_are_conservative_overall() {
    // The estimator may over-estimate (it quotes a p99) but should not
    // systematically under-estimate.
    let r = run_policy(MappingPolicy::QualityThreshold(0.2)); // lots of queueing
    let pairs: Vec<(f64, f64)> = r
        .wait_samples
        .iter()
        .filter_map(|w| {
            w.estimated
                .map(|e| (e.as_secs_f64(), w.actual.as_secs_f64()))
        })
        .collect();
    if pairs.len() >= 20 {
        let underestimates = pairs.iter().filter(|(e, a)| a > &(e * 2.0 + 5.0)).count();
        let rate = underestimates as f64 / pairs.len() as f64;
        assert!(rate < 0.2, "gross under-estimation rate {rate:.2}");
    }
}

#[test]
fn decision_trail_is_recorded_on_request() {
    use hcloud::result::PlacementReason;
    use hcloud_telemetry::{TraceKind, Tracer};
    let s = scenario();
    let tracer = Tracer::enabled();
    let r = run_scenario(
        &s,
        &RunConfig::new(StrategyId::HM),
        &RunCtx::new(&RngFactory::new(11)).with_tracer(&tracer),
    )
    .expect("no auditor attached");
    // (reason, quality target, reserved utilization) of every decision.
    let decisions: Vec<(String, f64, f64)> = tracer
        .take()
        .into_iter()
        .filter_map(|ev| match ev.kind {
            TraceKind::Decision {
                reason,
                quality_target,
                utilization,
                ..
            } => Some((reason, quality_target, utilization)),
            _ => None,
        })
        .collect();
    assert_eq!(decisions.len(), s.jobs().len(), "one decision per job");
    // Reasons must be internally consistent with what the run did.
    let queued = decisions
        .iter()
        .filter(|d| d.0 == PlacementReason::QueuedAtHardLimit.to_string())
        .count();
    assert!(queued <= r.counters.queued_jobs, "{queued} vs counter");
    assert!(decisions
        .iter()
        .any(|d| d.0 == PlacementReason::BelowSoftLimit.to_string()));
    for (_, quality, utilization) in &decisions {
        assert!((0.0..=1.0).contains(quality));
        assert!(*utilization >= 0.0);
    }
}
