//! Property tests for the tenancy layer's conservation story.
//!
//! Whatever the strategy, fault plan, tenant count, or seed, a tenanted
//! run must (a) complete every job, (b) pass the strict conservation
//! auditor — whose finalize pass reconciles each per-tenant ledger
//! against the global admission/completion/work totals — (c) keep the
//! global tenancy counters exactly equal to the sum of the per-tenant
//! stats they aggregate, and (d) trace each queue exit with the wait the
//! run credits, gate time included. Preempted work re-entering the
//! fault-requeue path with carryover is the easiest place to double- or
//! drop-count, so the fault plans are part of the search space.

use hcloud::runner::{run_scenario, RunCtx};
use hcloud::{RunConfig, StrategyRegistry};
use hcloud_audit::{AuditMode, Auditor};
use hcloud_faults::FaultPlanId;
use hcloud_sim::rng::RngFactory;
use hcloud_telemetry::{TraceEvent, TraceKind, Tracer};
use hcloud_tenancy::TenancyPlan;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};
use proptest::prelude::{prop_assert, prop_assert_eq};
use proptest::test_runner::TestCaseError;

/// A small tenanted scenario: Zipf-weighted tenants over a pool tight
/// enough that the gate actually defers and borrows.
fn tenanted_scenario(seed: u64, tenants: usize) -> Scenario {
    let scenario = Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.04, 10),
        &RngFactory::new(seed),
    );
    let mut plan = TenancyPlan::zipf(tenants, 1.1, 48, 0.5);
    let ids: Vec<u64> = scenario.jobs().iter().map(|j| j.id.0).collect();
    plan.assign_jobs(&ids, &mut RngFactory::new(seed).stream("tenant-assign"));
    scenario.with_tenancy(plan)
}

/// Runs one tenanted cell under the strict auditor with a tracer
/// attached and checks (a)–(d); returns the run's trace.
fn check_tenanted_run(
    seed: u64,
    strategy_idx: usize,
    fault_idx: usize,
    tenants: usize,
) -> Result<Vec<TraceEvent>, TestCaseError> {
    let strategy = &StrategyRegistry::paper()[strategy_idx];
    let fault_plan = FaultPlanId::ALL[fault_idx];
    let scenario = tenanted_scenario(seed, tenants);
    let config = RunConfig::new(strategy).with_faults(fault_plan.plan());
    let factory = RngFactory::new(seed);
    let auditor = Auditor::new(AuditMode::Strict);
    let tracer = Tracer::enabled();
    let r = run_scenario(
        &scenario,
        &config,
        &RunCtx::new(&factory)
            .with_auditor(&auditor)
            .with_tracer(&tracer),
    )
    .map_err(|v| {
        TestCaseError::fail(format!(
            "{strategy}/{}: audit violation: {v}",
            fault_plan.name()
        ))
    })?;

    // (a) No job stranded behind the gate, whatever the chaos.
    prop_assert_eq!(
        r.outcomes.len(),
        scenario.jobs().len(),
        "{}/{}: some jobs never finished",
        strategy,
        fault_plan.name()
    );

    // (b) The strict auditor's per-tenant ledgers reconciled.
    let summary = auditor.summary();
    prop_assert_eq!(
        summary.violations,
        0,
        "{}/{}: auditor flagged violations",
        strategy,
        fault_plan.name()
    );

    // (c) Global tenancy counters are exactly the per-tenant sums.
    let stats = &r.tenant_stats;
    prop_assert!(!stats.is_empty(), "tenanted run must report tenant stats");
    let deferred: u64 = stats.iter().map(|t| t.deferred).sum();
    let drained: u64 = stats.iter().map(|t| t.drained).sum();
    let borrowed: u64 = stats.iter().map(|t| t.borrowed_admissions).sum();
    let victims: u64 = stats.iter().map(|t| t.victims).sum();
    let reclaims: u64 = stats.iter().map(|t| t.reclaims).sum();
    prop_assert_eq!(r.counters.tenant_deferred_jobs as u64, deferred);
    prop_assert_eq!(r.counters.tenant_drained_jobs as u64, drained);
    prop_assert_eq!(r.counters.tenant_borrowed_admissions as u64, borrowed);
    prop_assert_eq!(r.counters.tenant_preemptions as u64, victims);
    // One scan books one reclaim per starved tenant and one victim
    // per preempted job, so the counts need not match — but neither
    // can be nonzero without the other.
    prop_assert_eq!(
        victims > 0,
        reclaims > 0,
        "preemptions and reclaims appear together or not at all"
    );

    // (d) Each queue exit traces the wait the run credits, gate time
    // included: both exit sites record one `WaitSample` and one
    // `QueueExit` per job, in the same order.
    let events = tracer.take();
    let traced: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::QueueExit { actual_wait_us, .. } => Some(actual_wait_us),
            _ => None,
        })
        .collect();
    let credited: Vec<u64> = r
        .wait_samples
        .iter()
        .map(|w| w.actual.as_micros())
        .collect();
    prop_assert_eq!(
        traced,
        credited,
        "{}/{}: traced queue waits differ from the credited ones",
        strategy,
        fault_plan.name()
    );
    Ok(events)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
    #[test]
    fn tenant_ledgers_reconcile_with_globals(
        seed in 0u64..1024,
        strategy_idx in 0usize..StrategyRegistry::paper().len(),
        fault_idx in 0usize..FaultPlanId::ALL.len(),
        tenants in 1usize..10,
    ) {
        check_tenanted_run(seed, strategy_idx, fault_idx, tenants)?;
    }
}

/// A fixed HM cell whose starvation relief reroutes jobs that first
/// waited at the tenancy gate: each such exit must trace the gate wait
/// too, not only the time since it entered the reserved queue.
#[test]
fn relieved_exits_trace_gate_wait() {
    let hm = StrategyRegistry::paper()
        .iter()
        .position(|s| s.short_name() == "HM")
        .expect("HM is a paper strategy");
    let off = FaultPlanId::ALL
        .iter()
        .position(|&p| p == FaultPlanId::Off)
        .expect("off is a fault plan");
    let events = check_tenanted_run(30, hm, off, 9).unwrap_or_else(|e| panic!("{e}"));
    let mut entered = std::collections::HashMap::new();
    let mut gate_waited = 0;
    for e in &events {
        match e.kind {
            TraceKind::QueueEnter { job, .. } => {
                entered.insert(job, e.at);
            }
            TraceKind::QueueExit {
                job,
                actual_wait_us,
                relieved: true,
                ..
            } => {
                let queued = e.at.saturating_since(entered[&job]).as_micros();
                if actual_wait_us > queued {
                    gate_waited += 1;
                }
            }
            _ => {}
        }
    }
    assert!(
        gate_waited > 0,
        "the cell relieves no job that waited at the gate"
    );
}
