//! Property tests for the tenancy layer's conservation story.
//!
//! Whatever the strategy, fault plan, tenant count, or seed, a tenanted
//! run must (a) complete every job, (b) pass the strict conservation
//! auditor — whose finalize pass reconciles each per-tenant ledger
//! against the global admission/completion/work totals — and (c) keep
//! the global tenancy counters exactly equal to the sum of the
//! per-tenant stats they aggregate. Preempted work re-entering the
//! fault-requeue path with carryover is the easiest place to double- or
//! drop-count, so the fault plans are part of the search space.

use hcloud::runner::{run_scenario, RunCtx};
use hcloud::{RunConfig, StrategyRegistry};
use hcloud_audit::{AuditMode, Auditor};
use hcloud_faults::FaultPlanId;
use hcloud_sim::rng::RngFactory;
use hcloud_tenancy::TenancyPlan;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};

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

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
    #[test]
    fn tenant_ledgers_reconcile_with_globals(
        seed in 0u64..1024,
        strategy_idx in 0usize..StrategyRegistry::paper().len(),
        fault_idx in 0usize..FaultPlanId::ALL.len(),
        tenants in 1usize..10,
    ) {
        use proptest::prelude::{prop_assert, prop_assert_eq};

        let strategy = &StrategyRegistry::paper()[strategy_idx];
        let fault_plan = FaultPlanId::ALL[fault_idx];
        let scenario = tenanted_scenario(seed, tenants);
        let config = RunConfig::new(strategy).with_faults(fault_plan.plan());
        let factory = RngFactory::new(seed);
        let auditor = Auditor::new(AuditMode::Strict);
        let r = run_scenario(
            &scenario,
            &config,
            &RunCtx::new(&factory).with_auditor(&auditor),
        );
        let r = match r {
            Ok(r) => r,
            Err(v) => return Err(proptest::test_runner::TestCaseError::fail(format!(
                "{strategy}/{}: audit violation: {v}", fault_plan.name()
            ))),
        };

        // (a) No job stranded behind the gate, whatever the chaos.
        prop_assert_eq!(r.outcomes.len(), scenario.jobs().len(),
            "{}/{}: some jobs never finished", strategy, fault_plan.name());

        // (b) The strict auditor's per-tenant ledgers reconciled.
        let summary = auditor.summary();
        prop_assert_eq!(summary.violations, 0,
            "{}/{}: auditor flagged violations", strategy, fault_plan.name());

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
        prop_assert_eq!(victims > 0, reclaims > 0,
            "preemptions and reclaims appear together or not at all");
    }
}
