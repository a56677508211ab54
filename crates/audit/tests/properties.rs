//! Property tests for the conservation-audit oracle.
//!
//! Two layers:
//!
//! * **Whole-system**: randomized `(fault plan, strategy, policy, seed)`
//!   points run real simulations under a strict auditor. Every
//!   conservation identity (work, billing, queue, jobs, per-instance
//!   cores) must hold on every clean run, faulted or not.
//! * **Ledger-level**: the instance-lifecycle ledger stays clean across
//!   a thousand random retention/reuse interleavings that follow the
//!   scheduler's retention-token rule — and flags the stale-timer
//!   release the rule exists to prevent.

use hcloud::runner::{run_scenario, RunCtx};
use hcloud::{MappingPolicy, RunConfig, StrategyId, StrategyRegistry};
use hcloud_audit::{AuditMode, AuditViolationKind, Auditor};
use hcloud_faults::FaultPlanId;
use hcloud_sim::rng::{RngFactory, SimRng};
use hcloud_sim::SimTime;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};
use proptest::prelude::*;
use rand::Rng;

/// A scenario small enough that a proptest case stays fast.
fn tiny_scenario(kind: ScenarioKind, seed: u64) -> Scenario {
    Scenario::generate(
        ScenarioConfig::scaled(kind, 0.05, 10),
        &RngFactory::new(seed),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any fault plan x strategy x mapping policy x seed: the run
    /// completes and every conservation identity holds under a strict
    /// audit.
    #[test]
    fn randomized_runs_satisfy_every_conservation_identity(
        fault_idx in 0..FaultPlanId::ALL.len(),
        strategy_idx in 0..StrategyRegistry::paper().len(),
        policy_idx in 0..MappingPolicy::paper_set().len(),
        kind_idx in 0..3usize,
        seed in 0u64..1000,
    ) {
        let faults = FaultPlanId::ALL[fault_idx];
        let strategy = &StrategyRegistry::paper()[strategy_idx];
        let (_, policy) = MappingPolicy::paper_set()[policy_idx];
        let kind = [
            ScenarioKind::Static,
            ScenarioKind::LowVariability,
            ScenarioKind::HighVariability,
        ][kind_idx];
        let scenario = tiny_scenario(kind, seed);
        let config = RunConfig::new(strategy)
            .with_policy(policy)
            .with_faults(faults.plan());
        let auditor = Auditor::new(AuditMode::Strict);
        let factory = RngFactory::new(seed);
        let result = run_scenario(&scenario, &config, &RunCtx::new(&factory).with_auditor(&auditor));
        prop_assert!(
            result.is_ok(),
            "{faults:?}/{strategy}/{policy:?}/seed{seed}: {}",
            result.unwrap_err()
        );
        let summary = auditor.summary();
        prop_assert_eq!(summary.violations, 0);
        prop_assert_eq!(summary.jobs_admitted, scenario.jobs().len() as u64);
        prop_assert_eq!(summary.jobs_completed, summary.jobs_admitted);
        prop_assert_eq!(summary.queue_entered, summary.queue_left);
    }
}

/// Aggressive idle-retention churn (short and long retention windows,
/// many seeds) reuses pool slots constantly; the lifecycle ledger proves
/// no stale retention timer ever releases a reused instance.
#[test]
fn retention_churn_never_releases_a_reused_instance() {
    for &retention_mult in &[0.0, 0.5, 1.0, 4.0] {
        for seed in 0..4u64 {
            let scenario = tiny_scenario(ScenarioKind::HighVariability, seed);
            let config = RunConfig::new(StrategyId::HM).with_retention_mult(retention_mult);
            let auditor = Auditor::new(AuditMode::Strict);
            let factory = RngFactory::new(seed);
            run_scenario(
                &scenario,
                &config,
                &RunCtx::new(&factory).with_auditor(&auditor),
            )
            .unwrap_or_else(|v| panic!("retention x{retention_mult} seed {seed}: {v}"));
            let summary = auditor.summary();
            assert_eq!(summary.violations, 0);
            assert!(
                summary.instances_released <= summary.instances_acquired,
                "retention x{retention_mult} seed {seed}"
            );
        }
    }
}

/// A thousand random interleavings of acquire / idle-park / timer-fire
/// over a small slot pool, following the retention-token rule (a timer
/// only releases the instance it was armed for, and only while that
/// instance still occupies the slot). The lifecycle ledger must stay
/// clean throughout.
#[test]
fn lifecycle_ledger_clean_across_random_retention_interleavings() {
    let mut rng = SimRng::from_seed_u64(0xA0D17);
    let auditor = Auditor::new(AuditMode::Strict);
    const SLOTS: usize = 8;
    let mut slots: Vec<Option<u64>> = vec![None; SLOTS];
    // Timers armed as (slot, cloud id at arming time). A fired timer is
    // stale when the slot has since been released and re-acquired.
    let mut timers: Vec<(usize, u64)> = Vec::new();
    let mut next_id = 0u64;
    for step in 0..1000u64 {
        let at = SimTime::from_secs(step + 1);
        match rng.gen_range(0..3) {
            0 => {
                if let Some(slot) = slots.iter().position(Option::is_none) {
                    let id = next_id;
                    next_id += 1;
                    auditor.instance_acquired(at, id, 4);
                    slots[slot] = Some(id);
                }
            }
            1 => {
                let occupied: Vec<usize> = (0..SLOTS).filter(|&s| slots[s].is_some()).collect();
                if !occupied.is_empty() {
                    let slot = occupied[rng.gen_range(0..occupied.len())];
                    let id = slots[slot].expect("occupied");
                    auditor.instance_idle(at, id);
                    timers.push((slot, id));
                }
            }
            _ => {
                if !timers.is_empty() {
                    let (slot, id) = timers.swap_remove(rng.gen_range(0..timers.len()));
                    // The token rule: release only if this exact instance
                    // still holds the slot; stale timers are ignored.
                    if slots[slot] == Some(id) {
                        auditor.instance_released(at, id);
                        slots[slot] = None;
                    }
                }
            }
        }
        auditor
            .step_check()
            .unwrap_or_else(|v| panic!("step {step}: {v}"));
    }
    assert!(auditor.violations().is_empty());
    let summary = auditor.summary();
    assert!(summary.instances_acquired > 100, "churn actually happened");
    assert!(summary.instances_released <= summary.instances_acquired);
}

/// The failure mode the token rule prevents, shown to be caught: honoring
/// a stale timer after a slot was reused releases the old instance a
/// second time, and the ledger flags it immediately.
#[test]
fn stale_timer_release_is_flagged_as_double_release() {
    let auditor = Auditor::new(AuditMode::Final);
    auditor.instance_acquired(SimTime::from_secs(0), 0, 4);
    auditor.instance_idle(SimTime::from_secs(10), 0);
    // The armed timer fires: instance 0 released, slot freed.
    auditor.instance_released(SimTime::from_secs(20), 0);
    // The slot is reused by a fresh acquisition.
    auditor.instance_acquired(SimTime::from_secs(30), 1, 4);
    // A buggy scheduler honors the stale timer anyway.
    auditor.instance_released(SimTime::from_secs(40), 0);
    let violations = auditor.violations();
    assert_eq!(violations.len(), 1);
    assert!(
        matches!(
            violations[0].kind,
            AuditViolationKind::DoubleRelease { instance: 0 }
        ),
        "{}",
        violations[0]
    );
}
