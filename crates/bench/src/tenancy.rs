//! The Zipf tenant population and the SLO measure that the tenancy
//! experiments (`ext_multi_tenant`, `ext_theory_strategies`),
//! `ext_fault_resilience` and `hcloud-cli tenants` share.

use hcloud::RunResult;
use hcloud_sim::rng::SimRng;
use hcloud_tenancy::TenancyPlan;
use hcloud_workloads::{JobKind, Scenario};

/// Jobs at or above this normalized performance kept their SLO (the
/// paper's "acceptable" band).
pub const SLO_THRESHOLD: f64 = 0.7;

/// Zipf skew for the tenant weight distribution (rank-1 tenants carry
/// most of the demand, the tail is long and thin).
pub const ZIPF_SKEW: f64 = 1.1;

/// Fraction of the pool handed out as hard guarantees; the rest is
/// elastic headroom tenants borrow against.
pub const GUARANTEE_FRAC: f64 = 0.5;

/// Fraction of `r`'s jobs that kept their SLO.
pub fn slo_attainment(r: &RunResult) -> f64 {
    let perfs = r.normalized_perf(None);
    let kept = perfs.iter().filter(|&&p| p >= SLO_THRESHOLD).count();
    kept as f64 / perfs.len().max(1) as f64
}

/// Sizes a shared pool to the scenario's mean concurrent core demand:
/// total demanded core-seconds over the arrival window. Tight enough
/// that tenants actually contend, wide enough that the largest job fits.
pub fn pool_cores(scenario: &Scenario) -> u32 {
    let total: f64 = scenario
        .jobs()
        .iter()
        .map(|j| match j.kind {
            JobKind::Batch { work_core_secs } => work_core_secs,
            JobKind::LatencyCritical { lifetime, .. } => j.cores as f64 * lifetime.as_secs_f64(),
        })
        .sum();
    let window = scenario.config().duration.as_secs_f64().max(1.0);
    let avg = (total / window).ceil() as u32;
    let widest = scenario.jobs().iter().map(|j| j.cores).max().unwrap_or(1);
    avg.max(widest).max(8)
}

/// `tenants` Zipf-weighted tenants over a [`pool_cores`] pool, with every
/// scenario job assigned to a tenant by weighted draw from `rng`.
pub fn zipf_plan(scenario: &Scenario, tenants: usize, rng: &mut SimRng) -> TenancyPlan {
    let mut plan = TenancyPlan::zipf(tenants, ZIPF_SKEW, pool_cores(scenario), GUARANTEE_FRAC);
    let ids: Vec<u64> = scenario.jobs().iter().map(|j| j.id.0).collect();
    plan.assign_jobs(&ids, rng);
    plan
}
