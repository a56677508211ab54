//! A shared cluster with three tenant classes over one provisioned pool:
//!
//! * **production** — high weight, the whole pool guaranteed;
//! * **batch** — medium weight, no guarantee, borrows elastic headroom;
//! * **scavenger** — weight 1, no guarantee, takes whatever is left.
//!
//! The opening move is deliberate abuse: a scavenger job squats the
//! entire pool before production's job arrives, so the guaranteed queue
//! starves. The starvation monitor must evict the borrower — the
//! preempted work re-enters the fault-requeue path with its executed
//! core-seconds carried over — and the fairness report at the end shows
//! the reclaim alongside each class's admissions, deferrals and waits.
//!
//! ```text
//! cargo run --release --example multi_tenant_cluster
//! ```

use hcloud::{
    runner::{run_scenario, AuditViolation, RunCtx},
    RunConfig, StrategyId,
};
use hcloud_sim::rng::{RngFactory, SimRng};
use hcloud_sim::SimTime;
use hcloud_tenancy::{TenancyPlan, TenantSpec};
use hcloud_workloads::{AppClass, JobId, JobKind, JobSpec, Scenario, ScenarioConfig, ScenarioKind};

/// Jobs at or above this normalized performance kept their SLO.
const SLO_THRESHOLD: f64 = 0.7;

/// Display names for the three tenant classes, indexed by tenant id.
const CLASSES: [&str; 3] = ["production", "batch", "scavenger"];

/// A deterministic batch job (sensitivity seeded by job id, so the run
/// is reproducible without a scenario generator).
fn batch_job(id: u64, arrival_secs: u64, cores: u32, secs: f64) -> JobSpec {
    let mut rng = SimRng::from_seed_u64(id);
    JobSpec {
        id: JobId(id),
        class: AppClass::SparkBatch,
        arrival: SimTime::from_secs(arrival_secs),
        kind: JobKind::Batch {
            work_core_secs: cores as f64 * secs,
        },
        cores,
        sensitivity: AppClass::SparkBatch.sample_sensitivity(&mut rng),
    }
}

fn main() -> Result<(), AuditViolation> {
    // The contended pair arrives at t=0: job 0 (scavenger) squats the
    // pool, job 1 (production) is guaranteed the whole pool and starves
    // behind it. Later traffic exercises the weighted round-robin.
    let mut jobs = vec![batch_job(0, 0, 4, 2_000.0), batch_job(1, 0, 4, 2_000.0)];
    for i in 0..6u64 {
        jobs.push(batch_job(2 + i, 600 + 40 * i, 4, 240.0)); // batch class
        jobs.push(batch_job(8 + i, 620 + 40 * i, 4, 120.0)); // scavenger class
    }

    // Without profiling the scheduler sizes jobs by user reservation;
    // size the pool so one contended job fits alone but never both.
    let pool = jobs[..2]
        .iter()
        .map(|j| j.user_sized_cores().clamp(1, 16))
        .max()
        .expect("contended pair present");
    let mut plan = TenancyPlan::new(pool)
        .with_quantum(16.0)
        .with_starvation_secs(30.0)
        .tenant(TenantSpec::new(0, 8.0, pool, pool))
        .tenant(TenantSpec::new(1, 2.0, 0, pool))
        .tenant(TenantSpec::new(2, 1.0, 0, pool));
    plan.assign(0, 2); // the squatter
    plan.assign(1, 0); // the starved guaranteed job
    for i in 0..6u64 {
        plan.assign(2 + i, 1);
        plan.assign(8 + i, 2);
    }
    plan.validate().expect("well-formed plan");

    let scenario =
        Scenario::from_jobs(ScenarioConfig::scaled(ScenarioKind::Static, 0.05, 30), jobs)
            .with_tenancy(plan.clone());
    println!(
        "shared cluster: {} jobs, 3 tenant classes, {pool}-core pool\n",
        scenario.jobs().len()
    );

    // Plenty of physical cores: the tenancy gate, not the fleet, is the
    // contended resource here.
    let mut config = RunConfig::new(StrategyId::SR).without_profiling();
    config.reserved_cores_override = Some(32);
    let factory = RngFactory::new(7);
    let result = run_scenario(&scenario, &config, &RunCtx::new(&factory))?;

    // Per-tenant SLO attainment, keyed by the plan's job assignments.
    let mut slo: [(usize, usize); 3] = [(0, 0); 3];
    for o in &result.outcomes {
        if let Some(tid) = plan.tenant_of(o.id.0) {
            let e = &mut slo[tid.0 as usize];
            e.1 += 1;
            if o.normalized_perf >= SLO_THRESHOLD {
                e.0 += 1;
            }
        }
    }

    println!(
        "Fairness report ({} jobs finished):\n",
        result.outcomes.len()
    );
    println!(
        "{:<12} {:>6} {:>5} {:>4} {:>9} {:>9} {:>9} {:>7} {:>9} {:>8} {:>9}",
        "class",
        "weight",
        "guar",
        "cap",
        "admitted",
        "deferred",
        "borrowed",
        "SLO",
        "wait (s)",
        "victims",
        "reclaims"
    );
    for s in &result.tenant_stats {
        let (kept, ran) = slo[s.id as usize];
        let mean_wait = s.total_queue_wait_secs / (s.drained.max(1) as f64);
        println!(
            "{:<12} {:>6.1} {:>5} {:>4} {:>9} {:>9} {:>9} {:>6.0}% {:>9.0} {:>8} {:>9}",
            CLASSES[s.id as usize],
            s.weight,
            s.guaranteed_cores,
            s.cap_cores,
            s.admitted,
            s.deferred,
            s.borrowed_admissions,
            kept as f64 / ran.max(1) as f64 * 100.0,
            mean_wait,
            s.victims,
            s.reclaims,
        );
    }
    let c = &result.counters;
    println!(
        "\nJain fairness over admissions: {:.3} (weighted shares, not head-count)",
        result.tenant_admission_fairness()
    );
    println!(
        "gate activity: {} deferrals, {} drains, {} elastic borrows, {} preemptions",
        c.tenant_deferred_jobs,
        c.tenant_drained_jobs,
        c.tenant_borrowed_admissions,
        c.tenant_preemptions,
    );
    println!("\nThe scavenger squatter was evicted after production starved for 30s;");
    println!("its executed core-seconds carried over when it re-queued, so nothing");
    println!(
        "was double-billed ({:.0} core-s re-run, makespan {:.1} min).",
        c.work_lost_core_secs,
        result.makespan.as_mins_f64()
    );
    Ok(())
}
