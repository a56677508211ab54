//! Section 5.2: provisioning overheads.
//!
//! Reports the simulated accounting (profiling runs, classifications,
//! reschedule rates, queued jobs) per strategy, plus wall-clock
//! measurements of the decision-path code: classification, Q encoding,
//! slowdown evaluation, the dynamic mapping decision, and the
//! fair-share drain as the tenant count grows.

use std::collections::VecDeque;
use std::time::Instant;

use hcloud::dynamic::DynamicLimits;
use hcloud::mapping::{MappingContext, MappingPolicy};
use hcloud::monitor::QualityMonitor;
use hcloud::queue_estimator::QueueEstimator;
use hcloud::StrategyRegistry;
use hcloud_cloud::InstanceType;
use hcloud_interference::{resource_quality, ResourceVector};
use hcloud_quasar::{ProfilingEnvironment, QuasarConfig, QuasarEngine};
use hcloud_sim::rng::{RngFactory, SimRng};
use hcloud_sim::{SimDuration, SimTime};
use hcloud_tenancy::{FairShare, Gate, TenancyPlan, TenantSpec};
use hcloud_workloads::{AppClass, JobId, JobKind, JobSpec, ScenarioKind};

use crate::{ExperimentPlan, Harness, RunSpec, Table};

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let kind = ScenarioKind::HighVariability;

    let plan: ExperimentPlan = StrategyRegistry::paper()
        .iter()
        .map(|s| RunSpec::of(kind, s))
        .collect();
    h.run_plan(plan);

    println!("Section 5.2: provisioning overheads\n");
    let mut t = Table::new(vec![
        "strategy",
        "profiled",
        "classified",
        "queued jobs",
        "reschedules",
        "resched rate %",
    ]);
    for strategy in StrategyRegistry::paper() {
        let r = h.run(RunSpec::of(kind, strategy));
        t.row(vec![
            strategy.short_name().into(),
            format!("{}", r.counters.profiled),
            format!("{}", r.counters.classified),
            format!("{}", r.counters.queued_jobs),
            format!("{}", r.counters.reschedules),
            format!("{:.1}", r.reschedule_rate() * 100.0),
        ]);
    }
    println!("{t}");
    println!("(paper: profiling 5-10 s, once per new job; classification ~20 ms;");
    println!(" decisions <20 ms; rescheduling infrequent except OdM, where it adds");
    println!(" ~6.1% to job execution time)\n");

    // Wall-clock of the actual decision-path code.
    let factory = RngFactory::new(7);
    let mut engine = QuasarEngine::new(QuasarConfig::default(), &factory);
    let mut rng = SimRng::from_seed_u64(9);
    let job = JobSpec {
        id: JobId(0),
        class: AppClass::Memcached,
        arrival: SimTime::ZERO,
        kind: JobKind::Batch {
            work_core_secs: 600.0,
        },
        cores: 4,
        sensitivity: AppClass::Memcached.sample_sensitivity(&mut rng),
    };
    let env = ProfilingEnvironment::clean();

    let n = 10_000;
    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(engine.estimate(&job, &env));
    }
    let classify_us = t0.elapsed().as_secs_f64() / n as f64 * 1e6;

    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(resource_quality(&job.sensitivity));
    }
    let encode_ns = t0.elapsed().as_secs_f64() / n as f64 * 1e9;

    let t0 = Instant::now();
    let v = ResourceVector::uniform(0.4);
    for _ in 0..n {
        std::hint::black_box(
            hcloud_interference::SlowdownModel::default().slowdown(&job.sensitivity, &v),
        );
    }
    let slowdown_ns = t0.elapsed().as_secs_f64() / n as f64 * 1e9;

    let decision_ns = time_mapping_decision(&job, n);

    let mut t = Table::new(vec!["operation", "measured", "paper budget"]);
    t.row(vec![
        "profile + classify (fold-in)".into(),
        format!("{classify_us:.1} µs"),
        "~20 ms".into(),
    ]);
    t.row(vec![
        "resource-quality Q encoding".into(),
        format!("{encode_ns:.0} ns"),
        "(part of decisions <20 ms)".into(),
    ]);
    t.row(vec![
        "slowdown-model evaluation".into(),
        format!("{slowdown_ns:.0} ns"),
        "(part of decisions <20 ms)".into(),
    ]);
    t.row(vec![
        "dynamic mapping decision".into(),
        format!("{decision_ns:.0} ns"),
        "decisions <20 ms".into(),
    ]);
    for tenants in [200, 2_000, 20_000] {
        t.row(vec![
            format!("fair-share drain, {tenants} tenants"),
            format!("{:.0} ns", time_fair_share_drain(tenants, n)),
            "(extension; flat in tenants)".into(),
        ]);
    }
    println!("{t}");
    println!("All decision-path operations sit orders of magnitude below the");
    println!("10-20 s spin-up overheads they are compared against in Section 4.2.");
}

/// Mean wall clock of one dynamic (P8) mapping decision, in ns, against
/// a warm queue estimator and a 72%-utilized reserved pool.
fn time_mapping_decision(job: &JobSpec, n: usize) -> f64 {
    let monitor = QualityMonitor::default();
    let limits = DynamicLimits::default();
    let mut estimator = QueueEstimator::default();
    for k in 0..100u64 {
        estimator.record_release(4, SimTime::from_secs(k));
    }
    let mut rng = SimRng::from_seed_u64(3);
    let t0 = Instant::now();
    for _ in 0..n {
        let ctx = MappingContext {
            reserved_utilization: 0.72,
            job_quality: job.quality_requirement(),
            od_itype: InstanceType::standard(4),
            job_cores: 4,
            queue_len: 3,
            expected_spinup_large: SimDuration::from_secs(18),
            monitor: &monitor,
            limits: &limits,
            queue_estimator: &estimator,
            now: SimTime::from_secs(100),
        };
        std::hint::black_box(MappingPolicy::Dynamic.decide(&ctx, &mut rng));
    }
    t0.elapsed().as_secs_f64() / n as f64 * 1e9
}

/// Mean wall clock, in ns, of the scheduler's fair-share finish path —
/// release a running job, drain the gate, re-gate the released job —
/// with 8 backlogged tenants among `tenants`. The drain visits only the
/// backlogged tenants, so this should stay flat as `tenants` grows.
fn time_fair_share_drain(tenants: u64, n: usize) -> f64 {
    const HOT: u64 = 8;
    const JOBS_PER_HOT: u64 = 6;
    const CORES: u32 = 4;
    // A 32-core pool and 8-core guarantees: the hot tenants' demand
    // always exceeds the pool, so they stay backlogged and needy.
    let mut plan = TenancyPlan::new(32);
    for id in 0..tenants {
        plan = plan.tenant(TenantSpec::new(id, 1.0, 8, 32));
    }
    // Hot tenants spread across the id range.
    for job in 0..HOT * JOBS_PER_HOT {
        plan.assign(job, job / JOBS_PER_HOT * (tenants / HOT));
    }
    let mut fair = FairShare::new(&plan);
    let now = SimTime::ZERO;
    let mut running: VecDeque<u64> = (0..HOT * JOBS_PER_HOT)
        .filter(|&job| matches!(fair.gate(job, CORES, now), Gate::Admit { .. }))
        .collect();
    let t0 = Instant::now();
    for _ in 0..n {
        let done = running.pop_front().expect("the pool stays full");
        fair.release(done);
        running.extend(fair.drain(now).iter().map(|r| r.job));
        if let Gate::Admit { .. } = fair.gate(done, CORES, now) {
            running.push_back(done);
        }
    }
    t0.elapsed().as_secs_f64() / n as f64 * 1e9
}
