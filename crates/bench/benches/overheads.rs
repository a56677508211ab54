//! Criterion micro-benchmarks for HCloud's decision-path overheads
//! (Section 5.2) and hot simulation primitives.
//!
//! The paper reports classification at ~20 ms and all provisioning
//! decisions under 20 ms — three orders of magnitude below instance
//! spin-up. These benches verify our implementations sit comfortably
//! inside those budgets.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hcloud::dynamic::DynamicLimits;
use hcloud::mapping::{MappingContext, MappingPolicy};
use hcloud::monitor::QualityMonitor;
use hcloud::queue_estimator::QueueEstimator;
use hcloud_cloud::InstanceType;
use hcloud_interference::{resource_quality, ResourceVector, SlowdownModel};
use hcloud_quasar::{ProfilingEnvironment, QuasarConfig, QuasarEngine};
use hcloud_sim::event::EventQueue;
use hcloud_sim::rng::{RngFactory, SimRng};
use hcloud_sim::{SimDuration, SimTime};
use hcloud_tenancy::{FairShare, Gate, TenancyPlan, TenantSpec};
use hcloud_workloads::{AppClass, JobId, JobKind, JobSpec};
use std::collections::VecDeque;

fn job() -> JobSpec {
    let mut rng = SimRng::from_seed_u64(5);
    JobSpec {
        id: JobId(1),
        class: AppClass::Memcached,
        arrival: SimTime::ZERO,
        kind: JobKind::Batch {
            work_core_secs: 900.0,
        },
        cores: 4,
        sensitivity: AppClass::Memcached.sample_sensitivity(&mut rng),
    }
}

fn bench_classification(c: &mut Criterion) {
    let factory = RngFactory::new(11);
    let mut engine = QuasarEngine::new(QuasarConfig::default(), &factory);
    let env = ProfilingEnvironment::clean();
    let j = job();
    c.bench_function("quasar_profile_and_classify", |b| {
        b.iter(|| engine.estimate(&j, &env))
    });

    c.bench_function("quasar_engine_training", |b| {
        b.iter_batched(
            || QuasarConfig {
                corpus_size: 60,
                epochs: 30,
                ..QuasarConfig::default()
            },
            |config| QuasarEngine::new(config, &factory),
            BatchSize::SmallInput,
        )
    });
}

fn bench_decisions(c: &mut Criterion) {
    let monitor = QualityMonitor::default();
    let limits = DynamicLimits::default();
    let mut estimator = QueueEstimator::default();
    for k in 0..100u64 {
        estimator.record_release(4, SimTime::from_secs(k));
    }
    let j = job();
    let mut rng = SimRng::from_seed_u64(3);
    c.bench_function("dynamic_mapping_decision", |b| {
        b.iter(|| {
            let ctx = MappingContext {
                reserved_utilization: 0.72,
                job_quality: j.quality_requirement(),
                od_itype: InstanceType::standard(4),
                job_cores: 4,
                queue_len: 3,
                expected_spinup_large: SimDuration::from_secs(18),
                monitor: &monitor,
                limits: &limits,
                queue_estimator: &estimator,
                now: SimTime::from_secs(100),
            };
            MappingPolicy::Dynamic.decide(&ctx, &mut rng)
        })
    });

    let sensitivity = job().sensitivity;
    c.bench_function("resource_quality_encoding", |b| {
        b.iter(|| resource_quality(&sensitivity))
    });

    let model = SlowdownModel::default();
    let pressure = ResourceVector::uniform(0.35);
    c.bench_function("slowdown_evaluation", |b| {
        b.iter(|| model.slowdown(&sensitivity, &pressure))
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(SimTime::from_micros((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            acc
        })
    });
}

/// The fair-share drain with a fixed handful of backlogged tenants among
/// many idle ones. One iteration is the scheduler's finish path: release
/// a running job, drain, re-gate the released job. Every drain visits
/// only the backlogged tenants, so the time per iteration should stay
/// flat as the tenant count grows.
fn bench_fair_share_drain(c: &mut Criterion) {
    const HOT: u64 = 8;
    const JOBS_PER_HOT: u64 = 6;
    const CORES: u32 = 4;
    for tenants in [200u64, 2_000, 20_000] {
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
        c.bench_function(&format!("fair_share_drain/{tenants}"), |b| {
            b.iter(|| {
                let done = running.pop_front().expect("the pool stays full");
                fair.release(done);
                running.extend(fair.drain(now).iter().map(|r| r.job));
                if let Gate::Admit { .. } = fair.gate(done, CORES, now) {
                    running.push_back(done);
                }
            })
        });
    }
}

criterion_group!(
    benches,
    bench_classification,
    bench_decisions,
    bench_event_queue,
    bench_fair_share_drain
);
criterion_main!(benches);
