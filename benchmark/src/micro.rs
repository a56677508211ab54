//! Micro-benches: each hot structure driven through its public API with
//! the workload's own inputs. Each reports the median of [`BATCHES`]
//! batches; the op counts below keep one batch in the millisecond range.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use hcloud::monitor::QualityMonitor;
use hcloud::scheduler::Scheduler;
use hcloud::{PlacementQuery, RunConfig, SearchPolicy};
use hcloud_audit::{AuditMode, Auditor};
use hcloud_cloud::{Cloud, CloudConfig, Family, InstanceType};
use hcloud_quasar::{ProfilingEnvironment, QuasarConfig, QuasarEngine};
use hcloud_sim::event::EventQueue;
use hcloud_sim::rng::RngFactory;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_tenancy::{FairShare, Gate};
use hcloud_workloads::{JobSpec, Scenario};

use crate::stats::median;
use crate::workload::{strategy, zipf_plan, GRID_STRATEGIES};

const BATCHES: usize = 5;
/// Jobs replayed into the wheel and the quality monitor.
const STREAM_JOBS: usize = 50_000;
/// Jobs fed through the tenancy gate.
const GATE_JOBS: usize = 20_000;
/// Reserved-pool placement queries per batch.
const PLACEMENT_QUERIES: usize = 5_000;
/// Jobs classified by Quasar per batch.
const QUASAR_JOBS: usize = 500;
/// Delivered-quality reads and audit steps per batch.
const POINT_OPS: usize = 200_000;
/// On-demand sizes the delivered-quality bench cycles through.
const OD_SIZES: [u32; 4] = [1, 2, 4, 8];

fn nanos_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

fn median_of(mut batch: impl FnMut() -> f64) -> f64 {
    median(&(0..BATCHES).map(|_| batch()).collect::<Vec<_>>())
}

/// Runs every micro-bench on `scenario` (the workload's first), with the
/// instance-count benches sized to `peak_live` instances.
pub fn run_all(scenario: &Scenario, peak_live: usize, seed: u64) -> Vec<(String, f64)> {
    let jobs = scenario.jobs();
    let mut out: Vec<(String, f64)> = Vec::new();
    let (schedule_ns, drain_ns) = wheel(&jobs[..jobs.len().min(STREAM_JOBS)]);
    out.push(("sim.wheel.schedule_ns".into(), schedule_ns));
    out.push(("sim.wheel.drain_ns_per_event".into(), drain_ns));
    out.push((
        "cloud.delivered_quality_ns".into(),
        delivered_quality(peak_live, seed),
    ));
    out.push((
        "core.monitor.record_q90_ns".into(),
        record_q90(&jobs[..jobs.len().min(STREAM_JOBS)]),
    ));
    let (gate_ns, drain_us, victims_us) = tenancy(scenario, seed);
    out.push(("tenancy.gate_ns".into(), gate_ns));
    out.push(("tenancy.drain_us".into(), drain_us));
    out.push(("tenancy.starved_victims_us".into(), victims_us));
    out.push(("audit.step_check_ns".into(), audit_step(peak_live)));
    out.push((
        "core.find_placement_ns".into(),
        find_placement(scenario, seed),
    ));
    out.push((
        "quasar.estimate_us".into(),
        quasar_estimate(&jobs[..jobs.len().min(QUASAR_JOBS)], seed) / 1e3,
    ));
    let factory = RngFactory::new(seed);
    for short in GRID_STRATEGIES {
        let config = RunConfig::new(strategy(short));
        let ms = median_of(|| {
            let start = Instant::now();
            let sched = Scheduler::new(scenario, &config, &factory);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            drop(black_box(sched));
            ms
        });
        out.push((format!("core.scheduler_new_ms.{short}"), ms));
    }
    out
}

/// `EventQueue<u64>` fed each job's arrival plus a synthetic finish at
/// arrival + ideal duration, then drained batch by batch. Returns
/// (ns per schedule, ns per drained event).
fn wheel(jobs: &[JobSpec]) -> (f64, f64) {
    let mut schedule = Vec::new();
    let mut drain = Vec::new();
    for _ in 0..BATCHES {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let start = Instant::now();
        for j in jobs {
            queue.schedule(j.arrival, j.id.0);
            queue.schedule(j.arrival + j.ideal_duration(), j.id.0);
        }
        schedule.push(nanos_per(start, 2 * jobs.len()));
        let mut buf = Vec::new();
        let mut drained = 0usize;
        let mut acc = 0u64;
        let start = Instant::now();
        while queue.drain_next_batch(&mut buf).is_some() {
            for e in buf.drain(..) {
                queue.ack();
                acc ^= e;
                drained += 1;
            }
        }
        drain.push(nanos_per(start, drained));
        black_box(acc);
    }
    (median(&schedule), median(&drain))
}

/// `Cloud::delivered_quality` over `n` acquired on-demand instances of
/// mixed sizes, each read at a fresh instant per pass.
fn delivered_quality(n: usize, seed: u64) -> f64 {
    let mut cloud = Cloud::new(CloudConfig::default(), RngFactory::new(seed).child("cloud"));
    let ids: Vec<_> = (0..n.max(1))
        .map(|i| {
            cloud.acquire(
                InstanceType::standard(OD_SIZES[i % OD_SIZES.len()]),
                SimTime::ZERO,
            )
        })
        .collect();
    let passes = POINT_OPS.div_ceil(ids.len());
    median_of(|| {
        let mut acc = 0.0;
        let start = Instant::now();
        for pass in 0..passes {
            let t = SimTime::ZERO + SimDuration::from_secs(3600 + 30 * pass as u64);
            for &id in &ids {
                acc += cloud.delivered_quality(id, t);
            }
        }
        black_box(acc);
        nanos_per(start, passes * ids.len())
    })
}

/// `QualityMonitor::record` plus `q90`, fed the jobs' quality targets.
fn record_q90(jobs: &[JobSpec]) -> f64 {
    let itype = InstanceType::standard(4);
    let samples: Vec<f64> = jobs.iter().map(JobSpec::quality_requirement).collect();
    median_of(|| {
        let mut monitor = QualityMonitor::default();
        let mut acc = 0.0;
        let start = Instant::now();
        for &q in &samples {
            monitor.record(itype, q);
            acc += monitor.q90(itype);
        }
        black_box(acc);
        nanos_per(start, samples.len())
    })
}

/// A `FairShare` built from the scenario's tenancy plan (the Zipf plan
/// of tenant-zipf when the scenario has none), fed its job stream: each
/// admitted job runs for its ideal duration. Returns (ns per job for
/// retiring finished admissions and gating, µs per DRR drain once the
/// pool empties, µs per starvation scan a day later).
fn tenancy(scenario: &Scenario, seed: u64) -> (f64, f64, f64) {
    let plan = match scenario.tenancy() {
        Some(plan) => plan.clone(),
        None => zipf_plan(scenario, &RngFactory::new(seed)),
    };
    let jobs = &scenario.jobs()[..scenario.jobs().len().min(GATE_JOBS)];
    let end = jobs.last().map_or(SimTime::ZERO, |j| j.arrival);
    let (mut gate, mut drain, mut victims) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let mut fair = FairShare::new(&plan);
        let mut running: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let start = Instant::now();
        for j in jobs {
            while let Some(&Reverse((done, id))) = running.peek() {
                if done > j.arrival {
                    break;
                }
                running.pop();
                fair.release(id);
            }
            if let Gate::Admit { .. } = fair.gate(j.id.0, j.cores, j.arrival) {
                running.push(Reverse((j.arrival + j.ideal_duration(), j.id.0)));
            }
        }
        gate.push(nanos_per(start, jobs.len()));
        for Reverse((_, id)) in running.drain() {
            fair.release(id);
        }
        let start = Instant::now();
        let released = fair.drain(end);
        drain.push(start.elapsed().as_secs_f64() * 1e6);
        black_box(released);
        let start = Instant::now();
        let proposed = fair.starved_victims(end + SimDuration::from_hours(24));
        victims.push(start.elapsed().as_secs_f64() * 1e6);
        black_box(proposed);
    }
    (median(&gate), median(&drain), median(&victims))
}

/// A strict `Auditor` with `n` live instances: per op, bind a core on
/// one of them, run the strict step check, and unbind it.
fn audit_step(n: usize) -> f64 {
    let n = n.max(1) as u64;
    let auditor = Auditor::new(AuditMode::Strict);
    for id in 0..n {
        auditor.instance_acquired(SimTime::ZERO, id, InstanceType::full_server().vcpus());
    }
    let at = SimTime::ZERO + SimDuration::from_secs(1);
    median_of(|| {
        let mut violated = false;
        let start = Instant::now();
        for k in 0..POINT_OPS as u64 {
            let id = k % n;
            auditor.cores_bound(at, id, 1);
            violated |= auditor.step_check().is_err();
            auditor.cores_unbound(at, id, 1);
        }
        assert!(!violated, "balanced bind/unbind never violates the audit");
        nanos_per(start, POINT_OPS)
    })
}

/// `Scheduler::find_placement` on a fresh HM scheduler, answering
/// reserved-pool queries built from the scenario's jobs.
fn find_placement(scenario: &Scenario, seed: u64) -> f64 {
    let config = RunConfig::new(strategy("HM"));
    let factory = RngFactory::new(seed);
    let queries: Vec<PlacementQuery> = scenario
        .jobs()
        .iter()
        .take(PLACEMENT_QUERIES)
        .map(|j| PlacementQuery {
            family: Family::Standard,
            min_cores: j.cores,
            policy: SearchPolicy::ReservedPool {
                sensitivity: j.sensitivity,
                quality: j.quality_requirement(),
            },
        })
        .collect();
    let mut sched = Scheduler::new(scenario, &config, &factory);
    median_of(|| {
        let mut found = 0usize;
        let start = Instant::now();
        for q in &queries {
            found += usize::from(sched.find_placement(q, SimTime::ZERO).is_some());
        }
        black_box(found);
        nanos_per(start, queries.len())
    })
}

/// `QuasarEngine::estimate` (profile + classify) per job, in ns.
fn quasar_estimate(jobs: &[JobSpec], seed: u64) -> f64 {
    let mut engine = QuasarEngine::new(
        QuasarConfig::default(),
        &RngFactory::new(seed).child("quasar"),
    );
    let env = ProfilingEnvironment::clean();
    median_of(|| {
        let start = Instant::now();
        for j in jobs {
            black_box(engine.estimate(j, &env));
        }
        nanos_per(start, jobs.len())
    })
}
