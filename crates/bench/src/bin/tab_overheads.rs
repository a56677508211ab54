//! Section 5.2: provisioning overheads.
//!
//! Reports the simulated accounting (profiling runs, classifications,
//! reschedule rates, queued jobs) per strategy, plus wall-clock
//! measurements of the decision-path code (classification, mapping
//! decision, Q encoding). The Criterion bench `overheads` measures the
//! same paths with statistical rigor.

use std::time::Instant;

use hcloud::StrategyRegistry;
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{ExperimentPlan, Harness, RunSpec, Table};
use hcloud_interference::{resource_quality, ResourceVector};
use hcloud_quasar::{ProfilingEnvironment, QuasarConfig, QuasarEngine};
use hcloud_sim::rng::{RngFactory, SimRng};
use hcloud_sim::SimTime;
use hcloud_workloads::{AppClass, JobId, JobKind, JobSpec, ScenarioKind};

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::TAB_OVERHEADS;

fn main() -> std::process::ExitCode {
    let mut h = Harness::for_experiment(INFO);
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
    println!("{t}");
    println!("All decision-path operations sit orders of magnitude below the");
    println!("10-20 s spin-up overheads they are compared against in Section 4.2.");
    h.finish("tab_overheads")
}
