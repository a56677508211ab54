//! Hot-path performance baseline: scheduler-heavy scenario wall clock.
//!
//! The paper's premise (Section 4) is that every provisioning decision —
//! P1–P8 mapping, Q90-vs-QT quality checks, retention expiry — is cheap
//! enough to run per-arrival at cloud scale. This binary measures that
//! claim end to end: it times a scheduler-heavy scenario (large arrival
//! count, thousands of instance acquisitions) across all five strategies
//! and writes `results/BENCH_hotpath.json`. The committed
//! `BENCH_hotpath.json` at the repo root records the pre-index baseline
//! next to the indexed numbers; CI re-runs this binary in fast mode and
//! fails when the result digests drift or the wall clock regresses.
//!
//! Timings go to stderr; the JSON artifact carries the numbers. Result
//! *digests* are deterministic (FNV-1a over every outcome's bits), so a
//! perf refactor that changes any simulation byte is caught here too.

use std::process::ExitCode;
use std::time::Instant;

use hcloud::monitor::QualityMonitor;
use hcloud::{
    runner::{run_scenario, RunCtx},
    RunConfig, StrategyRegistry,
};
use hcloud_bench::fleet::run_digest as digest;
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{artifacts, ExperimentCtx};
use hcloud_cloud::InstanceType;
use hcloud_json::{ObjectBuilder, Value};
use hcloud_sim::rng::RngFactory;
use hcloud_sim::stats::percentile;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};

/// Timing repetitions per strategy; the minimum is reported.
const REPS: usize = 3;

/// Repetitions of the quantile churn; the median is reported, so one slow
/// phase of a shared host does not decide the CI guard.
const CHURN_REPS: usize = 5;

/// Micro-benchmark of the quantile hot path exactly as the scheduler
/// drives it: the QoS monitor absorbs one delivered-quality sample and
/// answers one `Q90` query per tick. Pre-index this cloned + sorted the
/// full 512-sample window per query; now a sample is one ordered insert
/// and eviction in the window's sorted copy, and a `Q90` indexes it.
fn quantile_churn_ms(samples: usize) -> f64 {
    let mut rng = hcloud_sim::rng::SimRng::from_seed_u64(42);
    use rand::Rng;
    let itype = InstanceType::standard(4);
    let values: Vec<f64> = (0..samples).map(|_| rng.gen::<f64>()).collect();
    let start = Instant::now();
    let mut monitor = QualityMonitor::default();
    let mut acc = 0.0;
    for &v in &values {
        monitor.record(itype, v);
        acc += monitor.q90(itype);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::PERF_HOTPATH;

fn main() -> ExitCode {
    registry::announce(INFO);
    let ctx = ExperimentCtx::from_env_or_exit();
    // Scheduler-heavy: high variability (most on-demand churn), scaled
    // well past the paper runs so placement/retention dominate.
    let (scale, minutes) = if ctx.fast { (0.25, 20) } else { (0.7, 45) };
    let scenario = Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, scale, minutes),
        &RngFactory::new(ctx.master_seed),
    );
    eprintln!(
        "[perf_hotpath] scenario: high-variability x{scale} {minutes}min, {} jobs, seed {} ({} mode)",
        scenario.jobs().len(),
        ctx.master_seed,
        if ctx.fast { "fast" } else { "full" },
    );

    let mut strategy_rows: Vec<Value> = Vec::new();
    let mut total_ms = 0.0;
    for strategy in StrategyRegistry::paper() {
        let config = RunConfig::new(strategy);
        let mut best_ms = f64::INFINITY;
        let mut dig = String::new();
        let mut events = 0usize;
        let mut instances = 0usize;
        for _ in 0..REPS {
            let factory = RngFactory::new(ctx.master_seed);
            let start = Instant::now();
            let result = run_scenario(&scenario, &config, &RunCtx::new(&factory))
                .expect("no auditor attached");
            let ms = start.elapsed().as_secs_f64() * 1e3;
            best_ms = best_ms.min(ms);
            events = result.counters.events_processed;
            instances = result.usage_records.len();
            dig = digest(&result);
        }
        total_ms += best_ms;
        eprintln!(
            "[perf_hotpath] {:<4} {:>9.1} ms  ({} events, {} instances, digest {})",
            strategy.short_name(),
            best_ms,
            events,
            instances,
            dig,
        );
        strategy_rows.push(
            ObjectBuilder::new()
                .set("strategy", strategy.short_name())
                .set("wall_ms", best_ms)
                .set("events", events as f64)
                .set("instances", instances as f64)
                .set("digest", dig.as_str())
                .build(),
        );
    }

    let churn_reps: [f64; CHURN_REPS] = std::array::from_fn(|_| quantile_churn_ms(200_000));
    let churn = percentile(&churn_reps, 50.0).expect("CHURN_REPS is positive");
    eprintln!("[perf_hotpath] quantile-churn(200k records + q90 reads) median {churn:.1} ms");
    eprintln!("[perf_hotpath] total {total_ms:.1} ms");

    let doc = ObjectBuilder::new()
        .set("schema_version", artifacts::SCHEMA_VERSION)
        .set("bench", "perf_hotpath")
        .set("mode", if ctx.fast { "fast" } else { "full" })
        .set("seed", ctx.master_seed as f64)
        .set(
            "scenario",
            ObjectBuilder::new()
                .set("kind", "high-variability")
                .set("scale", scale)
                .set("minutes", minutes as f64)
                .set("jobs", scenario.jobs().len() as f64)
                .build(),
        )
        .set("strategies", Value::Array(strategy_rows))
        .set("total_wall_ms", total_ms)
        .set("quantile_churn_ms", churn)
        .build();
    let path = std::path::Path::new("results").join("BENCH_hotpath.json");
    let ok = std::fs::create_dir_all("results").is_ok()
        && std::fs::write(&path, doc.to_pretty() + "\n").is_ok();
    if ok {
        artifacts::artifact_written(&path);
    } else {
        artifacts::artifact_failure(format!("write {}", path.display()), "io error");
    }
    artifacts::exit_code()
}
