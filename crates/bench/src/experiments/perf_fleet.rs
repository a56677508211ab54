//! Fleet-scale performance baseline: the ~1M-job event-engine benchmark.
//!
//! The HCloud results were measured on real fleets (Section 5), but the
//! bench scenarios historically topped out around ~700 instances / ~2.7k
//! jobs — wall clock scaled with fleet size, which walled off the
//! multi-tenant and trace-driven directions. This experiment pins the
//! timing-wheel event engine at the scale those directions need: a
//! 2-hour high-variability window densified to ~1M arrivals, run under
//! OdM (the strategy that spawns the most instances) with an aggressive
//! retention window so the fleet churns past 100k instances.
//!
//! Three identities ship with the wall-clock number, all through the
//! shared FNV digest:
//!
//! * **profiled vs timed** — an extra rep with the [`Profiler`] enabled
//!   must produce byte-identical results;
//! * **j1 vs j4** — an [`Engine`] plan executed with `HCLOUD_JOBS=1` and
//!   `4` must produce byte-identical results at every plan index;
//! * **golden** — CI diffs the fast-mode digests against the committed
//!   `crates/bench/goldens/BENCH_fleet_fast.json` and fails on drift or
//!   a >25% wall-clock regression.
//!
//! Timings go to stderr; `results/BENCH_fleet.json` carries the numbers.

use std::sync::Arc;
use std::time::Instant;

use hcloud::runner::{run_scenario, RunCtx};
use hcloud::{RunConfig, StrategyId};
use hcloud_json::{ObjectBuilder, Value};
use hcloud_sim::rng::RngFactory;
use hcloud_telemetry::Profiler;
use hcloud_workloads::Scenario;

use crate::fleet::{fleet_config, run_digest};
use crate::{artifacts, report, Engine, ExperimentPlan, Harness, RunSpec};

/// Timed repetitions; the minimum is reported.
const REPS: usize = 2;

/// The fleet run configuration: OdM churns the most instances, and a
/// short retention window (0.05x the default) releases idle instances
/// almost immediately, so the fleet re-acquires constantly — >100k
/// instances over the full run.
fn fleet_run_config() -> RunConfig {
    RunConfig::new(StrategyId::ODM).with_retention_mult(0.05)
}

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let ctx = *h.ctx();
    let scenario = Scenario::generate(fleet_config(ctx.fast), &RngFactory::new(ctx.master_seed));
    eprintln!(
        "[perf_fleet] scenario: high-variability fleet, {} jobs, seed {} ({} mode)",
        scenario.jobs().len(),
        ctx.master_seed,
        if ctx.fast { "fast" } else { "full" },
    );
    let config = fleet_run_config();

    let mut wall_ms = f64::INFINITY;
    let mut dig = String::new();
    let mut events = 0usize;
    let mut instances = 0usize;
    for _ in 0..REPS {
        let factory = RngFactory::new(ctx.master_seed);
        let start = Instant::now();
        let result =
            run_scenario(&scenario, &config, &RunCtx::new(&factory)).expect("no auditor attached");
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        events = result.counters.events_processed;
        instances = result.usage_records.len();
        dig = run_digest(&result);
    }
    eprintln!(
        "[perf_fleet] wheel {wall_ms:>9.1} ms  ({events} events, {instances} instances, digest {dig})"
    );

    // One extra profiled rep — excluded from `total_wall_ms` (and hence
    // from the wall-clock regression guard) so the span bookkeeping
    // never taxes the headline number. Ops counts are deterministic;
    // span wall times localize where the run actually spends its time.
    let profiler = Profiler::enabled();
    let factory = RngFactory::new(ctx.master_seed);
    let run_ctx = RunCtx::new(&factory).with_profiler(&profiler);
    let start = Instant::now();
    let result = run_scenario(&scenario, &config, &run_ctx).expect("no auditor attached");
    let profiled_ms = start.elapsed().as_secs_f64() * 1e3;
    let profiled_dig = run_digest(&result);
    if profiled_dig != dig {
        artifacts::artifact_failure(
            "perf_fleet profiling identity",
            format!("profiled run diverged: {profiled_dig} vs {dig}"),
        );
        return;
    }
    let snapshot = profiler.snapshot();
    eprintln!("[perf_fleet] wheel profile: {}", snapshot.summary());
    let wheel = ObjectBuilder::new()
        .set("queue", "wheel")
        .set("wall_ms", wall_ms)
        .set("events", events as f64)
        .set("instances", instances as f64)
        .set("digest", dig.as_str())
        .set(
            "profile",
            ObjectBuilder::new()
                .set("wall_ms", profiled_ms)
                .set("ops", snapshot.ops_json())
                .set("span_wall_ms", snapshot.wall_ms_json())
                .build(),
        )
        .build();

    // Worker identity: the same two-spec plan under 1 and 4 workers.
    let shared = Arc::new(scenario);
    let plan_digests: Vec<Vec<String>> = [1usize, 4]
        .iter()
        .map(|&jobs| {
            let engine = Engine::new(ctx.with_jobs(jobs));
            let mut plan = ExperimentPlan::new();
            plan.push(RunSpec::on(shared.clone(), StrategyId::ODM).config(config.clone()));
            plan.push(
                RunSpec::on(shared.clone(), StrategyId::ODM)
                    .config(config.clone())
                    .seed(ctx.master_seed + 1),
            );
            let outcome = engine.run_plan(&plan);
            outcome.results.iter().map(run_digest).collect()
        })
        .collect();
    let workers_identical = plan_digests[0] == plan_digests[1];
    eprintln!(
        "[perf_fleet] j1 vs j4: {} (j1 {:?})",
        if workers_identical {
            "byte-identical"
        } else {
            "DIVERGED"
        },
        plan_digests[0],
    );
    if !workers_identical {
        artifacts::artifact_failure(
            "perf_fleet worker identity",
            format!(
                "HCLOUD_JOBS=1 and 4 diverged: {:?} vs {:?}",
                plan_digests[0], plan_digests[1]
            ),
        );
        return;
    }

    let doc = ObjectBuilder::new()
        .set("schema_version", artifacts::SCHEMA_VERSION)
        .set("bench", "perf_fleet")
        .set("mode", if ctx.fast { "fast" } else { "full" })
        .set("seed", ctx.master_seed as f64)
        .set(
            "scenario",
            ObjectBuilder::new()
                .set("kind", "high-variability-fleet")
                .set("strategy", "OdM")
                .set("retention_mult", 0.05)
                .set("jobs", shared.jobs().len() as f64)
                .build(),
        )
        .set("queues", Value::Array(vec![wheel]))
        .set(
            "workers",
            ObjectBuilder::new()
                .set(
                    "j1_digests",
                    Value::Array(
                        plan_digests[0]
                            .iter()
                            .map(|d| Value::from(d.as_str()))
                            .collect(),
                    ),
                )
                .set("identical_to_j4", workers_identical)
                .build(),
        )
        .set("total_wall_ms", wall_ms)
        .build();
    report::write_document("BENCH_fleet", &doc);
}
