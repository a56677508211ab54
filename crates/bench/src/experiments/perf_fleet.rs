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
//! Two identities ship with the wall-clock number, both through the
//! shared FNV digest:
//!
//! * **profiled vs timed** — an extra rep with the [`Profiler`] enabled
//!   must produce byte-identical results;
//! * **golden** — `cargo test` compares the fast-mode run with the
//!   committed `crates/bench/goldens/BENCH_fleet_fast.json`, and CI fails
//!   on a >25% wall-clock regression.
//!
//! Worker-count identity is the harness's own property;
//! `crates/bench/tests/fleet_identity.rs` checks it on this scenario.
//!
//! Timings go to stderr; `results/BENCH_fleet.json` carries the numbers.

use std::time::Instant;

use hcloud::runner::{run_scenario, RunCtx};
use hcloud::{RunConfig, StrategyId};
use hcloud_json::{ObjectBuilder, Value};
use hcloud_sim::rng::RngFactory;
use hcloud_telemetry::Profiler;
use hcloud_workloads::Scenario;

use crate::fleet::{fleet_config, run_digest};
use crate::{artifacts, report, Harness};

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
                .set("jobs", scenario.jobs().len() as f64)
                .build(),
        )
        .set("queues", Value::Array(vec![wheel]))
        .set("total_wall_ms", wall_ms)
        .build();
    report::write_document("BENCH_fleet", &doc);
}
