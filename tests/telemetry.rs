//! Integration tests for the structured telemetry layer: trace content
//! and bit-identical traces across harness worker counts.

use hcloud::StrategyId;
use hcloud_bench::{ExperimentCtx, ExperimentPlan, Harness, RunSpec, RunTrace};
use hcloud_faults::FaultPlanId;
use hcloud_telemetry::{render_jsonl, TraceKind, TraceMode};
use hcloud_workloads::ScenarioKind;

fn traced_plan() -> ExperimentPlan {
    let mut plan = ExperimentPlan::new();
    for seed in [1u64, 2, 3, 4] {
        plan.push(RunSpec::of(ScenarioKind::HighVariability, StrategyId::HM).seed(seed));
        plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::SR).seed(seed));
    }
    plan
}

/// Runs `plan` FAST under `ctx` and returns one trace per spec.
fn traces(ctx: ExperimentCtx, plan: ExperimentPlan) -> Vec<RunTrace> {
    let specs = plan.len();
    let mut h = Harness::with_ctx(ctx.with_fast(true));
    h.run_plan(plan);
    let traces = h.take_traces();
    if ctx.trace == TraceMode::Full {
        assert_eq!(traces.len(), specs, "full mode traces every run");
    }
    traces
}

/// `plan`'s traces under `jobs` workers, rendered as JSONL.
fn rendered(jobs: usize, plan: ExperimentPlan) -> Vec<String> {
    let ctx = ExperimentCtx::new(42)
        .with_jobs(jobs)
        .with_trace(TraceMode::Full);
    traces(ctx, plan)
        .iter()
        .map(|t| render_jsonl(&t.meta, &t.events))
        .collect()
}

/// A full-chaos hybrid run with spot on, seeded `seed`.
fn chaos_spec(seed: u64) -> RunSpec {
    RunSpec::of(ScenarioKind::HighVariability, StrategyId::HM)
        .seed(seed)
        .map_config(|c| {
            c.with_spot(hcloud::config::SpotPolicy::default())
                .with_faults(FaultPlanId::FullChaos.plan())
        })
}

#[test]
fn traces_are_bit_identical_across_worker_counts() {
    let sequential = rendered(1, traced_plan());
    let parallel = rendered(4, traced_plan());
    assert_eq!(sequential.len(), parallel.len());
    for (i, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "trace {i} differs between 1 and 4 workers");
    }
}

#[test]
fn hybrid_trace_covers_the_event_taxonomy() {
    let ctx = ExperimentCtx::new(42)
        .with_jobs(1)
        .with_trace(TraceMode::Full);
    let plan = ExperimentPlan::from(vec![RunSpec::of(
        ScenarioKind::HighVariability,
        StrategyId::HM,
    )]);
    let trace = &traces(ctx, plan)[0];

    let has = |pred: &dyn Fn(&TraceKind) -> bool| trace.events.iter().any(|e| pred(&e.kind));
    assert!(
        has(&|k| matches!(k, TraceKind::Decision { .. })),
        "scheduler decisions are traced"
    );
    assert!(
        has(&|k| matches!(k, TraceKind::InstanceSpinUp { .. })),
        "instance lifecycle (spin-up) is traced"
    );
    assert!(
        has(&|k| matches!(k, TraceKind::RunEnd { .. })),
        "the event loop stamps a run-end record"
    );
    // Every event's serialized form names its kind and sim time.
    for ev in &trace.events {
        let json = ev.to_json();
        assert!(json.get("ev").is_some());
        assert!(json.get("t_us").is_some());
    }
    // The decision records carry the scheduler's view of the cluster.
    let decision = trace
        .events
        .iter()
        .find_map(|e| match &e.kind {
            TraceKind::Decision {
                placement,
                utilization,
                ..
            } => Some((placement, utilization)),
            _ => None,
        })
        .expect("at least one decision");
    assert!(["reserved", "on-demand", "on-demand-large", "queue"].contains(decision.0));
    assert!((0.0..=1.5).contains(decision.1), "utilization plausible");
}

#[test]
fn faulted_traces_are_bit_identical_across_worker_counts() {
    // The acceptance bar for the fault subsystem: a full fault plan
    // traced under 1 and 4 workers renders byte-identical JSONL.
    let plan = || (1..=3).map(chaos_spec).collect::<ExperimentPlan>();
    let sequential = rendered(1, plan());
    let parallel = rendered(4, plan());
    assert_eq!(sequential, parallel, "faulted traces differ across workers");
    // The plan actually injected something observable.
    assert!(
        sequential.iter().any(|t| t.contains("\"fault-")),
        "no fault events in the full-chaos traces"
    );
}

#[test]
fn fault_events_carry_the_new_taxonomy() {
    // A hot fault plan must surface injection *and* recovery records,
    // retries among them, and every record must serialize with kind +
    // sim time like the rest of the taxonomy.
    let ctx = ExperimentCtx::new(42)
        .with_jobs(1)
        .with_trace(TraceMode::Full);
    let spec = chaos_spec(42);
    let trace = &traces(ctx, ExperimentPlan::from(vec![spec]))[0];

    let fault_names: Vec<&str> = trace
        .events
        .iter()
        .map(|e| e.kind.name())
        .filter(|n| n.starts_with("fault-") || n.starts_with("recovery-"))
        .collect();
    assert!(
        fault_names.iter().any(|n| n.starts_with("fault-")),
        "full-chaos hybrid run recorded no fault events"
    );
    assert!(
        fault_names.contains(&"recovery-retry"),
        "full-chaos hybrid run recorded no acquisition retry: {fault_names:?}"
    );
    for ev in &trace.events {
        let json = ev.to_json();
        assert!(json.get("ev").is_some());
        assert!(json.get("t_us").is_some());
    }
}

#[test]
fn off_mode_records_nothing() {
    let ctx = ExperimentCtx::new(42).with_jobs(2);
    assert_eq!(ctx.trace, TraceMode::Off);
    assert!(traces(ctx, traced_plan()).is_empty());
}
