//! Integration tests for the structured telemetry layer: trace content
//! and bit-identical traces across engine worker counts.

use hcloud::StrategyId;
use hcloud_bench::engine::{Engine, ExperimentPlan, RunSpec};
use hcloud_bench::ExperimentCtx;
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

fn rendered_traces(jobs: usize) -> Vec<String> {
    let ctx = ExperimentCtx::new(42)
        .with_fast(true)
        .with_jobs(jobs)
        .with_trace(TraceMode::Full);
    let outcome = Engine::new(ctx).run_plan(&traced_plan());
    outcome
        .traces
        .iter()
        .map(|t| {
            let t = t.as_ref().expect("full mode traces every run");
            render_jsonl(&t.meta, &t.events)
        })
        .collect()
}

#[test]
fn traces_are_bit_identical_across_worker_counts() {
    let sequential = rendered_traces(1);
    let parallel = rendered_traces(4);
    assert_eq!(sequential.len(), parallel.len());
    for (i, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "trace {i} differs between 1 and 4 workers");
    }
}

#[test]
fn hybrid_trace_covers_the_event_taxonomy() {
    let ctx = ExperimentCtx::new(42)
        .with_fast(true)
        .with_jobs(1)
        .with_trace(TraceMode::Full);
    let mut plan = ExperimentPlan::new();
    plan.push(RunSpec::of(ScenarioKind::HighVariability, StrategyId::HM));
    let outcome = Engine::new(ctx).run_plan(&plan);
    let trace = outcome.traces[0].as_ref().expect("traced run");

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
    use hcloud_faults::FaultPlanId;
    let faulted = |jobs: usize| -> Vec<String> {
        let ctx = ExperimentCtx::new(42)
            .with_fast(true)
            .with_jobs(jobs)
            .with_trace(TraceMode::Full)
            .with_faults(FaultPlanId::FullChaos);
        let mut plan = ExperimentPlan::new();
        for seed in [1u64, 2, 3] {
            plan.push(
                RunSpec::of(ScenarioKind::HighVariability, StrategyId::HM)
                    .seed(seed)
                    .map_config(|c| c.with_spot(hcloud::config::SpotPolicy::default())),
            );
        }
        let outcome = Engine::new(ctx).run_plan(&plan);
        outcome
            .traces
            .iter()
            .map(|t| {
                let t = t.as_ref().expect("full mode traces every run");
                render_jsonl(&t.meta, &t.events)
            })
            .collect()
    };
    let sequential = faulted(1);
    let parallel = faulted(4);
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
    // and every record must serialize with kind + sim time like the
    // rest of the taxonomy.
    use hcloud_faults::FaultPlanId;
    let ctx = ExperimentCtx::new(42)
        .with_fast(true)
        .with_jobs(1)
        .with_trace(TraceMode::Full)
        .with_faults(FaultPlanId::FullChaos);
    let mut plan = ExperimentPlan::new();
    plan.push(
        RunSpec::of(ScenarioKind::HighVariability, StrategyId::HM)
            .map_config(|c| c.with_spot(hcloud::config::SpotPolicy::default())),
    );
    let outcome = Engine::new(ctx).run_plan(&plan);
    let trace = outcome.traces[0].as_ref().expect("traced run");

    let fault_names: Vec<&str> = trace
        .events
        .iter()
        .map(|e| e.kind.name())
        .filter(|n| n.starts_with("fault-") || n.starts_with("recovery-"))
        .collect();
    assert!(
        !fault_names.is_empty(),
        "full-chaos hybrid run recorded no fault/recovery events"
    );
    for ev in &trace.events {
        let json = ev.to_json();
        assert!(json.get("ev").is_some());
        assert!(json.get("t_us").is_some());
    }
}

#[test]
fn off_mode_records_nothing() {
    let ctx = ExperimentCtx::new(42).with_fast(true).with_jobs(2);
    assert_eq!(ctx.trace, TraceMode::Off);
    let outcome = Engine::new(ctx).run_plan(&traced_plan());
    assert!(outcome.traces.iter().all(Option::is_none));
}
