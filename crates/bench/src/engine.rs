//! The parallel experiment engine.
//!
//! Every point of every figure is an independent, deterministic
//! simulation: a `(scenario, strategy, config, seed)` tuple fully
//! determines its [`RunResult`]. This module turns that independence into
//! throughput. A binary describes its whole sweep as an
//! [`ExperimentPlan`] — a list of typed [`RunSpec`]s — and the [`Engine`]
//! fans the runs out across a scoped thread pool
//! (`std::thread::scope`; no extra dependencies), collecting results
//! **in plan order**, so the output is bit-identical to sequential
//! execution regardless of thread count:
//!
//! ```text
//! plan (Vec<RunSpec>) ──► shared scenario table (generated once, deduped)
//!                      ──► worker pool (HCLOUD_JOBS or available_parallelism)
//!                      ──► results indexed by plan position  +  telemetry
//! ```
//!
//! Determinism holds because each run draws only from its own
//! [`RngFactory`] (seeded from the spec) and reads an immutable shared
//! scenario; workers never share mutable state beyond the work-stealing
//! index. The collection key is the spec's plan index, assigned before
//! any thread starts.
//!
//! Ambient configuration (`HCLOUD_SEED`, `HCLOUD_FAST`, `HCLOUD_JOBS`,
//! `HCLOUD_TRACE`) is parsed once into an [`ExperimentCtx`]; malformed
//! values are a hard error rather than a silent fallback.
//!
//! With `HCLOUD_TRACE=full` every simulated run carries an enabled
//! [`Tracer`] and the outcome includes one [`RunTrace`] per plan index —
//! the structured event stream the harness writes under
//! `results/traces/`. Traces are stamped with sim time only, so they are
//! bit-identical for any `HCLOUD_JOBS` value.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcloud::runner::{run_scenario, RunCtx};
use hcloud::{MappingPolicy, RunConfig, RunResult, StrategyRef};
use hcloud_audit::Auditor;
use hcloud_faults::{FaultPlan, FaultPlanId};
use hcloud_sim::rng::RngFactory;
use hcloud_telemetry::{
    MetricsRegistry, ProfSpan, ProfileSnapshot, Profiler, RunMeta, TraceEvent, Tracer,
};
use hcloud_workloads::{Scenario, ScenarioKind};

use crate::env::ExperimentCtx;

/// Where a [`RunSpec`] gets its scenario.
#[derive(Debug, Clone)]
enum ScenarioSource {
    /// Generated from the context (deduped across the plan by
    /// `(kind, seed)`).
    Kind(ScenarioKind),
    /// Provided by the caller (custom scale or sweep-generated).
    Explicit(Arc<Scenario>),
}

/// One experiment point: scenario, strategy + configuration, seed.
///
/// Build with the chained API and submit through an [`ExperimentPlan`]
/// (or [`crate::Harness::run`] for a single cached run):
///
/// ```no_run
/// use hcloud::StrategyId;
/// use hcloud_bench::RunSpec;
/// use hcloud_workloads::ScenarioKind;
///
/// let spec = RunSpec::of(ScenarioKind::HighVariability, StrategyId::HM)
///     .profiling(false)
///     .seed(7);
/// ```
#[derive(Debug, Clone)]
pub struct RunSpec {
    scenario: ScenarioSource,
    config: RunConfig,
    seed: Option<u64>,
    label: Option<String>,
}

impl RunSpec {
    /// A paper-default run of `strategy` (a [`StrategyRef`], a
    /// [`hcloud::StrategyId`], or anything else convertible) on the
    /// generated scenario `kind`.
    pub fn of(kind: ScenarioKind, strategy: impl Into<StrategyRef>) -> RunSpec {
        RunSpec {
            scenario: ScenarioSource::Kind(kind),
            config: RunConfig::new(strategy),
            seed: None,
            label: None,
        }
    }

    /// A paper-default run of `strategy` on an explicitly provided
    /// scenario (custom scale, sensitivity sweeps, CLI scenario files).
    pub fn on(scenario: Arc<Scenario>, strategy: impl Into<StrategyRef>) -> RunSpec {
        RunSpec {
            scenario: ScenarioSource::Explicit(scenario),
            config: RunConfig::new(strategy),
            seed: None,
            label: None,
        }
    }

    /// Sets whether Quasar profiling information is available.
    pub fn profiling(mut self, profiling: bool) -> RunSpec {
        self.config = self.config.with_profiling(profiling);
        self
    }

    /// Sets the mapping policy.
    pub fn policy(mut self, policy: MappingPolicy) -> RunSpec {
        self.config = self.config.with_policy(policy);
        self
    }

    /// Pins this run's master seed (replication sweeps); defaults to the
    /// context's ambient seed.
    pub fn seed(mut self, seed: u64) -> RunSpec {
        self.seed = Some(seed);
        self
    }

    /// Replaces the whole run configuration (strategy included).
    pub fn config(mut self, config: RunConfig) -> RunSpec {
        self.config = config;
        self
    }

    /// Applies a [`RunConfig`] builder chain to this spec's
    /// configuration:
    /// `spec.map_config(|c| c.with_retention_mult(4.0))`.
    pub fn map_config(mut self, f: impl FnOnce(RunConfig) -> RunConfig) -> RunSpec {
        self.config = f(self.config);
        self
    }

    /// Sets this run's fault plan explicitly (overriding the ambient
    /// `HCLOUD_FAULTS` plan).
    pub fn faults(mut self, faults: FaultPlan) -> RunSpec {
        self.config = self.config.with_faults(faults);
        self
    }

    /// Attaches a human-readable label for telemetry output.
    pub fn label(mut self, label: impl Into<String>) -> RunSpec {
        self.label = Some(label.into());
        self
    }

    /// The run configuration.
    pub fn get_config(&self) -> &RunConfig {
        &self.config
    }

    /// The strategy under test.
    pub fn strategy(&self) -> StrategyRef {
        self.config.strategy.clone()
    }

    /// The scenario kind, when the engine generates the scenario.
    pub fn scenario_kind(&self) -> Option<ScenarioKind> {
        match &self.scenario {
            ScenarioSource::Kind(kind) => Some(*kind),
            ScenarioSource::Explicit(_) => None,
        }
    }

    /// The label shown in telemetry: explicit, or derived.
    fn display_label(&self) -> String {
        if let Some(l) = &self.label {
            return l.clone();
        }
        let scenario = match &self.scenario {
            ScenarioSource::Kind(kind) => format!("{kind:?}"),
            ScenarioSource::Explicit(_) => "custom".to_string(),
        };
        match self.seed {
            Some(seed) => format!("{scenario}/{}/seed{seed}", self.config.strategy),
            None => format!("{scenario}/{}", self.config.strategy),
        }
    }

    /// The flight-recorder identity of this run under `ctx`.
    pub(crate) fn run_meta(&self, ctx: &ExperimentCtx) -> RunMeta {
        let scenario = match &self.scenario {
            ScenarioSource::Kind(kind) => format!("{kind:?}"),
            ScenarioSource::Explicit(_) => "custom".to_string(),
        };
        RunMeta {
            label: self.display_label(),
            scenario,
            strategy: self.config.strategy.to_string(),
            seed: self.seed.unwrap_or(ctx.master_seed),
        }
    }

    /// The configuration this spec actually runs under `ctx`: the spec's
    /// own, with the ambient `HCLOUD_FAULTS` plan layered onto runs that
    /// did not set one themselves.
    pub(crate) fn effective_config(&self, ctx: &ExperimentCtx) -> RunConfig {
        if ctx.faults != FaultPlanId::Off && self.config.faults.is_off() {
            self.config.clone().with_faults(ctx.faults.plan())
        } else {
            self.config.clone()
        }
    }

    /// In-process cache identity: the scenario source, seed, and the full
    /// effective configuration (via its `Debug` form, which round-trips
    /// every field including floats).
    pub(crate) fn cache_key(&self, ctx: &ExperimentCtx) -> String {
        let scenario = match &self.scenario {
            ScenarioSource::Kind(kind) => format!("kind:{kind:?}"),
            // Pointer identity: only valid in-process, which is exactly
            // the cache's lifetime. Distinct-but-equal scenarios miss the
            // cache (costing time, never correctness).
            ScenarioSource::Explicit(s) => format!("ptr:{:p}", Arc::as_ptr(s)),
        };
        format!(
            "{scenario}|seed:{}|{:?}",
            self.seed.unwrap_or(ctx.master_seed),
            self.effective_config(ctx)
        )
    }
}

/// An ordered list of [`RunSpec`]s submitted as one unit. Plan order is
/// the result order.
#[derive(Debug, Clone, Default)]
pub struct ExperimentPlan {
    specs: Vec<RunSpec>,
}

impl ExperimentPlan {
    /// An empty plan.
    pub fn new() -> ExperimentPlan {
        ExperimentPlan::default()
    }

    /// Appends a run.
    pub fn push(&mut self, spec: RunSpec) -> &mut Self {
        self.specs.push(spec);
        self
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The specs, in plan order.
    pub fn specs(&self) -> &[RunSpec] {
        &self.specs
    }
}

impl From<Vec<RunSpec>> for ExperimentPlan {
    fn from(specs: Vec<RunSpec>) -> Self {
        ExperimentPlan { specs }
    }
}

impl FromIterator<RunSpec> for ExperimentPlan {
    fn from_iter<I: IntoIterator<Item = RunSpec>>(iter: I) -> Self {
        ExperimentPlan {
            specs: iter.into_iter().collect(),
        }
    }
}

/// Per-run telemetry: what one simulation cost.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// The spec's label.
    pub label: String,
    /// Wall-clock time of this simulation.
    pub wall: Duration,
    /// Events its discrete-event loop processed.
    pub events: usize,
    /// Incremental placement-index maintenance operations its scheduler
    /// performed.
    pub index_rebuilds: usize,
    /// Placement queries its scheduler answered straight from a
    /// maintained index.
    pub placement_fastpath: usize,
    /// Per-subsystem profiling spans (op counts are deterministic; wall
    /// clock is machine-dependent). Empty unless the context's trace
    /// mode reports spans.
    pub profile: ProfileSnapshot,
}

/// One run's recorded trace: identity plus the sim-time-ordered event
/// stream. Produced only under [`TraceMode::Full`].
///
/// [`TraceMode::Full`]: hcloud_telemetry::TraceMode::Full
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// The run's flight-recorder identity (header line of its file).
    pub meta: RunMeta,
    /// The structured events, in sim-time order.
    pub events: Vec<TraceEvent>,
}

/// Plan-level telemetry: enough to see the fan-out working.
#[derive(Debug, Clone, Default)]
pub struct PlanTelemetry {
    /// Per-run details, in plan order (simulated runs only; cache hits
    /// don't appear).
    pub runs: Vec<RunTelemetry>,
    /// Wall-clock time of the whole plan.
    pub wall: Duration,
    /// Wall-clock time spent generating shared scenarios (the
    /// `scenario-gen` span).
    pub scenario_wall: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Runs served from the harness cache (always 0 at engine level).
    pub cache_hits: usize,
}

impl PlanTelemetry {
    /// Total simulation time across runs — what a sequential executor
    /// would have paid.
    pub fn cpu_time(&self) -> Duration {
        self.runs.iter().map(|r| r.wall).sum()
    }

    /// Total events processed across runs.
    pub fn total_events(&self) -> usize {
        self.runs.iter().map(|r| r.events).sum()
    }

    /// Total placement-index maintenance operations across runs.
    pub fn total_index_rebuilds(&self) -> usize {
        self.runs.iter().map(|r| r.index_rebuilds).sum()
    }

    /// Total index-served placement queries across runs.
    pub fn total_placement_fastpath(&self) -> usize {
        self.runs.iter().map(|r| r.placement_fastpath).sum()
    }

    /// Per-subsystem profiling spans summed across runs (empty unless
    /// the trace mode reports spans).
    pub fn total_profile(&self) -> ProfileSnapshot {
        let mut total = ProfileSnapshot::default();
        for run in &self.runs {
            total.absorb(&run.profile);
        }
        total
    }

    /// Observed parallel speedup: summed per-run time over plan
    /// wall-clock.
    pub fn speedup(&self) -> f64 {
        self.cpu_time().as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// The plan's cost, restated as a structured [`MetricsRegistry`]:
    /// counters for run / cache / event totals, gauges for the pool
    /// shape and per-phase wall-clock, and a streaming histogram of
    /// per-run simulation time.
    pub fn registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("runs_simulated", self.runs.len() as u64);
        reg.counter_add("cache_hits", self.cache_hits as u64);
        reg.counter_add("events_processed", self.total_events() as u64);
        reg.counter_add("index-rebuild", self.total_index_rebuilds() as u64);
        reg.counter_add("placement-fastpath", self.total_placement_fastpath() as u64);
        let profile = self.total_profile();
        for span in ProfSpan::ALL {
            reg.counter_add(&format!("prof_{}_ops", span.name()), profile.get(span).ops);
        }
        reg.gauge_set("workers", self.workers as f64);
        reg.gauge_set("plan_wall_s", self.wall.as_secs_f64());
        reg.gauge_set("scenario_gen_s", self.scenario_wall.as_secs_f64());
        for run in &self.runs {
            reg.observe("run_wall_s", run.wall.as_secs_f64());
        }
        reg
    }

    /// One summary line (print to stderr so figure output on stdout stays
    /// byte-identical across worker counts). Reads from
    /// [`Self::registry`], so the line and any serialized snapshot can
    /// never disagree.
    pub fn summary(&self) -> String {
        let reg = self.registry();
        let wall = reg.gauge("plan_wall_s").unwrap_or(0.0);
        let cpu = reg.histogram("run_wall_s").map_or(0.0, |h| h.sum());
        format!(
            "{} run(s) + {} cached on {} worker(s): {:.2}s wall, {:.2}s simulation ({:.2}x), {} events",
            reg.counter("runs_simulated"),
            reg.counter("cache_hits"),
            reg.gauge("workers").unwrap_or(0.0) as usize,
            wall,
            cpu,
            cpu / wall.max(1e-9),
            reg.counter("events_processed"),
        )
    }

    /// Merges another plan's telemetry into this one (session totals).
    pub fn absorb(&mut self, other: &PlanTelemetry) {
        self.runs.extend(other.runs.iter().cloned());
        self.wall += other.wall;
        self.scenario_wall += other.scenario_wall;
        self.workers = self.workers.max(other.workers);
        self.cache_hits += other.cache_hits;
    }
}

/// A completed plan: results in plan order plus telemetry.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// One result per spec, at the spec's plan index.
    pub results: Vec<RunResult>,
    /// One trace per spec under [`TraceMode::Full`] (plan-index aligned;
    /// all `None` otherwise).
    ///
    /// [`TraceMode::Full`]: hcloud_telemetry::TraceMode::Full
    pub traces: Vec<Option<RunTrace>>,
    /// What it cost.
    pub telemetry: PlanTelemetry,
}

/// The execution layer: resolves scenarios, fans runs out, collects
/// deterministically.
#[derive(Debug, Clone)]
pub struct Engine {
    ctx: ExperimentCtx,
}

impl Engine {
    /// An engine under `ctx`.
    pub fn new(ctx: ExperimentCtx) -> Engine {
        Engine { ctx }
    }

    /// The context.
    pub fn ctx(&self) -> &ExperimentCtx {
        &self.ctx
    }

    /// Generates (once) every scenario the plan needs, keyed by
    /// `(kind, seed)`. Sequential and deterministic: generation order is
    /// plan order.
    fn scenario_table(&self, plan: &ExperimentPlan) -> HashMap<(ScenarioKind, u64), Arc<Scenario>> {
        let mut table = HashMap::new();
        for spec in &plan.specs {
            if let ScenarioSource::Kind(kind) = &spec.scenario {
                let seed = spec.seed.unwrap_or(self.ctx.master_seed);
                table
                    .entry((*kind, seed))
                    .or_insert_with(|| Arc::new(self.ctx.scenario(*kind, Some(seed))));
            }
        }
        table
    }

    /// Runs the whole plan, fanning independent simulations across up to
    /// `ctx.worker_count(plan.len())` scoped threads. Results come back
    /// in plan order and are bit-identical for any worker count.
    ///
    /// An audit violation (`HCLOUD_AUDIT=final`/`strict`) is a hard
    /// failure: the message is printed and the process exits 3 — a run
    /// that broke a conservation identity must never land in a figure.
    /// Use [`Engine::try_run_plan`] to handle the error instead.
    pub fn run_plan(&self, plan: &ExperimentPlan) -> PlanOutcome {
        self.try_run_plan(plan).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(3);
        })
    }

    /// [`Engine::run_plan`], but an audit violation comes back as
    /// `Err("run <label>: <violation>")` (the first failing plan index
    /// wins) instead of terminating the process.
    pub fn try_run_plan(&self, plan: &ExperimentPlan) -> Result<PlanOutcome, String> {
        let started = Instant::now();
        let scenarios = self.scenario_table(plan);
        let scenario_wall = started.elapsed();
        let n = plan.len();
        let workers = self.ctx.worker_count(n);
        let tracing = self.ctx.trace.records_events();
        let profiling = self.ctx.trace.reports_spans();
        let audit = self.ctx.audit;

        type RunOut = Result<(RunResult, RunTelemetry, Option<RunTrace>), String>;
        let execute = |spec: &RunSpec| -> RunOut {
            let seed = spec.seed.unwrap_or(self.ctx.master_seed);
            let scenario: &Scenario = match &spec.scenario {
                ScenarioSource::Kind(kind) => &scenarios[&(*kind, seed)],
                ScenarioSource::Explicit(s) => s,
            };
            let factory = RngFactory::new(seed);
            let config = spec.effective_config(&self.ctx);
            let run_started = Instant::now();
            let profiler = if profiling {
                Profiler::enabled()
            } else {
                Profiler::disabled()
            };
            let (result, trace) = if tracing || profiling || audit.is_enabled() {
                let tracer = if tracing {
                    Tracer::enabled()
                } else {
                    Tracer::disabled()
                };
                let auditor = Auditor::new(audit);
                let result = run_scenario(
                    scenario,
                    &config,
                    &RunCtx::new(&factory)
                        .with_tracer(&tracer)
                        .with_auditor(&auditor)
                        .with_profiler(&profiler),
                )
                .map_err(|violation| format!("run {}: {violation}", spec.display_label()))?;
                let trace = tracing.then(|| RunTrace {
                    meta: spec.run_meta(&self.ctx),
                    events: tracer.take(),
                });
                (result, trace)
            } else {
                (
                    run_scenario(scenario, &config, &RunCtx::new(&factory))
                        .expect("no auditor attached"),
                    None,
                )
            };
            let telemetry = RunTelemetry {
                label: spec.display_label(),
                wall: run_started.elapsed(),
                events: result.counters.events_processed,
                index_rebuilds: result.counters.index_rebuilds,
                placement_fastpath: result.counters.placement_fastpath,
                profile: profiler.snapshot(),
            };
            Ok((result, telemetry, trace))
        };

        let mut slots: Vec<Option<RunOut>> = Vec::new();
        slots.resize_with(n, || None);

        if workers <= 1 {
            for (slot, spec) in slots.iter_mut().zip(&plan.specs) {
                *slot = Some(execute(spec));
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                local.push((i, execute(&plan.specs[i])));
                            }
                            local
                        })
                    })
                    .collect();
                for handle in handles {
                    let local = handle.join().expect("engine worker panicked");
                    for (i, run) in local {
                        slots[i] = Some(run);
                    }
                }
            });
        }

        let mut results = Vec::with_capacity(n);
        let mut runs = Vec::with_capacity(n);
        let mut traces = Vec::with_capacity(n);
        for slot in slots {
            let (result, telemetry, trace) = slot.expect("every plan index executed")?;
            results.push(result);
            runs.push(telemetry);
            traces.push(trace);
        }
        let telemetry = PlanTelemetry {
            runs,
            wall: started.elapsed(),
            scenario_wall,
            workers,
            cache_hits: 0,
        };
        // Feed the deterministic op counts into the process-wide totals
        // the artifact stamp reads; plan-level aggregation keeps the
        // stamped counts independent of worker count.
        crate::artifacts::add_profile(&telemetry.total_profile());
        Ok(PlanOutcome {
            results,
            traces,
            telemetry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcloud::StrategyId;
    use hcloud_audit::AuditMode;
    use hcloud_telemetry::TraceMode;

    #[test]
    fn ambient_fault_plan_changes_cache_key_but_respects_explicit_plans() {
        let off = ExperimentCtx::new(42);
        let chaotic = ExperimentCtx::new(42).with_faults(FaultPlanId::FullChaos);
        let spec = RunSpec::of(ScenarioKind::Static, StrategyId::HM);
        assert_ne!(spec.cache_key(&off), spec.cache_key(&chaotic));
        assert!(spec.effective_config(&off).faults.is_off());
        assert!(!spec.effective_config(&chaotic).faults.is_off());
        // A spec-level plan wins over the ambient one.
        let pinned = spec.clone().faults(FaultPlanId::FlakySpinups.plan());
        assert_eq!(
            pinned.effective_config(&chaotic).faults.name,
            "flaky-spinups"
        );
    }

    #[test]
    fn worker_count_clamps_to_plan_size() {
        let ctx = ExperimentCtx::new(1).with_jobs(8);
        assert_eq!(ctx.worker_count(3), 3);
        assert_eq!(ctx.worker_count(0), 1);
        assert_eq!(ctx.worker_count(100), 8);
    }

    #[test]
    fn specs_build_and_label() {
        let spec = RunSpec::of(ScenarioKind::Static, StrategyId::HM)
            .profiling(false)
            .seed(9);
        assert!(!spec.get_config().profiling);
        assert_eq!(spec.strategy(), StrategyRef::from(StrategyId::HM));
        assert_eq!(spec.scenario_kind(), Some(ScenarioKind::Static));
        assert!(spec.display_label().contains("seed9"));
        let labelled = spec.label("custom-label");
        assert_eq!(labelled.display_label(), "custom-label");
    }

    #[test]
    fn cache_keys_distinguish_configs_and_seeds() {
        let ctx = ExperimentCtx::new(42);
        let a = RunSpec::of(ScenarioKind::Static, StrategyId::HM);
        let b = a.clone().profiling(false);
        let c = a.clone().seed(43);
        let d = a.clone().map_config(|c| c.with_retention_mult(4.0));
        let keys: Vec<String> = [&a, &b, &c, &d].iter().map(|s| s.cache_key(&ctx)).collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "specs {i} and {j} collide");
            }
        }
        // Ambient seed is explicit in the key, so seed(42) == default.
        assert_eq!(a.cache_key(&ctx), a.clone().seed(42).cache_key(&ctx));
    }

    #[test]
    fn parallel_results_match_sequential_and_plan_order() {
        let mut plan = ExperimentPlan::new();
        for strategy in [StrategyId::SR, StrategyId::HM] {
            for seed in [1u64, 2] {
                plan.push(RunSpec::of(ScenarioKind::Static, strategy).seed(seed));
            }
        }
        let ctx = ExperimentCtx::new(42).with_fast(true);
        let seq = Engine::new(ctx.with_jobs(1)).run_plan(&plan);
        let par = Engine::new(ctx.with_jobs(4)).run_plan(&plan);
        assert_eq!(seq.results, par.results);
        assert_eq!(seq.results.len(), 4);
        assert_eq!(par.telemetry.workers, 4);
        // The placement-index counters are deterministic across worker
        // counts and actually fire on the hybrid runs.
        for (s, p) in seq.results.iter().zip(&par.results) {
            assert_eq!(s.counters.index_rebuilds, p.counters.index_rebuilds);
            assert_eq!(s.counters.placement_fastpath, p.counters.placement_fastpath);
        }
        assert!(
            seq.results.iter().any(|r| r.counters.index_rebuilds > 0),
            "hybrid runs must exercise the on-demand indices"
        );
        // Plan order: spec i's strategy at result i.
        for (spec, result) in plan.specs().iter().zip(&seq.results) {
            assert_eq!(spec.strategy(), result.strategy);
        }
        assert!(seq.telemetry.total_events() > 0);
        // Off mode records no traces.
        assert!(seq.traces.iter().all(Option::is_none));
    }

    #[test]
    fn full_trace_mode_records_every_run() {
        let mut plan = ExperimentPlan::new();
        plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::HM).seed(3));
        plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::SR).seed(3));
        let ctx = ExperimentCtx::new(42)
            .with_fast(true)
            .with_trace(TraceMode::Full);
        let outcome = Engine::new(ctx.with_jobs(1)).run_plan(&plan);
        assert_eq!(outcome.traces.len(), 2);
        for (spec, trace) in plan.specs().iter().zip(&outcome.traces) {
            let trace = trace.as_ref().expect("full mode traces every run");
            assert!(!trace.events.is_empty());
            assert_eq!(trace.meta.seed, 3);
            assert_eq!(trace.meta.scenario, "Static");
            assert_eq!(trace.meta.label, spec.display_label());
        }
        // Tracing never perturbs results.
        let plain =
            Engine::new(ExperimentCtx::new(42).with_fast(true).with_jobs(1)).run_plan(&plan);
        assert_eq!(plain.results, outcome.results);
    }

    #[test]
    fn registry_restates_the_summary() {
        let mut plan = ExperimentPlan::new();
        plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::SR));
        let ctx = ExperimentCtx::new(42).with_fast(true).with_jobs(1);
        let outcome = Engine::new(ctx).run_plan(&plan);
        let reg = outcome.telemetry.registry();
        assert_eq!(reg.counter("runs_simulated"), 1);
        assert_eq!(reg.counter("cache_hits"), 0);
        assert_eq!(
            reg.counter("events_processed") as usize,
            outcome.telemetry.total_events()
        );
        assert_eq!(reg.gauge("workers"), Some(1.0));
        assert_eq!(reg.histogram("run_wall_s").unwrap().count(), 1);
        let summary = outcome.telemetry.summary();
        assert!(
            summary.starts_with("1 run(s) + 0 cached on 1 worker(s):"),
            "{summary}"
        );
    }

    #[test]
    fn strict_audit_plan_succeeds_and_matches_unaudited_results() {
        let mut plan = ExperimentPlan::new();
        plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::HM).seed(5));
        plan.push(RunSpec::of(ScenarioKind::HighVariability, StrategyId::ODM).seed(5));
        let ctx = ExperimentCtx::new(42).with_fast(true).with_jobs(2);
        let plain = Engine::new(ctx).run_plan(&plan);
        let audited = Engine::new(ctx.with_audit(AuditMode::Strict))
            .try_run_plan(&plan)
            .expect("clean runs pass a strict audit");
        // Auditing observes the run; it never perturbs it.
        assert_eq!(plain.results, audited.results);
    }

    #[test]
    fn summary_profiling_never_perturbs_results_and_counts_spans() {
        let mut plan = ExperimentPlan::new();
        plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::HM).seed(8));
        plan.push(RunSpec::of(ScenarioKind::LowVariability, StrategyId::ODF).seed(8));
        let ctx = ExperimentCtx::new(42).with_fast(true).with_jobs(2);
        let plain = Engine::new(ctx).run_plan(&plan);
        let profiled = Engine::new(ctx.with_trace(TraceMode::Summary)).run_plan(&plan);
        // Profiling observes the run; it never perturbs it.
        assert_eq!(plain.results, profiled.results);
        // Off mode keeps the profiler fully disabled...
        assert!(plain.telemetry.total_profile().is_empty());
        // ...while summary mode times every span of every run, and the
        // deterministic ops counts surface as registry counters. The plan
        // is untenanted, so only the tenancy span stays at zero.
        let profile = profiled.telemetry.total_profile();
        for span in ProfSpan::ALL {
            if span == ProfSpan::Tenancy {
                assert_eq!(profile.get(span).ops, 0, "untenanted plan");
                continue;
            }
            assert!(
                profile.get(span).ops > 0,
                "span {} never fired",
                span.name()
            );
        }
        let reg = profiled.telemetry.registry();
        assert_eq!(
            reg.counter("prof_find-placement_ops"),
            profile.get(ProfSpan::FindPlacement).ops
        );
        assert_eq!(
            reg.counter("prof_event-pop_ops"),
            profile.get(ProfSpan::EventPop).ops
        );
    }
}
