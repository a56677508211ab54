//! The experiment harness: the one layer between an experiment and
//! `run_scenario`.
//!
//! An experiment describes its whole sweep as an [`ExperimentPlan`] and
//! submits it to [`Harness::run_plan`]. The harness serves each spec it
//! has simulated before from a run cache keyed by the full [`RunSpec`]
//! identity, generates each scenario a spec names once per
//! `(kind, seed)`, and fans the remaining simulations out across a
//! scoped thread pool (`std::thread::scope`; no extra dependencies),
//! collecting results **in plan order**:
//!
//! ```text
//! plan ──► run cache ──► scenario map (kind, seed) ──► worker pool (HCLOUD_JOBS)
//!                                                   ──► plan-order slots + telemetry
//! ```
//!
//! Determinism holds because each run draws only from its own
//! [`RngFactory`] (seeded from the spec) and reads an immutable shared
//! scenario; workers share nothing mutable beyond the work-stealing
//! index, and each result lands in the slot its plan index names. So
//! results, stdout and traces are bit-identical for any worker count.
//!
//! The [`ExperimentCtx`] (parsed once from the `HCLOUD_*` variables) sets
//! the seed, the scale and the three modes that observe a run: the
//! worker count, tracing and auditing. One harness serves a whole
//! `hcloud-bench` process, so experiments that re-bill or re-aggregate
//! the same simulation (Figures 4, 10, 12, 13, 17 and 18 share their
//! paper strategy runs) simulate it once.
//!
//! [`Harness::run_experiment`] runs one registry entry: its artifacts are
//! stamped with its id, and when it returns, the traces its runs
//! recorded are flushed, one file per simulated run, and its telemetry
//! line goes to stderr.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcloud::runner::{run_scenario, RunCtx};
use hcloud::RunResult;
use hcloud_audit::Auditor;
use hcloud_sim::rng::RngFactory;
use hcloud_telemetry::{FlightRecorder, ProfileSnapshot, Profiler, Tracer};
use hcloud_workloads::{Scenario, ScenarioKind};

use crate::artifacts;
use crate::env::ExperimentCtx;
use crate::plan::{ExperimentPlan, RunSpec, RunTrace, ScenarioSource};
use crate::registry::ExperimentInfo;
use crate::report;

/// One cached simulation.
struct CacheEntry {
    result: Arc<RunResult>,
    /// An explicit spec's scenario. Its key is the scenario's address, so
    /// the entry holds the allocation: no other scenario can be built at
    /// that address while the key exists.
    scenario: Option<Arc<Scenario>>,
}

/// What one simulation cost.
#[derive(Debug, Clone)]
struct RunTelemetry {
    /// Wall-clock time of this simulation.
    wall: Duration,
    /// Events its discrete-event loop processed.
    events: usize,
    /// Per-subsystem profiling spans (op counts are deterministic; wall
    /// clock is machine-dependent). Empty unless the context's trace
    /// mode reports spans.
    profile: ProfileSnapshot,
}

/// What one submitted plan cost: the harness keeps one per plan, and the
/// per-experiment and session lines sum them.
#[derive(Debug, Clone, Default)]
struct PlanTelemetry {
    /// One record per simulated run, in plan order (cache hits don't
    /// appear).
    runs: Vec<RunTelemetry>,
    /// Specs served from the run cache.
    cache_hits: usize,
    /// Wall-clock time of the plan's simulations, scenarios included.
    wall: Duration,
    /// Wall-clock time spent finding or generating scenarios (the
    /// `scenario-gen` span).
    scenario_wall: Duration,
    /// Worker threads used.
    workers: usize,
}

impl PlanTelemetry {
    /// The totals of `plans`: their runs in submission order, their times
    /// and cache hits summed, the most workers any used.
    fn sum(plans: &[PlanTelemetry]) -> PlanTelemetry {
        let mut total = PlanTelemetry::default();
        for plan in plans {
            total.runs.extend(plan.runs.iter().cloned());
            total.cache_hits += plan.cache_hits;
            total.wall += plan.wall;
            total.scenario_wall += plan.scenario_wall;
            total.workers = total.workers.max(plan.workers);
        }
        total
    }

    /// Total simulation time across runs — what a sequential executor
    /// would have paid.
    fn cpu_time(&self) -> Duration {
        self.runs.iter().map(|r| r.wall).sum()
    }

    /// Per-subsystem profiling spans summed across runs (empty unless
    /// the trace mode reports spans).
    fn total_profile(&self) -> ProfileSnapshot {
        let mut total = ProfileSnapshot::default();
        for run in &self.runs {
            total.absorb(&run.profile);
        }
        total
    }
}

/// One simulated run: its result, its cost and, under
/// `HCLOUD_TRACE=full`, its trace.
struct Simulated {
    result: RunResult,
    telemetry: RunTelemetry,
    trace: Option<RunTrace>,
}

/// The experiment a harness is running.
struct Running {
    info: &'static ExperimentInfo,
    /// The index in [`Harness::plans`] of the experiment's first plan.
    first_plan: usize,
    /// The process-wide `report` span when the experiment started.
    report_before: Duration,
}

/// An experiment harness: a run cache in front of a worker pool.
pub struct Harness {
    ctx: ExperimentCtx,
    /// Every scenario generated so far, keyed by `(kind, seed)`: serves
    /// [`Harness::scenario`] and every [`RunSpec::of`].
    scenarios: HashMap<(ScenarioKind, u64), Arc<Scenario>>,
    cache: HashMap<String, CacheEntry>,
    /// One record per submitted plan, in submission order.
    plans: Vec<PlanTelemetry>,
    running: Option<Running>,
    /// Traces recorded since the last [`Harness::take_traces`].
    traces: Vec<RunTrace>,
}

impl Harness {
    /// A harness under `ctx`.
    pub fn with_ctx(ctx: ExperimentCtx) -> Harness {
        Harness {
            ctx,
            scenarios: HashMap::new(),
            cache: HashMap::new(),
            plans: Vec::new(),
            running: None,
            traces: Vec::new(),
        }
    }

    /// The ambient experiment context.
    pub fn ctx(&self) -> &ExperimentCtx {
        &self.ctx
    }

    /// The RNG factory runs under the ambient seed use.
    pub fn factory(&self) -> RngFactory {
        RngFactory::new(self.ctx.master_seed)
    }

    /// The (cached) ambient-seed scenario for `kind`.
    pub fn scenario(&mut self, kind: ScenarioKind) -> &Scenario {
        self.generated(kind, self.ctx.master_seed)
    }

    /// The scenario `kind` under `seed` at this context's scale,
    /// generated on first use.
    fn generated(&mut self, kind: ScenarioKind, seed: u64) -> &Arc<Scenario> {
        let ctx = self.ctx;
        self.scenarios.entry((kind, seed)).or_insert_with(|| {
            Arc::new(Scenario::generate(
                ctx.scenario_config(kind),
                &RngFactory::new(seed),
            ))
        })
    }

    /// Runs one spec (or returns its cached result). For grids, prefer
    /// [`Harness::run_plan`], which fans out across all cores.
    pub fn run(&mut self, spec: RunSpec) -> Arc<RunResult> {
        self.run_plan(ExperimentPlan::from(vec![spec]))
            .pop()
            .expect("one spec, one result")
    }

    /// Runs a whole plan: each spec is served from the cache or
    /// simulated, identical specs once. Results come back in plan order,
    /// bit-identical for any worker count.
    ///
    /// An audit violation (`HCLOUD_AUDIT=final`/`strict`) is a hard
    /// failure: `error: run <label>: <violation>` is printed for the
    /// first failing spec in plan order and the process exits 3 — a run
    /// that broke a conservation identity must never land in a figure.
    pub fn run_plan(&mut self, plan: ExperimentPlan) -> Vec<Arc<RunResult>> {
        let keys: Vec<String> = plan
            .specs()
            .iter()
            .map(|s| s.cache_key(&self.ctx))
            .collect();
        let mut missing: Vec<(String, RunSpec)> = Vec::new();
        for (key, spec) in keys.iter().zip(plan.specs()) {
            if !self.cache.contains_key(key) && missing.iter().all(|(k, _)| k != key) {
                missing.push((key.clone(), spec.clone()));
            }
        }

        let mut telemetry = PlanTelemetry {
            cache_hits: plan.len() - missing.len(),
            ..PlanTelemetry::default()
        };
        if !missing.is_empty() {
            let started = Instant::now();
            let scenarios: Vec<Arc<Scenario>> = missing
                .iter()
                .map(|(_, spec)| match &spec.scenario {
                    ScenarioSource::Kind(kind) => {
                        Arc::clone(self.generated(*kind, spec.seed_under(&self.ctx)))
                    }
                    ScenarioSource::Explicit(s) => Arc::clone(s),
                })
                .collect();
            telemetry.scenario_wall = started.elapsed();
            let runs: Vec<(&RunSpec, &Scenario)> = missing
                .iter()
                .zip(&scenarios)
                .map(|((_, spec), scenario)| (spec, scenario.as_ref()))
                .collect();
            let (simulated, workers) = simulate(&self.ctx, &runs);
            telemetry.workers = workers;
            for (((key, spec), scenario), run) in missing.into_iter().zip(scenarios).zip(simulated)
            {
                telemetry.runs.push(run.telemetry);
                self.traces.extend(run.trace);
                let scenario =
                    matches!(spec.scenario, ScenarioSource::Explicit(_)).then_some(scenario);
                let entry = CacheEntry {
                    result: Arc::new(run.result),
                    scenario,
                };
                self.cache.insert(key, entry);
            }
            telemetry.wall = started.elapsed();
        }
        self.plans.push(telemetry);

        keys.iter()
            .map(|key| Arc::clone(&self.cache[key].result))
            .collect()
    }

    /// Runs one registered experiment: the artifacts it writes through
    /// [`Harness::write_json`] are stamped with its id; afterwards its
    /// traces are flushed (`HCLOUD_TRACE=full`) and its spans (`summary`
    /// and up) and telemetry line go to stderr. Runs an earlier
    /// experiment already simulated are served from the cache, so they
    /// are neither simulated nor traced again.
    pub fn run_experiment(&mut self, info: &'static ExperimentInfo) {
        self.running = Some(Running {
            info,
            first_plan: self.plans.len(),
            report_before: artifacts::report_span(),
        });
        (info.run)(self);
        // An experiment builds its explicit scenarios itself and drops
        // them when it returns, so no later spec can name them again.
        self.cache.retain(|_, entry| entry.scenario.is_none());
        let running = self.running.take().expect("set above");
        self.flush_traces(info.id);
        let telemetry = PlanTelemetry::sum(&self.plans[running.first_plan..]);
        if self.ctx.trace.reports_spans() {
            eprintln!(
                "[{}] phases: scenario-gen {:.2}s, sim {:.2}s, report {:.2}s",
                info.id,
                telemetry.scenario_wall.as_secs_f64(),
                telemetry.cpu_time().as_secs_f64(),
                (artifacts::report_span() - running.report_before).as_secs_f64(),
            );
            let profile = telemetry.total_profile();
            if !profile.is_empty() {
                eprintln!("[{}] profile: {}", info.id, profile.summary());
            }
        }
        report_line(info.id, &telemetry);
    }

    /// Writes `(x, series...)` rows as `results/<name>.json`, stamped with
    /// the running experiment's id. Returns whether the write succeeded;
    /// a failure makes `hcloud-bench` exit nonzero.
    pub fn write_json(&self, name: &str, headers: &[&str], rows: &[Vec<f64>]) -> bool {
        let bench = self.running.as_ref().map(|r| r.info.id);
        report::write_json(bench, name, headers, rows)
    }

    /// The traces recorded since the last call: one per simulated run, in
    /// the order the runs were submitted. Empty unless
    /// `HCLOUD_TRACE=full`.
    pub fn take_traces(&mut self) -> Vec<RunTrace> {
        std::mem::take(&mut self.traces)
    }

    /// Cache hits served so far.
    pub fn cache_hits(&self) -> usize {
        self.plans.iter().map(|p| p.cache_hits).sum()
    }

    /// Simulations actually executed so far.
    pub fn cache_misses(&self) -> usize {
        self.plans.iter().map(|p| p.runs.len()).sum()
    }

    /// Prints the session telemetry line for `name` to stderr (stderr so
    /// figure output on stdout stays byte-identical across worker
    /// counts).
    pub fn report(&self, name: &str) {
        report_line(name, &PlanTelemetry::sum(&self.plans));
    }

    /// Writes the traces recorded since the last flush to the flight
    /// recorder, one file per run: `<name>-<sequence>-<label>.jsonl`,
    /// where the sequence is the run's submission order since the last
    /// flush, so names are unique and the same for any worker count.
    /// [`Harness::run_experiment`] flushes under the experiment's id; a
    /// caller that submits plans directly flushes under a name of its own.
    /// A failed write is reported through [`artifacts::artifact_failure`].
    pub fn flush_traces(&mut self, name: &str) {
        let traces = self.take_traces();
        if traces.is_empty() {
            return;
        }
        let recorder = FlightRecorder::default_dir();
        let mut written = 0usize;
        for (seq, trace) in traces.iter().enumerate() {
            let stem = format!("{name}-{seq:03}-{}", trace.meta.label);
            match recorder.write(&stem, &trace.meta, &trace.events) {
                Ok(_) => written += 1,
                Err(e) => artifacts::artifact_failure(
                    format!("write {}", recorder.path_for(&stem).display()),
                    e,
                ),
            }
        }
        if written > 0 {
            eprintln!(
                "[{name}] (wrote {written} trace(s) under {})",
                recorder.dir().display()
            );
        }
    }
}

/// Simulates `runs` on up to `ctx.worker_count(runs.len())` scoped
/// threads and returns their outcomes with the worker count. Run `i`'s
/// outcome lands in slot `i`, so the order, and every byte, is the same
/// for any worker count. An audit violation prints `error: run <label>:
/// <violation>` for the first failing run in order and exits 3.
fn simulate(ctx: &ExperimentCtx, runs: &[(&RunSpec, &Scenario)]) -> (Vec<Simulated>, usize) {
    let n = runs.len();
    let workers = ctx.worker_count(n);
    let tracing = ctx.trace.records_events();
    let profiling = ctx.trace.reports_spans();
    let audit = ctx.audit;

    let execute = |&(spec, scenario): &(&RunSpec, &Scenario)| -> Result<Simulated, String> {
        let factory = RngFactory::new(spec.seed_under(ctx));
        let started = Instant::now();
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
                &spec.config,
                &RunCtx::new(&factory)
                    .with_tracer(&tracer)
                    .with_auditor(&auditor)
                    .with_profiler(&profiler),
            )
            .map_err(|violation| format!("run {}: {violation}", spec.display_label()))?;
            let trace = tracing.then(|| RunTrace {
                meta: spec.run_meta(ctx),
                events: tracer.take(),
            });
            (result, trace)
        } else {
            (
                run_scenario(scenario, &spec.config, &RunCtx::new(&factory))
                    .expect("no auditor attached"),
                None,
            )
        };
        let telemetry = RunTelemetry {
            wall: started.elapsed(),
            events: result.counters.events_processed,
            profile: profiler.snapshot(),
        };
        Ok(Simulated {
            result,
            telemetry,
            trace,
        })
    };

    let mut slots: Vec<Option<Result<Simulated, String>>> = Vec::new();
    slots.resize_with(n, || None);
    if workers <= 1 {
        for (slot, run) in slots.iter_mut().zip(runs) {
            *slot = Some(execute(run));
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
                            local.push((i, execute(&runs[i])));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                let local = handle.join().expect("harness worker panicked");
                for (i, run) in local {
                    slots[i] = Some(run);
                }
            }
        });
    }

    let simulated = slots
        .into_iter()
        .map(|slot| {
            slot.expect("every run executed").unwrap_or_else(|message| {
                eprintln!("error: {message}");
                std::process::exit(3);
            })
        })
        .collect();
    (simulated, workers)
}

/// Prints one `[name] engine: …` telemetry line to stderr.
fn report_line(name: &str, t: &PlanTelemetry) {
    let cpu = t.cpu_time().as_secs_f64();
    eprintln!(
        "[{name}] engine: {} simulated, {} cached, {} worker(s); {:.2}s wall, {:.2}s simulation ({:.2}x); {} events",
        t.runs.len(),
        t.cache_hits,
        t.workers.max(1),
        t.wall.as_secs_f64(),
        cpu,
        cpu / t.wall.as_secs_f64().max(1e-9),
        t.runs.iter().map(|r| r.events).sum::<usize>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcloud::{StrategyId, StrategyRef};
    use hcloud_audit::AuditMode;
    use hcloud_telemetry::{ProfSpan, TraceMode};

    fn fast_harness() -> Harness {
        Harness::with_ctx(ExperimentCtx::new(42).with_fast(true).with_jobs(2))
    }

    #[test]
    fn run_caches_identical_specs() {
        let mut h = fast_harness();
        let spec = RunSpec::of(ScenarioKind::Static, StrategyId::SR);
        let a = h.run(spec.clone()).makespan;
        assert_eq!(h.cache_misses(), 1);
        assert_eq!(h.cache_hits(), 0);
        let b = h.run(spec).makespan;
        assert_eq!(a, b);
        assert_eq!(h.cache_misses(), 1);
        assert_eq!(h.cache_hits(), 1);
    }

    #[test]
    fn plan_results_come_back_in_plan_order_and_hit_cache() {
        let mut h = fast_harness();
        let strategies = [StrategyId::SR, StrategyId::ODM, StrategyId::HM];
        let plan: ExperimentPlan = strategies
            .iter()
            .map(|&s| RunSpec::of(ScenarioKind::Static, s))
            .collect();
        let results = h.run_plan(plan.clone());
        assert_eq!(results.len(), 3);
        for (&s, r) in strategies.iter().zip(&results) {
            assert_eq!(r.strategy, StrategyRef::from(s));
        }
        assert_eq!(h.cache_misses(), 3);

        // Resubmitting is free and identical.
        let again = h.run_plan(plan);
        assert_eq!(h.cache_misses(), 3);
        assert_eq!(h.cache_hits(), 3);
        for (a, b) in results.iter().zip(&again) {
            assert_eq!(a.as_ref(), b.as_ref());
        }
    }

    #[test]
    fn plan_dedups_identical_specs() {
        let mut h = fast_harness();
        let spec = RunSpec::of(ScenarioKind::Static, StrategyId::ODF);
        let results = h.run_plan(ExperimentPlan::from(vec![spec.clone(), spec]));
        assert_eq!(results.len(), 2);
        assert_eq!(h.cache_misses(), 1);
        assert_eq!(results[0].as_ref(), results[1].as_ref());
    }

    #[test]
    fn dropped_explicit_scenarios_never_alias_a_cached_run() {
        // Each scenario is dropped before the next is generated, so the
        // allocator is free to hand the next one the same address; the
        // cache must still simulate every one of them.
        let mut h = fast_harness();
        let ctx = *h.ctx();
        for (seed, fraction) in [(1, 0.0), (2, 0.2), (3, 0.4), (4, 0.6), (5, 0.8), (6, 1.0)] {
            let mut config = ctx.scenario_config(ScenarioKind::HighVariability);
            config.sensitive_fraction = Some(fraction);
            let scenario = Arc::new(Scenario::generate(config, &RngFactory::new(seed)));
            let jobs = scenario.jobs().len();
            let result = h.run(RunSpec::on(scenario, StrategyId::HM));
            assert_eq!(
                result.outcomes.len(),
                jobs,
                "seed {seed}: served another scenario's result"
            );
        }
        assert_eq!(h.cache_misses(), 6);
    }

    #[test]
    fn scenario_map_serves_ambient_and_spec_seeds_once() {
        let mut h = fast_harness();
        let ambient: *const Scenario = h.scenario(ScenarioKind::Static);
        h.run_plan(
            [42, 7]
                .into_iter()
                .map(|seed| RunSpec::of(ScenarioKind::Static, StrategyId::SR).seed(seed))
                .collect(),
        );
        // Seed 42 is the ambient seed: the plan reused its scenario.
        assert_eq!(h.scenarios.len(), 2);
        assert!(std::ptr::eq(ambient, h.scenario(ScenarioKind::Static)));
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
        let mut seq = Harness::with_ctx(ctx.with_jobs(1));
        let mut par = Harness::with_ctx(ctx.with_jobs(4));
        let (a, b) = (seq.run_plan(plan.clone()), par.run_plan(plan.clone()));
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(par.plans[0].workers, 4);
        // The placement-index counters are deterministic across worker
        // counts and actually fire on the hybrid runs.
        for (s, p) in a.iter().zip(&b) {
            assert_eq!(s.counters.index_rebuilds, p.counters.index_rebuilds);
            assert_eq!(s.counters.placement_fastpath, p.counters.placement_fastpath);
        }
        assert!(
            a.iter().any(|r| r.counters.index_rebuilds > 0),
            "hybrid runs must exercise the on-demand indices"
        );
        // Plan order: spec i's strategy at result i.
        for (spec, result) in plan.specs().iter().zip(&a) {
            assert_eq!(spec.config.strategy, result.strategy);
        }
        assert!(seq.plans[0].runs.iter().all(|r| r.events > 0));
        // Off mode records no traces.
        assert!(seq.take_traces().is_empty());
    }

    #[test]
    fn full_trace_mode_records_every_run() {
        let mut plan = ExperimentPlan::new();
        plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::HM).seed(3));
        plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::SR).seed(3));
        let ctx = ExperimentCtx::new(42).with_fast(true).with_jobs(1);
        let mut traced = Harness::with_ctx(ctx.with_trace(TraceMode::Full));
        let results = traced.run_plan(plan.clone());
        let traces = traced.take_traces();
        assert_eq!(traces.len(), 2);
        for (spec, trace) in plan.specs().iter().zip(&traces) {
            assert!(!trace.events.is_empty());
            assert_eq!(trace.meta.seed, 3);
            assert_eq!(trace.meta.scenario, "Static");
            assert_eq!(trace.meta.label, spec.display_label());
        }
        assert!(traced.take_traces().is_empty(), "taken once");
        // Tracing never perturbs results.
        assert_eq!(Harness::with_ctx(ctx).run_plan(plan), results);
    }

    #[test]
    fn strict_audit_plan_succeeds_and_matches_unaudited_results() {
        let mut plan = ExperimentPlan::new();
        plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::HM).seed(5));
        plan.push(RunSpec::of(ScenarioKind::HighVariability, StrategyId::ODM).seed(5));
        let ctx = ExperimentCtx::new(42).with_fast(true).with_jobs(2);
        let plain = Harness::with_ctx(ctx).run_plan(plan.clone());
        // A violation would exit the process; clean runs come back.
        let audited = Harness::with_ctx(ctx.with_audit(AuditMode::Strict)).run_plan(plan);
        // Auditing observes the run; it never perturbs it.
        assert_eq!(plain, audited);
    }

    #[test]
    fn summary_profiling_never_perturbs_results_and_counts_spans() {
        let mut plan = ExperimentPlan::new();
        plan.push(RunSpec::of(ScenarioKind::Static, StrategyId::HM).seed(8));
        plan.push(RunSpec::of(ScenarioKind::LowVariability, StrategyId::ODF).seed(8));
        let ctx = ExperimentCtx::new(42).with_fast(true).with_jobs(2);
        let mut plain = Harness::with_ctx(ctx);
        let mut profiled = Harness::with_ctx(ctx.with_trace(TraceMode::Summary));
        // Profiling observes the run; it never perturbs it.
        assert_eq!(plain.run_plan(plan.clone()), profiled.run_plan(plan));
        // Off mode keeps the profiler fully disabled...
        assert!(PlanTelemetry::sum(&plain.plans).total_profile().is_empty());
        // ...while summary mode times every span of every run. The plan is
        // untenanted, so only the tenancy span stays at zero.
        let profile = PlanTelemetry::sum(&profiled.plans).total_profile();
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
    }
}
