//! Shared experiment plumbing for the figure binaries: a thin caching
//! facade over the [`crate::engine`].
//!
//! The [`Harness`] owns an [`ExperimentCtx`] (parsed once from
//! `HCLOUD_SEED` / `HCLOUD_FAST` / `HCLOUD_JOBS`), a scenario cache, and
//! a run cache keyed by the full [`RunSpec`] identity. Sweeps that
//! re-bill or re-aggregate the same simulation (Figures 12, 13, 17) hit
//! the cache; everything else flows through the parallel engine, so a
//! figure binary saturates the machine by submitting its grid as one
//! [`ExperimentPlan`].

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

use hcloud::RunResult;
use hcloud_sim::rng::RngFactory;
use hcloud_telemetry::FlightRecorder;
use hcloud_workloads::{Scenario, ScenarioKind};

use crate::artifacts;
use crate::engine::{Engine, ExperimentPlan, PlanTelemetry, RunSpec, RunTrace};
use crate::env::ExperimentCtx;
use crate::registry::{self, ExperimentInfo};

/// Generates the paper scenario for `kind` under the ambient
/// seed/fast-mode environment (hard error on malformed variables).
pub fn paper_scenario(kind: ScenarioKind) -> Scenario {
    let ctx = ExperimentCtx::from_env_or_exit();
    ctx.scenario(kind, None)
}

/// An experiment harness: run cache in front of the parallel engine.
pub struct Harness {
    engine: Engine,
    scenarios: HashMap<ScenarioKind, Arc<Scenario>>,
    cache: HashMap<String, Arc<RunResult>>,
    session: PlanTelemetry,
    cache_hits: usize,
    traces: Vec<RunTrace>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// A harness under the ambient environment (exits with a clear
    /// message on malformed `HCLOUD_*` variables).
    pub fn new() -> Harness {
        Harness::with_ctx(ExperimentCtx::from_env_or_exit())
    }

    /// [`Harness::new`], announcing `info` as the running experiment so
    /// every artifact this process writes is stamped with its registry
    /// id (see [`registry::announce`]).
    pub fn for_experiment(info: &'static ExperimentInfo) -> Harness {
        registry::announce(info);
        Harness::new()
    }

    /// A harness under an explicit context (tests, library callers).
    pub fn with_ctx(ctx: ExperimentCtx) -> Harness {
        Harness {
            engine: Engine::new(ctx),
            scenarios: HashMap::new(),
            cache: HashMap::new(),
            session: PlanTelemetry::default(),
            cache_hits: 0,
            traces: Vec::new(),
        }
    }

    /// The ambient experiment context.
    pub fn ctx(&self) -> &ExperimentCtx {
        self.engine.ctx()
    }

    /// The RNG factory runs under the ambient seed use.
    pub fn factory(&self) -> RngFactory {
        RngFactory::new(self.ctx().master_seed)
    }

    /// The (cached) ambient-seed scenario for `kind`.
    pub fn scenario(&mut self, kind: ScenarioKind) -> &Scenario {
        let ctx = *self.engine.ctx();
        self.scenarios
            .entry(kind)
            .or_insert_with(|| Arc::new(ctx.scenario(kind, None)))
    }

    /// Runs one spec (or returns its cached result). For grids, prefer
    /// [`Harness::run_plan`], which fans out across all cores.
    pub fn run(&mut self, spec: RunSpec) -> &RunResult {
        let key = spec.cache_key(self.engine.ctx());
        if !self.cache.contains_key(&key) {
            let outcome = self.engine.run_plan(&ExperimentPlan::from(vec![spec]));
            self.session.absorb(&outcome.telemetry);
            self.traces.extend(outcome.traces.into_iter().flatten());
            let result = outcome.results.into_iter().next().expect("one result");
            self.cache.insert(key.clone(), Arc::new(result));
        } else {
            self.cache_hits += 1;
        }
        self.cache.get(&key).expect("just inserted")
    }

    /// Runs a whole plan through the engine, consulting the cache per
    /// spec. Results come back in plan order, bit-identical for any
    /// worker count.
    pub fn run_plan(&mut self, plan: ExperimentPlan) -> Vec<Arc<RunResult>> {
        let ctx = *self.engine.ctx();
        let keys: Vec<String> = plan.specs().iter().map(|s| s.cache_key(&ctx)).collect();

        // Dedup within the plan too: identical specs simulate once.
        let mut missing: Vec<(String, RunSpec)> = Vec::new();
        for (key, spec) in keys.iter().zip(plan.specs()) {
            if !self.cache.contains_key(key) && missing.iter().all(|(k, _)| k != key) {
                missing.push((key.clone(), spec.clone()));
            }
        }

        let hits = plan.len() - missing.len();
        self.cache_hits += hits;
        if !missing.is_empty() {
            let sub: ExperimentPlan = missing.iter().map(|(_, s)| s.clone()).collect();
            let outcome = self.engine.run_plan(&sub);
            let mut telemetry = outcome.telemetry;
            telemetry.cache_hits = hits;
            self.session.absorb(&telemetry);
            self.traces.extend(outcome.traces.into_iter().flatten());
            for ((key, _), result) in missing.into_iter().zip(outcome.results) {
                self.cache.insert(key, Arc::new(result));
            }
        }

        keys.iter()
            .map(|key| Arc::clone(self.cache.get(key).expect("all plan keys resolved")))
            .collect()
    }

    /// Session telemetry: every simulated run so far, plus cache counts.
    pub fn telemetry(&self) -> &PlanTelemetry {
        &self.session
    }

    /// Cache hits served so far.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Simulations actually executed so far.
    pub fn cache_misses(&self) -> usize {
        self.session.runs.len()
    }

    /// Traces recorded so far this session (non-empty only under
    /// `HCLOUD_TRACE=full`), in submission order.
    pub fn traces(&self) -> &[RunTrace] {
        &self.traces
    }

    /// Prints the session telemetry line for `name` to stderr (stderr so
    /// figure output on stdout stays byte-identical across worker
    /// counts).
    pub fn report(&self, name: &str) {
        eprintln!(
            "[{name}] engine: {} simulated, {} cached, {} worker(s); {:.2}s wall, {:.2}s simulation ({:.2}x); {} events",
            self.cache_misses(),
            self.cache_hits(),
            self.session.workers.max(1),
            self.session.wall.as_secs_f64(),
            self.session.cpu_time().as_secs_f64(),
            self.session.speedup(),
            self.session.total_events(),
        );
    }

    /// End-of-binary bookkeeping: flushes recorded traces to the flight
    /// recorder (`HCLOUD_TRACE=full`), prints the per-phase spans
    /// (`summary` and up) and the session telemetry line, and returns
    /// the exit code — nonzero when any artifact write failed.
    pub fn finish(&self, name: &str) -> ExitCode {
        if self.ctx().trace.records_events() {
            let recorder = FlightRecorder::default_dir();
            let mut written = 0usize;
            for trace in &self.traces {
                match recorder.write(&trace.meta, &trace.events) {
                    Ok(_) => written += 1,
                    Err(e) => artifacts::artifact_failure(
                        format!("write {}", recorder.path_for(&trace.meta).display()),
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
        if self.ctx().trace.reports_spans() {
            eprintln!(
                "[{name}] phases: scenario-gen {:.2}s, sim {:.2}s, report {:.2}s",
                self.session.scenario_wall.as_secs_f64(),
                self.session.cpu_time().as_secs_f64(),
                artifacts::report_span().as_secs_f64(),
            );
            let profile = self.session.total_profile();
            if !profile.is_empty() {
                eprintln!("[{name}] profile: {}", profile.summary());
            }
        }
        self.report(name);
        artifacts::exit_code()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcloud::{StrategyId, StrategyRef};

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
}
