//! Shared experiment plumbing: a caching facade over the
//! [`crate::engine`] that runs registered experiments.
//!
//! The [`Harness`] owns an [`ExperimentCtx`] (parsed once from the
//! `HCLOUD_*` variables), a scenario cache, and a run cache keyed by the
//! full [`RunSpec`] identity. One harness serves a whole `hcloud-bench`
//! process, so experiments that re-bill or re-aggregate the same
//! simulation (Figures 4, 10, 12, 13, 17 and 18 share their paper
//! strategy runs) simulate it once; everything else flows through the
//! parallel engine, so an experiment saturates the machine by submitting
//! its grid as one [`ExperimentPlan`].
//!
//! [`Harness::run_experiment`] runs one registry entry: its artifacts are
//! stamped with its id, and when it returns, the traces its runs
//! recorded are flushed and its telemetry line goes to stderr.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use hcloud::RunResult;
use hcloud_sim::rng::RngFactory;
use hcloud_telemetry::FlightRecorder;
use hcloud_workloads::{Scenario, ScenarioKind};

use crate::artifacts;
use crate::engine::{Engine, ExperimentPlan, PlanTelemetry, RunSpec, RunTrace};
use crate::env::ExperimentCtx;
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

/// The experiment a harness is running.
struct Running {
    info: &'static ExperimentInfo,
    /// Plans submitted since the experiment started.
    telemetry: PlanTelemetry,
    /// The process-wide `report` span when the experiment started.
    report_before: Duration,
}

/// An experiment harness: run cache in front of the parallel engine.
pub struct Harness {
    engine: Engine,
    scenarios: HashMap<ScenarioKind, Arc<Scenario>>,
    cache: HashMap<String, CacheEntry>,
    session: PlanTelemetry,
    running: Option<Running>,
    /// Traces recorded since the last flush.
    traces: Vec<RunTrace>,
}

impl Harness {
    /// A harness under `ctx`.
    pub fn with_ctx(ctx: ExperimentCtx) -> Harness {
        Harness {
            engine: Engine::new(ctx),
            scenarios: HashMap::new(),
            cache: HashMap::new(),
            session: PlanTelemetry::default(),
            running: None,
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
    pub fn run(&mut self, spec: RunSpec) -> Arc<RunResult> {
        self.run_plan(ExperimentPlan::from(vec![spec]))
            .pop()
            .expect("one spec, one result")
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

        let mut telemetry = PlanTelemetry::default();
        if !missing.is_empty() {
            let sub: ExperimentPlan = missing.iter().map(|(_, s)| s.clone()).collect();
            let outcome = self.engine.run_plan(&sub);
            telemetry = outcome.telemetry;
            self.traces.extend(outcome.traces.into_iter().flatten());
            for ((key, spec), result) in missing.into_iter().zip(outcome.results) {
                let entry = CacheEntry {
                    result: Arc::new(result),
                    scenario: spec.explicit_scenario().cloned(),
                };
                self.cache.insert(key, entry);
            }
        }
        telemetry.cache_hits = plan.len() - telemetry.runs.len();
        self.session.absorb(&telemetry);
        if let Some(running) = &mut self.running {
            running.telemetry.absorb(&telemetry);
        }

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
            telemetry: PlanTelemetry::default(),
            report_before: artifacts::report_span(),
        });
        (info.run)(self);
        // An experiment builds its explicit scenarios itself and drops
        // them when it returns, so no later spec can name them again.
        self.cache.retain(|_, entry| entry.scenario.is_none());
        let running = self.running.take().expect("set above");
        self.flush_traces(info.id);
        let telemetry = &running.telemetry;
        if self.ctx().trace.reports_spans() {
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
        report_line(info.id, telemetry);
    }

    /// Writes `(x, series...)` rows as `results/<name>.json`, stamped with
    /// the running experiment's id. Returns whether the write succeeded;
    /// a failure makes `hcloud-bench` exit nonzero.
    pub fn write_json(&self, name: &str, headers: &[&str], rows: &[Vec<f64>]) -> bool {
        let bench = self.running.as_ref().map(|r| r.info.id);
        report::write_json(bench, name, headers, rows)
    }

    /// Cache hits served so far.
    pub fn cache_hits(&self) -> usize {
        self.session.cache_hits
    }

    /// Simulations actually executed so far.
    pub fn cache_misses(&self) -> usize {
        self.session.runs.len()
    }

    /// Prints the session telemetry line for `name` to stderr (stderr so
    /// figure output on stdout stays byte-identical across worker
    /// counts).
    pub fn report(&self, name: &str) {
        report_line(name, &self.session);
    }

    /// Writes the traces recorded since the last flush to the flight
    /// recorder.
    fn flush_traces(&mut self, name: &str) {
        let traces = std::mem::take(&mut self.traces);
        if traces.is_empty() {
            return;
        }
        let recorder = FlightRecorder::default_dir();
        let mut written = 0usize;
        for trace in &traces {
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
}

/// Prints one engine telemetry line for `name` to stderr.
fn report_line(name: &str, t: &PlanTelemetry) {
    eprintln!(
        "[{name}] engine: {} simulated, {} cached, {} worker(s); {:.2}s wall, {:.2}s simulation ({:.2}x); {} events",
        t.runs.len(),
        t.cache_hits,
        t.workers.max(1),
        t.wall.as_secs_f64(),
        t.cpu_time().as_secs_f64(),
        t.speedup(),
        t.total_events(),
    );
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
}
