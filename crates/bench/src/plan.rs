//! What an experiment submits: typed [`RunSpec`]s gathered into an
//! [`ExperimentPlan`], and the [`RunTrace`] a traced run records.
//!
//! Every point of every figure is an independent, deterministic
//! simulation: a `(scenario, strategy, config, seed)` tuple fully
//! determines its [`hcloud::RunResult`]. A [`RunSpec`] is that tuple and
//! nothing else, so the same spec is the same run wherever it is
//! submitted; [`crate::Harness::run_plan`] simulates a plan's specs and
//! caches each result under the spec's identity.

use std::sync::Arc;

use hcloud::{MappingPolicy, RunConfig, StrategyRef};
use hcloud_telemetry::{RunMeta, TraceEvent};
use hcloud_workloads::{Scenario, ScenarioKind};

use crate::env::ExperimentCtx;

/// Where a [`RunSpec`] gets its scenario.
#[derive(Debug, Clone)]
pub(crate) enum ScenarioSource {
    /// Generated by the harness under this context's scale, one per
    /// `(kind, seed)`.
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
    pub(crate) scenario: ScenarioSource,
    pub(crate) config: RunConfig,
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
    /// configuration, fault plan included:
    /// `spec.map_config(|c| c.with_retention_mult(4.0))`.
    pub fn map_config(mut self, f: impl FnOnce(RunConfig) -> RunConfig) -> RunSpec {
        self.config = f(self.config);
        self
    }

    /// Attaches a human-readable label for telemetry output.
    pub fn label(mut self, label: impl Into<String>) -> RunSpec {
        self.label = Some(label.into());
        self
    }

    /// This run's master seed under `ctx`: its own, or the ambient one.
    pub(crate) fn seed_under(&self, ctx: &ExperimentCtx) -> u64 {
        self.seed.unwrap_or(ctx.master_seed)
    }

    /// The label shown in telemetry: explicit, or derived.
    pub(crate) fn display_label(&self) -> String {
        if let Some(l) = &self.label {
            return l.clone();
        }
        let scenario = self.scenario_name();
        match self.seed {
            Some(seed) => format!("{scenario}/{}/seed{seed}", self.config.strategy),
            None => format!("{scenario}/{}", self.config.strategy),
        }
    }

    /// The scenario's name in labels and trace headers.
    fn scenario_name(&self) -> String {
        match &self.scenario {
            ScenarioSource::Kind(kind) => format!("{kind:?}"),
            ScenarioSource::Explicit(_) => "custom".to_string(),
        }
    }

    /// The flight-recorder identity of this run under `ctx`.
    pub(crate) fn run_meta(&self, ctx: &ExperimentCtx) -> RunMeta {
        RunMeta {
            label: self.display_label(),
            scenario: self.scenario_name(),
            strategy: self.config.strategy.to_string(),
            seed: self.seed_under(ctx),
        }
    }

    /// In-process cache identity: the scenario source, seed, and the full
    /// configuration (via its `Debug` form, which round-trips every field
    /// including floats).
    pub(crate) fn cache_key(&self, ctx: &ExperimentCtx) -> String {
        let scenario = match &self.scenario {
            ScenarioSource::Kind(kind) => format!("kind:{kind:?}"),
            // Pointer identity: valid only while the allocation lives,
            // so the harness's cache entry holds the scenario.
            // Distinct-but-equal scenarios miss the cache (costing time,
            // never correctness).
            ScenarioSource::Explicit(s) => format!("ptr:{:p}", Arc::as_ptr(s)),
        };
        format!("{scenario}|seed:{}|{:?}", self.seed_under(ctx), self.config)
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

/// One run's recorded trace: identity plus the sim-time-ordered event
/// stream. Recorded only under [`TraceMode::Full`].
///
/// [`TraceMode::Full`]: hcloud_telemetry::TraceMode::Full
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// The run's flight-recorder identity (header line of its file).
    pub meta: RunMeta,
    /// The structured events, in sim-time order.
    pub events: Vec<TraceEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcloud::StrategyId;

    #[test]
    fn specs_build_and_label() {
        let spec = RunSpec::of(ScenarioKind::Static, StrategyId::HM)
            .profiling(false)
            .seed(9);
        assert!(!spec.config.profiling);
        assert_eq!(spec.config.strategy, StrategyRef::from(StrategyId::HM));
        assert!(matches!(
            spec.scenario,
            ScenarioSource::Kind(ScenarioKind::Static)
        ));
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
        let e = a
            .clone()
            .map_config(|c| c.with_faults(hcloud_faults::FaultPlanId::FullChaos.plan()));
        let keys: Vec<String> = [&a, &b, &c, &d, &e]
            .iter()
            .map(|s| s.cache_key(&ctx))
            .collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "specs {i} and {j} collide");
            }
        }
        // Ambient seed is explicit in the key, so seed(42) == default.
        assert_eq!(a.cache_key(&ctx), a.clone().seed(42).cache_key(&ctx));
    }
}
