//! The four workloads: how each turns the seed into simulator inputs, and
//! how one rep runs them.
//!
//! Every constant here is part of the frozen benchmark definition. They
//! are copied from the experiments they imitate rather than read from
//! them, so a later change to an experiment binary cannot move the
//! benchmark.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hcloud::config::SpotPolicy;
use hcloud::runner::{run_scenario, RunCtx};
use hcloud::{RunConfig, RunResult, StrategyRef, StrategyRegistry};
use hcloud_audit::{AuditMode, Auditor};
use hcloud_faults::FaultPlanId;
use hcloud_sim::rng::RngFactory;
use hcloud_sim::SimDuration;
use hcloud_telemetry::Profiler;
use hcloud_tenancy::TenancyPlan;
use hcloud_workloads::{JobKind, Scenario, ScenarioConfig, ScenarioDsl, ScenarioKind};

/// The seed of the reference inputs every run's simulated outcomes
/// (`sim_*`) are measured on, whatever seed its timed reps use.
pub const REFERENCE_SEED: u64 = 42;

/// fleet-odm: `perf_fleet`'s 1M-job run, the high-variability window
/// densified to a 7.2 ms mean inter-arrival at load x5.0. At seed 42 it
/// is the run of `BENCH_fleet.json` (digest 3e5b9052d574d23c).
const FLEET_INTERARRIVAL_US: u64 = 7_200;
const FLEET_LOAD_SCALE: f64 = 5.0;
/// OdM with a 0.05x retention window re-acquires constantly: the
/// instance arena grows past 100k instances.
const FLEET_RETENTION_MULT: f64 = 0.05;

/// long-horizon: the 14-day diurnal DSL example at a quarter of its load
/// (the same 26.8k arrivals, a quarter of the concurrent jobs), so one
/// rep takes ~1 s while keeping the two-week horizon, weekends and spot.
const DIURNAL_DOC: &str = include_str!("../inputs/diurnal-2w.json");

/// tenant-zipf: `ext_multi_tenant`'s full-mode tenant population over
/// the paper's two-hour high-variability window at half load. The pool
/// is sized to mean demand, so queues run near saturation; a shorter
/// window made the simulated cost swing ~10% from seed to seed.
const TENANTS: usize = 2000;
const ZIPF_SKEW: f64 = 1.1;
const GUARANTEE_FRAC: f64 = 0.5;
const TENANT_LOAD_SCALE: f64 = 0.5;

/// paper-grid: the paper's three scenarios at paper load over a
/// 30-minute window, each under every builtin strategy.
const GRID_WINDOW_MINS: u64 = 30;
const GRID_KINDS: [ScenarioKind; 3] = [
    ScenarioKind::Static,
    ScenarioKind::LowVariability,
    ScenarioKind::HighVariability,
];
/// The builtin strategies by short name, pinned so that registering a
/// new strategy does not change the workload.
pub const GRID_STRATEGIES: [&str; 7] = ["SR", "OdF", "OdM", "HF", "HM", "RA", "QC"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetOdm,
    LongHorizon,
    TenantZipf,
    PaperGrid,
}

impl Workload {
    /// Every workload, in the order a full invocation runs them.
    pub const ALL: [Workload; 4] = [
        Workload::FleetOdm,
        Workload::LongHorizon,
        Workload::TenantZipf,
        Workload::PaperGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetOdm => "fleet-odm",
            Workload::LongHorizon => "long-horizon",
            Workload::TenantZipf => "tenant-zipf",
            Workload::PaperGrid => "paper-grid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One simulator run within a rep: a scenario under a configuration.
pub struct Cell {
    pub scenario: usize,
    pub config: RunConfig,
}

/// A workload's generated inputs: what the simulator receives.
pub struct Inputs {
    pub scenarios: Vec<Scenario>,
    pub cells: Vec<Cell>,
    /// Attach a strict conservation auditor to every run.
    pub strict_audit: bool,
}

/// Host seconds spent building the inputs, by phase.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Scenario generation (`Scenario::generate`, `ScenarioDsl::generate`).
    pub generate_s: f64,
    /// Tenancy plan construction (`TenancyPlan::zipf` and `assign_jobs`).
    pub tenancy_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate_s + self.tenancy_s
    }
}

/// A builtin strategy by short name.
pub fn strategy(short: &str) -> StrategyRef {
    StrategyRegistry::builtin()
        .get(short)
        .unwrap_or_else(|| panic!("builtin strategy {short} is registered"))
}

/// Sizes the shared tenant pool to the scenario's mean concurrent core
/// demand (as `ext_multi_tenant` does): tight enough that tenants
/// contend, wide enough that the largest job fits.
fn pool_for(scenario: &Scenario) -> u32 {
    let total: f64 = scenario
        .jobs()
        .iter()
        .map(|j| match j.kind {
            JobKind::Batch { work_core_secs } => work_core_secs,
            JobKind::LatencyCritical { lifetime, .. } => j.cores as f64 * lifetime.as_secs_f64(),
        })
        .sum();
    let window = scenario.config().duration.as_secs_f64().max(1.0);
    let avg = (total / window).ceil() as u32;
    let widest = scenario.jobs().iter().map(|j| j.cores).max().unwrap_or(1);
    avg.max(widest).max(8)
}

/// The Zipf tenant population over `scenario`, every job assigned by a
/// weighted draw from the `tenant-assign` stream.
pub fn zipf_plan(scenario: &Scenario, factory: &RngFactory) -> TenancyPlan {
    let mut plan = TenancyPlan::zipf(TENANTS, ZIPF_SKEW, pool_for(scenario), GUARANTEE_FRAC);
    let ids: Vec<u64> = scenario.jobs().iter().map(|j| j.id.0).collect();
    plan.assign_jobs(&ids, &mut factory.stream("tenant-assign"));
    plan
}

/// Builds `workload`'s inputs from `seed`, timing each phase.
pub fn setup(workload: Workload, seed: u64) -> (Inputs, SetupTimes) {
    let factory = RngFactory::new(seed);
    let start = Instant::now();
    let mut tenancy_s = 0.0;
    let inputs = match workload {
        Workload::FleetOdm => {
            let mut config = ScenarioConfig::paper(ScenarioKind::HighVariability);
            config.mean_interarrival = SimDuration::from_micros(FLEET_INTERARRIVAL_US);
            config.load_scale = FLEET_LOAD_SCALE;
            Inputs {
                scenarios: vec![Scenario::generate(config, &factory)],
                cells: vec![Cell {
                    scenario: 0,
                    config: RunConfig::new(strategy("OdM"))
                        .with_retention_mult(FLEET_RETENTION_MULT),
                }],
                strict_audit: false,
            }
        }
        Workload::LongHorizon => {
            let doc = ScenarioDsl::parse(DIURNAL_DOC).expect("the committed DSL document parses");
            let mut config =
                RunConfig::new(strategy("HM")).with_faults(FaultPlanId::FullChaos.plan());
            if let Some(spot) = doc.spot {
                config = config.with_spot(SpotPolicy {
                    bid_multiplier: spot.bid_multiplier,
                    max_quality: spot.max_quality,
                });
            }
            Inputs {
                scenarios: vec![doc.generate(&factory)],
                cells: vec![Cell {
                    scenario: 0,
                    config,
                }],
                strict_audit: true,
            }
        }
        Workload::TenantZipf => {
            let mut config = ScenarioConfig::paper(ScenarioKind::HighVariability);
            config.load_scale = TENANT_LOAD_SCALE;
            let scenario = Scenario::generate(config, &factory);
            let plan_start = Instant::now();
            let plan = zipf_plan(&scenario, &factory);
            let scenario = scenario.with_tenancy(plan);
            tenancy_s = plan_start.elapsed().as_secs_f64();
            Inputs {
                scenarios: vec![scenario],
                cells: vec![Cell {
                    scenario: 0,
                    config: RunConfig::new(strategy("HM")),
                }],
                strict_audit: false,
            }
        }
        Workload::PaperGrid => {
            let scenarios: Vec<Scenario> = GRID_KINDS
                .iter()
                .map(|&kind| {
                    Scenario::generate(
                        ScenarioConfig::scaled(kind, 1.0, GRID_WINDOW_MINS),
                        &factory,
                    )
                })
                .collect();
            let cells = (0..scenarios.len())
                .flat_map(|scenario| {
                    GRID_STRATEGIES.iter().map(move |&s| Cell {
                        scenario,
                        config: RunConfig::new(strategy(s)),
                    })
                })
                .collect();
            Inputs {
                scenarios,
                cells,
                strict_audit: false,
            }
        }
    };
    let times = SetupTimes {
        generate_s: start.elapsed().as_secs_f64() - tenancy_s,
        tenancy_s,
    };
    (inputs, times)
}

/// A failed correctness check: which one, and what it saw.
#[derive(Debug, Clone)]
pub struct Failure {
    pub check: &'static str,
    pub detail: String,
}

impl Failure {
    pub fn new(check: &'static str, detail: impl Into<String>) -> Failure {
        Failure {
            check,
            detail: detail.into(),
        }
    }
}

/// One completed, checked simulator run.
pub struct CellRun {
    pub result: RunResult,
    /// Host seconds inside `run_scenario`.
    pub run_s: f64,
}

/// Runs one cell under `seed`, profiled when `profiler` is given.
/// Fails if the run panics, reports an audit violation, or completes
/// fewer jobs than its scenario holds.
pub fn run_cell(
    inputs: &Inputs,
    cell: &Cell,
    seed: u64,
    profiler: Option<&Profiler>,
) -> Result<CellRun, Failure> {
    let scenario = &inputs.scenarios[cell.scenario];
    let factory = RngFactory::new(seed);
    let auditor = inputs.strict_audit.then(|| Auditor::new(AuditMode::Strict));
    let mut ctx = RunCtx::new(&factory);
    if let Some(auditor) = &auditor {
        ctx = ctx.with_auditor(auditor);
    }
    if let Some(profiler) = profiler {
        ctx = ctx.with_profiler(profiler);
    }
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_scenario(scenario, &cell.config, &ctx)
    }));
    let run_s = start.elapsed().as_secs_f64();
    let result = match outcome {
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return Err(Failure::new("panic", msg));
        }
        Ok(Err(violation)) => return Err(Failure::new("audit", violation.to_string())),
        Ok(Ok(result)) => result,
    };
    if let Some(auditor) = &auditor {
        let violations = auditor.summary().violations;
        if violations != 0 {
            return Err(Failure::new(
                "audit",
                format!("{violations} strict-audit violation(s)"),
            ));
        }
    }
    if result.outcomes.len() != scenario.jobs().len() {
        return Err(Failure::new(
            "completion",
            format!(
                "{} of {} jobs completed",
                result.outcomes.len(),
                scenario.jobs().len()
            ),
        ));
    }
    Ok(CellRun { result, run_s })
}
