//! The ambient experiment context, typed from the `HCLOUD_*` variables.
//!
//! Every bench binary and the CI smoke jobs are steered by seven
//! environment variables — `HCLOUD_SEED`, `HCLOUD_FAST`, `HCLOUD_JOBS`,
//! `HCLOUD_TRACE`, `HCLOUD_FAULTS`, `HCLOUD_AUDIT`, `HCLOUD_STRATEGY`.
//! [`ExperimentCtx`] is their one typed home: each variable is parsed
//! exactly once, and a malformed value is a hard error naming the
//! variable, the offending value, and what was expected — never a silent
//! fallback to a default the user did not ask for.

use hcloud::{StrategyId, StrategyRegistry};
use hcloud_audit::AuditMode;
use hcloud_faults::FaultPlanId;
use hcloud_sim::rng::RngFactory;
use hcloud_telemetry::TraceMode;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};

/// The ambient experiment context: the seven `HCLOUD_*` variables,
/// parsed and typed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentCtx {
    /// The master seed every ambient-seeded run derives from
    /// (`HCLOUD_SEED`, default 42).
    pub master_seed: u64,
    /// Fast mode shrinks scenarios for smoke runs (`HCLOUD_FAST=1`).
    pub fast: bool,
    /// Explicit worker count (`HCLOUD_JOBS`); `None` uses
    /// `std::thread::available_parallelism`.
    pub jobs: Option<usize>,
    /// Telemetry mode (`HCLOUD_TRACE`): `off` (default), `summary`
    /// (phase spans on stderr), or `full` (spans + per-run flight
    /// recorder).
    pub trace: TraceMode,
    /// Ambient fault plan (`HCLOUD_FAULTS`): `off` (default) or a
    /// built-in plan name. Applied to every run whose spec does not set
    /// its own plan.
    pub faults: FaultPlanId,
    /// Conservation-audit mode (`HCLOUD_AUDIT`): `off` (default),
    /// `final` (identities checked at end of run) or `strict`
    /// (violations abort at the offending event).
    pub audit: AuditMode,
    /// Strategy focus (`HCLOUD_STRATEGY`): restrict a binary's sweep to
    /// one registered strategy (registry id or short name); `None` runs
    /// the binary's full strategy set.
    pub strategy: Option<StrategyId>,
}

impl Default for ExperimentCtx {
    fn default() -> Self {
        ExperimentCtx {
            master_seed: 42,
            fast: false,
            jobs: None,
            trace: TraceMode::Off,
            faults: FaultPlanId::Off,
            audit: AuditMode::Off,
            strategy: None,
        }
    }
}

impl ExperimentCtx {
    /// A context with the given master seed and the defaults otherwise.
    pub fn new(master_seed: u64) -> Self {
        ExperimentCtx {
            master_seed,
            ..Default::default()
        }
    }

    /// Sets fast (smoke) mode.
    pub fn with_fast(mut self, fast: bool) -> Self {
        self.fast = fast;
        self
    }

    /// Pins the worker count (1 = sequential).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Sets the telemetry mode.
    pub fn with_trace(mut self, trace: TraceMode) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the ambient fault plan.
    pub fn with_faults(mut self, faults: FaultPlanId) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the conservation-audit mode.
    pub fn with_audit(mut self, audit: AuditMode) -> Self {
        self.audit = audit;
        self
    }

    /// Sets the strategy focus.
    pub fn with_strategy(mut self, strategy: StrategyId) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Parses the seven ambient variables from their raw string values.
    /// Malformed values are an error with a message naming the variable,
    /// the offending value, and what was expected.
    pub fn parse(
        seed: Option<&str>,
        fast: Option<&str>,
        jobs: Option<&str>,
        trace: Option<&str>,
        faults: Option<&str>,
        audit: Option<&str>,
        strategy: Option<&str>,
    ) -> Result<Self, String> {
        let master_seed = match seed {
            None => 42,
            Some(s) => s.trim().parse::<u64>().map_err(|_| {
                format!("invalid HCLOUD_SEED {s:?}: expected an unsigned 64-bit integer")
            })?,
        };
        let fast = match fast {
            None | Some("0") => false,
            Some("1") => true,
            Some(s) => {
                return Err(format!(
                    "invalid HCLOUD_FAST {s:?}: expected 1 (fast smoke mode) or 0"
                ))
            }
        };
        let jobs = match jobs {
            None => None,
            Some(s) => match s.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => {
                    return Err(format!(
                        "invalid HCLOUD_JOBS {s:?}: expected a worker count >= 1"
                    ))
                }
            },
        };
        let trace = TraceMode::parse(trace)?;
        let faults = FaultPlanId::parse(faults)?;
        let audit = AuditMode::parse(audit)?;
        let strategy = match strategy {
            None => None,
            Some(s) => Some(s.trim().parse::<StrategyId>().map_err(|_| {
                format!(
                    "invalid HCLOUD_STRATEGY {s:?}: expected a registered strategy id or \
                     short name ({})",
                    StrategyRegistry::builtin().ids().join(", ")
                )
            })?),
        };
        Ok(ExperimentCtx {
            master_seed,
            fast,
            jobs,
            trace,
            faults,
            audit,
            strategy,
        })
    }

    /// Reads the seven `HCLOUD_*` variables from the process environment.
    pub fn from_env() -> Result<Self, String> {
        let var = |name: &str| std::env::var(name).ok();
        Self::parse(
            var("HCLOUD_SEED").as_deref(),
            var("HCLOUD_FAST").as_deref(),
            var("HCLOUD_JOBS").as_deref(),
            var("HCLOUD_TRACE").as_deref(),
            var("HCLOUD_FAULTS").as_deref(),
            var("HCLOUD_AUDIT").as_deref(),
            var("HCLOUD_STRATEGY").as_deref(),
        )
    }

    /// [`Self::from_env`] for binaries: prints the error and exits 2
    /// instead of running an experiment the user didn't configure.
    pub fn from_env_or_exit() -> Self {
        Self::from_env().unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2);
        })
    }

    /// The scenario configuration for `kind` under this context: paper
    /// scale normally, a scaled-down variant in fast mode.
    pub fn scenario_config(&self, kind: ScenarioKind) -> ScenarioConfig {
        if self.fast {
            ScenarioConfig::scaled(kind, 0.15, 25)
        } else {
            ScenarioConfig::paper(kind)
        }
    }

    /// Generates the scenario for `kind` under `seed` (ambient seed if
    /// `None`) in this context's scale.
    pub fn scenario(&self, kind: ScenarioKind, seed: Option<u64>) -> Scenario {
        let seed = seed.unwrap_or(self.master_seed);
        Scenario::generate(self.scenario_config(kind), &RngFactory::new(seed))
    }

    /// Worker threads for a plan of `runs` independent simulations.
    pub fn worker_count(&self, runs: usize) -> usize {
        let pool = self
            .jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        pool.min(runs).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Which of the seven variables a table row exercises.
    #[derive(Clone, Copy)]
    enum Var {
        Seed,
        Fast,
        Jobs,
        Trace,
        Faults,
        Audit,
        Strategy,
    }

    fn parse_one(var: Var, value: &str) -> Result<ExperimentCtx, String> {
        let v = Some(value);
        match var {
            Var::Seed => ExperimentCtx::parse(v, None, None, None, None, None, None),
            Var::Fast => ExperimentCtx::parse(None, v, None, None, None, None, None),
            Var::Jobs => ExperimentCtx::parse(None, None, v, None, None, None, None),
            Var::Trace => ExperimentCtx::parse(None, None, None, v, None, None, None),
            Var::Faults => ExperimentCtx::parse(None, None, None, None, v, None, None),
            Var::Audit => ExperimentCtx::parse(None, None, None, None, None, v, None),
            Var::Strategy => ExperimentCtx::parse(None, None, None, None, None, None, v),
        }
    }

    #[test]
    fn table_of_valid_and_malformed_values() {
        // (variable, raw value, Ok(check) | Err(expected substrings)).
        type Check = fn(&ExperimentCtx) -> bool;
        let ok: Vec<(Var, &str, Check)> = vec![
            (Var::Seed, "7", |o| o.master_seed == 7),
            (Var::Seed, " 123 ", |o| o.master_seed == 123),
            (Var::Fast, "1", |o| o.fast),
            (Var::Fast, "0", |o| !o.fast),
            (Var::Jobs, "1", |o| o.jobs == Some(1)),
            (Var::Jobs, "8", |o| o.jobs == Some(8)),
            (Var::Trace, "off", |o| o.trace == TraceMode::Off),
            (Var::Trace, "summary", |o| o.trace == TraceMode::Summary),
            (Var::Trace, "full", |o| o.trace == TraceMode::Full),
            (Var::Faults, "off", |o| o.faults == FaultPlanId::Off),
            (Var::Faults, "full-chaos", |o| {
                o.faults == FaultPlanId::FullChaos
            }),
            (Var::Audit, "off", |o| o.audit == AuditMode::Off),
            (Var::Audit, "final", |o| o.audit == AuditMode::Final),
            (Var::Audit, "strict", |o| o.audit == AuditMode::Strict),
            (Var::Strategy, "hybrid-mixed", |o| {
                o.strategy == Some(StrategyId::HM)
            }),
            (Var::Strategy, "HM", |o| o.strategy == Some(StrategyId::HM)),
            (Var::Strategy, "reservation-autoscale", |o| {
                o.strategy == Some(StrategyId::RA)
            }),
            (Var::Strategy, "qc", |o| o.strategy == Some(StrategyId::QC)),
        ];
        for (var, value, check) in ok {
            let ctx = parse_one(var, value)
                .unwrap_or_else(|e| panic!("{value:?} should parse, got: {e}"));
            assert!(check(&ctx), "{value:?} parsed to the wrong value");
        }

        let bad: Vec<(Var, &str, &[&str])> = vec![
            (Var::Seed, "banana", &["HCLOUD_SEED", "banana"]),
            (Var::Seed, "-1", &["HCLOUD_SEED", "-1"]),
            (Var::Fast, "yes", &["HCLOUD_FAST", "yes"]),
            (Var::Fast, "2", &["HCLOUD_FAST", "2"]),
            (Var::Jobs, "0", &["HCLOUD_JOBS", "0"]),
            (Var::Jobs, "many", &["HCLOUD_JOBS", "many"]),
            (Var::Trace, "loud", &["HCLOUD_TRACE", "loud"]),
            (Var::Faults, "mayhem", &["HCLOUD_FAULTS", "mayhem"]),
            (Var::Audit, "paranoid", &["HCLOUD_AUDIT", "paranoid"]),
            (
                Var::Strategy,
                "bogus",
                &["HCLOUD_STRATEGY", "bogus", "queueing-capacity"],
            ),
        ];
        for (var, value, needles) in bad {
            let e =
                parse_one(var, value).expect_err(&format!("{value:?} should be rejected loudly"));
            for needle in needles {
                assert!(e.contains(needle), "error {e:?} should mention {needle:?}");
            }
        }
    }

    #[test]
    fn unset_environment_is_all_defaults() {
        let ctx = ExperimentCtx::parse(None, None, None, None, None, None, None).unwrap();
        assert_eq!(ctx, ExperimentCtx::default());
        assert_eq!(ctx.master_seed, 42);
        assert_eq!(ctx.strategy, None);
    }
}
