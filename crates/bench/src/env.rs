//! The ambient experiment context, typed from the `HCLOUD_*` variables.
//!
//! Five environment variables steer every experiment, and none of them
//! changes what an experiment runs beyond its seed and scale:
//! `HCLOUD_SEED` and `HCLOUD_FAST` pick the seed and the scale;
//! `HCLOUD_JOBS`, `HCLOUD_TRACE` and `HCLOUD_AUDIT` only observe a run
//! (worker count, tracing, conservation audit) and leave its bytes alone.
//! Everything else about a run, its fault plan included, is in its
//! [`crate::RunSpec`].
//!
//! [`ExperimentCtx::from_env`] is the one reader of the environment.
//! Each variable is parsed exactly once, and a malformed value is a hard
//! error naming the variable, the offending value, and what was expected;
//! so is any other set `HCLOUD_*` variable, so a stale or misspelt knob
//! never runs an experiment the user did not ask for.

use hcloud_audit::AuditMode;
use hcloud_telemetry::TraceMode;
use hcloud_workloads::{ScenarioConfig, ScenarioKind};

/// The variables [`ExperimentCtx::from_env`] reads, in
/// [`ExperimentCtx::parse`]'s argument order.
const VARIABLES: [&str; 5] = [
    "HCLOUD_SEED",
    "HCLOUD_FAST",
    "HCLOUD_JOBS",
    "HCLOUD_TRACE",
    "HCLOUD_AUDIT",
];

/// The ambient experiment context: the five `HCLOUD_*` variables,
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
    /// Conservation-audit mode (`HCLOUD_AUDIT`): `off` (default),
    /// `final` (identities checked at end of run) or `strict`
    /// (violations abort at the offending event).
    pub audit: AuditMode,
}

impl Default for ExperimentCtx {
    fn default() -> Self {
        ExperimentCtx {
            master_seed: 42,
            fast: false,
            jobs: None,
            trace: TraceMode::Off,
            audit: AuditMode::Off,
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

    /// Sets the conservation-audit mode.
    pub fn with_audit(mut self, audit: AuditMode) -> Self {
        self.audit = audit;
        self
    }

    /// Parses the five variables from their raw string values.
    /// Malformed values are an error with a message naming the variable,
    /// the offending value, and what was expected.
    pub fn parse(
        seed: Option<&str>,
        fast: Option<&str>,
        jobs: Option<&str>,
        trace: Option<&str>,
        audit: Option<&str>,
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
        Ok(ExperimentCtx {
            master_seed,
            fast,
            jobs,
            trace: TraceMode::parse(trace)?,
            audit: AuditMode::parse(audit)?,
        })
    }

    /// Reads the five `HCLOUD_*` variables from the process environment.
    /// Any other set `HCLOUD_*` variable is an error naming it.
    pub fn from_env() -> Result<Self, String> {
        let mut vars = Vec::new();
        for (name, value) in std::env::vars_os() {
            let Some(name) = name.to_str().filter(|n| n.starts_with("HCLOUD_")) else {
                continue;
            };
            let value = value
                .into_string()
                .map_err(|raw| format!("invalid {name} {raw:?}: not UTF-8"))?;
            vars.push((name.to_string(), value));
        }
        Self::from_vars(vars)
    }

    /// [`Self::from_env`] over the `(name, value)` pairs of the set
    /// `HCLOUD_*` variables.
    fn from_vars(vars: impl IntoIterator<Item = (String, String)>) -> Result<Self, String> {
        let mut values: [Option<String>; 5] = Default::default();
        for (name, value) in vars {
            let Some(slot) = VARIABLES.iter().position(|v| *v == name) else {
                return Err(format!(
                    "unknown variable {name}: the known HCLOUD_* variables are {}",
                    VARIABLES.join(", ")
                ));
            };
            values[slot] = Some(value);
        }
        let [seed, fast, jobs, trace, audit] = values.each_ref().map(Option::as_deref);
        Self::parse(seed, fast, jobs, trace, audit)
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

    /// Parses one variable set to `value`, the others unset.
    fn parse_one(var: &str, value: &str) -> Result<ExperimentCtx, String> {
        ExperimentCtx::from_vars([(var.to_string(), value.to_string())])
    }

    #[test]
    fn table_of_valid_and_malformed_values() {
        // (variable, raw value, Ok(check) | Err(expected substrings)).
        type Check = fn(&ExperimentCtx) -> bool;
        let ok: Vec<(&str, &str, Check)> = vec![
            ("HCLOUD_SEED", "7", |o| o.master_seed == 7),
            ("HCLOUD_SEED", " 123 ", |o| o.master_seed == 123),
            ("HCLOUD_FAST", "1", |o| o.fast),
            ("HCLOUD_FAST", "0", |o| !o.fast),
            ("HCLOUD_JOBS", "1", |o| o.jobs == Some(1)),
            ("HCLOUD_JOBS", "8", |o| o.jobs == Some(8)),
            ("HCLOUD_TRACE", "off", |o| o.trace == TraceMode::Off),
            ("HCLOUD_TRACE", "summary", |o| o.trace == TraceMode::Summary),
            ("HCLOUD_TRACE", "full", |o| o.trace == TraceMode::Full),
            ("HCLOUD_AUDIT", "off", |o| o.audit == AuditMode::Off),
            ("HCLOUD_AUDIT", "final", |o| o.audit == AuditMode::Final),
            ("HCLOUD_AUDIT", "strict", |o| o.audit == AuditMode::Strict),
        ];
        for (var, value, check) in ok {
            let ctx = parse_one(var, value)
                .unwrap_or_else(|e| panic!("{var}={value:?} should parse, got: {e}"));
            assert!(check(&ctx), "{var}={value:?} parsed to the wrong value");
        }

        let bad: Vec<(&str, &str, &[&str])> = vec![
            ("HCLOUD_SEED", "banana", &["HCLOUD_SEED", "banana"]),
            ("HCLOUD_SEED", "-1", &["HCLOUD_SEED", "-1"]),
            ("HCLOUD_FAST", "yes", &["HCLOUD_FAST", "yes"]),
            ("HCLOUD_FAST", "2", &["HCLOUD_FAST", "2"]),
            ("HCLOUD_JOBS", "0", &["HCLOUD_JOBS", "0"]),
            ("HCLOUD_JOBS", "many", &["HCLOUD_JOBS", "many"]),
            ("HCLOUD_TRACE", "loud", &["HCLOUD_TRACE", "loud"]),
            ("HCLOUD_AUDIT", "paranoid", &["HCLOUD_AUDIT", "paranoid"]),
            // Removed and misspelt variables are errors, never ignored.
            (
                "HCLOUD_FAULTS",
                "full-chaos",
                &["HCLOUD_FAULTS", "HCLOUD_AUDIT"],
            ),
            ("HCLOUD_SEEDS", "7", &["HCLOUD_SEEDS"]),
        ];
        for (var, value, needles) in bad {
            let e = parse_one(var, value)
                .expect_err(&format!("{var}={value:?} should be rejected loudly"));
            for needle in needles {
                assert!(e.contains(needle), "error {e:?} should mention {needle:?}");
            }
        }
    }

    #[test]
    fn unset_environment_is_all_defaults() {
        let ctx = ExperimentCtx::parse(None, None, None, None, None).unwrap();
        assert_eq!(ctx, ExperimentCtx::default());
        assert_eq!(ctx.master_seed, 42);
        assert_eq!(ExperimentCtx::from_vars([]), Ok(ctx));
    }

    #[test]
    fn worker_count_clamps_to_plan_size() {
        let ctx = ExperimentCtx::new(1).with_jobs(8);
        assert_eq!(ctx.worker_count(3), 3);
        assert_eq!(ctx.worker_count(0), 1);
        assert_eq!(ctx.worker_count(100), 8);
    }
}
