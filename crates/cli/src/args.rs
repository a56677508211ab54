//! Hand-rolled argument parsing (no CLI-framework dependency).

use hcloud::{MappingPolicy, StrategyId, StrategyRef};
use hcloud_workloads::ScenarioKind;

/// Top-level usage text.
pub const USAGE: &str = "\
usage: hcloud-cli <command> [options]

commands:
  compare   run every strategy on one scenario and tabulate
  run       run one strategy, print the full summary
  sweep     sweep one knob across its range for one strategy
  export    generate a scenario and write it to JSON
  advise    recommend the cheapest strategy meeting a performance floor
  tenants   run a multi-tenant scenario and render the fair-share report
  validate  check a scenario file (exported or long-horizon DSL)
  trace     replay a recorded JSONL trace as a readable timeline
  audit     replay recorded traces through the conservation auditor

common options:
  --scenario static|low|high   scenario kind          [high]
  --scale <f64>                load scale             [0.25]
  --minutes <u64>              arrival window         [40]
  --seed <u64>                 master seed            [42]

run options:
  --strategy <id|short>        registered strategy    [HM]
                               (SR|OdF|OdM|HF|HM|RA|QC or the registry
                               id, e.g. reservation-autoscale)
  --no-profiling               disable Quasar info
  --policy P1..P8              mapping policy         [P8]
  --spot <bid>                 enable spot at this bid multiplier
  --pricing aws|gce|azure      pricing model          [aws]
  --scenario-file <path>       load jobs from an exported JSON scenario
  --json <path>                also write the summary as JSON
  --explain                    print the placement-decision breakdown

sweep options:
  --knob spinup|external|retention|sensitive
  --strategy ...               strategy to sweep      [HM]

export options:
  --out <path>                 output file            [scenario.json]

advise options:
  --weeks <u64>                planned deployment     [26]
  --perf-floor <f64>           min mean performance   [0.85]

tenants options:
  --tenants <n>                Zipf tenant count when the scenario
                               carries no tenancy section  [50]
  --strategy <id|short>        registered strategy    [HM]
  --scenario-file <path>       load an exported JSON scenario (honors
                               its embedded tenancy section)

validate options:
  --file <path>                scenario JSON to check: an export or a
                               long-horizon DSL document (schema_version)

trace options:
  --file <path>                trace to replay (results/traces/*.jsonl)
  --limit <n>                  show at most n events

audit options:
  --dir <path>                 trace directory        [results/traces]";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `compare`: all strategies on one scenario.
    Compare(Common),
    /// `run`: a single configured run.
    Run(Common, RunOptions),
    /// `sweep`: one knob, one strategy.
    Sweep(Common, SweepOptions),
    /// `export`: write the generated scenario to JSON.
    Export(Common, String),
    /// `advise`: recommend a strategy for a deployment plan.
    Advise(Common, crate::advise::AdviseOptions),
    /// `tenants`: run a multi-tenant scenario, render the fair-share
    /// report.
    Tenants(Common, TenantsOptions),
    /// `validate`: check a scenario file (exported or DSL) and report
    /// what it contains.
    Validate(String),
    /// `trace`: replay a recorded JSONL trace as a readable timeline.
    Trace(TraceOptions),
    /// `audit`: replay recorded traces through the conservation auditor.
    Audit(AuditOptions),
}

/// Options for `audit`.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditOptions {
    /// Directory holding the JSONL traces to audit.
    pub dir: String,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            dir: "results/traces".into(),
        }
    }
}

/// Options for `tenants`.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantsOptions {
    /// Strategy under test.
    pub strategy: StrategyRef,
    /// Zipf tenant count when the scenario has no tenancy section.
    pub tenants: usize,
    /// Path to an exported scenario to load instead of generating.
    pub scenario_file: Option<String>,
}

impl Default for TenantsOptions {
    fn default() -> Self {
        TenantsOptions {
            strategy: StrategyId::HM.into(),
            tenants: 50,
            scenario_file: None,
        }
    }
}

/// Options for `trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOptions {
    /// The JSONL trace file to replay.
    pub file: String,
    /// Show at most this many events.
    pub limit: Option<usize>,
}

/// Options shared by every command.
#[derive(Debug, Clone, PartialEq)]
pub struct Common {
    /// Scenario kind.
    pub kind: ScenarioKind,
    /// Load scale (1.0 = paper scale).
    pub scale: f64,
    /// Arrival window in minutes.
    pub minutes: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for Common {
    fn default() -> Self {
        Common {
            kind: ScenarioKind::HighVariability,
            scale: 0.25,
            minutes: 40,
            seed: 42,
        }
    }
}

/// Options for `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Strategy under test.
    pub strategy: StrategyRef,
    /// Whether Quasar information is available.
    pub profiling: bool,
    /// Mapping policy.
    pub policy: MappingPolicy,
    /// Spot bid multiplier, if spot is enabled.
    pub spot_bid: Option<f64>,
    /// Pricing model name (aws|gce|azure).
    pub pricing: String,
    /// Path to an exported scenario to load instead of generating.
    pub scenario_file: Option<String>,
    /// Optional JSON output path for the summary.
    pub json_out: Option<String>,
    /// Print the placement-decision breakdown.
    pub explain: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            strategy: StrategyId::HM.into(),
            profiling: true,
            policy: MappingPolicy::Dynamic,
            spot_bid: None,
            pricing: "aws".into(),
            scenario_file: None,
            json_out: None,
            explain: false,
        }
    }
}

/// Options for `sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Which knob to sweep.
    pub knob: String,
    /// Strategy to sweep it on.
    pub strategy: StrategyRef,
}

/// Parses a strategy id or short name against the builtin registry.
pub fn parse_strategy(s: &str) -> Result<StrategyRef, String> {
    s.parse::<StrategyRef>().map_err(|e| e.to_string())
}

/// Parses a scenario kind.
pub fn parse_scenario(s: &str) -> Result<ScenarioKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "static" => Ok(ScenarioKind::Static),
        "low" => Ok(ScenarioKind::LowVariability),
        "high" => Ok(ScenarioKind::HighVariability),
        _ => Err(format!("unknown scenario '{s}' (use static|low|high)")),
    }
}

/// Parses a mapping-policy label (P1–P8).
pub fn parse_policy(s: &str) -> Result<MappingPolicy, String> {
    MappingPolicy::paper_set()
        .into_iter()
        .find(|(label, _)| label.eq_ignore_ascii_case(s))
        .map(|(_, p)| p)
        .ok_or_else(|| format!("unknown policy '{s}' (use P1..P8)"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'"))
}

/// Parses the full argument vector.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let verb = it.next().ok_or("missing command")?.as_str();
    let rest: Vec<&String> = it.collect();

    let mut common = Common::default();
    let mut run = RunOptions::default();
    let mut sweep_knob: Option<String> = None;
    let mut export_out = "scenario.json".to_string();
    let mut advise = crate::advise::AdviseOptions::default();
    let mut trace_file: Option<String> = None;
    let mut trace_limit: Option<usize> = None;
    let mut audit = AuditOptions::default();
    let mut tenant_count: usize = TenantsOptions::default().tenants;

    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let value = rest.get(i + 1).copied();
        let mut consumed = 2;
        match flag {
            "--scenario" => common.kind = parse_scenario(value.ok_or("--scenario needs a value")?)?,
            "--scale" => common.scale = parse_num("--scale", value)?,
            "--minutes" => common.minutes = parse_num("--minutes", value)?,
            "--seed" => common.seed = parse_num("--seed", value)?,
            "--strategy" => {
                run.strategy = parse_strategy(value.ok_or("--strategy needs a value")?)?
            }
            "--policy" => run.policy = parse_policy(value.ok_or("--policy needs a value")?)?,
            "--spot" => run.spot_bid = Some(parse_num("--spot", value)?),
            "--pricing" => {
                let v = value.ok_or("--pricing needs a value")?;
                if !["aws", "gce", "azure"].contains(&v.as_str()) {
                    return Err(format!("unknown pricing model '{v}'"));
                }
                run.pricing = v.clone();
            }
            "--scenario-file" => {
                run.scenario_file = Some(value.ok_or("--scenario-file needs a value")?.clone())
            }
            "--json" => run.json_out = Some(value.ok_or("--json needs a value")?.clone()),
            "--knob" => sweep_knob = Some(value.ok_or("--knob needs a value")?.clone()),
            "--weeks" => advise.weeks = parse_num("--weeks", value)?,
            "--perf-floor" => advise.perf_floor = parse_num("--perf-floor", value)?,
            "--out" => export_out = value.ok_or("--out needs a value")?.clone(),
            "--file" => trace_file = Some(value.ok_or("--file needs a value")?.clone()),
            "--limit" => trace_limit = Some(parse_num("--limit", value)?),
            "--dir" => audit.dir = value.ok_or("--dir needs a value")?.clone(),
            "--tenants" => tenant_count = parse_num("--tenants", value)?,
            "--no-profiling" => {
                run.profiling = false;
                consumed = 1;
            }
            "--explain" => {
                run.explain = true;
                consumed = 1;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += consumed;
    }

    match verb {
        "compare" => Ok(Command::Compare(common)),
        "run" => Ok(Command::Run(common, run)),
        "sweep" => {
            let knob = sweep_knob.ok_or("sweep needs --knob")?;
            if !["spinup", "external", "retention", "sensitive"].contains(&knob.as_str()) {
                return Err(format!("unknown knob '{knob}'"));
            }
            Ok(Command::Sweep(
                common,
                SweepOptions {
                    knob,
                    strategy: run.strategy,
                },
            ))
        }
        "export" => Ok(Command::Export(common, export_out)),
        "advise" => {
            if !(0.0..=1.0).contains(&advise.perf_floor) {
                return Err("--perf-floor must be in [0, 1]".into());
            }
            Ok(Command::Advise(common, advise))
        }
        "tenants" => {
            if tenant_count == 0 {
                return Err("--tenants must be at least 1".into());
            }
            Ok(Command::Tenants(
                common,
                TenantsOptions {
                    strategy: run.strategy,
                    tenants: tenant_count,
                    scenario_file: run.scenario_file,
                },
            ))
        }
        "validate" => {
            let file = trace_file.ok_or("validate needs --file")?;
            Ok(Command::Validate(file))
        }
        "trace" => {
            let file = trace_file.ok_or("trace needs --file")?;
            Ok(Command::Trace(TraceOptions {
                file,
                limit: trace_limit,
            }))
        }
        "audit" => Ok(Command::Audit(audit)),
        "help" | "--help" | "-h" => Err("help requested".into()),
        other => Err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_compare_with_defaults() {
        let c = parse(&v(&["compare"])).unwrap();
        assert_eq!(c, Command::Compare(Common::default()));
    }

    #[test]
    fn parses_full_run() {
        let c = parse(&v(&[
            "run",
            "--scenario",
            "low",
            "--strategy",
            "hf",
            "--no-profiling",
            "--policy",
            "P3",
            "--spot",
            "0.5",
            "--pricing",
            "gce",
            "--seed",
            "7",
        ]))
        .unwrap();
        let Command::Run(common, run) = c else {
            panic!("expected run");
        };
        assert_eq!(common.kind, ScenarioKind::LowVariability);
        assert_eq!(common.seed, 7);
        assert_eq!(run.strategy, StrategyRef::from(StrategyId::HF));
        assert!(!run.profiling);
        assert_eq!(run.policy, MappingPolicy::QualityThreshold(0.5));
        assert_eq!(run.spot_bid, Some(0.5));
        assert_eq!(run.pricing, "gce");
    }

    #[test]
    fn parses_sweep_and_export() {
        let c = parse(&v(&["sweep", "--knob", "retention", "--strategy", "OdM"])).unwrap();
        let Command::Sweep(_, s) = c else {
            panic!("expected sweep");
        };
        assert_eq!(s.knob, "retention");
        assert_eq!(s.strategy, StrategyRef::from(StrategyId::ODM));

        let c = parse(&v(&["export", "--out", "x.json", "--scenario", "static"])).unwrap();
        let Command::Export(common, out) = c else {
            panic!("expected export");
        };
        assert_eq!(out, "x.json");
        assert_eq!(common.kind, ScenarioKind::Static);
    }

    #[test]
    fn parses_advise() {
        let c = parse(&v(&["advise", "--weeks", "30", "--perf-floor", "0.9"])).unwrap();
        let Command::Advise(_, a) = c else {
            panic!("expected advise");
        };
        assert_eq!(a.weeks, 30);
        assert_eq!(a.perf_floor, 0.9);
        assert!(parse(&v(&["advise", "--perf-floor", "1.5"])).is_err());
    }

    #[test]
    fn parses_tenants() {
        let c = parse(&v(&["tenants"])).unwrap();
        assert_eq!(
            c,
            Command::Tenants(Common::default(), TenantsOptions::default())
        );
        let c = parse(&v(&[
            "tenants",
            "--tenants",
            "200",
            "--strategy",
            "sr",
            "--scenario-file",
            "x.json",
        ]))
        .unwrap();
        let Command::Tenants(_, t) = c else {
            panic!("expected tenants");
        };
        assert_eq!(t.tenants, 200);
        assert_eq!(t.strategy, StrategyRef::from(StrategyId::SR));
        assert_eq!(t.scenario_file.as_deref(), Some("x.json"));
        assert!(parse(&v(&["tenants", "--tenants", "0"])).is_err());
        assert!(parse(&v(&["tenants", "--tenants", "lots"])).is_err());
    }

    #[test]
    fn parses_trace() {
        let c = parse(&v(&["trace", "--file", "results/traces/x.jsonl"])).unwrap();
        assert_eq!(
            c,
            Command::Trace(TraceOptions {
                file: "results/traces/x.jsonl".into(),
                limit: None,
            })
        );
        let c = parse(&v(&["trace", "--file", "t.jsonl", "--limit", "25"])).unwrap();
        let Command::Trace(t) = c else {
            panic!("expected trace");
        };
        assert_eq!(t.limit, Some(25));
        assert!(parse(&v(&["trace"])).is_err(), "trace needs --file");
        assert!(parse(&v(&["trace", "--file", "t", "--limit", "x"])).is_err());
    }

    #[test]
    fn parses_validate() {
        let c = parse(&v(&["validate", "--file", "scenario.json"])).unwrap();
        assert_eq!(c, Command::Validate("scenario.json".into()));
        assert!(parse(&v(&["validate"])).is_err(), "validate needs --file");
    }

    #[test]
    fn parses_audit() {
        assert_eq!(
            parse(&v(&["audit"])).unwrap(),
            Command::Audit(AuditOptions {
                dir: "results/traces".into(),
            })
        );
        let c = parse(&v(&["audit", "--dir", "other/traces"])).unwrap();
        let Command::Audit(a) = c else {
            panic!("expected audit");
        };
        assert_eq!(a.dir, "other/traces");
        assert!(
            parse(&v(&["audit", "--dir"])).is_err(),
            "--dir needs a value"
        );
    }

    #[test]
    fn parses_registry_strategy_ids() {
        // Registry ids and the new strategies' short names both resolve.
        let c = parse(&v(&["run", "--strategy", "reservation-autoscale"])).unwrap();
        let Command::Run(_, run) = c else {
            panic!("expected run");
        };
        assert_eq!(run.strategy.id(), "reservation-autoscale");
        let c = parse(&v(&["run", "--strategy", "QC"])).unwrap();
        let Command::Run(_, run) = c else {
            panic!("expected run");
        };
        assert_eq!(run.strategy.id(), "queueing-capacity");
        // The error names the known ids.
        let e = parse(&v(&["run", "--strategy", "bogus"])).unwrap_err();
        assert!(e.contains("unknown strategy 'bogus'"), "{e}");
        assert!(e.contains("hybrid-mixed"), "{e}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&v(&[])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&["run", "--strategy", "XX"])).is_err());
        assert!(parse(&v(&["run", "--pricing", "ibm"])).is_err());
        assert!(parse(&v(&["sweep"])).is_err());
        assert!(parse(&v(&["sweep", "--knob", "color"])).is_err());
        assert!(parse(&v(&["run", "--scale"])).is_err());
    }
}
