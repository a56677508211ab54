//! Command implementations.

use std::fs;
use std::sync::Arc;

use hcloud::config::SpotPolicy;
use hcloud::{
    runner::{run_scenario, RunCtx},
    RunConfig, RunResult, StrategyRegistry,
};
use hcloud_bench::tenancy::{slo_attainment, zipf_plan, SLO_THRESHOLD};
use hcloud_bench::{ExperimentCtx, ExperimentPlan, Harness, RunSpec};
use hcloud_cloud::{ExternalLoadModel, SpinUpModel};
use hcloud_interference::ResourceVector;
use hcloud_json::{ObjectBuilder, Value};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_sim::rng::RngFactory;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_telemetry::{TraceKind, Tracer};
use hcloud_tenancy::{QueueState, TenancyPlan, TenantSpec};
use hcloud_workloads::{
    AppClass, DemandCurve, JobId, JobKind, JobSpec, LatencyModel, Scenario, ScenarioConfig,
    ScenarioDsl, ScenarioKind,
};

use crate::args::{Command, Common, RunOptions, SweepOptions, TenantsOptions};

/// The on-disk scenario format for `export` / `--scenario-file`.
#[derive(Debug)]
struct ScenarioFile {
    config: ScenarioConfig,
    jobs: Vec<JobSpec>,
    /// Optional multi-tenant section; absent files run untenanted.
    tenancy: Option<TenancyPlan>,
}

/// JSON codec for [`ScenarioFile`]. Times serialize as integer
/// microseconds (the simulator's native unit), so export → import
/// round-trips exactly.
mod scenario_json {
    use super::*;

    fn kind_name(kind: ScenarioKind) -> &'static str {
        match kind {
            ScenarioKind::Static => "static",
            ScenarioKind::LowVariability => "low",
            ScenarioKind::HighVariability => "high",
        }
    }

    fn kind_from(name: &str) -> Result<ScenarioKind, String> {
        match name {
            "static" => Ok(ScenarioKind::Static),
            "low" => Ok(ScenarioKind::LowVariability),
            "high" => Ok(ScenarioKind::HighVariability),
            other => Err(format!("unknown scenario kind '{other}'")),
        }
    }

    fn class_name(class: AppClass) -> &'static str {
        match class {
            AppClass::HadoopRecommender => "hadoop-recommender",
            AppClass::HadoopSvm => "hadoop-svm",
            AppClass::HadoopMatrixFactorization => "hadoop-matrix-factorization",
            AppClass::SparkBatch => "spark-batch",
            AppClass::SparkRealtime => "spark-realtime",
            AppClass::Memcached => "memcached",
        }
    }

    fn class_from(name: &str) -> Result<AppClass, String> {
        AppClass::ALL
            .into_iter()
            .find(|&c| class_name(c) == name)
            .ok_or_else(|| format!("unknown application class '{name}'"))
    }

    pub fn to_json(file: &ScenarioFile) -> Value {
        let c = &file.config;
        let mut config = ObjectBuilder::new()
            .set("kind", kind_name(c.kind))
            .set("duration_us", c.duration.as_micros() as f64)
            .set(
                "mean_interarrival_us",
                c.mean_interarrival.as_micros() as f64,
            )
            .set("load_scale", c.load_scale)
            .set(
                "latency_model",
                ObjectBuilder::new()
                    .set("base_service_us", c.latency_model.base_service_us)
                    .set("target_utilization", c.latency_model.target_utilization)
                    .set("max_utilization", c.latency_model.max_utilization)
                    .build(),
            );
        if let Some(f) = c.sensitive_fraction {
            config = config.set("sensitive_fraction", f);
        }
        if let Some(curve) = &c.curve {
            let points: Vec<Value> = curve
                .points()
                .iter()
                .map(|&(m, cores)| Value::Array(vec![m.into(), cores.into()]))
                .collect();
            config = config.set("curve", points);
        }
        let jobs: Vec<Value> = file
            .jobs
            .iter()
            .map(|j| {
                let kind = match j.kind {
                    JobKind::Batch { work_core_secs } => ObjectBuilder::new()
                        .set("type", "batch")
                        .set("work_core_secs", work_core_secs)
                        .build(),
                    JobKind::LatencyCritical {
                        offered_rps,
                        lifetime,
                    } => ObjectBuilder::new()
                        .set("type", "latency-critical")
                        .set("offered_rps", offered_rps)
                        .set("lifetime_us", lifetime.as_micros() as f64)
                        .build(),
                };
                let sensitivity: Vec<Value> =
                    j.sensitivity.as_array().iter().map(|&v| v.into()).collect();
                ObjectBuilder::new()
                    .set("id", j.id.0 as f64)
                    .set("class", class_name(j.class))
                    .set("arrival_us", j.arrival.as_micros() as f64)
                    .set("kind", kind)
                    .set("cores", f64::from(j.cores))
                    .set("sensitivity", sensitivity)
                    .build()
            })
            .collect();
        let mut doc = ObjectBuilder::new()
            .set("config", config.build())
            .set("jobs", jobs);
        if let Some(plan) = &file.tenancy {
            doc = doc.set("tenancy", tenancy_to_json(plan));
        }
        doc.build()
    }

    /// The tenancy section: pool knobs, tenant specs, and job→tenant
    /// assignments as an ordered array of `[job, tenant]` pairs.
    fn tenancy_to_json(plan: &TenancyPlan) -> Value {
        let tenants: Vec<Value> = plan
            .tenants
            .iter()
            .map(|t| {
                ObjectBuilder::new()
                    .set("id", t.id.0 as f64)
                    .set("weight", t.weight)
                    .set("guaranteed_cores", f64::from(t.guaranteed_cores))
                    .set("cap_cores", f64::from(t.cap_cores))
                    .set("state", t.state.name())
                    .build()
            })
            .collect();
        let assignments: Vec<Value> = plan
            .assignments
            .iter()
            .map(|(&job, &tenant)| Value::Array(vec![(job as f64).into(), (tenant as f64).into()]))
            .collect();
        ObjectBuilder::new()
            .set("pool_cores", f64::from(plan.pool_cores))
            .set("quantum", plan.quantum)
            .set("starvation_secs", plan.starvation_secs)
            .set("tenants", tenants)
            .set("assignments", assignments)
            .build()
    }

    fn tenancy_from_json(v: &Value) -> Result<TenancyPlan, String> {
        let mut plan = TenancyPlan::new(
            u32::try_from(get_u64(v, "pool_cores")?)
                .map_err(|_| "field 'pool_cores' out of range".to_string())?,
        )
        .with_quantum(get_f64(v, "quantum")?)
        .with_starvation_secs(get_f64(v, "starvation_secs")?);
        for t in required(v, "tenants")?
            .as_array()
            .ok_or("field 'tenants' is not an array")?
        {
            let state_name = get_str(t, "state")?;
            let state = QueueState::parse(state_name)
                .ok_or_else(|| format!("unknown tenant state '{state_name}'"))?;
            plan = plan.tenant(
                TenantSpec::new(
                    get_u64(t, "id")?,
                    get_f64(t, "weight")?,
                    u32::try_from(get_u64(t, "guaranteed_cores")?)
                        .map_err(|_| "field 'guaranteed_cores' out of range".to_string())?,
                    u32::try_from(get_u64(t, "cap_cores")?)
                        .map_err(|_| "field 'cap_cores' out of range".to_string())?,
                )
                .with_state(state),
            );
        }
        for pair in required(v, "assignments")?
            .as_array()
            .ok_or("field 'assignments' is not an array")?
        {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("assignment entry is not a [job, tenant] pair")?;
            let num = |slot: &Value| {
                slot.as_u64()
                    .ok_or("assignment entry is not a [job, tenant] pair".to_string())
            };
            plan.assign(num(&pair[0])?, num(&pair[1])?);
        }
        plan.validate().map_err(|e| format!("tenancy: {e}"))?;
        Ok(plan)
    }

    fn required<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
        v.get(key).ok_or_else(|| format!("missing field '{key}'"))
    }

    fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
        required(v, key)?
            .as_u64()
            .ok_or_else(|| format!("field '{key}' is not an unsigned integer"))
    }

    fn get_f64(v: &Value, key: &str) -> Result<f64, String> {
        required(v, key)?
            .as_f64()
            .ok_or_else(|| format!("field '{key}' is not a number"))
    }

    fn get_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
        required(v, key)?
            .as_str()
            .ok_or_else(|| format!("field '{key}' is not a string"))
    }

    pub fn from_json(v: &Value) -> Result<ScenarioFile, String> {
        let c = required(v, "config")?;
        let lm = required(c, "latency_model")?;
        let config = ScenarioConfig {
            kind: kind_from(get_str(c, "kind")?)?,
            duration: SimDuration::from_micros(get_u64(c, "duration_us")?),
            mean_interarrival: SimDuration::from_micros(get_u64(c, "mean_interarrival_us")?),
            load_scale: get_f64(c, "load_scale")?,
            sensitive_fraction: match c.get("sensitive_fraction") {
                None | Some(Value::Null) => None,
                Some(f) => Some(
                    f.as_f64()
                        .ok_or("field 'sensitive_fraction' is not a number")?,
                ),
            },
            latency_model: LatencyModel {
                base_service_us: get_f64(lm, "base_service_us")?,
                target_utilization: get_f64(lm, "target_utilization")?,
                max_utilization: get_f64(lm, "max_utilization")?,
            },
            curve: match c.get("curve") {
                None | Some(Value::Null) => None,
                Some(pts) => {
                    let raw = pts.as_array().ok_or("field 'curve' is not an array")?;
                    let mut points = Vec::with_capacity(raw.len());
                    for p in raw {
                        let pair = p
                            .as_array()
                            .filter(|p| p.len() == 2)
                            .ok_or("curve entry is not a [minute, cores] pair")?;
                        let num = |slot: &Value| {
                            slot.as_f64()
                                .ok_or("curve entry is not a [minute, cores] pair".to_string())
                        };
                        points.push((num(&pair[0])?, num(&pair[1])?));
                    }
                    Some(DemandCurve::new(points).map_err(|e| format!("curve: {e}"))?)
                }
            },
        };
        let jobs = required(v, "jobs")?
            .as_array()
            .ok_or("field 'jobs' is not an array")?
            .iter()
            .map(|j| {
                let k = required(j, "kind")?;
                let kind = match get_str(k, "type")? {
                    "batch" => JobKind::Batch {
                        work_core_secs: get_f64(k, "work_core_secs")?,
                    },
                    "latency-critical" => JobKind::LatencyCritical {
                        offered_rps: get_f64(k, "offered_rps")?,
                        lifetime: SimDuration::from_micros(get_u64(k, "lifetime_us")?),
                    },
                    other => return Err(format!("unknown job kind '{other}'")),
                };
                let raw = required(j, "sensitivity")?
                    .as_array()
                    .ok_or("field 'sensitivity' is not an array")?;
                let mut sensitivity = [0.0; hcloud_interference::NUM_RESOURCES];
                if raw.len() != sensitivity.len() {
                    return Err(format!(
                        "sensitivity has {} entries, expected {}",
                        raw.len(),
                        sensitivity.len()
                    ));
                }
                for (slot, value) in sensitivity.iter_mut().zip(raw) {
                    *slot = value.as_f64().ok_or("sensitivity entry is not a number")?;
                }
                Ok(JobSpec {
                    id: JobId(get_u64(j, "id")?),
                    class: class_from(get_str(j, "class")?)?,
                    arrival: SimTime::from_micros(get_u64(j, "arrival_us")?),
                    kind,
                    cores: u32::try_from(get_u64(j, "cores")?)
                        .map_err(|_| "field 'cores' out of range".to_string())?,
                    sensitivity: ResourceVector::new(sensitivity),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let tenancy = match v.get("tenancy") {
            None | Some(Value::Null) => None,
            Some(t) => Some(tenancy_from_json(t)?),
        };
        Ok(ScenarioFile {
            config,
            jobs,
            tenancy,
        })
    }
}

/// Materializes a loaded scenario file, attaching its tenancy section
/// when present.
fn scenario_from_file(file: ScenarioFile) -> Scenario {
    let scenario = Scenario::from_jobs(file.config, file.jobs);
    match file.tenancy {
        Some(plan) => scenario.with_tenancy(plan),
        None => scenario,
    }
}

/// A scenario loaded from disk: either an exported [`ScenarioFile`] or
/// a long-horizon DSL document (told apart by the `schema_version` key).
#[derive(Debug)]
struct LoadedScenario {
    scenario: Scenario,
    /// Spot section carried by a DSL document, mapped onto the run
    /// layer's policy. Exported files never carry one.
    spot: Option<SpotPolicy>,
    /// One-line description of what was loaded.
    summary: String,
}

/// Reads a scenario file, accepting both formats. DSL documents are
/// compiled and their job stream generated from `seed`; exported files
/// replay their recorded jobs verbatim.
fn load_scenario(path: &str, seed: u64) -> Result<LoadedScenario, String> {
    let body = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let v = hcloud_json::parse(&body).map_err(|e| format!("parsing {path}: {e}"))?;
    if v.get("schema_version").is_some() {
        let dsl = ScenarioDsl::from_json(&v).map_err(|e| format!("parsing {path}: {e}"))?;
        let spot = dsl.spot.map(|s| SpotPolicy {
            bid_multiplier: s.bid_multiplier,
            max_quality: s.max_quality,
        });
        let scenario = dsl.generate(&RngFactory::new(seed));
        let summary = format!(
            "DSL scenario '{}': {} family, {:.1} simulated days, {} jobs{}",
            dsl.name,
            dsl.family.kind_name(),
            dsl.family.duration().as_hours_f64() / 24.0,
            scenario.jobs().len(),
            if spot.is_some() {
                ", spot market on"
            } else {
                ", on-demand only"
            }
        );
        Ok(LoadedScenario {
            scenario,
            spot,
            summary,
        })
    } else {
        let file = scenario_json::from_json(&v).map_err(|e| format!("parsing {path}: {e}"))?;
        let summary = format!(
            "exported scenario: {} kind, {} jobs{}",
            file.config.kind.name(),
            file.jobs.len(),
            if file.tenancy.is_some() {
                ", with tenancy section"
            } else {
                ""
            }
        );
        Ok(LoadedScenario {
            scenario: scenario_from_file(file),
            spot: None,
            summary,
        })
    }
}

/// `validate`: checks a scenario file of either format and reports what
/// it contains. Malformed files surface the failing field; `main` maps
/// the error onto exit code 2.
pub fn validate_file(path: &str) -> Result<(), String> {
    let loaded = load_scenario(path, Common::default().seed)?;
    println!("ok: {}", loaded.summary);
    Ok(())
}

fn build_scenario(common: &Common) -> Scenario {
    let config = ScenarioConfig {
        duration: hcloud_sim::SimDuration::from_mins(common.minutes),
        load_scale: common.scale,
        ..ScenarioConfig::paper(common.kind)
    };
    Scenario::generate(config, &RngFactory::new(common.seed))
}

fn pricing_model(name: &str) -> PricingModel {
    match name {
        "gce" => PricingModel::gce(),
        "azure" => PricingModel::azure(),
        _ => PricingModel::aws(),
    }
}

fn summarize(label: &str, r: &RunResult, model: &PricingModel) {
    let rates = Rates::default();
    let cost = r.cost(&rates, model);
    println!("{label}:");
    println!(
        "  jobs {} | makespan {:.1} min | mean perf {:.1}% | mean degradation {:.2}x",
        r.outcomes.len(),
        r.makespan.as_mins_f64(),
        r.mean_normalized_perf() * 100.0,
        r.mean_degradation()
    );
    if let Some(b) = r.batch_performance_boxplot() {
        println!(
            "  batch completion: mean {:.1} min (p5 {:.1} / p95 {:.1})",
            b.mean, b.p5, b.p95
        );
    }
    if let Some(b) = r.lc_latency_boxplot() {
        println!(
            "  memcached p99:    mean {:.0} µs (p5 {:.0} / p95 {:.0})",
            b.mean, b.p5, b.p95
        );
    }
    if let Some(u) = r.mean_reserved_utilization() {
        println!(
            "  reserved: {} cores at {:.0}% mean utilization",
            r.reserved_cores,
            u * 100.0
        );
    }
    println!(
        "  on-demand: {} acquired ({} released immediately), {} queued jobs",
        r.counters.od_acquired, r.counters.od_released_immediately, r.counters.queued_jobs
    );
    if r.counters.spot_acquired > 0 {
        println!(
            "  spot: {} acquired, {} terminations",
            r.counters.spot_acquired, r.counters.spot_terminations
        );
    }
    println!(
        "  cost: {:.2}$ (reserved {:.2}$ + on-demand {:.2}$)",
        cost.total(),
        cost.reserved,
        cost.on_demand
    );
}

/// Executes a parsed command.
pub fn run(command: Command) -> Result<(), String> {
    match command {
        Command::Compare(common) => compare(&common),
        Command::Run(common, options) => run_one(&common, &options),
        Command::Sweep(common, options) => sweep(&common, &options),
        Command::Export(common, out) => export(&common, &out),
        Command::Validate(file) => validate_file(&file),
        Command::Trace(options) => trace(&options),
        Command::Audit(options) => audit(&options),
        Command::Tenants(common, options) => tenants(&common, &options),
        Command::Advise(common, options) => {
            let scenario = build_scenario(&common);
            println!(
                "advising for {} ({} jobs), {}-week deployment, {:.0}% floor\n",
                common.kind.name(),
                scenario.jobs().len(),
                options.weeks,
                options.perf_floor * 100.0
            );
            let rec = crate::advise::advise(&scenario, &options, common.seed);
            crate::advise::print(&rec, &options);
            Ok(())
        }
    }
}

/// Replays a flight-recorder JSONL file (written by the figure binaries
/// under `HCLOUD_TRACE=full`) as a human-readable timeline.
fn trace(options: &crate::args::TraceOptions) -> Result<(), String> {
    let text = fs::read_to_string(&options.file)
        .map_err(|e| format!("cannot read {}: {e}", options.file))?;
    let timeline = hcloud_telemetry::render_timeline(&text, options.limit)
        .map_err(|e| format!("{}: {e}", options.file))?;
    print!("{timeline}");
    Ok(())
}

/// Replays every flight-recorder JSONL trace in a directory through the
/// offline conservation auditor: instance lifecycle, queue conservation
/// and stream integrity (`hcloud-cli audit`).
fn audit(options: &crate::args::AuditOptions) -> Result<(), String> {
    let mut files: Vec<std::path::PathBuf> = fs::read_dir(&options.dir)
        .map_err(|e| format!("cannot read {}: {e}", options.dir))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!(
            "no .jsonl traces under {} (record some with HCLOUD_TRACE=full)",
            options.dir
        ));
    }
    let mut failed = 0usize;
    for path in &files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        match hcloud_audit::replay_file(&text) {
            Ok(stats) => println!(
                "ok   {name}: {} events, {} spin-up(s) / {} release(s), {} queue enter(s) / {} exit(s), {} spot termination(s)",
                stats.events,
                stats.spin_ups,
                stats.releases,
                stats.queue_enters,
                stats.queue_exits,
                stats.spot_terminations,
            ),
            Err(e) => {
                println!("FAIL {name}: {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        return Err(format!(
            "{failed} of {} trace(s) failed the audit",
            files.len()
        ));
    }
    println!("{} trace(s) audited, all clean", files.len());
    Ok(())
}

/// `tenants`: runs a multi-tenant scenario and renders the fair-share
/// report — per-tenant admissions, SLO attainment, waits and
/// starvation-relief activity. Scenario files with an embedded tenancy
/// section are honored; otherwise a Zipf-weighted population is
/// attached.
fn tenants(common: &Common, options: &TenantsOptions) -> Result<(), String> {
    let scenario = match &options.scenario_file {
        Some(path) => load_scenario(path, common.seed)?.scenario,
        None => build_scenario(common),
    };
    let factory = RngFactory::new(common.seed);
    let scenario = if scenario.tenancy().is_some() {
        scenario
    } else {
        let plan = zipf_plan(
            &scenario,
            options.tenants,
            &mut factory.stream("tenant-assign"),
        );
        scenario.with_tenancy(plan)
    };
    let plan = scenario.tenancy().expect("tenancy attached").clone();
    plan.validate()?;

    let config = RunConfig::new(&options.strategy);
    let r = run_scenario(&scenario, &config, &RunCtx::new(&factory)).expect("no auditor attached");
    let rates = Rates::default();
    let cost = r.cost(&rates, &PricingModel::aws());
    let slo = slo_attainment(&r);
    println!(
        "{} on {}: {} tenants over a {}-core pool, seed {}\n",
        options.strategy.clone(),
        scenario.kind().name(),
        plan.tenants.len(),
        plan.pool_cores,
        common.seed
    );
    println!(
        "  jobs {} | makespan {:.1} min | SLO (≥{:.0}%) {:.1}% | fairness {:.3} | cost {:.2}$",
        r.outcomes.len(),
        r.makespan.as_mins_f64(),
        SLO_THRESHOLD * 100.0,
        slo * 100.0,
        r.tenant_admission_fairness(),
        cost.total(),
    );
    println!(
        "  gate: {} deferred, {} drained, {} borrowed admissions, {} starvation preemptions\n",
        r.counters.tenant_deferred_jobs,
        r.counters.tenant_drained_jobs,
        r.counters.tenant_borrowed_admissions,
        r.counters.tenant_preemptions,
    );

    // Per-tenant SLO attainment, mapped through the plan's assignments.
    let mut kept_ran: std::collections::BTreeMap<u64, (usize, usize)> = Default::default();
    for o in &r.outcomes {
        if let Some(tid) = plan.tenant_of(o.id.0) {
            let e = kept_ran.entry(tid.0).or_default();
            e.1 += 1;
            if o.normalized_perf >= SLO_THRESHOLD {
                e.0 += 1;
            }
        }
    }
    let mut stats = r.tenant_stats.clone();
    stats.sort_by(|a, b| b.admitted.cmp(&a.admitted).then(a.id.cmp(&b.id)));
    println!(
        "{:>7} {:>8} {:>5} {:>5} {:>9} {:>9} {:>8} {:>7} {:>13} {:>8} {:>9}",
        "tenant",
        "weight",
        "guar",
        "cap",
        "admitted",
        "deferred",
        "SLO %",
        "wait s",
        "peak cores",
        "victims",
        "reclaims"
    );
    for s in stats.iter().take(16) {
        let (kept, ran) = kept_ran.get(&s.id).copied().unwrap_or((0, 0));
        let mean_wait = s.total_queue_wait_secs / (s.drained.max(1) as f64);
        println!(
            "{:>7} {:>8.4} {:>5} {:>5} {:>9} {:>9} {:>8.1} {:>7.0} {:>13} {:>8} {:>9}",
            s.id,
            s.weight,
            s.guaranteed_cores,
            s.cap_cores,
            s.admitted,
            s.deferred,
            100.0 * kept as f64 / ran.max(1) as f64,
            mean_wait,
            s.peak_running_cores,
            s.victims,
            s.reclaims,
        );
    }
    if stats.len() > 16 {
        println!("  … {} more tenant(s)", stats.len() - 16);
    }
    Ok(())
}

fn compare(common: &Common) -> Result<(), String> {
    let mut ctx = ExperimentCtx::from_env_or_exit();
    ctx.master_seed = common.seed;
    let scenario = Arc::new(build_scenario(common));
    let rates = Rates::default();
    let model = PricingModel::aws();
    println!(
        "{} scenario, {} jobs, seed {}\n",
        common.kind.name(),
        scenario.jobs().len(),
        common.seed
    );
    println!(
        "{:<6} {:>8} {:>12} {:>14} {:>10} {:>10}",
        "strat", "perf %", "degradation", "lc p99 (µs)", "od acq", "cost $"
    );
    // All five strategies fan out across the harness's worker pool.
    let plan: ExperimentPlan = StrategyRegistry::paper()
        .iter()
        .map(|s| RunSpec::on(Arc::clone(&scenario), s))
        .collect();
    let mut harness = Harness::with_ctx(ctx);
    let results = harness.run_plan(plan);
    // Under `HCLOUD_TRACE=full`: one trace file per run.
    harness.flush_traces("compare");
    for (strategy, r) in StrategyRegistry::paper().iter().zip(&results) {
        let lc = r.lc_latency_boxplot().map(|b| b.mean).unwrap_or(f64::NAN);
        println!(
            "{:<6} {:>8.1} {:>11.2}x {:>14.0} {:>10} {:>10.2}",
            strategy.short_name(),
            r.mean_normalized_perf() * 100.0,
            r.mean_degradation(),
            lc,
            r.counters.od_acquired,
            r.cost(&rates, &model).total()
        );
    }
    if hcloud_bench::artifacts::any_failure() {
        return Err("a trace file could not be written".to_string());
    }
    Ok(())
}

fn run_one(common: &Common, options: &RunOptions) -> Result<(), String> {
    let (scenario, file_spot) = match &options.scenario_file {
        Some(path) => {
            let loaded = load_scenario(path, common.seed)?;
            println!("loaded {}", loaded.summary);
            (loaded.scenario, loaded.spot)
        }
        None => (build_scenario(common), None),
    };
    let mut config = RunConfig::new(&options.strategy)
        .with_policy(options.policy)
        .with_profiling(options.profiling);
    // An explicit --spot bid wins over the scenario file's spot section.
    if let Some(bid) = options.spot_bid {
        config = config.with_spot(SpotPolicy {
            bid_multiplier: bid,
            ..SpotPolicy::default()
        });
    } else if let Some(spot) = file_spot {
        config = config.with_spot(spot);
    }
    let model = pricing_model(&options.pricing);
    let factory = RngFactory::new(common.seed);
    // `--explain` reads the placement decisions off the run's trace.
    let tracer = if options.explain {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let ctx = RunCtx::new(&factory).with_tracer(&tracer);
    let r = run_scenario(&scenario, &config, &ctx).expect("no auditor attached");
    summarize(
        &format!("{} on {}", options.strategy.clone(), scenario.kind().name()),
        &r,
        &model,
    );
    if options.explain {
        use std::collections::BTreeMap;
        let decisions: Vec<_> = tracer
            .take()
            .into_iter()
            .filter_map(|ev| match ev.kind {
                TraceKind::Decision {
                    job,
                    reason,
                    quality_target,
                    utilization,
                    ..
                } => Some((ev.at, JobId(job), reason, quality_target, utilization)),
                _ => None,
            })
            .collect();
        let mut by_reason: BTreeMap<&str, usize> = BTreeMap::new();
        for (_, _, reason, _, _) in &decisions {
            *by_reason.entry(reason).or_default() += 1;
        }
        println!("  placement decisions:");
        for (reason, n) in &by_reason {
            println!("    {reason:<24} {n}");
        }
        println!("  first ten decisions:");
        for (at, job, reason, quality_target, utilization) in decisions.iter().take(10) {
            println!(
                "    {} @ {:.1}s  QT={:.2}  util={:.0}%  -> {}",
                job,
                at.as_secs_f64(),
                quality_target,
                utilization * 100.0,
                reason
            );
        }
    }
    if let Some(path) = &options.json_out {
        let rates = Rates::default();
        let cost = r.cost(&rates, &model);
        let body = ObjectBuilder::new()
            .set("strategy", options.strategy.short_name())
            .set("scenario", scenario.kind().name())
            .set("seed", common.seed as f64)
            .set("jobs", r.outcomes.len() as f64)
            .set("makespan_min", r.makespan.as_mins_f64())
            .set("mean_normalized_perf", r.mean_normalized_perf())
            .set("mean_degradation", r.mean_degradation())
            .set("reserved_cores", f64::from(r.reserved_cores))
            .set("reserved_utilization", r.mean_reserved_utilization())
            .set("od_acquired", r.counters.od_acquired as f64)
            .set("spot_acquired", r.counters.spot_acquired as f64)
            .set("spot_terminations", r.counters.spot_terminations as f64)
            .set("cost_reserved", cost.reserved)
            .set("cost_on_demand", cost.on_demand)
            .build();
        fs::write(path, body.to_pretty()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("(wrote {path})");
    }
    Ok(())
}

fn sweep(common: &Common, options: &SweepOptions) -> Result<(), String> {
    let factory = RngFactory::new(common.seed);
    println!(
        "sweeping {} for {} on {}\n",
        options.knob,
        options.strategy.clone(),
        common.kind.name()
    );
    println!(
        "{:>12} {:>8} {:>12} {:>10}",
        "value", "perf %", "degradation", "cost $"
    );
    let rates = Rates::default();
    let model = PricingModel::aws();
    let points: Vec<(String, RunConfig, Option<f64>)> = match options.knob.as_str() {
        "spinup" => [0.0, 15.0, 30.0, 60.0, 120.0]
            .iter()
            .map(|&s| {
                let c =
                    RunConfig::new(&options.strategy).with_spin_up(SpinUpModel::with_mean_secs(s));
                (format!("{s:.0}s"), c, None)
            })
            .collect(),
        "external" => [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&l| {
                let c = RunConfig::new(&options.strategy)
                    .with_external_load(ExternalLoadModel::with_mean(l));
                (format!("{:.0}%", l * 100.0), c, None)
            })
            .collect(),
        "retention" => [0.0, 1.0, 10.0, 100.0, 500.0]
            .iter()
            .map(|&m| {
                let c = RunConfig::new(&options.strategy).with_retention_mult(m);
                (format!("{m:.0}x"), c, None)
            })
            .collect(),
        "sensitive" => [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&f| {
                (
                    format!("{:.0}%", f * 100.0),
                    RunConfig::new(&options.strategy),
                    Some(f),
                )
            })
            .collect(),
        other => return Err(format!("unknown knob '{other}'")),
    };
    for (label, config, sensitive) in points {
        let scenario = match sensitive {
            Some(f) => {
                let mut sc = ScenarioConfig {
                    duration: hcloud_sim::SimDuration::from_mins(common.minutes),
                    load_scale: common.scale,
                    ..ScenarioConfig::paper(common.kind)
                };
                sc.sensitive_fraction = Some(f);
                Scenario::generate(sc, &factory)
            }
            None => build_scenario(common),
        };
        let r =
            run_scenario(&scenario, &config, &RunCtx::new(&factory)).expect("no auditor attached");
        println!(
            "{:>12} {:>8.1} {:>11.2}x {:>10.2}",
            label,
            r.mean_normalized_perf() * 100.0,
            r.mean_degradation(),
            r.cost(&rates, &model).total()
        );
    }
    Ok(())
}

fn export(common: &Common, out: &str) -> Result<(), String> {
    let scenario = build_scenario(common);
    let file = ScenarioFile {
        config: scenario.config().clone(),
        jobs: scenario.jobs().to_vec(),
        tenancy: scenario.tenancy().cloned(),
    };
    let body = scenario_json::to_json(&file).to_string();
    fs::write(out, &body).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} jobs ({} bytes) to {out}",
        file.jobs.len(),
        body.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_file_round_trips_exactly() {
        let config = ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.1, 10);
        let scenario = Scenario::generate(config, &RngFactory::new(7));
        let file = ScenarioFile {
            config: scenario.config().clone(),
            jobs: scenario.jobs().to_vec(),
            tenancy: None,
        };
        let body = scenario_json::to_json(&file).to_string();
        let back =
            scenario_json::from_json(&hcloud_json::parse(&body).expect("valid")).expect("decodes");
        assert_eq!(back.config, *scenario.config());
        assert_eq!(back.jobs, scenario.jobs());
        assert!(
            back.tenancy.is_none(),
            "no tenancy section round-trips to none"
        );
    }

    #[test]
    fn tenancy_section_round_trips_exactly() {
        let config = ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.1, 10);
        let scenario = Scenario::generate(config, &RngFactory::new(7));
        let mut plan = TenancyPlan::zipf(9, 1.1, 64, 0.5)
            .with_quantum(24.0)
            .with_starvation_secs(120.0);
        let ids: Vec<u64> = scenario.jobs().iter().map(|j| j.id.0).collect();
        plan.assign_jobs(&ids, &mut RngFactory::new(7).stream("tenant-assign"));
        plan.tenants[3].state = QueueState::Closing;
        let file = ScenarioFile {
            config: scenario.config().clone(),
            jobs: scenario.jobs().to_vec(),
            tenancy: Some(plan.clone()),
        };
        let body = scenario_json::to_json(&file).to_string();
        let back =
            scenario_json::from_json(&hcloud_json::parse(&body).expect("valid")).expect("decodes");
        assert_eq!(back.tenancy, Some(plan));
    }

    #[test]
    fn malformed_tenancy_sections_name_the_problem() {
        let config = ScenarioConfig::scaled(ScenarioKind::Static, 0.05, 5);
        let scenario = Scenario::generate(config, &RngFactory::new(7));
        let base = ScenarioFile {
            config: scenario.config().clone(),
            jobs: scenario.jobs().to_vec(),
            tenancy: None,
        };
        let body = scenario_json::to_json(&base).to_string();
        let inject = |section: &str| {
            let with =
                body.trim_end_matches('}').to_string() + &format!(",\"tenancy\":{section}}}");
            scenario_json::from_json(&hcloud_json::parse(&with).expect("valid"))
                .expect_err("malformed tenancy must be rejected")
        };
        let missing = inject("{}");
        assert!(missing.contains("pool_cores"), "{missing}");
        let bad_state = inject(
            "{\"pool_cores\":8,\"quantum\":16.0,\"starvation_secs\":60.0,\
             \"tenants\":[{\"id\":0,\"weight\":1.0,\"guaranteed_cores\":4,\
             \"cap_cores\":8,\"state\":\"ajar\"}],\"assignments\":[]}",
        );
        assert!(bad_state.contains("ajar"), "{bad_state}");
        let bad_weight = inject(
            "{\"pool_cores\":8,\"quantum\":16.0,\"starvation_secs\":60.0,\
             \"tenants\":[{\"id\":0,\"weight\":-1.0,\"guaranteed_cores\":4,\
             \"cap_cores\":8,\"state\":\"open\"}],\"assignments\":[]}",
        );
        assert!(bad_weight.contains("tenancy"), "{bad_weight}");
        let bad_pair = inject(
            "{\"pool_cores\":8,\"quantum\":16.0,\"starvation_secs\":60.0,\
             \"tenants\":[],\"assignments\":[[1]]}",
        );
        assert!(bad_pair.contains("pair"), "{bad_pair}");
    }

    #[test]
    fn malformed_scenario_files_name_the_field() {
        let err = match scenario_json::from_json(&hcloud_json::parse("{}").expect("valid")) {
            Err(e) => e,
            Ok(_) => panic!("empty object must not decode"),
        };
        assert!(err.contains("config"), "{err}");
    }

    /// Writes `body` to a temp file and returns its path. The file is
    /// cleaned up when the returned guard drops.
    struct TempDoc(std::path::PathBuf);
    impl TempDoc {
        fn new(stem: &str, body: &str) -> TempDoc {
            let path =
                std::env::temp_dir().join(format!("hcloud-cli-{stem}-{}", std::process::id()));
            fs::write(&path, body).expect("temp write");
            TempDoc(path)
        }
        fn path(&self) -> &str {
            self.0.to_str().expect("utf-8 path")
        }
    }
    impl Drop for TempDoc {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
        }
    }

    #[test]
    fn load_scenario_accepts_both_formats() {
        // Exported format.
        let config = ScenarioConfig::scaled(ScenarioKind::Static, 0.05, 5);
        let scenario = Scenario::generate(config, &RngFactory::new(7));
        let file = ScenarioFile {
            config: scenario.config().clone(),
            jobs: scenario.jobs().to_vec(),
            tenancy: None,
        };
        let doc = TempDoc::new("export", &scenario_json::to_json(&file).to_string());
        let loaded = load_scenario(doc.path(), 42).expect("exported file loads");
        assert!(loaded.spot.is_none());
        assert_eq!(loaded.scenario.jobs(), scenario.jobs());
        assert!(loaded.summary.contains("exported"), "{}", loaded.summary);

        // DSL format: detected by schema_version, spot section mapped
        // onto the run policy.
        let dsl = hcloud_workloads::dsl::example_flash_crowd();
        let doc = TempDoc::new("dsl", &dsl.render());
        let loaded = load_scenario(doc.path(), 42).expect("DSL file loads");
        let spot = loaded.spot.expect("flash-crowd example carries spot");
        assert_eq!(spot.bid_multiplier, dsl.spot.unwrap().bid_multiplier);
        assert_eq!(spot.max_quality, dsl.spot.unwrap().max_quality);
        assert!(loaded.summary.contains("flash-crowd"), "{}", loaded.summary);
        // Generation is seed-deterministic and matches a direct call.
        let direct = dsl.generate(&RngFactory::new(42));
        assert_eq!(loaded.scenario.jobs(), direct.jobs());
    }

    #[test]
    fn load_scenario_rejects_malformed_dsl_naming_the_field() {
        let body = hcloud_workloads::dsl::example_diurnal()
            .render()
            .replace("\"load_scale\"", "\"load_scale_typo\"");
        let doc = TempDoc::new("bad-dsl", &body);
        let err = load_scenario(doc.path(), 42).expect_err("typo'd field must fail");
        assert!(err.contains("load_scale"), "{err}");
        assert!(validate_file(doc.path()).is_err(), "validate surfaces it");
    }
}
