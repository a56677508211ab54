//! Multi-tenant extension: weighted fair share over one provisioned pool.
//!
//! HCloud provisions for one owner; shared clusters carve the same
//! capacity across thousands of tenants with wildly skewed demand. This
//! experiment attaches a Zipf-weighted [`TenancyPlan`] (2000 tenants in
//! full mode, 200 under `HCLOUD_FAST=1`) to the high-variability
//! scenario and reports, per strategy × variant:
//!
//! * **SLO attainment** — fraction of jobs finishing with normalized
//!   performance ≥ 0.7, overall and for the heaviest tenants;
//! * **Jain fairness** — over per-tenant admission counts (an
//!   equal-share population sits at 1.0; the Zipf skew itself drives
//!   the tenanted runs far below that, which is the point — admissions
//!   track weight, not head-count);
//! * **cost and makespan** — what tenancy gating costs the provider;
//! * tenancy-machinery counters (deferrals, drains, elastic borrows,
//!   starvation-relief preemptions).
//!
//! Two identities are enforced in-binary (hard artifact failure, not a
//! report row):
//!
//! * **empty-plan identity** — a scenario carrying a [`TenancyPlan`]
//!   with zero tenants must produce a byte-identical digest to the
//!   untenanted run (the one-branch-when-off contract, end to end);
//! * **starvation reclaim** — a micro-scenario with a borrower squatting
//!   on a fully-guaranteed pool must show at least one starvation-relief
//!   preemption, with the guaranteed tenant recording the reclaim.
//!
//! CI diffs the fast-mode digests against the committed
//! `crates/bench/goldens/ext_multi_tenant_fast.json`.

use std::process::ExitCode;
use std::sync::Arc;

use hcloud::runner::{run_scenario, RunCtx};
use hcloud::{RunConfig, RunResult, StrategyId, StrategyRef};
use hcloud_bench::fleet::run_digest;
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{artifacts, ExperimentPlan, Harness, RunSpec, Table};
use hcloud_faults::FaultPlanId;
use hcloud_json::{ObjectBuilder, Value};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_sim::rng::{RngFactory, SimRng};
use hcloud_sim::SimTime;
use hcloud_tenancy::{TenancyPlan, TenantSpec};
use hcloud_workloads::{AppClass, JobId, JobKind, JobSpec, Scenario, ScenarioConfig, ScenarioKind};

/// Jobs at or above this normalized performance kept their SLO.
const SLO_THRESHOLD: f64 = 0.7;

/// Zipf skew for the tenant weight distribution (rank-1 tenants carry
/// most of the demand, the tail is long and thin).
const ZIPF_SKEW: f64 = 1.1;

/// Fraction of the pool handed out as hard guarantees; the rest is
/// elastic headroom tenants borrow against.
const GUARANTEE_FRAC: f64 = 0.5;

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::EXT_MULTI_TENANT;

/// The strategies under test: the static baseline and the paper's best
/// hybrid.
const STRATEGIES: [StrategyId; 2] = [StrategyId::SR, StrategyId::HM];

/// Scenario variants per strategy.
const VARIANTS: [&str; 3] = ["untenanted", "tenanted", "tenanted-chaos"];

/// Sizes the shared pool to the scenario's mean concurrent core demand:
/// total demanded core-seconds over the arrival window. Tight enough
/// that tenants actually contend, wide enough that the largest job fits.
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

/// The Zipf-skewed tenant population with every scenario job assigned to
/// a tenant by weighted draw from one named RNG stream.
fn tenant_plan(scenario: &Scenario, tenants: usize, rng: &mut SimRng) -> TenancyPlan {
    let mut plan = TenancyPlan::zipf(tenants, ZIPF_SKEW, pool_for(scenario), GUARANTEE_FRAC);
    let ids: Vec<u64> = scenario.jobs().iter().map(|j| j.id.0).collect();
    plan.assign_jobs(&ids, rng);
    plan
}

/// The run spec for one (strategy, variant) cell.
fn spec(
    base: &Arc<Scenario>,
    tenanted: &Arc<Scenario>,
    strategy: impl Into<StrategyRef>,
    variant: &str,
) -> RunSpec {
    let strategy = strategy.into();
    let scenario = if variant == "untenanted" {
        base
    } else {
        tenanted
    };
    let label = format!("{variant}/{strategy}");
    let s = RunSpec::on(Arc::clone(scenario), strategy).label(label);
    if variant == "tenanted-chaos" {
        s.map_config(|c| c.with_faults(FaultPlanId::FullChaos.plan()))
    } else {
        s
    }
}

/// Fraction of `r`'s jobs that kept their SLO.
fn slo_attainment(r: &RunResult) -> f64 {
    let perfs = r.normalized_perf(None);
    let kept = perfs.iter().filter(|&&p| p >= SLO_THRESHOLD).count();
    kept as f64 / perfs.len().max(1) as f64
}

/// A deterministic batch job for the starvation micro-demo (mirrors the
/// scheduler's unit-test fixture: sensitivity seeded by job id).
fn demo_job(id: u64, cores: u32, secs: f64) -> JobSpec {
    let mut rng = SimRng::from_seed_u64(id);
    JobSpec {
        id: JobId(id),
        class: AppClass::SparkBatch,
        arrival: SimTime::ZERO,
        kind: JobKind::Batch {
            work_core_secs: cores as f64 * secs,
        },
        cores,
        sensitivity: AppClass::SparkBatch.sample_sensitivity(&mut rng),
    }
}

/// Runs the starvation-reclaim micro-scenario end to end: tenant 0 is
/// guaranteed the whole pool, tenant 1 (guarantee 0) borrows it first,
/// and the starvation monitor must evict the borrower so the guaranteed
/// tenant reclaims its share. Returns the completed run.
fn starvation_demo(seed: u64) -> RunResult {
    let jobs = vec![demo_job(0, 4, 2_000.0), demo_job(1, 4, 2_000.0)];
    // Without profiling the scheduler sizes jobs by user reservation
    // (deterministic per id); size the pool so either fits alone but
    // never both.
    let pool = jobs
        .iter()
        .map(|j| j.user_sized_cores().clamp(1, 16))
        .max()
        .unwrap_or(4);
    let mut plan = TenancyPlan::new(pool)
        .with_quantum(16.0)
        .with_starvation_secs(30.0)
        .tenant(TenantSpec::new(0, 4.0, pool, pool))
        .tenant(TenantSpec::new(1, 1.0, 0, pool));
    plan.assign(0, 1); // job 0 -> the borrower
    plan.assign(1, 0); // job 1 -> the guaranteed tenant
    let scenario =
        Scenario::from_jobs(ScenarioConfig::scaled(ScenarioKind::Static, 0.05, 10), jobs)
            .with_tenancy(plan);
    let mut config = RunConfig::new(StrategyId::SR).without_profiling();
    config.reserved_cores_override = Some(32);
    let factory = RngFactory::new(seed);
    let ctx = RunCtx::new(&factory);
    run_scenario(&scenario, &config, &ctx).expect("no auditor attached")
}

fn main() -> ExitCode {
    let mut h = Harness::for_experiment(INFO);
    let rates = Rates::default();
    let model = PricingModel::aws();
    let tenants = if h.ctx().fast { 200 } else { 2000 };

    // The base scenario and its tenanted twin share every job byte; only
    // the attached plan differs.
    let base = Arc::new(h.scenario(ScenarioKind::HighVariability).clone());
    let plan = tenant_plan(&base, tenants, &mut h.factory().stream("tenant-assign"));
    if let Err(e) = plan.validate() {
        artifacts::artifact_failure("ext_multi_tenant plan", e);
        return artifacts::exit_code();
    }
    let pool = plan.pool_cores;
    let tenanted = Arc::new(base.as_ref().clone().with_tenancy(plan.clone()));
    eprintln!(
        "[ext_multi_tenant] {} jobs, {tenants} tenants (zipf skew {ZIPF_SKEW}), pool {pool} cores",
        base.jobs().len(),
    );

    let mut grid = ExperimentPlan::new();
    for strategy in STRATEGIES {
        for variant in VARIANTS {
            grid.push(spec(&base, &tenanted, strategy, variant));
        }
    }
    h.run_plan(grid);

    // Identity 1: an empty tenancy plan must not perturb the simulation.
    let empty = Arc::new(base.as_ref().clone().with_tenancy(TenancyPlan::new(pool)));
    let untenanted_digest = run_digest(h.run(spec(&base, &tenanted, StrategyId::HM, "untenanted")));
    let empty_digest =
        run_digest(h.run(RunSpec::on(Arc::clone(&empty), StrategyId::HM).label("empty-plan/HM")));
    let identical = untenanted_digest == empty_digest;
    if !identical {
        artifacts::artifact_failure(
            "ext_multi_tenant empty-plan identity",
            format!("untenanted {untenanted_digest} vs empty-plan {empty_digest}"),
        );
        return artifacts::exit_code();
    }
    eprintln!("[ext_multi_tenant] empty-plan identity: byte-identical ({untenanted_digest})");

    // Identity 2: a starved guaranteed tenant must reclaim its share.
    let demo = starvation_demo(h.ctx().master_seed);
    let demo_digest = run_digest(&demo);
    if demo.counters.tenant_preemptions == 0 {
        artifacts::artifact_failure(
            "ext_multi_tenant starvation reclaim",
            "starved guaranteed tenant never preempted the borrower",
        );
        return artifacts::exit_code();
    }
    let reclaims: u64 = demo.tenant_stats.iter().map(|t| t.reclaims).sum();
    eprintln!(
        "[ext_multi_tenant] starvation demo: {} preemption(s), {} reclaim(s), {:.0} core-s lost, digest {demo_digest}",
        demo.counters.tenant_preemptions, reclaims, demo.counters.work_lost_core_secs,
    );

    // The headline grid.
    println!("Multi-tenant fair share: {tenants} Zipf tenants over a {pool}-core pool\n");
    let mut t = Table::new(vec![
        "strategy",
        "variant",
        "SLO",
        "fairness",
        "cost ($)",
        "makespan (h)",
        "deferred",
        "drained",
        "borrowed",
        "preempted",
    ]);
    let mut rows: Vec<Value> = Vec::new();
    for strategy in STRATEGIES.map(StrategyRef::from) {
        for variant in VARIANTS {
            let r = h.run(spec(&base, &tenanted, &strategy, variant));
            let slo = slo_attainment(r);
            let fairness = r.tenant_admission_fairness();
            let cost = r.cost(&rates, &model).total();
            let makespan_h = r.makespan.as_hours_f64();
            let c = &r.counters;
            t.row(vec![
                strategy.short_name().into(),
                variant.into(),
                format!("{:.1}%", slo * 100.0),
                format!("{fairness:.3}"),
                format!("{cost:.0}"),
                format!("{makespan_h:.2}"),
                format!("{}", c.tenant_deferred_jobs),
                format!("{}", c.tenant_drained_jobs),
                format!("{}", c.tenant_borrowed_admissions),
                format!("{}", c.tenant_preemptions),
            ]);
            rows.push(
                ObjectBuilder::new()
                    .set("strategy", strategy.short_name())
                    .set("variant", variant)
                    .set("digest", run_digest(r))
                    .set("slo", slo)
                    .set("fairness", fairness)
                    .set("cost", cost)
                    .set("makespan_h", makespan_h)
                    .set("deferred", c.tenant_deferred_jobs as f64)
                    .set("drained", c.tenant_drained_jobs as f64)
                    .set("borrowed", c.tenant_borrowed_admissions as f64)
                    .set("preempted", c.tenant_preemptions as f64)
                    .build(),
            );
        }
    }
    println!("{t}");
    println!("(the gate holds admissions to each tenant's weighted share, so the");
    println!(" tenanted runs trade queueing delay for proportional access; chaos");
    println!(" rides on top — preempted work re-enters the fault-requeue path");
    println!(" with its executed core-seconds carried over, never double-billed)");

    // Per-tenant drill-down on the tenanted hybrid run: the heaviest
    // tenants by admissions, with their own SLO attainment.
    let tenanted_hm = h.run(spec(&base, &tenanted, StrategyId::HM, "tenanted"));
    let mut stats = tenanted_hm.tenant_stats.clone();
    stats.sort_by(|a, b| b.admitted.cmp(&a.admitted).then(a.id.cmp(&b.id)));
    let mut per_tenant_slo: std::collections::BTreeMap<u64, (usize, usize)> =
        std::collections::BTreeMap::new();
    for o in &tenanted_hm.outcomes {
        if let Some(tid) = plan.tenant_of(o.id.0) {
            let e = per_tenant_slo.entry(tid.0).or_default();
            e.1 += 1;
            if o.normalized_perf >= SLO_THRESHOLD {
                e.0 += 1;
            }
        }
    }
    println!("\nHeaviest tenants (tenanted HM run):\n");
    let mut tt = Table::new(vec![
        "tenant",
        "weight",
        "guaranteed",
        "cap",
        "admitted",
        "deferred",
        "SLO",
        "mean wait (s)",
        "victims",
        "reclaims",
    ]);
    let mut tenant_rows: Vec<Value> = Vec::new();
    for s in stats.iter().take(8) {
        let (kept, ran) = per_tenant_slo.get(&s.id).copied().unwrap_or((0, 0));
        let slo = kept as f64 / ran.max(1) as f64;
        let mean_wait = s.total_queue_wait_secs / (s.drained.max(1) as f64);
        tt.row(vec![
            format!("{}", s.id),
            format!("{:.4}", s.weight),
            format!("{}", s.guaranteed_cores),
            format!("{}", s.cap_cores),
            format!("{}", s.admitted),
            format!("{}", s.deferred),
            format!("{:.1}%", slo * 100.0),
            format!("{mean_wait:.0}"),
            format!("{}", s.victims),
            format!("{}", s.reclaims),
        ]);
        tenant_rows.push(
            ObjectBuilder::new()
                .set("tenant", s.id as f64)
                .set("weight", s.weight)
                .set("guaranteed_cores", s.guaranteed_cores as f64)
                .set("admitted", s.admitted as f64)
                .set("deferred", s.deferred as f64)
                .set("slo", slo)
                .set("mean_wait_s", mean_wait)
                .build(),
        );
    }
    println!("{tt}");

    let doc = ObjectBuilder::new()
        .set("schema_version", artifacts::SCHEMA_VERSION)
        .set("bench", "ext_multi_tenant")
        .set("mode", if h.ctx().fast { "fast" } else { "full" })
        .set("seed", h.ctx().master_seed as f64)
        .set(
            "tenancy",
            ObjectBuilder::new()
                .set("tenants", tenants as f64)
                .set("zipf_skew", ZIPF_SKEW)
                .set("guarantee_frac", GUARANTEE_FRAC)
                .set("pool_cores", pool as f64)
                .build(),
        )
        .set("strategies", Value::Array(rows))
        .set(
            "identity",
            ObjectBuilder::new()
                .set("untenanted_digest", untenanted_digest.as_str())
                .set("empty_plan_digest", empty_digest.as_str())
                .set("identical", identical)
                .build(),
        )
        .set(
            "starvation",
            ObjectBuilder::new()
                .set("digest", demo_digest.as_str())
                .set("preemptions", demo.counters.tenant_preemptions as f64)
                .set("reclaims", reclaims as f64)
                .set("work_lost_core_secs", demo.counters.work_lost_core_secs)
                .build(),
        )
        .set("tenants_top", Value::Array(tenant_rows))
        .build();
    let path = std::path::Path::new("results").join("ext_multi_tenant.json");
    let ok = std::fs::create_dir_all("results").is_ok()
        && std::fs::write(&path, doc.to_pretty() + "\n").is_ok();
    if ok {
        artifacts::artifact_written(&path);
    } else {
        artifacts::artifact_failure(format!("write {}", path.display()), "io error");
    }
    h.finish("ext_multi_tenant")
}
