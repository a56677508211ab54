//! Theory-grounded autoscaling extension: the two post-paper registry
//! strategies head-to-head with the paper's hybrids.
//!
//! HCloud's HF/HM hybrids react to the instantaneous queue; the two
//! strategies this experiment stresses are grounded in later scheduling
//! theory instead:
//!
//! * **RA (`reservation-autoscale`)** — Psychas–Ghaderi blocking-
//!   threshold autoscaling: the soft limit steps down when admission
//!   blocking trips a threshold repeatedly and creeps back up while the
//!   queue stays clear (arXiv 2005.13744);
//! * **QC (`queueing-capacity`)** — Furman-style `M[x]/G/s` capacity
//!   planning: a utilization ceiling derived from a square-root
//!   safety-staffing rule over the observed batch-size mix
//!   (arXiv 2209.08820).
//!
//! Each strategy runs the high-variability scenario three ways —
//! `plain`, `chaos` (the full-chaos fault plan) and `tenant-zipf`
//! (a Zipf-weighted tenant population gating admissions: 2000 tenants
//! in full mode, 200 under `HCLOUD_FAST=1`) — and reports SLO
//! attainment (normalized performance ≥ 0.7), total cost, makespan and
//! the per-cell digest.
//!
//! `cargo test`'s golden walk compares the fast-mode run with the
//! committed `crates/bench/goldens/ext_theory_strategies_fast.json` and
//! reruns it under `HCLOUD_JOBS=4 HCLOUD_AUDIT=strict`, to prove both new
//! strategies hold every conservation identity under chaos and tenancy.

use std::sync::Arc;

use hcloud::{StrategyRef, StrategyRegistry};
use hcloud_faults::FaultPlanId;
use hcloud_json::{ObjectBuilder, Value};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_workloads::{Scenario, ScenarioKind};

use crate::fleet::run_digest;
use crate::tenancy::{slo_attainment, zipf_plan, GUARANTEE_FRAC, ZIPF_SKEW};
use crate::{artifacts, report, ExperimentPlan, Harness, RunSpec, Table};

/// The grid: the paper's two hybrids as the baseline, then the two
/// theory-grounded newcomers.
const SHORT_NAMES: [&str; 4] = ["HF", "HM", "RA", "QC"];

/// Scenario variants per strategy.
const VARIANTS: [&str; 3] = ["plain", "chaos", "tenant-zipf"];

/// The run spec for one (strategy, variant) cell.
fn spec(
    base: &Arc<Scenario>,
    tenanted: &Arc<Scenario>,
    strategy: &StrategyRef,
    variant: &str,
) -> RunSpec {
    let scenario = if variant == "tenant-zipf" {
        tenanted
    } else {
        base
    };
    let s = RunSpec::on(Arc::clone(scenario), strategy)
        .label(format!("{variant}/{}", strategy.short_name()));
    if variant == "chaos" {
        s.map_config(|c| c.with_faults(FaultPlanId::FullChaos.plan()))
    } else {
        s
    }
}

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let rates = Rates::default();
    let model = PricingModel::aws();
    let tenants = if h.ctx().fast { 200 } else { 2000 };

    let strategies: Vec<StrategyRef> = SHORT_NAMES
        .iter()
        .map(|s| {
            StrategyRegistry::builtin()
                .get(s)
                .expect("builtin strategy")
        })
        .collect();

    let base = Arc::new(h.scenario(ScenarioKind::HighVariability).clone());
    let plan = zipf_plan(&base, tenants, &mut h.factory().stream("tenant-assign"));
    if let Err(e) = plan.validate() {
        artifacts::artifact_failure("ext_theory_strategies plan", e);
        return;
    }
    let pool = plan.pool_cores;
    let tenanted = Arc::new(base.as_ref().clone().with_tenancy(plan));
    eprintln!(
        "[ext_theory_strategies] {} jobs; variants plain/chaos/tenant-zipf \
         ({tenants} tenants, skew {ZIPF_SKEW}, pool {pool} cores); strategies: {}",
        base.jobs().len(),
        strategies
            .iter()
            .map(|s| s.short_name())
            .collect::<Vec<_>>()
            .join(" "),
    );

    let mut grid = ExperimentPlan::new();
    for strategy in &strategies {
        for variant in VARIANTS {
            grid.push(spec(&base, &tenanted, strategy, variant));
        }
    }
    h.run_plan(grid);

    println!("Theory-grounded autoscaling strategies vs the paper hybrids\n");
    let mut t = Table::new(vec![
        "strategy",
        "variant",
        "SLO",
        "perf",
        "cost ($)",
        "makespan (h)",
        "digest",
    ]);
    let mut rows: Vec<Value> = Vec::new();
    for strategy in &strategies {
        for variant in VARIANTS {
            let r = h.run(spec(&base, &tenanted, strategy, variant));
            let slo = slo_attainment(&r);
            let perf = r.mean_normalized_perf();
            let cost = r.cost(&rates, &model).total();
            let makespan_h = r.makespan.as_hours_f64();
            let digest = run_digest(&r);
            t.row(vec![
                strategy.short_name().into(),
                variant.into(),
                format!("{:.1}%", slo * 100.0),
                format!("{:.1}%", perf * 100.0),
                format!("{cost:.0}"),
                format!("{makespan_h:.2}"),
                digest.clone(),
            ]);
            rows.push(
                ObjectBuilder::new()
                    .set("strategy", strategy.id())
                    .set("short", strategy.short_name())
                    .set("variant", variant)
                    .set("digest", digest)
                    .set("slo", slo)
                    .set("perf", perf)
                    .set("cost", cost)
                    .set("makespan_h", makespan_h)
                    .build(),
            );
        }
    }
    println!("{t}");
    println!("(RA trades reserved headroom against admission blocking — its soft");
    println!(" limit steps down on repeated blocking and creeps back while the");
    println!(" queue stays clear; QC caps instance utilization at a square-root");
    println!(" staffing ceiling fit to the observed batch-size mix)");

    let doc = ObjectBuilder::new()
        .set("schema_version", artifacts::SCHEMA_VERSION)
        .set("bench", "ext_theory_strategies")
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
        .build();
    report::write_document("ext_theory_strategies", &doc);
}
