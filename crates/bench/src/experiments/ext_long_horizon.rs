//! Long-horizon scenario-DSL extension: multi-week demand shapes with a
//! spot market layered on top.
//!
//! The paper's scenarios span a two-hour arrival window; its cost
//! arguments (reserved amortization, spot savings) play out over weeks.
//! This experiment drives the versioned scenario DSL
//! (`hcloud_workloads::dsl`) end to end: the three authored example
//! documents — a 14-day diurnal cycle with weekend damping, a 2-day
//! flash-crowd, and a 4-day batch-burst train — each compile to a demand
//! curve, generate a deterministic job stream, and run under HM two
//! ways: `plain` and `chaos` (the full-chaos fault plan). The diurnal
//! and flash-crowd documents carry a spot section, so their runs bid for
//! spot capacity, absorb price-spike preemptions through the
//! fault-requeue path, and report spot savings next to cost.
//!
//! Three identities ship with the numbers:
//!
//! * **round-trip** — every example document re-serializes
//!   byte-identically through the DSL codec before anything runs;
//! * **spot engagement** — every run of a document with a spot section
//!   acquires spot capacity and loses some of it to a price spike;
//! * **golden** — `cargo test` compares the fast-mode run with the
//!   committed `crates/bench/goldens/ext_long_horizon_fast.json`, then
//!   reruns it under `HCLOUD_JOBS=4 HCLOUD_AUDIT=strict` (the
//!   spot-billing partition must reconcile exactly) and requires the
//!   same bytes.
//!
//! Fast mode keeps the full horizons (the 14-day diurnal stays 14 days)
//! but stretches arrivals 4x, so the smoke grid runs in seconds.

use std::sync::Arc;

use hcloud::config::SpotPolicy;
use hcloud::{RunResult, StrategyId};
use hcloud_faults::FaultPlanId;
use hcloud_json::{ObjectBuilder, Value};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_workloads::dsl;
use hcloud_workloads::{Scenario, ScenarioDsl};

use crate::fleet::run_digest;
use crate::{artifacts, report, ExperimentPlan, Harness, RunSpec, Table};

/// Scenario variants per family.
const VARIANTS: [&str; 2] = ["plain", "chaos"];

/// Fast mode stretches mean inter-arrival by this factor: same horizons,
/// same demand shapes, a quarter of the jobs.
const FAST_INTERARRIVAL_MULT: u64 = 4;

/// The run spec for one (family, variant) cell: HM, the document's spot
/// section (when present), and the full-chaos plan on `chaos`.
fn spec(doc: &ScenarioDsl, scenario: &Arc<Scenario>, variant: &str) -> RunSpec {
    let spot = doc.spot.map(|s| SpotPolicy {
        bid_multiplier: s.bid_multiplier,
        max_quality: s.max_quality,
    });
    let chaos = variant == "chaos";
    RunSpec::on(Arc::clone(scenario), StrategyId::HM)
        .label(format!("{}/{variant}", doc.name))
        .map_config(|mut c| {
            if let Some(policy) = spot {
                c = c.with_spot(policy);
            }
            if chaos {
                c = c.with_faults(FaultPlanId::FullChaos.plan());
            }
            c
        })
}

/// One result row for the table and the JSON artifact.
fn row(
    doc: &ScenarioDsl,
    variant: &str,
    r: &RunResult,
    rates: &Rates,
    model: &PricingModel,
) -> Value {
    ObjectBuilder::new()
        .set("family", doc.family.kind_name())
        .set("scenario", doc.name.as_str())
        .set("variant", variant)
        .set("digest", run_digest(r))
        .set("jobs", r.outcomes.len() as f64)
        .set("perf", r.mean_normalized_perf())
        .set("makespan_h", r.makespan.as_hours_f64())
        .set("cost", r.cost(rates, model).total())
        .set("spot_hours", r.spot_hours())
        .set("spot_savings", r.spot_savings(rates))
        .set("spot_acquired", r.counters.spot_acquired as f64)
        .set("spot_terminations", r.counters.spot_terminations as f64)
        .build()
}

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let rates = Rates::default();
    let model = PricingModel::aws();

    let mut docs = dsl::examples();
    if h.ctx().fast {
        for doc in &mut docs {
            doc.mean_interarrival = doc.mean_interarrival * FAST_INTERARRIVAL_MULT;
        }
    }

    // Round-trip identity: every document survives render → parse →
    // render byte-identically before anything simulates.
    for doc in &docs {
        let text = doc.render();
        let back = match ScenarioDsl::parse(&text) {
            Ok(back) => back,
            Err(e) => {
                artifacts::artifact_failure(format!("ext_long_horizon parse '{}'", doc.name), e);
                return;
            }
        };
        if back.render() != text {
            artifacts::artifact_failure(
                format!("ext_long_horizon round-trip '{}'", doc.name),
                "re-serialized document differs",
            );
            return;
        }
    }

    let factory = h.factory();
    let scenarios: Vec<Arc<Scenario>> = docs
        .iter()
        .map(|doc| Arc::new(doc.generate(&factory)))
        .collect();
    eprintln!(
        "[ext_long_horizon] families: {}; variants plain/chaos; strategy HM",
        docs.iter()
            .map(|d| {
                format!(
                    "{} ({:.0}d{})",
                    d.family.kind_name(),
                    d.family.duration().as_hours_f64() / 24.0,
                    if d.spot.is_some() { ", spot" } else { "" }
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    );

    let mut grid = ExperimentPlan::new();
    for (doc, scenario) in docs.iter().zip(&scenarios) {
        for variant in VARIANTS {
            grid.push(spec(doc, scenario, variant));
        }
    }
    h.run_plan(grid);

    println!("Long-horizon DSL families under HM, with and without chaos\n");
    let mut t = Table::new(vec![
        "family",
        "variant",
        "jobs",
        "perf",
        "cost ($)",
        "spot saved ($)",
        "evictions",
        "digest",
    ]);
    let mut rows: Vec<Value> = Vec::new();
    let mut unengaged: Vec<String> = Vec::new();
    for (doc, scenario) in docs.iter().zip(&scenarios) {
        for variant in VARIANTS {
            let r = h.run(spec(doc, scenario, variant));
            if doc.spot.is_some()
                && (r.counters.spot_acquired == 0 || r.counters.spot_terminations == 0)
            {
                unengaged.push(format!("{}/{variant}", doc.name));
            }
            t.row(vec![
                doc.family.kind_name().into(),
                variant.into(),
                r.outcomes.len().to_string(),
                format!("{:.1}%", r.mean_normalized_perf() * 100.0),
                format!("{:.0}", r.cost(&rates, &model).total()),
                format!("{:.0}", r.spot_savings(&rates)),
                r.counters.spot_terminations.to_string(),
                run_digest(&r),
            ]);
            rows.push(row(doc, variant, &r, &rates, &model));
        }
    }
    println!("{t}");
    println!("(spot savings = spot hours billed below the on-demand rate; evictions");
    println!(" are price-spike preemptions recovered through the fault-requeue path)");

    if !unengaged.is_empty() {
        artifacts::artifact_failure(
            "ext_long_horizon spot engagement",
            format!(
                "no spot acquisition or no spot termination in {}",
                unengaged.join(", ")
            ),
        );
        return;
    }

    let families: Vec<Value> = docs
        .iter()
        .zip(&scenarios)
        .map(|(doc, scenario)| {
            ObjectBuilder::new()
                .set("name", doc.name.as_str())
                .set("family", doc.family.kind_name())
                .set("days", doc.family.duration().as_hours_f64() / 24.0)
                .set("jobs", scenario.jobs().len() as f64)
                .set("spot", doc.spot.is_some())
                .build()
        })
        .collect();
    let doc = ObjectBuilder::new()
        .set("schema_version", artifacts::SCHEMA_VERSION)
        .set("bench", "ext_long_horizon")
        .set("mode", if h.ctx().fast { "fast" } else { "full" })
        .set("seed", h.ctx().master_seed as f64)
        .set("dsl_schema_version", dsl::SCHEMA_VERSION as f64)
        .set("families", families)
        .set("runs", Value::Array(rows))
        .build();
    report::write_document("ext_long_horizon", &doc);
}
