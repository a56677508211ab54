//! Ablations of HCloud's design choices (beyond the paper's sweeps).
//!
//! Each ablation removes or perturbs one mechanism of the dynamic policy
//! and measures what it was buying, on the high-variability scenario
//! under HM:
//!
//! 1. **soft/hard utilization limits** — a grid over the starting soft
//!    limit and the hard limit;
//! 2. **Q90 vs QT quality matching** — replace the dynamic policy with
//!    the static policies that drop one ingredient;
//! 3. **classification fidelity** — shrink the Quasar corpus and rank and
//!    watch placement quality erode;
//! 4. **retention quality gate** — disable the "release poorly-performing
//!    instances immediately" rule.

use hcloud::{MappingPolicy, StrategyId};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_workloads::ScenarioKind;

use crate::{ExperimentPlan, Harness, RunSpec, Table};

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let kind = ScenarioKind::HighVariability;
    let rates = Rates::default();
    let model = PricingModel::aws();

    // All four ablation grids fan out as one plan up front; each section
    // below reads its cached runs.
    let limits = [
        (0.35, 0.55),
        (0.50, 0.70),
        (0.65, 0.85),
        (0.75, 0.95),
        (0.30, 0.95),
    ];
    let limit_spec = |soft, hard| {
        RunSpec::of(kind, StrategyId::HM).map_config(move |c| c.with_dynamic_limits(soft, hard))
    };
    let policies = [
        ("dynamic (full)", MappingPolicy::Dynamic),
        (
            "drop Q-matching (P6: load<70%)",
            MappingPolicy::UtilizationLimit(0.7),
        ),
        (
            "drop load-awareness (P2: Q>80%)",
            MappingPolicy::QualityThreshold(0.8),
        ),
        ("drop both (P1: random)", MappingPolicy::Random),
    ];
    let quasar_grid = [(240usize, 4usize), (60, 4), (24, 2), (12, 1)];
    let quasar_spec = |corpus, rank| {
        RunSpec::of(kind, StrategyId::HM).map_config(move |c| {
            let mut quasar = c.quasar.clone();
            quasar.corpus_size = corpus;
            quasar.rank = rank;
            c.with_quasar(quasar)
        })
    };
    let gates = [("on (q<0.75 released)", 0.75), ("off", 0.0)];
    let gate_spec = |threshold| {
        RunSpec::of(kind, StrategyId::ODM)
            .map_config(move |c| c.with_quality_retention_threshold(threshold))
    };

    let mut plan = ExperimentPlan::new();
    for (soft, hard) in limits {
        plan.push(limit_spec(soft, hard));
    }
    for (_, policy) in policies {
        plan.push(RunSpec::of(kind, StrategyId::HM).policy(policy));
    }
    for (corpus, rank) in quasar_grid {
        plan.push(quasar_spec(corpus, rank));
    }
    for (_, threshold) in gates {
        plan.push(gate_spec(threshold));
    }
    h.run_plan(plan);

    // ------------------------------------------------------------------
    println!("Ablation 1: soft/hard utilization limits (HM, high variability)\n");
    println!("The paper sets the soft limit experimentally at 60-65% and the hard");
    println!("limit near 80%. The defaults (0.65/0.85) sit in the flat optimum:\n");
    let mut t = Table::new(vec!["soft", "hard", "perf", "res util%", "queued", "cost"]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for (soft, hard) in limits {
        let r = h.run(limit_spec(soft, hard));
        let cost = r.cost(&rates, &model).total();
        t.row(vec![
            format!("{soft:.2}"),
            format!("{hard:.2}"),
            format!("{:.3}", r.mean_normalized_perf()),
            format!(
                "{:.0}",
                r.mean_reserved_utilization().unwrap_or(0.0) * 100.0
            ),
            format!("{}", r.counters.queued_jobs),
            format!("{cost:.1}$"),
        ]);
        json.push(vec![
            soft,
            hard,
            r.mean_normalized_perf(),
            r.mean_reserved_utilization().unwrap_or(0.0),
            r.counters.queued_jobs as f64,
            cost,
        ]);
    }
    println!("{t}");
    h.write_json(
        "ablation_limits",
        &["soft", "hard", "perf", "util", "queued", "cost"],
        &json,
    );

    // ------------------------------------------------------------------
    println!("Ablation 2: what each ingredient of the dynamic policy buys\n");
    let mut t = Table::new(vec!["policy", "perf", "res util%", "cost"]);
    for (label, policy) in policies {
        let r = h.run(RunSpec::of(kind, StrategyId::HM).policy(policy));
        t.row(vec![
            label.into(),
            format!("{:.3}", r.mean_normalized_perf()),
            format!(
                "{:.0}",
                r.mean_reserved_utilization().unwrap_or(0.0) * 100.0
            ),
            format!("{:.1}$", r.cost(&rates, &model).total()),
        ]);
    }
    println!("{t}");

    // ------------------------------------------------------------------
    println!("Ablation 3: classification fidelity (corpus size × rank)\n");
    let mut t = Table::new(vec!["corpus", "rank", "perf", "lc mean (µs)"]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for (corpus, rank) in quasar_grid {
        let r = h.run(quasar_spec(corpus, rank));
        let lc = r.lc_latency_boxplot().expect("LC jobs");
        t.row(vec![
            format!("{corpus}"),
            format!("{rank}"),
            format!("{:.3}", r.mean_normalized_perf()),
            format!("{:.0}", lc.mean),
        ]);
        json.push(vec![
            corpus as f64,
            rank as f64,
            r.mean_normalized_perf(),
            lc.mean,
        ]);
    }
    println!("{t}");
    println!("(a starved classifier misjudges Q, sending sensitive jobs to shared");
    println!(" instances — the quality matching is only as good as Quasar's signal)\n");
    h.write_json(
        "ablation_quasar",
        &["corpus", "rank", "perf", "lc_mean"],
        &json,
    );

    // ------------------------------------------------------------------
    println!("Ablation 4: retention quality gate (OdM, high variability)\n");
    let mut t = Table::new(vec!["gate", "perf", "lc mean (µs)", "imm. released"]);
    for (label, threshold) in gates {
        let r = h.run(gate_spec(threshold));
        let lc = r.lc_latency_boxplot().expect("LC jobs");
        t.row(vec![
            label.into(),
            format!("{:.3}", r.mean_normalized_perf()),
            format!("{:.0}", lc.mean),
            format!("{}", r.counters.od_released_immediately),
        ]);
    }
    println!("{t}");
    println!("(Section 3.2: \"Only instances that provide predictably high");
    println!(" performance are retained past the completion of their jobs\")");
}
