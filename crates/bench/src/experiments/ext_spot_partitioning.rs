//! Section 5.5 extensions: spot instances and resource partitioning.
//!
//! The paper defers both to future work; this experiment quantifies them in
//! our reproduction.
//!
//! * **Spot instances**: HM routes tolerant batch jobs' *new* on-demand
//!   acquisitions to the spot market. Sweep the bid multiplier: lower
//!   bids save more per hour but get terminated by market spikes
//!   (terminated jobs are evacuated to regular on-demand capacity,
//!   losing at most one checkpoint interval of progress).
//! * **Resource partitioning**: cache/memory-bandwidth/network caps
//!   shield shared instances from that fraction of external pressure.
//!   Sweep the isolation degree and watch OdM — the strategy whose
//!   weakness is exactly this unpredictability — recover.

use hcloud::config::SpotPolicy;
use hcloud::StrategyId;
use hcloud_pricing::{PricingModel, Rates};
use hcloud_workloads::ScenarioKind;

use crate::{ExperimentPlan, Harness, RunSpec, Table};

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let kind = ScenarioKind::HighVariability;
    let rates = Rates::default();
    let model = PricingModel::aws();

    let bids = [0.36, 0.40, 0.45, 0.60, 1.00, 2.00];
    let isolations = [0.0, 0.25, 0.5, 0.75, 1.0];
    let spot_spec = |bid| {
        RunSpec::of(kind, StrategyId::HM).map_config(move |c| {
            c.with_spot(SpotPolicy {
                bid_multiplier: bid,
                max_quality: 0.80,
            })
        })
    };
    let partition_spec =
        |strategy, iso| RunSpec::of(kind, strategy).map_config(move |c| c.with_partitioning(iso));
    let mut plan = ExperimentPlan::new();
    plan.push(RunSpec::of(kind, StrategyId::HM));
    for &bid in &bids {
        plan.push(spot_spec(bid));
    }
    for &iso in &isolations {
        for strategy in [StrategyId::ODM, StrategyId::HM] {
            plan.push(partition_spec(strategy, iso));
        }
    }
    h.run_plan(plan);

    println!("Extension A: spot instances under HM (high variability)\n");
    let base = h.run(RunSpec::of(kind, StrategyId::HM));
    let base_cost = base.cost(&rates, &model).total();
    let mut t = Table::new(vec![
        "bid (x od)",
        "perf",
        "cost vs HM",
        "spot acquired",
        "terminations",
    ]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    t.row(vec![
        "no spot".into(),
        format!("{:.3}", base.mean_normalized_perf()),
        "100%".into(),
        "0".into(),
        "0".into(),
    ]);
    for &bid in &bids {
        let r = h.run(spot_spec(bid));
        let cost = r.cost(&rates, &model).total();
        t.row(vec![
            format!("{bid:.2}"),
            format!("{:.3}", r.mean_normalized_perf()),
            format!("{:.0}%", cost / base_cost * 100.0),
            format!("{}", r.counters.spot_acquired),
            format!("{}", r.counters.spot_terminations),
        ]);
        json.push(vec![
            bid,
            r.mean_normalized_perf(),
            cost / base_cost,
            r.counters.spot_acquired as f64,
            r.counters.spot_terminations as f64,
        ]);
    }
    println!("{t}");
    println!("(very low bids churn through terminations; bids near the on-demand");
    println!(" price stop saving; the sweet spot sits around 0.5-1.0x)\n");
    h.write_json(
        "ext_spot_bids",
        &["bid", "perf", "cost_vs_hm", "spot_acquired", "terminations"],
        &json,
    );

    println!("Extension B: resource partitioning (high variability)\n");
    let mut t = Table::new(vec![
        "isolation",
        "OdM perf",
        "OdM lc mean (µs)",
        "HM perf",
        "HM lc mean (µs)",
    ]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for &iso in &isolations {
        let mut row = vec![format!("{:.0}%", iso * 100.0)];
        let mut jrow = vec![iso];
        for strategy in [StrategyId::ODM, StrategyId::HM] {
            let r = h.run(partition_spec(strategy, iso));
            let lc = r.lc_latency_boxplot().expect("LC jobs");
            row.push(format!("{:.3}", r.mean_normalized_perf()));
            row.push(format!("{:.0}", lc.mean));
            jrow.push(r.mean_normalized_perf());
            jrow.push(lc.mean);
        }
        t.row(row);
        json.push(jrow);
    }
    println!("{t}");
    println!("(partitioning the LLC, memory and network bandwidth recovers a large");
    println!(" share of OdM's interference-induced gap — Section 5.5: \"resource");
    println!(" partitioning can reduce unpredictability in fully on-demand");
    println!(" systems\"; the residual gap is spin-up overhead and contention in");
    println!(" unpartitionable resources)");
    h.write_json(
        "ext_partitioning",
        &["isolation", "OdM_perf", "OdM_lc", "HM_perf", "HM_lc"],
        &json,
    );
}
