//! Statistical replication of the headline results across seeds.
//!
//! Single-run numbers can be flattered by one lucky seed. This experiment
//! re-runs the high-variability comparison over ten master seeds and
//! reports mean ± standard deviation for every headline metric, plus the
//! worst-case seed — the reproduction's claims should survive all of
//! them.

use hcloud::StrategyRegistry;
use hcloud_pricing::{PricingModel, Rates};
use hcloud_sim::stats::OnlineStats;
use hcloud_workloads::ScenarioKind;

use crate::{Harness, RunSpec, Table};

const SEEDS: [u64; 10] = [42, 7, 11, 21, 33, 99, 123, 2024, 31337, 271828];

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let rates = Rates::default();
    let model = PricingModel::aws();
    println!(
        "Replication: headline metrics over {} seeds, high-variability scenario\n",
        SEEDS.len()
    );

    // Per-strategy accumulators.
    let mut perf: Vec<OnlineStats> = vec![OnlineStats::new(); 5];
    let mut degradation: Vec<OnlineStats> = vec![OnlineStats::new(); 5];
    let mut cost: Vec<OnlineStats> = vec![OnlineStats::new(); 5];
    // Headline ratios per seed.
    let mut hm_within = OnlineStats::new();
    let mut odm_vs_sr = OnlineStats::new();
    let mut hm_vs_odm = OnlineStats::new();
    let mut util = OnlineStats::new();
    let mut worst_hm_within = f64::MIN;
    let mut json: Vec<Vec<f64>> = Vec::new();

    // All 50 runs (10 seeds x 5 strategies) fan out as one plan.
    let plan: crate::ExperimentPlan = SEEDS
        .iter()
        .flat_map(|&seed| {
            StrategyRegistry::paper()
                .iter()
                .map(move |s| RunSpec::of(ScenarioKind::HighVariability, s).seed(seed))
        })
        .collect();
    let results = h.run_plan(plan);

    for (sidx, &seed) in SEEDS.iter().enumerate() {
        let runs = &results
            [sidx * StrategyRegistry::paper().len()..(sidx + 1) * StrategyRegistry::paper().len()];
        let mut jrow = vec![seed as f64];
        for (i, r) in runs.iter().enumerate() {
            perf[i].record(r.mean_normalized_perf());
            degradation[i].record(r.mean_degradation());
            cost[i].record(r.cost(&rates, &model).total());
            jrow.push(r.mean_degradation());
        }
        json.push(jrow);
        let sr = runs[0].mean_degradation();
        let odm = runs[2].mean_degradation();
        let hm = runs[4].mean_degradation();
        let within =
            (runs[4].mean_normalized_perf() / runs[0].mean_normalized_perf() - 1.0).abs() * 100.0;
        hm_within.record(within);
        worst_hm_within = worst_hm_within.max(within);
        odm_vs_sr.record(odm / sr);
        hm_vs_odm.record(odm / hm);
        if let Some(u) = runs[4].mean_reserved_utilization() {
            util.record(u * 100.0);
        }
    }

    let fmt = |s: &OnlineStats| {
        format!(
            "{:.3} ± {:.3}",
            s.mean().unwrap_or(f64::NAN),
            s.std_dev().unwrap_or(f64::NAN)
        )
    };
    let mut t = Table::new(vec![
        "strategy",
        "mean perf",
        "mean degradation",
        "run cost $",
    ]);
    for (i, strategy) in StrategyRegistry::paper().iter().enumerate() {
        t.row(vec![
            strategy.short_name().into(),
            fmt(&perf[i]),
            fmt(&degradation[i]),
            fmt(&cost[i]),
        ]);
    }
    println!("{t}");

    println!("Headline checks across seeds (mean ± std, worst seed):");
    println!(
        "  OdM degradation vs SR: {}x (paper: 2.2x)",
        fmt(&odm_vs_sr)
    );
    println!(
        "  HM improvement vs OdM: {}x (paper: 2.1x)",
        fmt(&hm_vs_odm)
    );
    println!(
        "  HM gap to SR: {}% — worst seed {:.1}% (paper: within 8%)",
        fmt(&hm_within),
        worst_hm_within
    );
    println!("  HM reserved utilization: {}% (paper: ~80%)", fmt(&util));
    h.write_json(
        "replication",
        &["seed", "SR_deg", "OdF_deg", "OdM_deg", "HF_deg", "HM_deg"],
        &json,
    );
}
