//! Figure 9: the dynamic policy's internals.
//!
//! Left: the soft utilization limit adapting to queue pressure over the
//! high-variability run. Right: validation of the queueing-time
//! estimator — estimated vs measured waits per requested instance size.

use hcloud::StrategyId;
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{sparkline, write_json, Harness, RunSpec, Table};
use hcloud_sim::stats::Cdf;
use hcloud_workloads::ScenarioKind;

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::FIG09;

fn main() -> std::process::ExitCode {
    let mut h = Harness::for_experiment(INFO);
    let r = h.run(RunSpec::of(ScenarioKind::HighVariability, StrategyId::HM));

    println!("Figure 9 (left): soft utilization limit over time (HM, high variability)\n");
    let series: Vec<f64> = r.soft_limit_trace.iter().map(|&(_, v)| v * 100.0).collect();
    let lo = series.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = series.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!("  soft limit: {}", sparkline(&series));
    println!(
        "  range: {lo:.1}% .. {hi:.1}% over {} adjustments",
        series.len()
    );
    let json: Vec<Vec<f64>> = r
        .soft_limit_trace
        .iter()
        .map(|&(t, v)| vec![t.as_mins_f64(), v])
        .collect();
    write_json("fig09a_soft_limit", &["minute", "soft_limit"], &json);

    println!("\nFigure 9 (right): estimated vs measured queueing time\n");
    let mut t = Table::new(vec![
        "size (vCPUs)",
        "samples",
        "est p50 (s)",
        "meas p50 (s)",
        "est p99 (s)",
        "meas p99 (s)",
    ]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for size in [1u32, 2, 4, 8, 16] {
        let pairs: Vec<(f64, f64)> = r
            .wait_samples
            .iter()
            .filter(|w| w.size == size)
            .filter_map(|w| {
                w.estimated
                    .map(|e| (e.as_secs_f64(), w.actual.as_secs_f64()))
            })
            .collect();
        if pairs.len() < 5 {
            continue;
        }
        let est =
            Cdf::from_values(&pairs.iter().map(|p| p.0).collect::<Vec<_>>()).expect("non-empty");
        let meas =
            Cdf::from_values(&pairs.iter().map(|p| p.1).collect::<Vec<_>>()).expect("non-empty");
        t.row(vec![
            format!("{size}"),
            format!("{}", pairs.len()),
            format!("{:.1}", est.quantile(0.5)),
            format!("{:.1}", meas.quantile(0.5)),
            format!("{:.1}", est.quantile(0.99)),
            format!("{:.1}", meas.quantile(0.99)),
        ]);
        json.push(vec![
            size as f64,
            pairs.len() as f64,
            est.quantile(0.5),
            meas.quantile(0.5),
            est.quantile(0.99),
            meas.quantile(0.99),
        ]);
    }
    println!("{t}");
    println!("(paper: \"in all cases the deviation between estimated and measured");
    println!(" queueing time is minimal\" — the estimator is intentionally");
    println!(" conservative, so estimates bound the measured waits from above)");
    write_json(
        "fig09b_wait_validation",
        &[
            "size", "samples", "est_p50", "meas_p50", "est_p99", "meas_p99",
        ],
        &json,
    );
    h.finish("fig09")
}
