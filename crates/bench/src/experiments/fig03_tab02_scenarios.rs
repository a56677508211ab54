//! Figure 3 / Table 2: the three workload scenarios.
//!
//! Prints the target required-core curves (Figure 3) as sparklines plus a
//! resampled series, and the measured Table 2 characteristics of the
//! generated job streams.

use hcloud_sim::{SimDuration, SimTime};
use hcloud_workloads::ScenarioKind;

use crate::{sparkline, Harness, Table};

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let ctx = *h.ctx();
    println!("Figure 3: the three workload scenarios (required cores over time)\n");
    let step = SimDuration::from_mins(2);
    let mut json_rows: Vec<Vec<f64>> = Vec::new();
    let mut curves: Vec<(ScenarioKind, Vec<f64>)> = Vec::new();
    for kind in ScenarioKind::ALL {
        let config = ctx.scenario_config(kind);
        let mut series = Vec::new();
        let mut t = SimTime::ZERO;
        while t <= SimTime::ZERO + config.duration {
            series.push(config.target_cores(t));
            t += step;
        }
        println!("{:>16}: {}", kind.name(), sparkline(&series));
        curves.push((kind, series));
    }
    let n = curves[0].1.len();
    for i in 0..n {
        let minutes = (i as f64) * step.as_mins_f64();
        json_rows.push(vec![
            minutes,
            curves[0].1[i],
            curves[1].1[i],
            curves[2].1[i],
        ]);
    }
    h.write_json(
        "fig03_scenarios",
        &["minute", "static", "low_var", "high_var"],
        &json_rows,
    );

    println!(
        "\nTable 2: workload scenario characteristics (measured from the generated streams)\n"
    );
    let mut t2 = Table::new(vec!["", "Static", "Low Var", "High Var"]);
    let stats: Vec<_> = ScenarioKind::ALL
        .iter()
        .map(|&k| h.scenario(k).stats())
        .collect();
    t2.row(
        std::iter::once("max:min resources ratio".to_string())
            .chain(stats.iter().map(|s| format!("{:.1}x", s.max_min_ratio)))
            .collect(),
    );
    t2.row(
        std::iter::once("batch:low-latency - in jobs".to_string())
            .chain(
                stats
                    .iter()
                    .map(|s| format!("{:.1}x", s.batch_lc_job_ratio)),
            )
            .collect(),
    );
    t2.row(
        std::iter::once("         - in core-seconds".to_string())
            .chain(
                stats
                    .iter()
                    .map(|s| format!("{:.1}x", s.batch_lc_core_ratio)),
            )
            .collect(),
    );
    t2.row(
        std::iter::once("mean job duration (min)".to_string())
            .chain(stats.iter().map(|s| format!("{:.1}", s.mean_duration_mins)))
            .collect(),
    );
    t2.row(
        std::iter::once("jobs generated".to_string())
            .chain(stats.iter().map(|s| format!("{}", s.job_count)))
            .collect(),
    );
    let ideal: Vec<String> = ScenarioKind::ALL
        .iter()
        .map(|&k| format!("{:.1}", h.scenario(k).ideal_completion().as_hours_f64()))
        .collect();
    t2.row(
        std::iter::once("ideal completion time (hr)".to_string())
            .chain(ideal)
            .collect(),
    );
    println!("{t2}");
    println!("(paper: ratios 1.1x/1.5x/6.2x, jobs 4.2x/3.6x/4.1x, cores 1.4x/1.4x/1.5x, ideal ~2.1/2.0/2.0 hr)");
}
