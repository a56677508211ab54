//! Renders SVG versions of the paper's figures from the JSON series the
//! figure experiments write under `results/`.
//!
//! Run the figure experiments first (they produce `results/*.json`), then:
//!
//! ```text
//! hcloud-bench render_figures
//! ```
//!
//! Each available figure renders in a light and a dark variant under
//! `results/figures/`. Missing JSON inputs are skipped with a note — the
//! JSON files double as the table view for every chart.

use std::fs;

use hcloud_json::Value;

use crate::plot::{save_both, BoxChart, BoxGroup, BoxStats, LineChart, Series};
use crate::Harness;

const STRATEGIES: [&str; 5] = ["SR", "OdF", "OdM", "HF", "HM"];
const SCENARIOS: [&str; 3] = ["Static", "Low Variability", "High Variability"];

/// Loads `results/<name>.json` written by [`crate::write_json`].
fn load(name: &str) -> Option<Vec<Vec<f64>>> {
    let body = fs::read_to_string(format!("results/{name}.json")).ok()?;
    let v: Value = hcloud_json::parse(&body).ok()?;
    let rows = v.get("rows")?.as_array()?;
    Some(
        rows.iter()
            .filter_map(|r| {
                r.as_array().map(|cells| {
                    cells
                        .iter()
                        .map(|c| c.as_f64().unwrap_or(f64::NAN))
                        .collect()
                })
            })
            .collect(),
    )
}

fn skip(name: &str) {
    eprintln!("(skipping {name}: run its figure experiment first to produce results/{name}.json)");
}

/// Figure 3: the three scenario demand curves.
fn fig03() {
    let Some(rows) = load("fig03_scenarios") else {
        return skip("fig03_scenarios");
    };
    let names = ["Static", "Low var", "High var"];
    let chart = LineChart {
        title: "Figure 3: the three workload scenarios".into(),
        x_label: "time (minutes)".into(),
        y_label: "required cores".into(),
        y_max: None,
        series: (0..3)
            .map(|i| Series {
                name: names[i].into(),
                points: rows.iter().map(|r| (r[0], r[1 + i])).collect(),
            })
            .collect(),
    };
    save_both("fig03_scenarios", |t| chart.render_svg(t));
}

/// Figures 4/10: grouped boxplots per scenario and strategy.
fn boxfig(json: &str, out: &str, title: &str, y_label: &str, strategies: &[usize]) {
    let Some(rows) = load(json) else {
        return skip(json);
    };
    let groups = SCENARIOS
        .iter()
        .enumerate()
        .map(|(si, name)| BoxGroup {
            label: name.to_string(),
            boxes: rows
                .iter()
                // profiling == 1 (with profiling info) rows only.
                .filter(|r| r[0] as usize == si && r[2] == 1.0)
                .map(|r| {
                    let slot = strategies
                        .iter()
                        .position(|&s| s == r[1] as usize)
                        .map(|k| strategies[k])
                        .unwrap_or(r[1] as usize);
                    (
                        slot,
                        BoxStats {
                            p5: r[3],
                            p25: r[4],
                            mean: r[5],
                            p75: r[6],
                            p95: r[7],
                        },
                    )
                })
                .collect(),
        })
        .collect();
    let chart = BoxChart {
        title: title.into(),
        y_label: y_label.into(),
        series_names: STRATEGIES.iter().map(|s| s.to_string()).collect(),
        groups,
    };
    save_both(out, |t| chart.render_svg(t));
}

/// A generic "one line per strategy" sweep figure.
fn sweep_fig(json: &str, out: &str, title: &str, x_label: &str, y_label: &str) {
    let Some(rows) = load(json) else {
        return skip(json);
    };
    let chart = LineChart {
        title: title.into(),
        x_label: x_label.into(),
        y_label: y_label.into(),
        y_max: None,
        series: STRATEGIES
            .iter()
            .enumerate()
            .map(|(i, name)| Series {
                name: name.to_string(),
                points: rows.iter().map(|r| (r[0], r[1 + i])).collect(),
            })
            .collect(),
    };
    save_both(out, |t| chart.render_svg(t));
}

/// Figures 12/13: per-scenario cost curves, one SVG per scenario.
fn per_scenario_sweep(
    json: &str,
    out_prefix: &str,
    title: &str,
    x_label: &str,
    y_label: &str,
    y_max: Option<f64>,
) {
    let Some(rows) = load(json) else {
        return skip(json);
    };
    for (si, scenario) in SCENARIOS.iter().enumerate() {
        let scoped: Vec<&Vec<f64>> = rows.iter().filter(|r| r[0] as usize == si).collect();
        if scoped.is_empty() {
            continue;
        }
        let chart = LineChart {
            title: format!("{title} — {scenario}"),
            x_label: x_label.into(),
            y_label: y_label.into(),
            y_max,
            series: STRATEGIES
                .iter()
                .enumerate()
                .map(|(i, name)| Series {
                    name: name.to_string(),
                    points: scoped.iter().map(|r| (r[1], r[2 + i])).collect(),
                })
                .collect(),
        };
        let slug = scenario.to_lowercase().replace(' ', "_");
        save_both(&format!("{out_prefix}_{slug}"), |t| chart.render_svg(t));
    }
}

/// Runs the experiment.
pub fn run(_: &mut Harness) {
    fig03();
    boxfig(
        "fig04a_batch",
        "fig04a_batch",
        "Figure 4a: batch completion time, SR/OdF/OdM (with profiling)",
        "completion time (minutes)",
        &[0, 1, 2],
    );
    boxfig(
        "fig04b_memcached",
        "fig04b_memcached",
        "Figure 4b: memcached p99 latency, SR/OdF/OdM (with profiling)",
        "p99 latency (µs)",
        &[0, 1, 2],
    );
    boxfig(
        "fig10a_batch",
        "fig10a_batch",
        "Figure 10a: batch completion time, SR/HF/HM (with profiling)",
        "completion time (minutes)",
        &[0, 3, 4],
    );
    boxfig(
        "fig10b_memcached",
        "fig10b_memcached",
        "Figure 10b: memcached p99 latency, SR/HF/HM (with profiling)",
        "p99 latency (µs)",
        &[0, 3, 4],
    );
    // Figure 12's y-axis is capped like the paper's (SR exits the frame
    // at very low ratios where reserved capacity is absurdly expensive).
    per_scenario_sweep(
        "fig12_price_ratio",
        "fig12_price_ratio",
        "Figure 12: cost vs on-demand:reserved price ratio",
        "on-demand : reserved price per hour",
        "cost (× static SR)",
        Some(6.0),
    );
    per_scenario_sweep(
        "fig13_duration",
        "fig13_duration",
        "Figure 13: cost vs deployment duration",
        "duration (weeks)",
        "cost ($1000s)",
        None,
    );
    sweep_fig(
        "fig14a_spinup",
        "fig14a_spinup",
        "Figure 14a: p95 performance vs spin-up overhead",
        "spin-up overhead (s)",
        "p95 perf, normalized to SR (%)",
    );
    sweep_fig(
        "fig14b_external",
        "fig14b_external",
        "Figure 14b: p95 performance vs external load",
        "external load (%)",
        "p95 perf, normalized to isolation (%)",
    );
    eprintln!("done; see results/figures/");
}
