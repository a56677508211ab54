//! Figures 19 and 20: per-instance CPU utilization heatmaps for the five
//! strategies on the high-variability scenario.
//!
//! Figure 19 ranks servers from most- to least-utilized at each instant;
//! Figure 20 orders instances by acquisition, separating reserved
//! (bottom) from on-demand (top) for the hybrids.

use std::collections::BTreeMap;

use hcloud::StrategyRegistry;
use hcloud_sim::SimTime;
use hcloud_workloads::ScenarioKind;

use crate::{heatmap_row, ExperimentPlan, Harness, RunSpec};

/// Heatmap columns (time buckets) and rows (instance buckets) for the
/// ASCII rendering.
const TIME_BUCKETS: usize = 60;
const ROW_BUCKETS: usize = 16;

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let kind = ScenarioKind::HighVariability;
    println!("Figures 19-20: per-instance utilization, high-variability scenario");
    println!("(rows: instances, bucketed; columns: time; shade = mean CPU utilization)\n");

    let util_spec =
        |strategy| RunSpec::of(kind, strategy).map_config(|c| c.with_record_utilization(true));
    let plan: ExperimentPlan = StrategyRegistry::paper().iter().map(util_spec).collect();
    h.run_plan(plan);

    for strategy in StrategyRegistry::paper() {
        let r = h.run(util_spec(strategy));
        let end_min = r.makespan.as_mins_f64().max(1.0);

        // Collect samples into (instance, time-bucket) means.
        let mut per_instance: BTreeMap<usize, Vec<Vec<f64>>> = BTreeMap::new();
        let mut reserved_flags: BTreeMap<usize, bool> = BTreeMap::new();
        for s in &r.utilization_samples {
            let bucket = ((s.time.as_mins_f64() / end_min) * (TIME_BUCKETS as f64 - 1.0)) as usize;
            per_instance
                .entry(s.instance_index)
                .or_insert_with(|| vec![Vec::new(); TIME_BUCKETS])[bucket]
                .push(s.utilization);
            reserved_flags.insert(s.instance_index, s.reserved);
        }
        let grid: Vec<(bool, Vec<f64>)> = per_instance
            .iter()
            .map(|(idx, buckets)| {
                let row: Vec<f64> = buckets
                    .iter()
                    .map(|b| {
                        if b.is_empty() {
                            0.0
                        } else {
                            b.iter().sum::<f64>() / b.len() as f64
                        }
                    })
                    .collect();
                (reserved_flags[idx], row)
            })
            .collect();

        // Figure 20 ordering: acquisition order, reserved first.
        let mut ordered: Vec<&(bool, Vec<f64>)> = grid.iter().collect();
        ordered.sort_by_key(|(reserved, _)| !reserved);
        println!(
            "Strategy {}: {} instances ({} reserved)",
            strategy.short_name(),
            ordered.len(),
            ordered.iter().filter(|(res, _)| *res).count()
        );
        // Bucket instance rows so every strategy prints a fixed-height map.
        let rows = ordered.len().min(ROW_BUCKETS);
        for chunk_idx in (0..rows).rev() {
            let lo = chunk_idx * ordered.len() / rows;
            let hi = ((chunk_idx + 1) * ordered.len() / rows).max(lo + 1);
            let mut merged = vec![0.0; TIME_BUCKETS];
            for (_, row) in &ordered[lo..hi] {
                for (i, v) in row.iter().enumerate() {
                    merged[i] += v;
                }
            }
            for v in &mut merged {
                *v /= (hi - lo) as f64;
            }
            let marker = if ordered[lo].0 { "R" } else { "O" };
            println!("  {marker} |{}|", heatmap_row(&merged));
        }
        println!();

        // JSON export: mean utilization over time, split reserved/od.
        let mut json: Vec<Vec<f64>> = Vec::new();
        for b in 0..TIME_BUCKETS {
            let minute = b as f64 / TIME_BUCKETS as f64 * end_min;
            let mean_of = |want_reserved: bool| {
                let vals: Vec<f64> = grid
                    .iter()
                    .filter(|(res, _)| *res == want_reserved)
                    .map(|(_, row)| row[b])
                    .collect();
                if vals.is_empty() {
                    f64::NAN
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                }
            };
            json.push(vec![minute, mean_of(true), mean_of(false)]);
        }
        h.write_json(
            &format!("fig19_20_util_{}", strategy.short_name().to_lowercase()),
            &["minute", "reserved_mean_util", "od_mean_util"],
            &json,
        );
        let _ = SimTime::ZERO;
    }
    println!("(paper: SR's private cluster is mostly idle outside the demand hump;");
    println!(" OdM's many small instances run hot but churn; hybrids keep reserved");
    println!(" rows densely utilized with on-demand rows appearing during spikes)");
}
