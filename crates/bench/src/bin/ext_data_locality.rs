//! Section 5.5 extension: data management across a private facility and
//! the public cloud.
//!
//! "In our current infrastructure both reserved and on-demand resources
//! reside in the same physical cluster. When reserved resources are
//! deployed as a private facility, provisioning must also consider how to
//! minimize data transfers and replication across the two clusters."
//!
//! This binary gives each job a dataset that deterministically lives on
//! one side, charges cross-cluster transfers at the inter-cluster link
//! bandwidth, and compares locality-oblivious placement against the
//! data-aware mitigation (prefer the data's side when the transfer would
//! dominate the job).

use hcloud::config::DataLocalityModel;
use hcloud::StrategyId;
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_bench::{write_json, ExperimentPlan, Harness, RunSpec, Table};
use hcloud_workloads::ScenarioKind;

/// This binary's entry in the experiment registry.
const INFO: &ExperimentInfo = &registry::EXT_DATA_LOCALITY;

fn main() -> std::process::ExitCode {
    let mut h = Harness::for_experiment(INFO);
    let kind = ScenarioKind::HighVariability;

    println!("Extension C: data locality across private/public clusters (HM, high variability)\n");
    let data_spec = |frac, gbps, aware| {
        RunSpec::of(kind, StrategyId::HM).map_config(move |c| {
            c.with_data(DataLocalityModel {
                private_data_fraction: frac,
                bandwidth_gbps: gbps,
                data_aware_placement: aware,
            })
        })
    };
    let mut plan = ExperimentPlan::new();
    plan.push(RunSpec::of(kind, StrategyId::HM));
    for frac in [0.0, 0.5, 0.7, 1.0] {
        for aware in [false, true] {
            plan.push(data_spec(frac, 10.0, aware));
        }
    }
    for gbps in [1.0, 10.0, 40.0, 100.0] {
        plan.push(data_spec(0.7, gbps, true));
    }
    h.run_plan(plan);

    let base = h.run(RunSpec::of(kind, StrategyId::HM));
    println!(
        "same-cluster baseline (the paper's setup): perf {:.3}, no transfers\n",
        base.mean_normalized_perf()
    );

    let mut t = Table::new(vec![
        "private data %",
        "placement",
        "perf",
        "transfers",
        "TB moved",
        "batch mean (min)",
    ]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for frac in [0.0, 0.5, 0.7, 1.0] {
        for aware in [false, true] {
            let r = h.run(data_spec(frac, 10.0, aware));
            let batch = r.batch_performance_boxplot().expect("batch jobs");
            t.row(vec![
                format!("{:.0}", frac * 100.0),
                if aware { "data-aware" } else { "oblivious" }.into(),
                format!("{:.3}", r.mean_normalized_perf()),
                format!("{}", r.counters.data_transfers),
                format!("{:.1}", r.counters.data_transferred_gb / 1000.0),
                format!("{:.1}", batch.mean),
            ]);
            json.push(vec![
                frac,
                aware as u8 as f64,
                r.mean_normalized_perf(),
                r.counters.data_transfers as f64,
                r.counters.data_transferred_gb,
                batch.mean,
            ]);
        }
    }
    println!("{t}");

    println!("Sensitivity to the inter-cluster link (70% private data, data-aware):\n");
    let mut t = Table::new(vec![
        "link (Gbit/s)",
        "perf",
        "TB moved",
        "batch mean (min)",
    ]);
    for gbps in [1.0, 10.0, 40.0, 100.0] {
        let r = h.run(data_spec(0.7, gbps, true));
        let batch = r.batch_performance_boxplot().expect("batch jobs");
        t.row(vec![
            format!("{gbps:.0}"),
            format!("{:.3}", r.mean_normalized_perf()),
            format!("{:.1}", r.counters.data_transferred_gb / 1000.0),
            format!("{:.1}", batch.mean),
        ]);
    }
    println!("{t}");
    println!("(splitting the clusters costs performance in proportion to the data");
    println!(" gravity on the wrong side; data-aware placement claws back most of");
    println!(" it by keeping heavy-transfer jobs with their datasets)");
    write_json(
        "ext_data_locality",
        &[
            "private_frac",
            "aware",
            "perf",
            "transfers",
            "gb_moved",
            "batch_mean",
        ],
        &json,
    );
    h.finish("ext_data_locality")
}
