//! Integration tests for the Section 5.5 data-locality extension.

use hcloud::config::DataLocalityModel;
use hcloud::{
    runner::{run_scenario, RunCtx},
    RunConfig, RunResult, StrategyId,
};
use hcloud_sim::rng::RngFactory;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};

fn scenario() -> Scenario {
    Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.15, 30),
        &RngFactory::new(33),
    )
}

fn run(data: Option<DataLocalityModel>) -> RunResult {
    let mut config = RunConfig::new(StrategyId::HM);
    config.data = data;
    run_scenario(&scenario(), &config, &RunCtx::new(&RngFactory::new(33)))
        .expect("no auditor attached")
}

#[test]
fn default_has_no_transfers() {
    let r = run(None);
    assert_eq!(r.counters.data_transfers, 0);
    assert_eq!(r.counters.data_transferred_gb, 0.0);
}

#[test]
fn split_clusters_cause_transfers_and_cost_performance() {
    let base = run(None);
    let split = run(Some(DataLocalityModel::default()));
    assert!(split.counters.data_transfers > 0);
    assert!(split.counters.data_transferred_gb > 0.0);
    assert!(
        split.mean_normalized_perf() < base.mean_normalized_perf(),
        "transfers should cost performance: {:.3} vs {:.3}",
        split.mean_normalized_perf(),
        base.mean_normalized_perf()
    );
    // All jobs still complete.
    assert_eq!(split.outcomes.len(), scenario().jobs().len());
}

#[test]
fn data_aware_placement_moves_less_data() {
    let mk = |aware: bool| DataLocalityModel {
        private_data_fraction: 0.7,
        bandwidth_gbps: 10.0,
        data_aware_placement: aware,
    };
    let oblivious = run(Some(mk(false)));
    let aware = run(Some(mk(true)));
    assert!(
        aware.counters.data_transferred_gb < oblivious.counters.data_transferred_gb,
        "data-aware moved {:.0} GB vs oblivious {:.0} GB",
        aware.counters.data_transferred_gb,
        oblivious.counters.data_transferred_gb
    );
    assert!(
        aware.mean_normalized_perf() >= oblivious.mean_normalized_perf(),
        "data-aware perf {:.3} should be >= oblivious {:.3}",
        aware.mean_normalized_perf(),
        oblivious.mean_normalized_perf()
    );
}

#[test]
fn faster_links_hurt_less() {
    let mk = |gbps: f64| {
        Some(DataLocalityModel {
            private_data_fraction: 0.7,
            bandwidth_gbps: gbps,
            data_aware_placement: true,
        })
    };
    let slow = run(mk(1.0));
    let fast = run(mk(100.0));
    assert!(
        fast.mean_normalized_perf() > slow.mean_normalized_perf(),
        "100 Gbit/s {:.3} should beat 1 Gbit/s {:.3}",
        fast.mean_normalized_perf(),
        slow.mean_normalized_perf()
    );
}

#[test]
fn data_home_is_deterministic_and_respects_fraction() {
    let all_private = DataLocalityModel {
        private_data_fraction: 1.0,
        ..DataLocalityModel::default()
    };
    let none_private = DataLocalityModel {
        private_data_fraction: 0.0,
        ..DataLocalityModel::default()
    };
    let half = DataLocalityModel {
        private_data_fraction: 0.5,
        ..DataLocalityModel::default()
    };
    let mut private_count = 0;
    for id in 0..2000u64 {
        assert!(all_private.data_in_private(id));
        assert!(!none_private.data_in_private(id));
        assert_eq!(half.data_in_private(id), half.data_in_private(id));
        if half.data_in_private(id) {
            private_count += 1;
        }
    }
    assert!(
        (800..1200).contains(&private_count),
        "half split produced {private_count}/2000 private"
    );
}

#[test]
fn dataset_sizes_are_deterministic_and_class_shaped() {
    let s = scenario();
    for j in s.jobs().iter().take(200) {
        let gb = j.dataset_gb();
        assert!(gb > 0.0 && gb < 1000.0, "dataset {gb} GB");
        assert_eq!(gb, j.dataset_gb(), "dataset size must be stable");
    }
    // Real-time Spark stages carry tiny datasets compared to Hadoop.
    let rt: Vec<f64> = s
        .jobs()
        .iter()
        .filter(|j| j.class == hcloud_workloads::AppClass::SparkRealtime)
        .map(|j| j.dataset_gb())
        .collect();
    let hadoop: Vec<f64> = s
        .jobs()
        .iter()
        .filter(|j| j.class == hcloud_workloads::AppClass::HadoopRecommender)
        .map(|j| j.dataset_gb())
        .collect();
    if !rt.is_empty() && !hadoop.is_empty() {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&rt) < mean(&hadoop) / 10.0);
    }
}
