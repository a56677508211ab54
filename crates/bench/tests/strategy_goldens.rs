//! The five paper strategies on the `ProvisioningStrategy` trait are
//! pinned to the committed hot-path golden.
//!
//! Registry-resolved handles must reproduce the committed
//! `BENCH_hotpath_fast.json` digests exactly (the same digests CI
//! compares after running `perf_hotpath`), so a behavioural regression
//! in a strategy fails here, in-tree, before it fails in CI.

use hcloud::runner::{run_scenario, RunCtx};
use hcloud::{RunConfig, StrategyRegistry};
use hcloud_bench::fleet::run_digest;
use hcloud_sim::rng::RngFactory;
use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};

/// The committed fast-mode hot-path golden (the digests CI enforces).
fn hotpath_golden() -> hcloud_json::Value {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/goldens/BENCH_hotpath_fast.json"
    );
    let text = std::fs::read_to_string(path).expect("committed golden exists");
    hcloud_json::parse(&text).expect("golden is valid JSON")
}

/// Registry-resolved paper strategies reproduce the committed hot-path
/// golden digests on the exact scenario `perf_hotpath` runs in fast
/// mode (high-variability ×0.25, 20 minutes, seed 42).
#[test]
fn registry_strategies_match_the_committed_hotpath_golden() {
    let scenario = Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.25, 20),
        &RngFactory::new(42),
    );
    let golden = hotpath_golden();
    let rows = golden
        .get("strategies")
        .and_then(|v| v.as_array())
        .expect("golden has strategy rows");
    assert_eq!(rows.len(), StrategyRegistry::paper().len());
    for row in rows {
        let short = row
            .get("strategy")
            .and_then(|v| v.as_str())
            .expect("row names a strategy");
        let strategy = StrategyRegistry::builtin()
            .get(short)
            .expect("golden strategy is registered");
        let factory = RngFactory::new(42);
        let r = run_scenario(
            &scenario,
            &RunConfig::new(&strategy),
            &RunCtx::new(&factory),
        )
        .expect("no auditor attached");
        let want = row.get("digest").and_then(|v| v.as_str()).expect("digest");
        assert_eq!(
            run_digest(&r),
            want,
            "{short}: trait-ported strategy drifted from the committed golden"
        );
        let events = row.get("events").and_then(|v| v.as_f64()).expect("events");
        assert_eq!(r.counters.events_processed as f64, events, "{short} events");
        let instances = row
            .get("instances")
            .and_then(|v| v.as_f64())
            .expect("instances");
        assert_eq!(r.usage_records.len() as f64, instances, "{short} instances");
    }
}
