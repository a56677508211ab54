//! The benchmark's contract with `BENCHMARK.json` and its own output.

use std::path::{Path, PathBuf};

use hcloud_bench::fleet::run_digest;
use hcloud_benchmark::metrics::{self, MetricDef};
use hcloud_benchmark::protocol::{run_workload, Protocol, Report};
use hcloud_benchmark::result_json;
use hcloud_benchmark::workload::{self, run_cell, Workload, REFERENCE_SEED};
use hcloud_json::Value;

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel)
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("BENCHMARK.json exists");
    hcloud_json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field {key}"))
}

fn check_declared(json: &Value, key: &str, declared: &[MetricDef]) {
    let listed = json.get(key).and_then(Value::as_array).expect(key);
    let names: Vec<&str> = listed.iter().map(|m| str_field(m, "name")).collect();
    let want: Vec<&str> = declared.iter().map(|m| m.name).collect();
    assert_eq!(names, want, "{key} names");
    for (m, def) in listed.iter().zip(declared) {
        assert_eq!(str_field(m, "unit"), def.unit, "{} unit", def.name);
        assert_eq!(
            str_field(m, "better"),
            def.better.name(),
            "{} better",
            def.name
        );
        assert_eq!(
            m.get("bound").and_then(Value::as_f64),
            def.bound,
            "{} bound",
            def.name
        );
    }
}

#[test]
fn benchmark_json_matches_the_binary() {
    let json = benchmark_json();
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, want);
    check_declared(&json, "end_to_end", metrics::END_TO_END);
    check_declared(&json, "per_layer", metrics::PER_LAYER);
}

#[test]
fn every_emitted_name_is_valid() {
    for w in Workload::ALL {
        assert!(metrics::valid_name(w.name()), "{}", w.name());
        for m in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            // Single-workload runs emit the bare name; full invocations
            // prefix it with the workload.
            assert!(metrics::valid_name(m.name), "{}", m.name);
            assert!(metrics::valid_name(&format!("{}.{}", w.name(), m.name)));
            let unit_ok = m.unit.len() <= 16
                && m.unit.bytes().all(|b| {
                    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
                });
            assert!(unit_ok, "unit {}", m.unit);
        }
    }
}

fn one_rep(seed: u64, trace: bool) -> Report {
    let protocol = Protocol {
        seed,
        seconds: 0.0,
        min_reps: 1,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("benchmark-out"),
    };
    run_workload(Workload::TenantZipf, &protocol, false)
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.def.name == name)
        .unwrap_or_else(|| panic!("{name} reported"))
        .value
}

fn assert_complete(report: &Report, declared: &[MetricDef]) {
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.def.name).collect();
    let want: Vec<&str> = declared.iter().map(|m| m.name).collect();
    assert_eq!(names, want);
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.def.name, m.value);
    }
    let line = result_json(std::slice::from_ref(report));
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
    let emitted = line.get("metrics").expect("metrics");
    for def in declared {
        let m = emitted
            .get(def.name)
            .unwrap_or_else(|| panic!("{}", def.name));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
    }
}

#[test]
fn one_tenant_zipf_rep_yields_every_end_to_end_metric() {
    let report = one_rep(REFERENCE_SEED, false);
    assert_complete(&report, metrics::END_TO_END);
    // The warm-up, which is the reference rep at the reference seed, and
    // one timed rep.
    assert_eq!(report.attempted, 2);
    for m in metrics::END_TO_END {
        assert!(value(&report, m.name) > 0.0, "{} is never 0", m.name);
    }

    // Any other seed adds the reference rep, and reports its simulated
    // outcomes bit for bit.
    let other = one_rep(7, false);
    assert_complete(&other, metrics::END_TO_END);
    assert_eq!(other.attempted, 3);
    for name in ["sim_cost_usd", "sim_perf_mean", "sim_perf_p5"] {
        assert_eq!(
            value(&other, name).to_bits(),
            value(&report, name).to_bits(),
            "{name}"
        );
    }
}

#[test]
fn one_traced_tenant_zipf_rep_yields_every_layer_metric_and_a_reconciled_profile() {
    let report = one_rep(REFERENCE_SEED, true);
    assert_complete(&report, metrics::PER_LAYER);
    assert!(
        value(&report, "tenancy.deferred_jobs") > 0.0,
        "tenant-zipf exercises the gate"
    );

    let folded = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("benchmark-out/tenant-zipf.folded"),
    )
    .expect("traced runs write the folded profile");
    let mut run_us = 0i64;
    for line in folded.lines() {
        let (stack, v) = line.rsplit_once(' ').expect("`stack value` lines");
        let v: i64 = v.parse().expect("integer µs");
        assert!(v >= 0, "{line}");
        if stack.starts_with("run_scenario;") {
            run_us += v;
        }
    }
    assert!(folded.contains("run_scenario;other "), "{folded}");
    let traced_us = value(&report, "core.run.traced_ms") * 1e3;
    assert!(
        (run_us as f64 - traced_us).abs() <= 0.01 * traced_us,
        "spans + other ({run_us} µs) reconcile to the traced wall ({traced_us} µs)"
    );
}

/// fleet-odm at seed 42 is `perf_fleet`'s committed 1M-job run: the
/// benchmark's own inputs and run path give its job count, event count,
/// instance count and digest.
#[test]
fn fleet_odm_at_seed_42_reproduces_bench_fleet() {
    let golden =
        std::fs::read_to_string(repo_file("results/BENCH_fleet.json")).expect("fleet run exists");
    let golden = hcloud_json::parse(&golden).expect("fleet run parses");
    let seed = golden.get("seed").and_then(Value::as_u64).expect("seed");
    assert_eq!(seed, 42);
    let wheel = &golden
        .get("queues")
        .and_then(Value::as_array)
        .expect("queues")[0];
    let count = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).expect(key);
    // Pinned as well as read, so a regenerated golden cannot move them.
    assert_eq!(str_field(wheel, "digest"), "3e5b9052d574d23c");
    assert_eq!(count(wheel, "events"), 4_889_895);

    let (inputs, _) = workload::setup(Workload::FleetOdm, seed);
    assert_eq!(inputs.cells.len(), 1);
    let run = run_cell(&inputs, &inputs.cells[0], seed, None).expect("clean run");
    let jobs = golden.get("scenario").expect("scenario");
    assert_eq!(run.result.outcomes.len() as u64, count(jobs, "jobs"));
    assert_eq!(
        run.result.counters.events_processed as u64,
        count(wheel, "events")
    );
    assert_eq!(
        run.result.usage_records.len() as u64,
        count(wheel, "instances")
    );
    assert_eq!(run_digest(&run.result), str_field(wheel, "digest"));
}
