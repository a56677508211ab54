//! Every registered golden reproduces, and every audited experiment
//! keeps its bytes under more workers, strict audit and tracing.
//!
//! One test walks `registry::ALL`, so a new golden or audited entry is
//! checked by its registry fields alone. For each entry with a golden or
//! `audit_covered`:
//!
//! 1. **Plain run.** `hcloud-bench <id>` runs FAST with one worker in a
//!    fresh directory, every other `HCLOUD_*` variable cleared, and must
//!    exit 0. When the entry has a golden, its artifact
//!    `results/<artifacts[0]>.json` must hold every key of the golden
//!    with an equal value, recursively: arrays compare index by index and
//!    must be equally long. Only the [`WALL_CLOCK`] keys are skipped;
//!    CI's regression guards read those.
//! 2. **Checked run**, when the entry is `audit_covered`. The same run
//!    with `HCLOUD_JOBS=4 HCLOUD_AUDIT=strict`, plus `HCLOUD_TRACE=full`
//!    when it is `trace_covered`, must exit 0, print the plain run's
//!    stdout and write its `results/*.json` byte for byte. A traced run
//!    must leave one trace file per run its `[id] engine: N simulated`
//!    line counts, and each must replay clean through
//!    `hcloud_audit::replay_file`.

mod common;

use std::path::Path;

use common::Run;
use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_json::Value;

/// Keys holding wall-clock time, which differs between any two runs.
const WALL_CLOCK: [&str; 3] = ["wall_ms", "total_wall_ms", "quantile_churn_ms"];

/// Runs `hcloud-bench <id>` with `HCLOUD_FAST=1` plus `env`, every other
/// `HCLOUD_*` variable cleared, in a fresh directory named after `tag`.
/// Panics unless it exits 0.
fn fast(id: &str, tag: &str, env: &[(&str, &str)]) -> Run {
    let mut all = vec![("HCLOUD_FAST", "1")];
    all.extend_from_slice(env);
    let run = Run::new(&format!("goldens-{id}-{tag}"), &[id], &all);
    assert!(
        run.out.status.success(),
        "{id} under {env:?} failed: {}\n{}",
        run.out.status,
        run.stderr()
    );
    run
}

/// The parsed `results/<stem>.json` of `info`'s first artifact.
fn artifact(run: &Run, info: &ExperimentInfo) -> Value {
    let stem = info
        .artifacts
        .first()
        .unwrap_or_else(|| panic!("{}: a golden entry writes an artifact", info.id));
    read_json(&run.dir.join("results").join(format!("{stem}.json")))
}

fn read_json(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    hcloud_json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

fn golden(path: &str) -> Value {
    read_json(
        &Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(path),
    )
}

/// Checks that `got` holds everything `want` holds: each object key bar
/// the [`WALL_CLOCK`] ones, each element of an equally long array, each
/// scalar equal. The error names the JSON path of the first difference.
fn holds(got: &Value, want: &Value, path: &str) -> Result<(), String> {
    match (got, want) {
        (Value::Object(_), Value::Object(want)) => {
            for (key, w) in want {
                if WALL_CLOCK.contains(&key.as_str()) {
                    continue;
                }
                let path = format!("{path}.{key}");
                let g = got.get(key).ok_or_else(|| format!("{path}: missing"))?;
                holds(g, w, &path)?;
            }
            Ok(())
        }
        (Value::Array(got), Value::Array(want)) => {
            if got.len() != want.len() {
                return Err(format!(
                    "{path}: {} elements, the golden has {}",
                    got.len(),
                    want.len()
                ));
            }
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                holds(g, w, &format!("{path}[{i}]"))?;
            }
            Ok(())
        }
        _ if got == want => Ok(()),
        _ => Err(format!("{path}: got {got}, the golden has {want}")),
    }
}

/// The plain run against the golden, if any, then the checked run
/// against the plain run, if audited.
fn check(info: &ExperimentInfo) {
    let id = info.id;
    let plain = fast(id, "plain", &[("HCLOUD_JOBS", "1")]);
    if let Some(golden_path) = info.golden {
        if let Err(e) = holds(&artifact(&plain, info), &golden(golden_path), "$") {
            panic!("{id} differs from {golden_path} at {e}");
        }
    }
    if !info.audit_covered {
        return;
    }

    let mut env = vec![("HCLOUD_JOBS", "4"), ("HCLOUD_AUDIT", "strict")];
    if info.trace_covered {
        env.push(("HCLOUD_TRACE", "full"));
    }
    let checked = fast(id, "checked", &env);
    assert!(
        checked.out.stdout == plain.out.stdout,
        "{id}: stdout under {env:?} differs from the plain run's"
    );
    let (want, got) = (
        plain.files("results", "json"),
        checked.files("results", "json"),
    );
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{id}: artifacts under {env:?}"
    );
    for (name, bytes) in &got {
        assert!(
            *bytes == want[name],
            "{id}: results/{name} under {env:?} differs from the plain run's"
        );
    }
    if info.trace_covered {
        let traces = checked.files("results/traces", "jsonl");
        assert!(!traces.is_empty(), "{id}: no trace under {env:?}");
        assert_eq!(
            traces.len(),
            checked.simulated(id),
            "{id}: one trace file per simulated run"
        );
        for (name, bytes) in traces {
            let text = String::from_utf8(bytes).expect("UTF-8 trace");
            if let Err(e) = hcloud_audit::replay_file(&text) {
                panic!("{id}: trace {name} fails the offline replay: {e}");
            }
        }
    }
}

#[test]
fn registered_goldens_reproduce_and_audited_runs_keep_their_bytes() {
    for info in registry::ALL {
        assert!(
            info.audit_covered || !info.trace_covered,
            "{}: the traced run is the checked run, which needs audit_covered",
            info.id
        );
    }
    let checked: Vec<_> = registry::ALL
        .iter()
        .filter(|info| info.golden.is_some() || info.audit_covered)
        .collect();
    assert!(
        checked.iter().any(|info| info.golden.is_some()),
        "the registry names no golden"
    );
    for info in checked {
        check(info);
    }
}

/// An artifact in the shape of the perf goldens.
const SAMPLE: &str = r#"{"bench":"perf_hotpath","strategies":[
    {"strategy":"SR","wall_ms":15.6,"events":9044,"digest":"1964ddda788f135c"},
    {"strategy":"HM","wall_ms":20.1,"events":9001,"digest":"0e27f5a5ac3c4e11"}],
    "total_wall_ms":35.7,"quantile_churn_ms":49.6}"#;

/// [`holds`] of [`SAMPLE`] edited by `from` → `to` against [`SAMPLE`].
fn edited(from: &str, to: &str) -> Result<(), String> {
    assert!(SAMPLE.contains(from), "{from} is in the sample");
    let got = hcloud_json::parse(&SAMPLE.replacen(from, to, 1)).expect("edited sample parses");
    holds(
        &got,
        &hcloud_json::parse(SAMPLE).expect("sample parses"),
        "$",
    )
}

#[test]
fn a_golden_difference_fails_naming_its_path() {
    for (from, to, path) in [
        (
            "0e27f5a5ac3c4e11",
            "0e27f5a5ac3c4e12",
            "$.strategies[1].digest:",
        ),
        (r#""events":9044,"#, "", "$.strategies[0].events: missing"),
        (
            r#",
    {"strategy":"HM","wall_ms":20.1,"events":9001,"digest":"0e27f5a5ac3c4e11"}"#,
            "",
            "$.strategies: 1 elements, the golden has 2",
        ),
        ("9044", r#""9044""#, "$.strategies[0].events:"),
    ] {
        let err = edited(from, to).expect_err(from);
        assert!(err.starts_with(path), "{from} -> {to}: {err}");
    }
}

#[test]
fn wall_clock_keys_and_extra_keys_never_fail() {
    assert_eq!(edited("15.6", "99.9"), Ok(()));
    assert_eq!(edited("35.7", "0.1"), Ok(()));
    assert_eq!(edited("49.6", "1e9"), Ok(()));
    assert_eq!(
        edited(r#"{"bench""#, r#"{"schema_version":2,"bench""#),
        Ok(())
    );
}
