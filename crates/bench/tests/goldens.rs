//! Every registered golden reproduces, and every audited golden
//! experiment keeps its bytes under more workers, strict audit and
//! tracing.
//!
//! One test walks `registry::ALL`, so a new golden is checked by its
//! `golden` field and file alone. For each entry with a golden:
//!
//! 1. **Plain run.** `hcloud-bench <id>` runs FAST with one worker in a
//!    fresh directory, every other `HCLOUD_*` variable cleared, and must
//!    exit 0. Its artifact `results/<artifacts[0]>.json` must hold every
//!    key of the golden with an equal value, recursively: arrays compare
//!    index by index and must be equally long. Only the [`WALL_CLOCK`]
//!    keys are skipped; CI's regression guards read those.
//! 2. **Checked run**, when the entry is `audit_covered`. The same run
//!    with `HCLOUD_JOBS=4 HCLOUD_AUDIT=strict`, plus `HCLOUD_TRACE=full`
//!    when it is `trace_covered`, must exit 0, print the plain run's
//!    stdout and write its `results/*.json` byte for byte. A traced run
//!    must record at least one trace, and each must replay clean through
//!    `hcloud_audit::replay_file`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use hcloud_bench::registry::{self, ExperimentInfo};
use hcloud_json::Value;

/// Keys holding wall-clock time, which differs between any two runs.
const WALL_CLOCK: [&str; 3] = ["wall_ms", "total_wall_ms", "quantile_churn_ms"];

/// One finished `hcloud-bench` run; its directory goes when it drops.
struct Run {
    dir: PathBuf,
    out: Output,
}

impl Run {
    /// Runs `hcloud-bench <id>` with `HCLOUD_FAST=1` plus `env`, every
    /// other `HCLOUD_*` variable cleared, in a fresh directory named after
    /// `tag`. Panics unless it exits 0.
    fn fast(id: &str, tag: &str, env: &[(&str, &str)]) -> Run {
        let dir =
            std::env::temp_dir().join(format!("hcloud-goldens-{id}-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_hcloud-bench"));
        cmd.arg(id).current_dir(&dir);
        for (key, _) in std::env::vars() {
            if key.starts_with("HCLOUD_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("HCLOUD_FAST", "1").envs(env.iter().copied());
        let run = Run {
            out: cmd.output().expect("hcloud-bench runs"),
            dir,
        };
        assert!(
            run.out.status.success(),
            "{id} under {env:?} failed: {}\n{}",
            run.out.status,
            String::from_utf8_lossy(&run.out.stderr)
        );
        run
    }

    /// The parsed `results/<stem>.json` of `info`'s first artifact.
    fn artifact(&self, info: &ExperimentInfo) -> Value {
        let stem = info
            .artifacts
            .first()
            .unwrap_or_else(|| panic!("{}: a golden entry writes an artifact", info.id));
        read_json(&self.dir.join("results").join(format!("{stem}.json")))
    }

    /// Every file with extension `ext` directly under `sub`, by name.
    fn files(&self, sub: &str, ext: &str) -> BTreeMap<String, Vec<u8>> {
        let Ok(entries) = std::fs::read_dir(self.dir.join(sub)) else {
            return BTreeMap::new();
        };
        entries
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().and_then(|e| e.to_str()) == Some(ext))
            .map(|path| {
                let name = path.file_name().expect("file name").to_string_lossy();
                (name.into_owned(), std::fs::read(&path).expect("readable"))
            })
            .collect()
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
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

/// The plain run against the golden, then the checked run against the
/// plain run.
fn check(info: &ExperimentInfo, golden_path: &str) {
    let id = info.id;
    let plain = Run::fast(id, "plain", &[("HCLOUD_JOBS", "1")]);
    if let Err(e) = holds(&plain.artifact(info), &golden(golden_path), "$") {
        panic!("{id} differs from {golden_path} at {e}");
    }
    if !info.audit_covered {
        return;
    }

    let mut env = vec![("HCLOUD_JOBS", "4"), ("HCLOUD_AUDIT", "strict")];
    if info.trace_covered {
        env.push(("HCLOUD_TRACE", "full"));
    }
    let checked = Run::fast(id, "checked", &env);
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
    let goldens: Vec<_> = registry::ALL
        .iter()
        .filter_map(|info| Some((info, info.golden?)))
        .collect();
    assert!(!goldens.is_empty(), "the registry names no golden");
    for (info, path) in goldens {
        check(info, path);
    }
}

/// `HCLOUD_STRATEGY=RA` narrows `ext_theory_strategies` to RA's rows
/// without moving any of their digests.
#[test]
fn strategy_focus_keeps_the_golden_digests() {
    let info = registry::find("ext_theory_strategies").expect("registered");
    let focused = Run::fast(
        info.id,
        "focus-ra",
        &[("HCLOUD_JOBS", "1"), ("HCLOUD_STRATEGY", "RA")],
    );
    let (focused, full) = (
        focused.artifact(info),
        golden(info.golden.expect("has a golden")),
    );
    let rows = |v: &Value| {
        v.get("strategies")
            .and_then(Value::as_array)
            .cloned()
            .expect("strategy rows")
    };
    let field = |row: &Value, key: &str| {
        row.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("row without {key}"))
            .to_string()
    };
    let focused = rows(&focused);
    assert_eq!(focused.len(), 3, "RA's three variants");
    for row in &focused {
        assert_eq!(field(row, "strategy"), "reservation-autoscale");
        let twin = rows(&full)
            .into_iter()
            .find(|r| {
                field(r, "strategy") == field(row, "strategy")
                    && field(r, "variant") == field(row, "variant")
            })
            .expect("the focused row is in the full grid");
        assert_eq!(field(row, "digest"), field(&twin, "digest"));
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
