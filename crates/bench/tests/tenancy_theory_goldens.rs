//! `ext_multi_tenant` and `ext_theory_strategies` reproduce their
//! committed FAST goldens.
//!
//! Each runs as `hcloud-bench <id>` in FAST mode in a temp directory of
//! its own, with every other `HCLOUD_*` variable cleared, and its
//! `results/*.json` is compared row by row with
//! `goldens/<bench>_fast.json`: the row count, each row's
//! `(strategy, variant)` and digest, the multi-tenant off-switch
//! identity and starvation demo, and the theory grid's
//! `HCLOUD_STRATEGY=RA` focus.

use std::path::{Path, PathBuf};
use std::process::Command;

use hcloud_json::Value;

/// Runs `hcloud-bench <bench>` with `HCLOUD_FAST=1` plus `env` in a
/// fresh directory and returns its parsed `results/<bench>.json`.
fn run_fast(bench: &str, tag: &str, env: &[(&str, &str)]) -> Value {
    let dir = std::env::temp_dir().join(format!(
        "hcloud-goldens-{bench}-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hcloud-bench"));
    cmd.arg(bench).current_dir(&dir);
    for (key, _) in std::env::vars() {
        if key.starts_with("HCLOUD_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("HCLOUD_FAST", "1");
    for (key, value) in env {
        cmd.env(key, value);
    }
    let out = cmd.output().expect("hcloud-bench runs");
    assert!(
        out.status.success(),
        "{bench} ({tag}) failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let results = read_json(&dir.join("results").join(format!("{bench}.json")));
    let _ = std::fs::remove_dir_all(&dir);
    results
}

fn read_json(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    hcloud_json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

fn golden(bench: &str) -> Value {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "goldens",
        &format!("{bench}_fast.json"),
    ]
    .iter()
    .collect();
    read_json(&path)
}

/// The string at `path` (object keys, outermost first) inside `v`.
fn str_at<'v>(v: &'v Value, path: &[&str]) -> &'v str {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing {path:?}"));
    }
    cur.as_str()
        .unwrap_or_else(|| panic!("{path:?} is not a string"))
}

fn rows(v: &Value) -> &Vec<Value> {
    v.get("strategies")
        .and_then(Value::as_array)
        .expect("results carry strategy rows")
}

/// Row count, then `(strategy, variant)` and digest row by row.
fn assert_rows_match(bench: &str, got: &Value, want: &Value) {
    let (got, want) = (rows(got), rows(want));
    assert_eq!(got.len(), want.len(), "{bench}: row count");
    for (g, w) in got.iter().zip(want) {
        let key = |r: &Value| {
            (
                str_at(r, &["strategy"]).to_string(),
                str_at(r, &["variant"]).to_string(),
            )
        };
        assert_eq!(key(g), key(w), "{bench}: row order");
        assert_eq!(
            str_at(g, &["digest"]),
            str_at(w, &["digest"]),
            "{bench}: {:?} digest moved",
            key(g)
        );
    }
}

#[test]
fn ext_multi_tenant_matches_its_fast_golden() {
    let bench = "ext_multi_tenant";
    let got = run_fast(bench, "grid", &[]);
    let want = golden(bench);
    assert_rows_match(bench, &got, &want);
    // The off-switch contract: tenancy wiring never moved an untenanted
    // digest, and the empty-plan twin matches it.
    assert_eq!(
        got.get("identity")
            .and_then(|i| i.get("identical"))
            .and_then(Value::as_bool),
        Some(true),
        "empty tenancy plan must be digest-identical to the untenanted run"
    );
    assert_eq!(
        str_at(&got, &["identity", "untenanted_digest"]),
        str_at(&want, &["identity", "untenanted_digest"])
    );
    // The starved guaranteed queue reclaimed its share.
    let starvation = |key: &str| {
        got.get("starvation")
            .and_then(|s| s.get(key))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("starvation.{key}"))
    };
    assert!(starvation("preemptions") > 0.0, "no starvation preemption");
    assert!(starvation("reclaims") > 0.0, "no reclaim");
    assert_eq!(
        str_at(&got, &["starvation", "digest"]),
        str_at(&want, &["starvation", "digest"])
    );
}

#[test]
fn ext_theory_strategies_matches_its_fast_golden_and_focus() {
    let bench = "ext_theory_strategies";
    let full = run_fast(bench, "grid", &[]);
    assert_rows_match(bench, &full, &golden(bench));
    // A strategy focus narrows the grid without moving any digest.
    let focused = run_fast(bench, "ra", &[("HCLOUD_STRATEGY", "RA")]);
    let focused = rows(&focused);
    assert_eq!(focused.len(), 3, "RA focus keeps RA's three variants");
    for row in focused {
        assert_eq!(str_at(row, &["strategy"]), "reservation-autoscale");
        let twin = rows(&full)
            .iter()
            .find(|r| {
                str_at(r, &["strategy"]) == str_at(row, &["strategy"])
                    && str_at(r, &["variant"]) == str_at(row, &["variant"])
            })
            .expect("focused row is in the full grid");
        assert_eq!(str_at(row, &["digest"]), str_at(twin, &["digest"]));
    }
}
