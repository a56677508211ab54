//! End-to-end tests driving the compiled `hcloud-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hcloud-cli"))
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn compare_lists_all_strategies() {
    let out = run_ok(&["compare", "--scale", "0.08", "--minutes", "12"]);
    for s in ["SR", "OdF", "OdM", "HF", "HM"] {
        assert!(out.contains(s), "missing {s} in:\n{out}");
    }
    assert!(out.contains("cost"));
}

#[test]
fn run_prints_summary_and_explain() {
    let out = run_ok(&[
        "run",
        "--strategy",
        "HM",
        "--scale",
        "0.08",
        "--minutes",
        "12",
        "--explain",
    ]);
    assert!(out.contains("HM on High Variability"));
    assert!(out.contains("placement decisions:"));
    assert!(out.contains("mean degradation"));
}

#[test]
fn export_then_run_round_trips() {
    let dir = std::env::temp_dir().join("hcloud_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("scenario.json");
    let path_str = path.to_str().expect("utf-8 path");
    let out = run_ok(&[
        "export",
        "--scenario",
        "low",
        "--scale",
        "0.08",
        "--minutes",
        "12",
        "--out",
        path_str,
    ]);
    assert!(out.contains("wrote"));
    let out = run_ok(&["run", "--scenario-file", path_str, "--strategy", "SR"]);
    assert!(out.contains("SR on Low Variability"), "{out}");
}

#[test]
fn json_summary_is_valid() {
    let dir = std::env::temp_dir().join("hcloud_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("summary.json");
    let path_str = path.to_str().expect("utf-8 path");
    run_ok(&[
        "run",
        "--strategy",
        "HF",
        "--scale",
        "0.08",
        "--minutes",
        "12",
        "--json",
        path_str,
    ]);
    let body = std::fs::read_to_string(&path).expect("json written");
    let v = hcloud_json::parse(&body).expect("valid json");
    assert_eq!(v.get("strategy").and_then(|s| s.as_str()), Some("HF"));
    assert!(
        v.get("mean_normalized_perf")
            .and_then(|p| p.as_f64())
            .expect("float")
            > 0.0
    );
}

#[test]
fn identical_seeds_reproduce_identical_output() {
    let args = [
        "compare",
        "--scale",
        "0.08",
        "--minutes",
        "12",
        "--seed",
        "9",
    ];
    assert_eq!(run_ok(&args), run_ok(&args));
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = cli().args(["frobnicate"]).output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn sweep_runs_every_knob() {
    for knob in ["spinup", "external", "retention", "sensitive"] {
        let out = run_ok(&[
            "sweep",
            "--knob",
            knob,
            "--scale",
            "0.06",
            "--minutes",
            "10",
        ]);
        assert!(out.contains("sweeping"), "{knob}: {out}");
    }
}

#[test]
fn advise_recommends_a_strategy() {
    let out = run_ok(&[
        "advise",
        "--scale",
        "0.08",
        "--minutes",
        "12",
        "--weeks",
        "4",
        "--perf-floor",
        "0.5",
    ]);
    assert!(out.contains("recommendation:"), "{out}");
    // A 4-week deployment should never pay for a 1-year reservation.
    assert!(!out.contains("recommendation: SR"), "{out}");
}

#[test]
fn validate_exits_0_on_a_scenario_and_2_naming_a_malformed_field() {
    let dir = std::env::temp_dir().join(format!("hcloud_cli_validate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ok = dir.join("ok.json");
    let bad = dir.join("bad.json");
    let (ok_str, bad_str) = (
        ok.to_str().expect("utf-8 path"),
        bad.to_str().expect("utf-8 path"),
    );
    run_ok(&[
        "export",
        "--scenario",
        "low",
        "--scale",
        "0.1",
        "--minutes",
        "15",
        "--out",
        ok_str,
    ]);
    run_ok(&["validate", "--file", ok_str]);

    let text = std::fs::read_to_string(&ok).expect("exported scenario");
    assert!(
        text.contains("\"load_scale\""),
        "the export names load_scale"
    );
    std::fs::write(&bad, text.replace("\"load_scale\"", "\"load_scale_typo\"")).expect("write");
    let out = cli()
        .args(["validate", "--file", bad_str])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "malformed input exits 2: {err}");
    assert!(err.contains("load_scale"), "names the field: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_exits_2_naming_an_unknown_environment_variable() {
    let out = cli()
        .args(["compare", "--scale", "0.05", "--minutes", "10"])
        .env("HCLOUD_FAULTS", "full-chaos")
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "environment error exits 2: {err}"
    );
    assert!(err.contains("HCLOUD_FAULTS"), "names the variable: {err}");
    assert!(out.stdout.is_empty(), "nothing runs");
}

#[test]
fn compare_writes_one_replayable_trace_per_run() {
    let dir = std::env::temp_dir().join(format!("hcloud_cli_traces_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = cli()
        .args(["compare", "--scale", "0.05", "--minutes", "10"])
        .env("HCLOUD_TRACE", "full")
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut names: Vec<String> = std::fs::read_dir(dir.join("results/traces"))
        .expect("traces written")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    names.sort();
    assert_eq!(names.len(), 5, "one trace per strategy: {names:?}");
    for (seq, name) in names.iter().enumerate() {
        assert!(
            name.starts_with(&format!("compare-{seq:03}-")) && name.ends_with(".jsonl"),
            "{name}"
        );
        let text = std::fs::read_to_string(dir.join("results/traces").join(name)).expect("read");
        if let Err(e) = hcloud_audit::replay_file(&text) {
            panic!("{name} does not replay clean: {e}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_prints_its_table_and_exits_1_when_a_trace_cannot_be_written() {
    let dir = std::env::temp_dir().join(format!("hcloud_cli_no_traces_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    // A file where the trace directory would go.
    std::fs::write(dir.join("results"), "").expect("blocker file");
    let out = cli()
        .args(["compare", "--scale", "0.05", "--minutes", "10"])
        .env("HCLOUD_TRACE", "full")
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("cannot write"),
        "names the failed write: {err}"
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        table.lines().filter(|l| l.starts_with("HM ")).count(),
        1,
        "{table}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
