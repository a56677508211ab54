//! `hcloud-bench <id>…` shares one run cache across the experiments on
//! its command line without changing any of their bytes.
//!
//! Figures 12 and 13 submit the same 15 paper-strategy specs, so running
//! both in one process must print exactly their per-id stdouts, write
//! exactly their per-id `results/*.json`, and simulate 15 runs, not 30.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `hcloud-bench <ids>` in FAST mode in a fresh directory named
/// after `tag`, with every other `HCLOUD_*` variable cleared.
fn run(tag: &str, ids: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("hcloud-entry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hcloud-bench"));
    cmd.args(ids).current_dir(&dir);
    for (key, _) in std::env::vars() {
        if key.starts_with("HCLOUD_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("HCLOUD_FAST", "1").env("HCLOUD_JOBS", "2");
    (cmd.output().expect("hcloud-bench runs"), dir)
}

/// Every `results/*.json` under `dir`, by file name.
fn results(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir.join("results"))
        .expect("results/ written")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into();
            let body = std::fs::read_to_string(&path).expect("readable artifact");
            (name, body)
        })
        .collect()
}

/// The `N` of the `[name] engine: N simulated, …` line on stderr.
fn simulated(stderr: &[u8], name: &str) -> usize {
    let prefix = format!("[{name}] engine: ");
    String::from_utf8_lossy(stderr)
        .lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no `{prefix}N simulated` line"))
}

#[test]
fn two_experiments_share_the_cache_and_keep_their_bytes() {
    let (both, both_dir) = run("both", &["fig12_price_ratio", "fig13_duration"]);
    let (fig12, fig12_dir) = run("fig12", &["fig12_price_ratio"]);
    let (fig13, fig13_dir) = run("fig13", &["fig13_duration"]);
    for out in [&both, &fig12, &fig13] {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let concatenated = [fig12.stdout.as_slice(), fig13.stdout.as_slice()].concat();
    assert!(both.stdout == concatenated, "stdout is the per-id stdouts");

    let mut separate = results(&fig12_dir);
    separate.extend(results(&fig13_dir));
    assert_eq!(results(&both_dir), separate, "results/*.json as per id");

    assert_eq!(simulated(&fig12.stderr, "fig12_price_ratio"), 15);
    assert_eq!(simulated(&fig13.stderr, "fig13_duration"), 15);
    assert_eq!(simulated(&both.stderr, "fig13_duration"), 0, "all cached");
    assert_eq!(
        simulated(&both.stderr, "hcloud-bench"),
        15,
        "15 runs, not 30"
    );

    for dir in [both_dir, fig12_dir, fig13_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn unknown_or_missing_ids_exit_2() {
    let (unknown, dir) = run("unknown", &["fig12_price_ratio", "no_such_experiment"]);
    assert_eq!(unknown.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(stderr.contains("no_such_experiment"), "{stderr}");
    assert!(stderr.contains("fig13_duration"), "lists the ids: {stderr}");
    assert!(unknown.stdout.is_empty(), "nothing ran");
    let _ = std::fs::remove_dir_all(dir);

    let (none, dir) = run("none", &[]);
    assert_eq!(none.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(dir);
}
