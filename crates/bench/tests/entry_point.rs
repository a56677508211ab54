//! `hcloud-bench <id>…` shares one run cache across the experiments on
//! its command line without changing any of their bytes, and refuses to
//! run what it was not asked to.
//!
//! Figures 12 and 13 submit the same 15 paper-strategy specs, so running
//! both in one process must print exactly their per-id stdouts, write
//! exactly their per-id `results/*.json`, and simulate 15 runs, not 30.

mod common;

use common::Run;

/// Runs `hcloud-bench <ids>` FAST with two workers, plus `env`.
fn run(tag: &str, ids: &[&str], env: &[(&str, &str)]) -> Run {
    let mut all = vec![("HCLOUD_FAST", "1"), ("HCLOUD_JOBS", "2")];
    all.extend_from_slice(env);
    Run::new(&format!("entry-{tag}"), ids, &all)
}

#[test]
fn two_experiments_share_the_cache_and_keep_their_bytes() {
    let both = run("both", &["fig12_price_ratio", "fig13_duration"], &[]);
    let fig12 = run("fig12", &["fig12_price_ratio"], &[]);
    let fig13 = run("fig13", &["fig13_duration"], &[]);
    for r in [&both, &fig12, &fig13] {
        assert!(r.out.status.success(), "{}", r.stderr());
    }

    let concatenated = [fig12.out.stdout.as_slice(), fig13.out.stdout.as_slice()].concat();
    assert!(
        both.out.stdout == concatenated,
        "stdout is the per-id stdouts"
    );

    let mut separate = fig12.files("results", "json");
    separate.extend(fig13.files("results", "json"));
    assert!(
        both.files("results", "json") == separate,
        "results/*.json as per id"
    );

    assert_eq!(fig12.simulated("fig12_price_ratio"), 15);
    assert_eq!(fig13.simulated("fig13_duration"), 15);
    assert_eq!(both.simulated("fig13_duration"), 0, "all cached");
    assert_eq!(both.simulated("hcloud-bench"), 15, "15 runs, not 30");
}

/// Exits 2 naming `cause` on stderr, having printed nothing on stdout.
fn refused(r: &Run, cause: &str) {
    let stderr = r.stderr();
    assert_eq!(r.out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(cause), "names {cause}: {stderr}");
    assert!(r.out.stdout.is_empty(), "nothing ran");
}

#[test]
fn unknown_or_missing_ids_exit_2() {
    let unknown = run("unknown", &["fig12_price_ratio", "no_such_experiment"], &[]);
    refused(&unknown, "no_such_experiment");
    assert!(unknown.stderr().contains("fig13_duration"), "lists the ids");

    let none = run("none", &[], &[]);
    assert_eq!(none.out.status.code(), Some(2));
}

#[test]
fn malformed_or_unknown_variables_exit_2() {
    let malformed = run("malformed", &["replication"], &[("HCLOUD_FAST", "maybe")]);
    refused(&malformed, "HCLOUD_FAST");
    // A removed knob is refused, not silently ignored: a stale
    // `HCLOUD_FAULTS=full-chaos` must not pass for a faulted run.
    let removed = run(
        "removed",
        &["replication"],
        &[("HCLOUD_FAULTS", "full-chaos")],
    );
    refused(&removed, "HCLOUD_FAULTS");
}
