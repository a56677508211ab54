//! Artifact-write bookkeeping shared by every experiment.
//!
//! The `report` writers, `plot::save_both`, and the harness's flight
//! recorder all funnel their success/failure reporting through here: one
//! place that prints the `(wrote …)` / `warning: cannot …` stderr lines,
//! counts artifacts, accumulates the `report` phase span, and latches a
//! process-wide failure flag so `hcloud-bench` can turn its exit code
//! nonzero instead of silently losing results.

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Version stamped into every `results/*.json` artifact's `meta` block.
/// Version 1 is the historical unstamped `{columns, rows}` format;
/// version 2 adds the `meta` envelope naming the producing experiment.
/// The dashboard flags artifacts stamped with any other version as
/// stale.
pub const SCHEMA_VERSION: u64 = 2;

static FAILED: AtomicBool = AtomicBool::new(false);
static WRITTEN: AtomicUsize = AtomicUsize::new(0);
static REPORT_US: AtomicU64 = AtomicU64::new(0);

/// Reports a successfully written artifact: one `(wrote <path>)` line on
/// stderr (stdout stays byte-identical across worker counts).
pub fn artifact_written(path: &Path) {
    WRITTEN.fetch_add(1, Ordering::Relaxed);
    eprintln!("(wrote {})", path.display());
}

/// Reports a failed artifact write: prints `warning: cannot <what>: <e>`
/// and latches the process-wide failure flag, so the experiment still
/// prints its figures but `hcloud-bench` exits nonzero.
pub fn artifact_failure(what: impl std::fmt::Display, error: impl std::fmt::Display) {
    FAILED.store(true, Ordering::Relaxed);
    eprintln!("warning: cannot {what}: {error}");
}

/// Whether any artifact write has failed so far in this process.
pub fn any_failure() -> bool {
    FAILED.load(Ordering::Relaxed)
}

/// Artifacts successfully written so far in this process.
pub fn artifacts_written() -> usize {
    WRITTEN.load(Ordering::Relaxed)
}

/// Adds wall-clock time to the `report` phase span (serialization +
/// file writes).
pub fn add_report_span(elapsed: Duration) {
    REPORT_US.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
}

/// Total `report` phase time accumulated so far.
pub fn report_span() -> Duration {
    Duration::from_micros(REPORT_US.load(Ordering::Relaxed))
}

/// The process exit code artifact health dictates: success unless some
/// write failed.
pub fn exit_code() -> ExitCode {
    if any_failure() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test owns the process-global latch: ordering within a single
    // test keeps the assertions race-free under the parallel test runner.
    #[test]
    fn failure_latches_and_flips_exit_code() {
        let before = artifacts_written();
        artifact_written(Path::new("results/example.json"));
        assert_eq!(artifacts_written(), before + 1);

        // ExitCode has no PartialEq; the Debug form distinguishes 0 from 1.
        assert!(!any_failure());
        assert_eq!(
            format!("{:?}", exit_code()),
            format!("{:?}", ExitCode::SUCCESS)
        );
        artifact_failure("write results/example.json", "permission denied");
        assert!(any_failure());
        assert_eq!(
            format!("{:?}", exit_code()),
            format!("{:?}", ExitCode::FAILURE)
        );

        add_report_span(Duration::from_millis(3));
        assert!(report_span() >= Duration::from_millis(3));
    }
}
