//! Artifact-write bookkeeping shared by every figure binary.
//!
//! `report::write_json`, `plot::save_both`, and the harness's flight
//! recorder all funnel their success/failure reporting through here: one
//! place that prints the `(wrote …)` / `warning: cannot …` stderr lines,
//! counts artifacts, accumulates the `report` phase span, and latches a
//! process-wide failure flag so [`crate::Harness::finish`] can turn the
//! exit code nonzero instead of silently losing results.

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use hcloud_telemetry::{ProfSpan, ProfileSnapshot};

/// Version stamped into every `results/*.json` artifact's `meta` block.
/// Version 1 is the historical unstamped `{columns, rows}` format;
/// version 2 adds the `meta` envelope (producing experiment id +
/// deterministic profiling op counts). The dashboard flags artifacts
/// stamped with any other version as stale.
pub const SCHEMA_VERSION: u64 = 2;

static FAILED: AtomicBool = AtomicBool::new(false);
static WRITTEN: AtomicUsize = AtomicUsize::new(0);
static REPORT_US: AtomicU64 = AtomicU64::new(0);
static PROF_OPS: [AtomicU64; hcloud_telemetry::profile::PROF_SPANS] =
    [const { AtomicU64::new(0) }; hcloud_telemetry::profile::PROF_SPANS];

/// Accumulates a finished plan's profiling op counts into the
/// process-wide totals [`crate::report::write_json`] stamps into
/// artifacts. Only the deterministic op counts are kept — wall clock
/// stays on stderr and in the perf benches' own artifacts, so committed
/// `results/*.json` bytes never depend on the machine or worker count.
pub fn add_profile(snapshot: &ProfileSnapshot) {
    for span in ProfSpan::ALL {
        PROF_OPS[span as usize].fetch_add(snapshot.get(span).ops, Ordering::Relaxed);
    }
}

/// The accumulated profiling op counts so far, span-ordered; `None`
/// until any span has recorded an operation (profiling disabled).
pub fn profile_ops() -> Option<[(&'static str, u64); hcloud_telemetry::profile::PROF_SPANS]> {
    let counts =
        ProfSpan::ALL.map(|span| (span.name(), PROF_OPS[span as usize].load(Ordering::Relaxed)));
    counts.iter().any(|(_, ops)| *ops > 0).then_some(counts)
}

/// Reports a successfully written artifact: one `(wrote <path>)` line on
/// stderr (stdout stays byte-identical across worker counts).
pub fn artifact_written(path: &Path) {
    WRITTEN.fetch_add(1, Ordering::Relaxed);
    eprintln!("(wrote {})", path.display());
}

/// Reports a failed artifact write: prints `warning: cannot <what>: <e>`
/// and latches the process-wide failure flag, so the binary still prints
/// its figures but exits nonzero.
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
