//! Regenerates the paper-parity & perf-trajectory dashboard.
//!
//! Walks the experiment registry against `results/*.json`, the committed
//! goldens, and the repo-root `BENCH_*.json` perf records, then rewrites
//! `docs/alignment/STATUS.md` and `docs/alignment/PERF_TRAJECTORY.json`
//! in place. The output is a pure function of those inputs — no clocks,
//! no environment — so CI can regenerate it and fail on `git diff
//! --exit-code` when the committed dashboard is stale.
//!
//! ```text
//! hcloud-bench render_dashboard
//! ```
//!
//! Run from the repo root (the same contract as the figure experiments
//! and `render_figures`).

use std::path::Path;

use crate::{dashboard, Harness};

/// Runs the experiment.
pub fn run(_: &mut Harness) {
    dashboard::write_dashboard(Path::new("."));
}
