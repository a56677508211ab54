//! # hcloud-bench — the benchmark harness
//!
//! One binary per table and figure of the HCloud paper (see `src/bin/`);
//! `tab_overheads` also times the Section 5.2 decision-path overheads.
//! This library holds the shared plumbing:
//!
//! * [`engine`] — the parallel experiment engine: typed [`RunSpec`]
//!   points submitted as an [`ExperimentPlan`], fanned out across a
//!   scoped thread pool, collected deterministically in plan order;
//! * [`harness`] — a thin caching facade over the engine, so sweeps that
//!   only re-bill the same run (Figures 12, 13, 17) run each simulation
//!   once;
//! * [`report`] — aligned text tables, ASCII sparklines/heatmaps, and
//!   JSON series export, so every binary prints the same rows/series the
//!   paper plots and optionally dumps machine-readable data under
//!   `results/`.
//!
//! Run everything with:
//!
//! ```text
//! for b in crates/bench/src/bin/*.rs; do
//!     b=$(basename "$b" .rs)
//!     cargo run --release -p hcloud-bench --bin "$b"
//! done
//! ```
//!
//! Every binary honours `HCLOUD_FAST=1` to shrink scenarios for smoke
//! runs, `HCLOUD_SEED=<n>` to change the master seed, and
//! `HCLOUD_JOBS=<n>` to pin the engine's worker count (default:
//! `available_parallelism`). Results are bit-identical for any worker
//! count. `HCLOUD_TRACE=summary` adds per-phase spans to the stderr
//! telemetry; `HCLOUD_TRACE=full` additionally records every simulated
//! run as a structured JSONL trace under `results/traces/` (replay with
//! `hcloud-cli trace`). Traces are stamped with sim time only, so they
//! too are bit-identical for any worker count.
//! `HCLOUD_FAULTS=<plan>` overlays a deterministic fault-injection plan
//! (`hcloud-cli faults` lists the built-ins) onto every run that does
//! not set its own; the default `off` injects nothing and consumes no
//! randomness. Malformed values are a hard error.

pub mod artifacts;
pub mod dashboard;
pub mod engine;
pub mod env;
pub mod fleet;
pub mod harness;
pub mod plot;
pub mod registry;
pub mod report;

pub use engine::{
    Engine, ExperimentPlan, PlanOutcome, PlanTelemetry, RunSpec, RunTelemetry, RunTrace,
};
pub use env::ExperimentCtx;
pub use harness::{paper_scenario, Harness};
pub use registry::{ExperimentInfo, ExperimentKind};
pub use report::{heatmap_row, sparkline, write_json, Table};
