//! # hcloud-bench — the benchmark harness
//!
//! One experiment per table and figure of the HCloud paper, plus
//! replication, extension, perf and tooling entries, each a module under
//! [`experiments`] registered in [`registry::ALL`]; `tab_overheads` also
//! times the Section 5.2 decision-path overheads. The `hcloud-bench`
//! binary runs them:
//!
//! ```text
//! cargo build --release -p hcloud-bench
//! target/release/hcloud-bench fig12_price_ratio fig13_duration   # some
//! target/release/hcloud-bench all                                # every non-tooling entry
//! ```
//!
//! Every experiment listed on one command line shares one [`Harness`],
//! so `all` regenerates every artifact in one process and simulates each
//! distinct run once; the stdout of several ids is their per-id stdouts
//! concatenated. The library holds the shared plumbing:
//!
//! * [`engine`] — the parallel experiment engine: typed [`RunSpec`]
//!   points submitted as an [`ExperimentPlan`], fanned out across a
//!   scoped thread pool, collected deterministically in plan order;
//! * [`harness`] — a caching facade over the engine, so experiments that
//!   only re-bill the same run (Figures 12, 13, 17) run each simulation
//!   once;
//! * [`report`] — aligned text tables, ASCII sparklines/heatmaps, and
//!   JSON export, so every experiment prints the same rows/series the
//!   paper plots and dumps machine-readable data under `results/`.
//!
//! Every experiment honours `HCLOUD_FAST=1` to shrink scenarios for smoke
//! runs, `HCLOUD_SEED=<n>` to change the master seed, and
//! `HCLOUD_JOBS=<n>` to pin the engine's worker count (default:
//! `available_parallelism`). Results are bit-identical for any worker
//! count. `HCLOUD_TRACE=summary` adds per-phase spans to the stderr
//! telemetry; `HCLOUD_TRACE=full` additionally records every simulated
//! run as a structured JSONL trace under `results/traces/` (replay with
//! `hcloud-cli trace`), flushed as each experiment ends. A run an earlier
//! experiment in the same process already simulated is served from the
//! cache and not traced again. Traces are stamped with sim time only, so
//! they too are bit-identical for any worker count.
//! `HCLOUD_FAULTS=<plan>` overlays a deterministic fault-injection plan
//! (`hcloud-cli faults` lists the built-ins) onto every run that does
//! not set its own; the default `off` injects nothing and consumes no
//! randomness. Malformed values are a hard error (exit 2), as is an
//! unknown experiment id.

pub mod artifacts;
pub mod dashboard;
pub mod engine;
pub mod env;
pub mod experiments;
pub mod fleet;
pub mod harness;
pub mod plot;
pub mod registry;
pub mod report;

pub use engine::{
    Engine, ExperimentPlan, PlanOutcome, PlanTelemetry, RunSpec, RunTelemetry, RunTrace,
};
pub use env::ExperimentCtx;
pub use harness::Harness;
pub use registry::{ExperimentInfo, ExperimentKind};
pub use report::{heatmap_row, sparkline, Table};
