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
//! * [`plan`] — what an experiment submits: typed [`RunSpec`] points
//!   gathered into an [`ExperimentPlan`], and the [`RunTrace`] a traced
//!   run records;
//! * [`harness`] — the one layer between an experiment and
//!   `run_scenario`: a run cache keyed by the full spec, one scenario map,
//!   and a scoped thread pool that collects results in plan order, so
//!   experiments that only re-bill the same run (Figures 12, 13, 17) run
//!   each simulation once;
//! * [`tenancy`] — the Zipf tenant population and the SLO measure the
//!   tenancy and fault experiments and `hcloud-cli tenants` share;
//! * [`report`] — aligned text tables, ASCII sparklines/heatmaps, and
//!   JSON export, so every experiment prints the same rows/series the
//!   paper plots and dumps machine-readable data under `results/`.
//!
//! Five `HCLOUD_*` variables steer a run ([`ExperimentCtx`]):
//! `HCLOUD_SEED=<n>` changes the master seed and `HCLOUD_FAST=1` shrinks
//! scenarios for smoke runs; the other three only observe.
//! `HCLOUD_JOBS=<n>` pins the worker count (default:
//! `available_parallelism`), and results are bit-identical for any
//! worker count. `HCLOUD_TRACE=summary` adds per-phase spans to the
//! stderr telemetry; `HCLOUD_TRACE=full` additionally records every
//! simulated run as a structured JSONL trace under `results/traces/`
//! (replay with `hcloud-cli trace`), one file per run, flushed as each
//! experiment ends. A run an earlier experiment in the same process
//! already simulated is served from the cache and not traced again.
//! Traces are stamped with sim time only, so they too are bit-identical
//! for any worker count. `HCLOUD_AUDIT` runs the conservation audit
//! (exit 3 on a violation). A malformed value, any other `HCLOUD_*`
//! variable, or an unknown experiment id is a hard error (exit 2).

pub mod artifacts;
pub mod dashboard;
pub mod env;
pub mod experiments;
pub mod fleet;
pub mod harness;
pub mod plan;
pub mod plot;
pub mod registry;
pub mod report;
pub mod tenancy;

pub use env::ExperimentCtx;
pub use harness::Harness;
pub use plan::{ExperimentPlan, RunSpec, RunTrace};
pub use registry::{ExperimentInfo, ExperimentKind};
pub use report::{heatmap_row, sparkline, Table};
