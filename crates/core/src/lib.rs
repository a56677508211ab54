//! # hcloud — the HCloud hybrid provisioning system
//!
//! This crate is the paper's primary contribution: a provisioning system
//! that decides (a) how many and what kind of resources to obtain —
//! reserved vs on-demand, large vs small instances — and (b) which jobs to
//! map where, using Quasar-style estimates of each job's resource
//! preferences and interference sensitivity.
//!
//! * [`strategy`] — the pluggable [`strategy::ProvisioningStrategy`]
//!   trait and its [`strategy::StrategyRegistry`]: the paper's five
//!   strategies of Table 3 — statically reserved (SR), on-demand
//!   full-servers (OdF), on-demand mixed sizes (OdM), the hybrids (HF,
//!   HM) — plus the theory-grounded `reservation-autoscale` (RA) and
//!   `queueing-capacity` (QC) extensions;
//! * [`mapping`] — the application-mapping policies P1–P8 of Section 4.2
//!   (random, quality thresholds, static utilization limits, and the
//!   dynamic policy);
//! * [`dynamic`] — the dynamic policy's adaptive soft/hard utilization
//!   limits (Figure 9 left);
//! * [`monitor`] — per-instance-type resource-quality monitoring (the
//!   `Q90` distributions the dynamic policy consults);
//! * [`queue_estimator`] — queueing-time estimation from instance release
//!   rates (Figure 9 right);
//! * [`scheduler`] — job placement, packing, retention and QoS monitoring
//!   over the simulated cloud;
//! * [`runner`] — end-to-end scenario execution producing the
//!   per-job outcomes, traces and cost records behind every figure;
//! * [`result`] — aggregation of run outputs into the paper's metrics.
//!
//! ```no_run
//! use hcloud::{RunConfig, StrategyId, runner::{run_scenario, RunCtx}};
//! use hcloud_sim::rng::RngFactory;
//! use hcloud_workloads::{Scenario, ScenarioConfig, ScenarioKind};
//!
//! # fn main() -> Result<(), hcloud::runner::AuditViolation> {
//! let factory = RngFactory::new(42);
//! let scenario = Scenario::generate(
//!     ScenarioConfig::paper(ScenarioKind::HighVariability), &factory);
//! let config = RunConfig::new(StrategyId::HM);
//! let result = run_scenario(&scenario, &config, &RunCtx::new(&factory))?;
//! println!("mean batch perf: {:?}", result.batch_performance_boxplot());
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod dynamic;
pub mod mapping;
pub mod monitor;
pub mod placement;
pub mod queue_estimator;
pub mod result;
pub mod runner;
pub mod scheduler;
pub mod strategy;

pub use config::RunConfig;
pub use mapping::MappingPolicy;
pub use placement::{InstanceHandle, PlacementQuery, SearchPolicy};
pub use result::{JobOutcome, RunResult};
pub use strategy::{
    PlacementCtx, ProvisioningStrategy, ReservedSizingCtx, RetentionCtx, RetentionDecision,
    StrategyId, StrategyRef, StrategyRegistry, UnknownStrategy,
};
