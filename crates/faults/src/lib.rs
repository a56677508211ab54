//! # hcloud-faults — deterministic fault injection for the simulation
//!
//! HCloud's central argument is that on-demand and hybrid provisioning must
//! survive a hostile substrate: spot terminations, long-tailed spin-up
//! times (Fig. 14 of the paper), transient capacity shortages and
//! instance-quality variability. This crate layers a **deterministic,
//! seeded fault-injection engine** on top of the simulation so those
//! conditions can be reproduced bit-for-bit.
//!
//! The building blocks:
//!
//! * [`FaultPlan`] — a typed bundle of fault schedules: correlated
//!   spot-preemption storms, spin-up latency spikes and hard spin-up
//!   timeouts, transient out-of-capacity errors on acquisition, instance
//!   performance degradation (straggler onset), and QoS-monitor signal
//!   dropouts. A plan with no schedules is "off" and injects nothing.
//! * [`FaultPlanId`] — the built-in named plans. A run carries its plan in
//!   its own configuration (`RunConfig::with_faults`), so a plan is part
//!   of what the run is, never an ambient overlay.
//! * [`FaultInjector`] — the per-run sampling engine. Every fault class
//!   draws from its own named [`rng::RngFactory`] stream (all under the
//!   `faults` child factory), so
//!   - an **off** plan consumes no randomness at all and leaves every
//!     existing stream untouched (byte-identical runs), and
//!   - an enabled plan produces the same schedule for any worker count
//!     (`HCLOUD_JOBS`), because streams depend only on the master seed.
//!
//! [`rng::RngFactory`]: hcloud_sim::rng::RngFactory

mod injector;
mod plan;

pub use injector::{AcquireFault, FaultInjector};
pub use plan::{
    CapacitySchedule, DegradationSchedule, DropoutSchedule, FaultPlan, FaultPlanId,
    SpinUpFaultSchedule, StormSchedule,
};
