//! # hcloud-sim — deterministic discrete-event simulation substrate
//!
//! This crate provides the foundation every other HCloud crate builds on:
//!
//! * [`time`] — a microsecond-resolution simulation clock ([`SimTime`],
//!   [`SimDuration`]) with no dependence on wall-clock time;
//! * [`event`] — a deterministic discrete-event queue with stable FIFO
//!   ordering among simultaneous events: [`event::EventQueue`], a
//!   hierarchical timing wheel (O(1) amortized schedule/serve at fleet
//!   scale), tested against a `BinaryHeap` reference model;
//! * [`rng`] — reproducible, named random-number streams derived from a
//!   single master seed ([`rng::RngFactory`]), so adding a new consumer of
//!   randomness never perturbs existing streams;
//! * [`dist`] — the probability distributions used throughout the cloud and
//!   workload models (exponential, normal, log-normal, Pareto, empirical…);
//! * [`stats`] — percentiles, boxplot summaries, CDFs and histograms matching
//!   the aggregations the HCloud paper reports;
//! * [`series`] — step-function time series used for utilization,
//!   allocation and cost traces (Figures 3, 18–21);
//! * [`slot`] — an append-only generational slot arena ([`slot::SlotMap`])
//!   whose handles fail typed ([`slot::StaleSlot`]) after retirement,
//!   replacing raw `usize` indexing on scheduler hot paths.
//!
//! The entire simulation is single-threaded and deterministic: running the
//! same experiment with the same master seed reproduces every figure
//! bit-for-bit.
//!
//! ```
//! use hcloud_sim::{SimTime, SimDuration, event::EventQueue};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_secs(5), "later");
//! queue.schedule(SimTime::ZERO, "now");
//! assert_eq!(queue.pop().map(|(_, e)| e), Some("now"));
//! assert_eq!(queue.pop().map(|(_, e)| e), Some("later"));
//! ```

pub mod dist;
pub mod event;
pub mod rng;
pub mod series;
pub mod slot;
pub mod stats;
pub mod time;

pub use time::{SimDuration, SimTime};
