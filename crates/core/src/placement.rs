//! The typed placement-search API of the scheduler.
//!
//! Section 3.3's greedy search used to exist as three ad-hoc linear scans
//! inside the scheduler (reserved pool, on-demand pool, idle dedicated
//! reuse). This module gives them one front door: callers build a
//! [`PlacementQuery`] naming the family, the core demand and a
//! [`SearchPolicy`], and [`crate::scheduler::Scheduler::find_placement`]
//! answers from maintained secondary indices instead of scanning every
//! instance ever acquired. New policies route through the same query type,
//! so they cannot quietly reintroduce an O(n) scan on the admission path.
//!
//! Instances are addressed by [`InstanceHandle`] — a generational slot
//! handle, not a raw `usize`. A handle to a released instance fails typed
//! ([`hcloud_sim::slot::StaleSlot`]) instead of silently reading whatever
//! instance now sits at that position.

use hcloud_cloud::Family;
use hcloud_interference::ResourceVector;
use hcloud_sim::slot::SlotKey;

/// Typed handle to a scheduler-tracked instance.
///
/// Wraps a generational [`SlotKey`]: the index is stable for the lifetime
/// of a run (a released instance's slot is retired, never reused, so
/// `index()` is safe to expose in telemetry), and a handle to a released
/// instance fails typed. Ordering follows the acquisition order, which
/// keeps every index-ordered iteration deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceHandle(SlotKey);

impl InstanceHandle {
    /// Range endpoint below every real handle (never issued).
    pub(crate) const MIN: InstanceHandle = InstanceHandle(SlotKey::MIN);
    /// Range endpoint above every real handle (never issued).
    pub(crate) const MAX: InstanceHandle = InstanceHandle(SlotKey::MAX);

    pub(crate) fn new(key: SlotKey) -> Self {
        InstanceHandle(key)
    }

    pub(crate) fn key(self) -> SlotKey {
        self.0
    }

    /// The stable per-run instance index (acquisition order); this is the
    /// value telemetry reports as `instance_index`.
    pub fn index(self) -> usize {
        self.0.index()
    }
}

/// How a [`PlacementQuery`] searches (Section 3.3).
#[derive(Debug, Clone, Copy)]
pub enum SearchPolicy {
    /// The reserved full-server pool: with profiling, QoS-aware
    /// consolidating search (most-loaded acceptable instance, least-bad
    /// fallback); without, least-loaded.
    ReservedPool {
        /// The job's interference sensitivity (drives predicted slowdown).
        sensitivity: ResourceVector,
        /// The job's quality target; sensitive jobs accept less headroom.
        quality: f64,
    },
    /// The on-demand full-server pool: same search as the reserved pool
    /// plus ~2 cores of packing headroom per instance. Fallbacks are not
    /// acceptable here — the caller acquires fresh capacity instead of
    /// degrading the job.
    OnDemandPool {
        /// The job's interference sensitivity.
        sensitivity: ResourceVector,
        /// The job's quality target.
        quality: f64,
    },
    /// Idle retained dedicated instances of the query family, sized
    /// within `[min_cores, 2 × min_cores]`, smallest first.
    IdleDedicated {
        /// Whether the job may land on a spot instance.
        spot_ok: bool,
        /// Minimum delivered quality (checked only with profiling on).
        min_quality: f64,
    },
}

/// One placement search: which family, how many cores, which policy.
#[derive(Debug, Clone, Copy)]
pub struct PlacementQuery {
    /// Instance family to search (pools are always the standard
    /// full-server family).
    pub family: Family,
    /// Cores the job needs on the chosen instance.
    pub min_cores: u32,
    /// The search policy.
    pub policy: SearchPolicy,
}

/// A successful placement search.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// The chosen instance.
    pub instance: InstanceHandle,
    /// True when no instance satisfied the job's QoS headroom and this is
    /// the least-bad alternative. Reserved-pool callers accept fallbacks
    /// (queueing is worse); on-demand callers acquire fresh capacity
    /// instead.
    pub fallback: bool,
}
