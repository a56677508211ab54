//! Fault plans: typed, named bundles of fault schedules.

use std::fmt;

use hcloud_sim::SimDuration;

/// Identifier for a built-in fault plan.
///
/// This is a `Copy` handle; call [`FaultPlanId::plan`] to materialize the
/// full schedule, and pin it on a run with `RunConfig::with_faults`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPlanId {
    /// No fault injection (the default).
    #[default]
    Off,
    /// Correlated spot-preemption storms only.
    PreemptionStorms,
    /// Spin-up latency spikes, hard spin-up timeouts and transient
    /// out-of-capacity errors on acquisition.
    FlakySpinups,
    /// Instance performance degradation / straggler onset.
    DegradedFleet,
    /// QoS-monitor signal dropouts.
    MonitorBlackout,
    /// Every fault class at moderate intensity.
    FullChaos,
}

impl FaultPlanId {
    /// Every built-in plan, in presentation order.
    pub const ALL: [FaultPlanId; 6] = [
        FaultPlanId::Off,
        FaultPlanId::PreemptionStorms,
        FaultPlanId::FlakySpinups,
        FaultPlanId::DegradedFleet,
        FaultPlanId::MonitorBlackout,
        FaultPlanId::FullChaos,
    ];

    /// The plan's name (also the materialized plan's `name`).
    pub fn name(self) -> &'static str {
        match self {
            FaultPlanId::Off => "off",
            FaultPlanId::PreemptionStorms => "preemption-storms",
            FaultPlanId::FlakySpinups => "flaky-spinups",
            FaultPlanId::DegradedFleet => "degraded-fleet",
            FaultPlanId::MonitorBlackout => "monitor-blackout",
            FaultPlanId::FullChaos => "full-chaos",
        }
    }

    /// Materializes the full fault schedule for this plan.
    pub fn plan(self) -> FaultPlan {
        let storms = StormSchedule {
            mean_interval: SimDuration::from_mins(40),
            duration: SimDuration::from_mins(4),
        };
        let spin_up = SpinUpFaultSchedule {
            spike_prob: 0.10,
            spike_factor: 6.0,
            timeout_prob: 0.06,
            timeout: SimDuration::from_secs(120),
        };
        let capacity = CapacitySchedule { error_prob: 0.08 };
        let degradation = DegradationSchedule {
            prob: 0.12,
            mean_onset: SimDuration::from_mins(10),
            slowdown: 1.8,
        };
        let monitor = DropoutSchedule {
            mean_interval: SimDuration::from_mins(30),
            duration: SimDuration::from_mins(5),
        };
        let base = FaultPlan::named(self.name());
        match self {
            FaultPlanId::Off => base,
            FaultPlanId::PreemptionStorms => FaultPlan {
                storms: Some(storms),
                ..base
            },
            FaultPlanId::FlakySpinups => FaultPlan {
                spin_up: Some(spin_up),
                capacity: Some(capacity),
                ..base
            },
            FaultPlanId::DegradedFleet => FaultPlan {
                degradation: Some(degradation),
                ..base
            },
            FaultPlanId::MonitorBlackout => FaultPlan {
                monitor: Some(monitor),
                ..base
            },
            FaultPlanId::FullChaos => FaultPlan {
                storms: Some(storms),
                spin_up: Some(spin_up),
                capacity: Some(capacity),
                degradation: Some(degradation),
                monitor: Some(monitor),
                ..base
            },
        }
    }
}

impl fmt::Display for FaultPlanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Correlated spot-preemption storms.
///
/// Storm onsets follow a Poisson process; during a storm window every spot
/// instance is preempted (the market-sampled termination time is overridden
/// by the storm), modeling the provider reclaiming a whole capacity pool at
/// once rather than instances failing independently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormSchedule {
    /// Mean gap between storm onsets.
    pub mean_interval: SimDuration,
    /// How long each storm lasts.
    pub duration: SimDuration,
}

/// Spin-up latency spikes and hard spin-up timeouts, layered on top of
/// [`SpinUpModel::sample`]'s log-normal draw.
///
/// [`SpinUpModel::sample`]: https://docs.rs/hcloud-cloud
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpinUpFaultSchedule {
    /// Probability that an acquisition's spin-up is spiked.
    pub spike_prob: f64,
    /// Multiplier applied to the sampled spin-up overhead on a spike.
    pub spike_factor: f64,
    /// Probability that an acquisition times out entirely.
    pub timeout_prob: f64,
    /// Wall time wasted before a timed-out acquisition is abandoned.
    pub timeout: SimDuration,
}

/// Transient out-of-capacity errors on instance acquisition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitySchedule {
    /// Probability that an acquisition attempt is rejected outright.
    pub error_prob: f64,
}

/// Instance performance degradation (straggler onset).
///
/// A degraded instance silently slows down by `slowdown` once its onset
/// time passes — delivered quality drops and batch progress stalls, so the
/// scheduler's QoS machinery has to notice and react.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationSchedule {
    /// Probability that a freshly acquired instance is a straggler.
    pub prob: f64,
    /// Mean delay (exponential) between readiness and degradation onset.
    pub mean_onset: SimDuration,
    /// Performance divisor once degraded (1.8 = 1.8x slower).
    pub slowdown: f64,
}

/// QoS-monitor signal dropouts.
///
/// During a dropout window the scheduler receives no quality samples, so
/// the per-type quality distributions the P8 dynamic policy relies on go
/// stale (the policy must degrade gracefully to its static soft limit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropoutSchedule {
    /// Mean gap between dropout onsets.
    pub mean_interval: SimDuration,
    /// How long each dropout lasts.
    pub duration: SimDuration,
}

/// A typed bundle of fault schedules, the unit of configuration carried by
/// `RunConfig::faults`.
///
/// `intensity` scales every schedule at sampling time: probabilities are
/// multiplied (and clamped to 0.95 so retry loops always terminate), storm
/// and dropout onset rates are multiplied. Intensity `0.0` disables the
/// plan entirely; `1.0` is the plan as written.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Plan name, for display and cache keys.
    pub name: &'static str,
    /// Global scale on fault probability/frequency.
    pub intensity: f64,
    /// Correlated spot-preemption storms.
    pub storms: Option<StormSchedule>,
    /// Spin-up spikes and timeouts.
    pub spin_up: Option<SpinUpFaultSchedule>,
    /// Transient out-of-capacity errors.
    pub capacity: Option<CapacitySchedule>,
    /// Straggler onset.
    pub degradation: Option<DegradationSchedule>,
    /// QoS-monitor dropouts.
    pub monitor: Option<DropoutSchedule>,
}

impl FaultPlan {
    fn named(name: &'static str) -> Self {
        FaultPlan {
            name,
            intensity: 1.0,
            storms: None,
            spin_up: None,
            capacity: None,
            degradation: None,
            monitor: None,
        }
    }

    /// The empty plan: injects nothing, consumes no randomness.
    pub fn off() -> Self {
        FaultPlan::named("off")
    }

    /// Whether this plan injects nothing at all.
    pub fn is_off(&self) -> bool {
        self.intensity <= 0.0
            || (self.storms.is_none()
                && self.spin_up.is_none()
                && self.capacity.is_none()
                && self.degradation.is_none()
                && self.monitor.is_none())
    }

    /// Returns the plan with its intensity scaled (see [`FaultPlan`]).
    ///
    /// # Panics
    /// Panics if `intensity` is negative or non-finite.
    pub fn with_intensity(mut self, intensity: f64) -> Self {
        assert!(
            intensity.is_finite() && intensity >= 0.0,
            "fault intensity must be a non-negative finite number, got {intensity}"
        );
        self.intensity = intensity;
        self
    }

    /// A probability from a schedule, scaled by intensity and clamped so
    /// that repeated independent draws always eventually succeed.
    pub(crate) fn scaled_prob(&self, p: f64) -> f64 {
        (p * self.intensity).clamp(0.0, 0.95)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_name_round_trips() {
        for (i, id) in FaultPlanId::ALL.into_iter().enumerate() {
            assert_eq!(format!("{id}"), id.name());
            assert_eq!(id.plan().name, id.name());
            assert!(
                FaultPlanId::ALL[..i]
                    .iter()
                    .all(|other| other.name() != id.name()),
                "{id} named twice"
            );
        }
    }

    #[test]
    fn off_plans_know_they_are_off() {
        assert!(FaultPlan::off().is_off());
        assert!(FaultPlanId::Off.plan().is_off());
        assert!(FaultPlan::default().is_off());
        assert!(FaultPlanId::FullChaos.plan().with_intensity(0.0).is_off());
        for id in FaultPlanId::ALL {
            if id != FaultPlanId::Off {
                assert!(!id.plan().is_off(), "{id} should be active");
            }
        }
    }

    #[test]
    fn intensity_scales_and_clamps_probabilities() {
        let plan = FaultPlanId::FlakySpinups.plan();
        let p = plan.spin_up.expect("flaky-spinups has spin-up faults");
        assert_eq!(plan.scaled_prob(p.timeout_prob), p.timeout_prob);
        let double = plan.clone().with_intensity(2.0);
        assert!((double.scaled_prob(p.timeout_prob) - 2.0 * p.timeout_prob).abs() < 1e-12);
        let extreme = plan.with_intensity(1e9);
        assert_eq!(extreme.scaled_prob(p.timeout_prob), 0.95);
    }

    #[test]
    #[should_panic(expected = "fault intensity must be a non-negative")]
    fn negative_intensity_is_rejected() {
        let _ = FaultPlan::off().with_intensity(-1.0);
    }

    #[test]
    fn full_chaos_enables_every_class() {
        let plan = FaultPlanId::FullChaos.plan();
        assert!(plan.storms.is_some());
        assert!(plan.spin_up.is_some());
        assert!(plan.capacity.is_some());
        assert!(plan.degradation.is_some());
        assert!(plan.monitor.is_some());
    }
}
