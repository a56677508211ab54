//! The cloud front-end: acquiring, releasing and querying instances.
//!
//! [`Cloud`] is the interface provisioning strategies program against. It
//! hands out reserved instances (ready immediately, dedicated servers, no
//! external interference — Section 3.1) and on-demand instances (spin-up
//! overhead, external interference proportional to how much of the server
//! is left to other tenants). It also answers the two questions HCloud's
//! policies keep asking:
//!
//! * what **external pressure** is this instance under right now, and
//! * what **resource quality** is it therefore delivering.

use std::fmt;

use hcloud_faults::{AcquireFault, FaultInjector};
use hcloud_interference::{ResourceVector, SlowdownModel};
use hcloud_sim::rng::{RngFactory, SimRng};
use hcloud_sim::{SimDuration, SimTime};
use hcloud_telemetry::{trace_event, TraceKind, Tracer};

use crate::external::{ExternalLoadModel, ServerLoad};
use crate::instance_type::InstanceType;
use crate::provider::ProviderProfile;
use crate::spinup::SpinUpModel;
use crate::spot::SpotMarket;

/// Opaque handle to an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(u64);

impl InstanceId {
    /// The numeric handle, for telemetry and diagnostics.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The arena position behind this id. Cloud ids are append-only and
    /// never retired (released instances stay on the books for usage
    /// accounting), so an id is never stale.
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Cloud configuration: the substrate models behind the front-end.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CloudConfig {
    /// Spin-up overhead model for on-demand instances.
    pub spin_up: SpinUpModel,
    /// External-load process on shared servers.
    pub external: ExternalLoadModel,
    /// Contention → slowdown model.
    pub slowdown: SlowdownModel,
    /// Provider profile shaping variability and speeds.
    pub provider: ProviderProfile,
    /// The spot market (Section 5.5 extension).
    pub spot: SpotMarket,
    /// Degree of shared-resource partitioning in `[0, 1]` (Section 5.5:
    /// cache/memory/network partitioning reduces unpredictability).
    /// Scales down external pressure on the partitionable resources
    /// (LLC, memory bandwidth, network bandwidth).
    pub partitioning: f64,
}

/// One instance and its lifecycle timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    id: InstanceId,
    itype: InstanceType,
    reserved: bool,
    spot: bool,
    requested_at: SimTime,
    ready_at: SimTime,
    released_at: Option<SimTime>,
    /// When the spot market outbids this instance (spot instances only).
    terminates_at: Option<SimTime>,
    server_seed: u64,
    /// Injected straggler fate: `(onset, slowdown factor)` if this
    /// instance degrades.
    perf_fault: Option<(SimTime, f64)>,
    /// The server's external-load profile while the instance is held;
    /// `None` for unexposed instances (reserved, full server) and after
    /// release.
    load: Option<Box<ServerLoad>>,
}

impl Instance {
    /// The instance's handle.
    pub fn id(&self) -> InstanceId {
        self.id
    }
    /// The instance type.
    pub fn itype(&self) -> InstanceType {
        self.itype
    }
    /// Whether this is a reserved (vs on-demand) instance.
    pub fn is_reserved(&self) -> bool {
        self.reserved
    }
    /// When the instance was requested (billing starts here).
    pub fn requested_at(&self) -> SimTime {
        self.requested_at
    }
    /// When the instance becomes usable (after spin-up).
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }
    /// When the instance was released, if it has been.
    pub fn released_at(&self) -> Option<SimTime> {
        self.released_at
    }
    /// Whether the instance is still held at `now`.
    pub fn is_active(&self, now: SimTime) -> bool {
        self.released_at.is_none_or(|t| t > now)
    }
    /// The spin-up overhead this instance paid.
    pub fn spin_up_overhead(&self) -> SimDuration {
        self.ready_at - self.requested_at
    }
    /// Whether this is a spot instance.
    pub fn is_spot(&self) -> bool {
        self.spot
    }
    /// When the spot market terminates this instance, if ever.
    pub fn terminates_at(&self) -> Option<SimTime> {
        self.terminates_at
    }
    /// The injected straggler fate `(onset, slowdown factor)`, if any.
    pub fn performance_fault(&self) -> Option<(SimTime, f64)> {
        self.perf_fault
    }
    /// Whether external tenants share this instance's server: a
    /// non-reserved instance smaller than a full server.
    fn is_exposed(&self) -> bool {
        !self.reserved && self.itype.external_share() > 0.0
    }
}

/// Why an acquisition attempt failed (fault injection only — without an
/// active fault plan, acquisition never fails).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AcquireFailure {
    /// The provider transiently rejected the request.
    OutOfCapacity,
    /// The spin-up hung; the caller wasted `waited` before giving up.
    SpinUpTimeout {
        /// Wall time lost on the abandoned attempt.
        waited: SimDuration,
    },
}

/// A billing-relevant usage interval, consumed by `hcloud-pricing`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageRecord {
    /// The instance type used.
    pub itype: InstanceType,
    /// Whether the usage was on reserved resources.
    pub reserved: bool,
    /// Start of the interval (instance request time).
    pub from: SimTime,
    /// End of the interval (release time, or observation end).
    pub to: SimTime,
    /// Multiplier on the on-demand rate: 1.0 for ordinary on-demand
    /// usage, the time-averaged market multiplier for spot usage.
    pub rate_multiplier: f64,
    /// Whether this interval ran on a spot instance. Not part of any
    /// run digest — purely a billing/audit partition key.
    pub spot: bool,
}

impl UsageRecord {
    /// An ordinary (non-spot) usage record.
    pub fn new(itype: InstanceType, reserved: bool, from: SimTime, to: SimTime) -> UsageRecord {
        UsageRecord {
            itype,
            reserved,
            from,
            to,
            rate_multiplier: 1.0,
            spot: false,
        }
    }

    /// The billed duration.
    pub fn duration(&self) -> SimDuration {
        self.to.saturating_since(self.from)
    }
}

/// The simulated cloud provider.
#[derive(Debug, Clone)]
pub struct Cloud {
    config: CloudConfig,
    external: ExternalLoadModel,
    factory: RngFactory,
    spin_rng: SimRng,
    instances: Vec<Instance>,
    tracer: Tracer,
    injector: FaultInjector,
}

impl Cloud {
    /// Creates a cloud with the given configuration and RNG factory.
    ///
    /// The provider profile's variability multipliers are applied to the
    /// external-load model once, here.
    pub fn new(config: CloudConfig, factory: RngFactory) -> Self {
        Cloud::with_instruments(
            config,
            factory,
            Tracer::disabled(),
            FaultInjector::disabled(),
        )
    }

    /// Like [`Cloud::new`], but instance-lifecycle events (spin-up,
    /// release) are recorded into `tracer`, and acquisitions, spin-ups,
    /// spot terminations and delivered quality are subject to the given
    /// fault injector. A disabled injector consumes no randomness and
    /// leaves every code path byte-identical to [`Cloud::new`].
    pub fn with_instruments(
        config: CloudConfig,
        factory: RngFactory,
        tracer: Tracer,
        injector: FaultInjector,
    ) -> Self {
        let external = config.provider.shape_external(&config.external);
        let spin_rng = factory.stream("cloud.spin_up");
        Cloud {
            config,
            external,
            factory,
            spin_rng,
            instances: Vec::new(),
            tracer,
            injector,
        }
    }

    /// The fault injector driving this cloud (disabled by default).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// The configuration this cloud was built with.
    pub fn config(&self) -> &CloudConfig {
        &self.config
    }

    /// The (provider-shaped) external-load model in effect.
    pub fn external_model(&self) -> &ExternalLoadModel {
        &self.external
    }

    /// The contention model in effect.
    pub fn slowdown_model(&self) -> &SlowdownModel {
        &self.config.slowdown
    }

    /// Provisions `count` reserved full-server instances, ready
    /// immediately at `now` (reserved resources have no spin-up and no
    /// external interference).
    pub fn provision_reserved(&mut self, count: usize, now: SimTime) -> Vec<InstanceId> {
        (0..count)
            .map(|_| self.push_instance(InstanceType::full_server(), true, false, now, now, None))
            .collect()
    }

    /// Acquires one on-demand instance of `itype`. The instance is usable
    /// from [`Instance::ready_at`], after a sampled spin-up overhead.
    ///
    /// This path never fails: acquisition-level faults (capacity errors,
    /// timeouts) only apply through [`Cloud::try_acquire`]. Schedulers use
    /// it as the forced final fallback after a bounded retry loop, so a
    /// hostile fault plan can delay work but never live-lock the run.
    pub fn acquire(&mut self, itype: InstanceType, now: SimTime) -> InstanceId {
        self.spin_up_on_demand(itype, now, 1.0)
    }

    /// Acquires one on-demand instance, subject to fault injection.
    ///
    /// With an active fault plan, the attempt may be rejected outright
    /// ([`AcquireFailure::OutOfCapacity`]), hang and get abandoned
    /// ([`AcquireFailure::SpinUpTimeout`]), or succeed with a spiked
    /// spin-up. Without one, this is exactly [`Cloud::acquire`].
    pub fn try_acquire(
        &mut self,
        itype: InstanceType,
        now: SimTime,
    ) -> Result<InstanceId, AcquireFailure> {
        match self.injector.next_acquire_fault() {
            Some(AcquireFault::OutOfCapacity) => Err(AcquireFailure::OutOfCapacity),
            Some(AcquireFault::SpinUpTimeout(waited)) => {
                Err(AcquireFailure::SpinUpTimeout { waited })
            }
            Some(AcquireFault::SpinUpSpike(factor)) => {
                Ok(self.spin_up_on_demand(itype, now, factor))
            }
            None => Ok(self.spin_up_on_demand(itype, now, 1.0)),
        }
    }

    /// Samples spin-up (spiked by `spike` when > 1), creates the instance
    /// and records its lifecycle events.
    fn spin_up_on_demand(&mut self, itype: InstanceType, now: SimTime, spike: f64) -> InstanceId {
        let mut overhead = self.config.spin_up.sample(itype, &mut self.spin_rng);
        if spike > 1.0 {
            overhead = overhead.mul_f64(spike);
        }
        let id = self.push_instance(itype, false, false, now, now + overhead, None);
        trace_event!(
            self.tracer,
            now,
            TraceKind::InstanceSpinUp {
                instance: id.0,
                itype: itype.to_string(),
                vcpus: itype.vcpus(),
                spot: false,
                spin_up_us: overhead.as_micros(),
            }
        );
        if spike > 1.0 {
            trace_event!(
                self.tracer,
                now,
                TraceKind::FaultSpinUpSpike {
                    instance: id.0,
                    factor: spike,
                    spin_up_us: overhead.as_micros(),
                }
            );
        }
        id
    }

    /// Acquires one **spot** instance of `itype` at a bid of
    /// `bid_multiplier ×` the on-demand rate. The returned instance has a
    /// pre-determined [`Instance::terminates_at`] (the first market spike
    /// above the bid within 12 hours, if any); the caller must stop using
    /// it at that instant.
    pub fn acquire_spot(
        &mut self,
        itype: InstanceType,
        bid_multiplier: f64,
        now: SimTime,
    ) -> InstanceId {
        assert!(bid_multiplier > 0.0, "spot bid must be positive");
        let overhead = self.config.spin_up.sample(itype, &mut self.spin_rng);
        let ready = now + overhead;
        let market = self.config.spot.first_termination(
            &self.factory,
            itype,
            bid_multiplier,
            ready,
            SimDuration::from_hours(12),
        );
        // A correlated preemption storm revokes the instance even if the
        // market alone would have let it live.
        let storm = self.injector.storm_termination(ready);
        let terminates = match (market, storm) {
            (Some(m), Some(s)) => Some(m.min(s)),
            (m, s) => m.or(s),
        };
        let id = self.push_instance(itype, false, true, now, ready, terminates);
        trace_event!(
            self.tracer,
            now,
            TraceKind::InstanceSpinUp {
                instance: id.0,
                itype: itype.to_string(),
                vcpus: itype.vcpus(),
                spot: true,
                spin_up_us: overhead.as_micros(),
            }
        );
        if let Some(s) = storm {
            if market.is_none_or(|m| s < m) {
                trace_event!(
                    self.tracer,
                    now,
                    TraceKind::FaultStormPreemption {
                        instance: id.0,
                        termination_us: s.as_micros(),
                    }
                );
            }
        }
        id
    }

    fn push_instance(
        &mut self,
        itype: InstanceType,
        reserved: bool,
        spot: bool,
        requested_at: SimTime,
        ready_at: SimTime,
        terminates_at: Option<SimTime>,
    ) -> InstanceId {
        let id = InstanceId(self.instances.len() as u64);
        // Straggler fate is drawn per instance (pure in the id), but only
        // rented capacity degrades — the reserved pool is owned hardware.
        let perf_fault = if reserved {
            None
        } else {
            self.injector.degradation(id.0, ready_at)
        };
        if let Some((onset, factor)) = perf_fault {
            trace_event!(
                self.tracer,
                requested_at,
                TraceKind::FaultDegradation {
                    instance: id.0,
                    onset_us: onset.as_micros(),
                    factor,
                }
            );
        }
        let mut instance = Instance {
            id,
            itype,
            reserved,
            spot,
            requested_at,
            ready_at,
            released_at: None,
            terminates_at,
            server_seed: id.0,
            perf_fault,
            load: None,
        };
        if instance.is_exposed() {
            instance.load = Some(Box::new(self.external.server_load(&self.factory, id.0)));
        }
        self.instances.push(instance);
        id
    }

    /// Releases an instance. Billing stops at `now`.
    ///
    /// # Panics
    /// Panics if the instance was already released.
    pub fn release(&mut self, id: InstanceId, now: SimTime) {
        let inst = self.slot_mut(id);
        assert!(inst.released_at.is_none(), "instance {id} released twice");
        inst.released_at = Some(now.max(inst.requested_at));
        inst.load = None;
        trace_event!(
            self.tracer,
            now,
            TraceKind::InstanceReleased { instance: id.0 }
        );
    }

    /// Looks up an instance.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this cloud.
    pub fn instance(&self, id: InstanceId) -> &Instance {
        self.slot(id)
    }

    /// Arena internals: the only places raw indexing is allowed.
    fn slot(&self, id: InstanceId) -> &Instance {
        &self.instances[id.index()]
    }

    fn slot_mut(&mut self, id: InstanceId) -> &mut Instance {
        &mut self.instances[id.index()]
    }

    /// All instances ever issued, in acquisition order (the y-axis of
    /// Figure 20).
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// The external pressure vector on `id` at `t`. Zero for reserved
    /// instances and full-server on-demand instances.
    pub fn external_pressure(&self, id: InstanceId, t: SimTime) -> ResourceVector {
        let inst = self.instance(id);
        if inst.reserved {
            return ResourceVector::ZERO;
        }
        let share = inst.itype.external_share();
        let raw = match &inst.load {
            Some(load) => load.pressure(&self.external, &self.factory, t, share),
            None => self
                .external
                .pressure(&self.factory, inst.server_seed, t, share),
        };
        if self.config.partitioning <= 0.0 {
            return raw;
        }
        // Resource partitioning (Section 5.5): caps on the partitionable
        // shared resources shield the instance from that fraction of
        // external pressure.
        use hcloud_interference::Resource;
        let iso = self.config.partitioning.clamp(0.0, 1.0);
        let mut shielded = raw;
        for r in [
            Resource::CacheLlc,
            Resource::MemBandwidth,
            Resource::NetBandwidth,
        ] {
            shielded[r] *= 1.0 - iso;
        }
        shielded
    }

    /// The resource quality `q ∈ (0, 1]` instance `id` delivers at `t`
    /// considering external interference only (co-scheduled jobs are the
    /// scheduler's own knowledge and are added by the caller).
    ///
    /// A degraded (straggler) instance delivers proportionally less once
    /// its onset time passes, so the QoS monitor sees the fault through
    /// the same signal as ordinary interference.
    pub fn delivered_quality(&self, id: InstanceId, t: SimTime) -> f64 {
        let pressure = self.external_pressure(id, t);
        self.config.slowdown.delivered_quality(&pressure) / self.fault_slowdown(id, t)
    }

    /// The injected straggler slowdown on `id` at `t`: `1.0` for healthy
    /// instances, the degradation factor once onset has passed.
    pub fn fault_slowdown(&self, id: InstanceId, t: SimTime) -> f64 {
        match self.instance(id).perf_fault {
            Some((onset, factor)) if t >= onset => factor,
            _ => 1.0,
        }
    }

    /// A value that changes whenever [`Cloud::external_pressure`] or
    /// [`Cloud::fault_slowdown`] of `id` may: the external-load epoch of
    /// `t` on an exposed server (0 otherwise), shifted left one bit to
    /// make room for whether a straggler fault has set in. Equal values
    /// at two instants guarantee equal answers from both queries, so
    /// callers may cache anything derived from them per value.
    pub fn interference_epoch(&self, id: InstanceId, t: SimTime) -> u64 {
        let inst = self.instance(id);
        let epoch = if inst.is_exposed() {
            self.external.epoch(t)
        } else {
            0
        };
        let straggling = matches!(inst.perf_fault, Some((onset, _)) if t >= onset);
        epoch << 1 | u64::from(straggling)
    }

    /// Number of instances still held at `now`.
    pub fn active_count(&self, now: SimTime) -> usize {
        self.instances.iter().filter(|i| i.is_active(now)).count()
    }

    /// Total vCPUs across instances still held at `now`, split as
    /// `(reserved, on_demand)`.
    pub fn active_vcpus(&self, now: SimTime) -> (u32, u32) {
        let mut reserved = 0;
        let mut on_demand = 0;
        for i in self.instances.iter().filter(|i| i.is_active(now)) {
            if i.reserved {
                reserved += i.itype.vcpus();
            } else {
                on_demand += i.itype.vcpus();
            }
        }
        (reserved, on_demand)
    }

    /// Usage records for billing, closing still-active instances at
    /// `observation_end`.
    pub fn usage_records(&self, observation_end: SimTime) -> Vec<UsageRecord> {
        self.instances
            .iter()
            .map(|i| {
                let to = i
                    .released_at
                    .unwrap_or(observation_end)
                    .min(observation_end)
                    .max(i.requested_at);
                let rate_multiplier = if i.spot {
                    self.config
                        .spot
                        .average_multiplier(&self.factory, i.itype, i.requested_at, to)
                } else {
                    1.0
                };
                UsageRecord {
                    itype: i.itype,
                    reserved: i.reserved,
                    from: i.requested_at,
                    to,
                    rate_multiplier,
                    spot: i.spot,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> Cloud {
        Cloud::new(CloudConfig::default(), RngFactory::new(7))
    }

    #[test]
    fn reserved_instances_are_ready_immediately() {
        let mut c = cloud();
        let now = SimTime::from_secs(10);
        let ids = c.provision_reserved(3, now);
        assert_eq!(ids.len(), 3);
        for id in ids {
            let inst = c.instance(id);
            assert!(inst.is_reserved());
            assert_eq!(inst.ready_at(), now);
            assert_eq!(inst.spin_up_overhead(), SimDuration::ZERO);
            assert!(inst.itype().is_full_server());
        }
    }

    #[test]
    fn on_demand_pays_spin_up() {
        let mut c = cloud();
        let now = SimTime::from_secs(0);
        let id = c.acquire(InstanceType::standard(4), now);
        let inst = c.instance(id);
        assert!(!inst.is_reserved());
        assert!(inst.ready_at() > now, "spin-up should be non-zero");
        assert!(inst.spin_up_overhead() >= SimDuration::from_secs(1));
    }

    #[test]
    fn reserved_sees_no_external_pressure() {
        let mut c = cloud();
        let id = c.provision_reserved(1, SimTime::ZERO)[0];
        let t = SimTime::from_secs(500);
        assert_eq!(c.external_pressure(id, t), ResourceVector::ZERO);
        assert_eq!(c.delivered_quality(id, t), 1.0);
    }

    #[test]
    fn full_server_on_demand_sees_no_external_pressure() {
        let mut c = cloud();
        let id = c.acquire(InstanceType::full_server(), SimTime::ZERO);
        let t = SimTime::from_secs(500);
        assert_eq!(c.external_pressure(id, t), ResourceVector::ZERO);
    }

    #[test]
    fn small_instances_see_pressure_and_lower_quality() {
        let mut c = cloud();
        let small = c.acquire(InstanceType::standard(1), SimTime::ZERO);
        // Average over time: individual instants can be quiet.
        let mean_q: f64 = (1..=50)
            .map(|k| c.delivered_quality(small, SimTime::from_secs(10 * k)))
            .sum::<f64>()
            / 50.0;
        assert!(mean_q < 0.99, "small instance quality mean {mean_q}");
        assert!(mean_q > 0.5);
    }

    #[test]
    fn bigger_slices_deliver_better_quality_on_average() {
        let mut c = cloud();
        let mut mean_for = |itype: InstanceType| {
            let id = c.acquire(itype, SimTime::ZERO);
            (1..=200)
                .map(|k| c.delivered_quality(id, SimTime::from_secs(10 * k)))
                .sum::<f64>()
                / 200.0
        };
        let q1 = mean_for(InstanceType::standard(1));
        let q8 = mean_for(InstanceType::standard(8));
        let q16 = mean_for(InstanceType::standard(16));
        assert!(q1 < q8, "q1={q1} q8={q8}");
        assert!(q8 < q16, "q8={q8} q16={q16}");
        assert_eq!(q16, 1.0);
    }

    #[test]
    fn release_and_activity_accounting() {
        let mut c = cloud();
        let a = c.acquire(InstanceType::standard(2), SimTime::ZERO);
        let _b = c.acquire(InstanceType::standard(4), SimTime::ZERO);
        assert_eq!(c.active_count(SimTime::from_secs(1)), 2);
        c.release(a, SimTime::from_secs(100));
        assert_eq!(c.active_count(SimTime::from_secs(200)), 1);
        let (res, od) = c.active_vcpus(SimTime::from_secs(200));
        assert_eq!((res, od), (0, 4));
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_panics() {
        let mut c = cloud();
        let a = c.acquire(InstanceType::standard(2), SimTime::ZERO);
        c.release(a, SimTime::from_secs(1));
        c.release(a, SimTime::from_secs(2));
    }

    #[test]
    fn usage_records_clip_to_observation_end() {
        let mut c = cloud();
        let a = c.acquire(InstanceType::standard(2), SimTime::from_secs(10));
        c.release(a, SimTime::from_secs(50));
        let _b = c.acquire(InstanceType::standard(4), SimTime::from_secs(20));
        let records = c.usage_records(SimTime::from_secs(40));
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].to, SimTime::from_secs(40)); // clipped
        assert_eq!(records[1].duration(), SimDuration::from_secs(20));
    }

    #[test]
    fn determinism_across_identical_clouds() {
        let mut c1 = cloud();
        let mut c2 = cloud();
        let a1 = c1.acquire(InstanceType::standard(2), SimTime::ZERO);
        let a2 = c2.acquire(InstanceType::standard(2), SimTime::ZERO);
        assert_eq!(c1.instance(a1).ready_at(), c2.instance(a2).ready_at());
        let t = SimTime::from_secs(123);
        assert_eq!(c1.external_pressure(a1, t), c2.external_pressure(a2, t));
    }
}
