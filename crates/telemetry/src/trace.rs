//! Typed trace events and the per-run tracer.

use std::cell::RefCell;
use std::rc::Rc;

use hcloud_json::{ObjectBuilder, Value};
use hcloud_sim::SimTime;

/// One structured telemetry event, stamped with simulated time.
///
/// Sim time — never wall clock — is the only clock in a trace, which is
/// what makes traces bit-identical across machines and worker counts.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub at: SimTime,
    pub kind: TraceKind,
}

/// The event taxonomy: every decision worth explaining, by subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// `core::scheduler` — one mapping decision for an arriving job
    /// (policies P1–P8 or a fixed strategy), with the inputs that drove it.
    Decision {
        job: u64,
        placement: &'static str,
        reason: String,
        /// The job's quality target QT.
        quality_target: f64,
        /// Reserved-pool utilization at decision time.
        utilization: f64,
        /// Q90 (10th percentile of delivered quality) for the on-demand
        /// instance type under consideration; NaN (=> JSON null) when the
        /// strategy never consults the quality monitor.
        q90: f64,
    },
    /// `core::scheduler` — reserved utilization moved across the soft or
    /// hard dynamic limit since the previous decision.
    LimitCrossing {
        from: &'static str,
        to: &'static str,
        utilization: f64,
        soft: f64,
        hard: f64,
    },
    /// `core::queue_estimator` — a job was queued at the hard limit, with
    /// the estimator's predicted wait (None while the estimator is cold).
    QueueEnter {
        job: u64,
        cores: u32,
        depth: usize,
        estimated_wait_us: Option<u64>,
    },
    /// `core::queue_estimator` — a queued job finally placed: predicted
    /// vs. realized queueing time (`relieved` marks the starving-queue
    /// escape path to large on-demand).
    QueueExit {
        job: u64,
        cores: u32,
        estimated_wait_us: Option<u64>,
        actual_wait_us: u64,
        relieved: bool,
    },
    /// `core::monitor` — a latency-critical job breached its QoS bound
    /// (tail latency above the rescheduling threshold) this tick.
    QosViolation {
        job: u64,
        p99: f64,
        threshold: f64,
        bad_ticks: u32,
    },
    /// `core::monitor` — local boost: grew an LC job's core allocation on
    /// its current instance.
    LocalBoost {
        job: u64,
        extra_cores: u32,
        cores: u32,
    },
    /// `core::monitor` — persistent QoS violation: job moved to a fresh
    /// dedicated instance.
    Reschedule { job: u64, from_instance: u64 },
    /// `cloud` — an instance was acquired and is spinning up.
    InstanceSpinUp {
        instance: u64,
        itype: String,
        vcpus: u32,
        spot: bool,
        spin_up_us: u64,
    },
    /// `core::scheduler` — an idle on-demand instance's retention window
    /// expired without reuse.
    RetentionExpired { instance: u64 },
    /// `cloud` — an instance was released back to the provider.
    InstanceReleased { instance: u64 },
    /// `core::scheduler` — a spot instance was won at the bid price.
    /// `terminates_us` carries the market's pre-computed revocation time
    /// (absent when the price never crosses the bid in the horizon).
    SpotAcquired {
        instance: u64,
        bid_multiplier: f64,
        terminates_us: Option<u64>,
    },
    /// `cloud`/`core::scheduler` — a spot instance was revoked.
    SpotTerminated { instance: u64, evicted: usize },
    /// `sim::event` loop — periodic heartbeat from the runner.
    Progress {
        events_processed: u64,
        queue_depth: usize,
    },
    /// `sim::event` loop — end-of-run totals from the event queue.
    RunEnd {
        events_processed: u64,
        scheduled_total: u64,
        max_queue_depth: usize,
    },
    /// `faults` — an acquisition's spin-up was spiked by the injector.
    FaultSpinUpSpike {
        instance: u64,
        factor: f64,
        spin_up_us: u64,
    },
    /// `faults` — an acquisition attempt hung and was abandoned.
    FaultSpinUpTimeout {
        vcpus: u32,
        attempt: u32,
        waited_us: u64,
    },
    /// `faults` — the provider transiently rejected an acquisition.
    FaultOutOfCapacity { vcpus: u32, attempt: u32 },
    /// `faults` — an instance was fated to degrade (straggler onset).
    FaultDegradation {
        instance: u64,
        onset_us: u64,
        factor: f64,
    },
    /// `faults` — a preemption storm will revoke this spot instance
    /// earlier than the market would have.
    FaultStormPreemption { instance: u64, termination_us: u64 },
    /// `faults` — the QoS-monitor signal dropped out (or recovered).
    FaultMonitorDropout { active: bool },
    /// `core::scheduler` — an acquisition attempt failed; backing off
    /// exponentially before retrying.
    RecoveryRetry { attempt: u32, backoff_us: u64 },
    /// `core::scheduler` — repeated acquisition failures; falling back to
    /// the standard instance family.
    RecoveryFamilyFallback { vcpus: u32 },
    /// `core::scheduler` — the P8 dynamic policy fell back to (or
    /// recovered from) the static soft limit because monitor dropouts
    /// staled the quality distributions.
    RecoveryPolicyFallback { active: bool },
    /// `core::scheduler` — a preempted job was requeued through the
    /// normal admission path, with the work it lost since its last
    /// checkpoint.
    RecoveryRequeue { job: u64, work_lost_core_secs: f64 },
    /// `tenancy` — a tenanted job was held in its tenant queue at the
    /// admission gate (cap, pool, or borrow limit).
    TenantDefer { job: u64, tenant: u64, depth: usize },
    /// `tenancy` — the DRR drain released a held job into the pool,
    /// with its realized queue wait.
    TenantRelease {
        job: u64,
        tenant: u64,
        waited_us: u64,
        borrowed: bool,
    },
    /// `tenancy` — cross-queue preemption: a running or reserved-queued
    /// job was evicted so a starved guaranteed queue could reclaim its
    /// share. A queued victim leaves the queue with this event alone.
    TenantPreempt {
        job: u64,
        victim_tenant: u64,
        starved_tenant: u64,
        work_lost_core_secs: f64,
    },
    /// `audit` — end-of-run ledger totals from the conservation oracle.
    AuditSummary {
        demanded_core_secs: f64,
        credited_core_secs: f64,
        lost_core_secs: f64,
        jobs_admitted: u64,
        jobs_completed: u64,
        violations: u64,
    },
    /// `audit` — a conservation invariant was broken; the run fails with
    /// this violation.
    AuditViolation { message: String },
}

impl TraceKind {
    /// Stable wire name for the `ev` field.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Decision { .. } => "decision",
            TraceKind::LimitCrossing { .. } => "limit-crossing",
            TraceKind::QueueEnter { .. } => "queue-enter",
            TraceKind::QueueExit { .. } => "queue-exit",
            TraceKind::QosViolation { .. } => "qos-violation",
            TraceKind::LocalBoost { .. } => "local-boost",
            TraceKind::Reschedule { .. } => "reschedule",
            TraceKind::InstanceSpinUp { .. } => "instance-spin-up",
            TraceKind::RetentionExpired { .. } => "retention-expired",
            TraceKind::InstanceReleased { .. } => "instance-released",
            TraceKind::SpotAcquired { .. } => "spot-acquired",
            TraceKind::SpotTerminated { .. } => "spot-terminated",
            TraceKind::Progress { .. } => "progress",
            TraceKind::RunEnd { .. } => "run-end",
            TraceKind::FaultSpinUpSpike { .. } => "fault-spin-up-spike",
            TraceKind::FaultSpinUpTimeout { .. } => "fault-spin-up-timeout",
            TraceKind::FaultOutOfCapacity { .. } => "fault-out-of-capacity",
            TraceKind::FaultDegradation { .. } => "fault-degradation",
            TraceKind::FaultStormPreemption { .. } => "fault-storm-preemption",
            TraceKind::FaultMonitorDropout { .. } => "fault-monitor-dropout",
            TraceKind::RecoveryRetry { .. } => "recovery-retry",
            TraceKind::RecoveryFamilyFallback { .. } => "recovery-family-fallback",
            TraceKind::RecoveryPolicyFallback { .. } => "recovery-policy-fallback",
            TraceKind::RecoveryRequeue { .. } => "recovery-requeue",
            TraceKind::TenantDefer { .. } => "tenant-defer",
            TraceKind::TenantRelease { .. } => "tenant-release",
            TraceKind::TenantPreempt { .. } => "tenant-preempt",
            TraceKind::AuditSummary { .. } => "audit-summary",
            TraceKind::AuditViolation { .. } => "audit-violation",
        }
    }
}

impl TraceEvent {
    pub fn new(at: SimTime, kind: TraceKind) -> Self {
        TraceEvent { at, kind }
    }

    /// Serialize as one deterministic JSON object:
    /// `{"t_us": <sim micros>, "ev": "<kind>", ...payload}`.
    pub fn to_json(&self) -> Value {
        let mut b = ObjectBuilder::new()
            .set("t_us", self.at.as_micros())
            .set("ev", self.kind.name());
        b = match &self.kind {
            TraceKind::Decision {
                job,
                placement,
                reason,
                quality_target,
                utilization,
                q90,
            } => b
                .set("job", *job)
                .set("placement", *placement)
                .set("reason", reason.as_str())
                .set("qt", *quality_target)
                .set("util", *utilization)
                .set("q90", *q90),
            TraceKind::LimitCrossing {
                from,
                to,
                utilization,
                soft,
                hard,
            } => b
                .set("from", *from)
                .set("to", *to)
                .set("util", *utilization)
                .set("soft", *soft)
                .set("hard", *hard),
            TraceKind::QueueEnter {
                job,
                cores,
                depth,
                estimated_wait_us,
            } => b
                .set("job", *job)
                .set("cores", *cores)
                .set("depth", *depth as u64)
                .set("est_us", *estimated_wait_us),
            TraceKind::QueueExit {
                job,
                cores,
                estimated_wait_us,
                actual_wait_us,
                relieved,
            } => b
                .set("job", *job)
                .set("cores", *cores)
                .set("est_us", *estimated_wait_us)
                .set("actual_us", *actual_wait_us)
                .set("relieved", *relieved),
            TraceKind::QosViolation {
                job,
                p99,
                threshold,
                bad_ticks,
            } => b
                .set("job", *job)
                .set("p99", *p99)
                .set("threshold", *threshold)
                .set("bad_ticks", *bad_ticks),
            TraceKind::LocalBoost {
                job,
                extra_cores,
                cores,
            } => b
                .set("job", *job)
                .set("extra_cores", *extra_cores)
                .set("cores", *cores),
            TraceKind::Reschedule { job, from_instance } => {
                b.set("job", *job).set("from_instance", *from_instance)
            }
            TraceKind::InstanceSpinUp {
                instance,
                itype,
                vcpus,
                spot,
                spin_up_us,
            } => b
                .set("instance", *instance)
                .set("itype", itype.as_str())
                .set("vcpus", *vcpus)
                .set("spot", *spot)
                .set("spin_up_us", *spin_up_us),
            TraceKind::RetentionExpired { instance } => b.set("instance", *instance),
            TraceKind::InstanceReleased { instance } => b.set("instance", *instance),
            TraceKind::SpotAcquired {
                instance,
                bid_multiplier,
                terminates_us,
            } => b
                .set("instance", *instance)
                .set("bid_multiplier", *bid_multiplier)
                .set("terminates_us", *terminates_us),
            TraceKind::SpotTerminated { instance, evicted } => {
                b.set("instance", *instance).set("evicted", *evicted as u64)
            }
            TraceKind::Progress {
                events_processed,
                queue_depth,
            } => b
                .set("events_processed", *events_processed)
                .set("queue_depth", *queue_depth as u64),
            TraceKind::RunEnd {
                events_processed,
                scheduled_total,
                max_queue_depth,
            } => b
                .set("events_processed", *events_processed)
                .set("scheduled_total", *scheduled_total)
                .set("max_queue_depth", *max_queue_depth as u64),
            TraceKind::FaultSpinUpSpike {
                instance,
                factor,
                spin_up_us,
            } => b
                .set("instance", *instance)
                .set("factor", *factor)
                .set("spin_up_us", *spin_up_us),
            TraceKind::FaultSpinUpTimeout {
                vcpus,
                attempt,
                waited_us,
            } => b
                .set("vcpus", *vcpus)
                .set("attempt", *attempt)
                .set("waited_us", *waited_us),
            TraceKind::FaultOutOfCapacity { vcpus, attempt } => {
                b.set("vcpus", *vcpus).set("attempt", *attempt)
            }
            TraceKind::FaultDegradation {
                instance,
                onset_us,
                factor,
            } => b
                .set("instance", *instance)
                .set("onset_us", *onset_us)
                .set("factor", *factor),
            TraceKind::FaultStormPreemption {
                instance,
                termination_us,
            } => b
                .set("instance", *instance)
                .set("termination_us", *termination_us),
            TraceKind::FaultMonitorDropout { active } => b.set("active", *active),
            TraceKind::RecoveryRetry {
                attempt,
                backoff_us,
            } => b.set("attempt", *attempt).set("backoff_us", *backoff_us),
            TraceKind::RecoveryFamilyFallback { vcpus } => b.set("vcpus", *vcpus),
            TraceKind::RecoveryPolicyFallback { active } => b.set("active", *active),
            TraceKind::RecoveryRequeue {
                job,
                work_lost_core_secs,
            } => b
                .set("job", *job)
                .set("work_lost_core_secs", *work_lost_core_secs),
            TraceKind::TenantDefer { job, tenant, depth } => b
                .set("job", *job)
                .set("tenant", *tenant)
                .set("depth", *depth as u64),
            TraceKind::TenantRelease {
                job,
                tenant,
                waited_us,
                borrowed,
            } => b
                .set("job", *job)
                .set("tenant", *tenant)
                .set("waited_us", *waited_us)
                .set("borrowed", *borrowed),
            TraceKind::TenantPreempt {
                job,
                victim_tenant,
                starved_tenant,
                work_lost_core_secs,
            } => b
                .set("job", *job)
                .set("victim_tenant", *victim_tenant)
                .set("starved_tenant", *starved_tenant)
                .set("work_lost_core_secs", *work_lost_core_secs),
            TraceKind::AuditSummary {
                demanded_core_secs,
                credited_core_secs,
                lost_core_secs,
                jobs_admitted,
                jobs_completed,
                violations,
            } => b
                .set("demanded_core_secs", *demanded_core_secs)
                .set("credited_core_secs", *credited_core_secs)
                .set("lost_core_secs", *lost_core_secs)
                .set("jobs_admitted", *jobs_admitted)
                .set("jobs_completed", *jobs_completed)
                .set("violations", *violations),
            TraceKind::AuditViolation { message } => b.set("message", message.as_str()),
        };
        b.build()
    }
}

/// A cheap-to-clone handle onto one run's event buffer.
///
/// Each simulated run owns exactly one buffer; the scheduler and the cloud
/// share it through clones (single-threaded within a run — runs only cross
/// threads as finished `Vec<TraceEvent>`s). A disabled tracer reduces every
/// [`trace_event!`] site to a single predictable branch.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    buf: Rc<RefCell<Vec<TraceEvent>>>,
}

impl Tracer {
    /// A tracer that records nothing; this is the hot-path default.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            buf: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// A tracer that buffers every recorded event.
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            buf: Rc::new(RefCell::new(Vec::new())),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append one event. Call through [`trace_event!`] so the payload is
    /// not even constructed when tracing is off.
    pub fn record(&self, at: SimTime, kind: TraceKind) {
        if self.enabled {
            self.buf.borrow_mut().push(TraceEvent::new(at, kind));
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }

    /// Drain the buffer, leaving the tracer empty but usable.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.buf.borrow_mut())
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(n: u64) -> TraceKind {
        TraceKind::Progress {
            events_processed: n,
            queue_depth: 3,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.record(SimTime::from_secs(1), progress(1));
        crate::trace_event!(t, SimTime::from_secs(2), progress(2));
        assert!(t.is_empty());
        assert!(t.take().is_empty());
    }

    #[test]
    fn enabled_tracer_buffers_in_order_and_shares_across_clones() {
        let t = Tracer::enabled();
        let clone = t.clone();
        crate::trace_event!(t, SimTime::from_secs(1), progress(1));
        crate::trace_event!(clone, SimTime::from_secs(2), progress(2));
        assert_eq!(t.len(), 2);
        let events = t.take();
        assert_eq!(events[0].at, SimTime::from_secs(1));
        assert_eq!(events[1].at, SimTime::from_secs(2));
        assert!(clone.is_empty(), "take drains the shared buffer");
    }

    #[test]
    fn json_encoding_is_stable() {
        let ev = TraceEvent::new(
            SimTime::from_micros(1_500_000),
            TraceKind::Decision {
                job: 7,
                placement: "reserved",
                reason: "below-soft-limit".into(),
                quality_target: 0.9,
                utilization: 0.25,
                q90: f64::NAN,
            },
        );
        let line = ev.to_json().to_string();
        assert!(line.starts_with("{\"t_us\":1500000,\"ev\":\"decision\""));
        assert!(line.contains("\"q90\":null"), "NaN serializes as null");
    }

    #[test]
    fn audit_events_encode_stably() {
        let ev = TraceEvent::new(
            SimTime::from_secs(9),
            TraceKind::AuditSummary {
                demanded_core_secs: 100.0,
                credited_core_secs: 100.0,
                lost_core_secs: 0.0,
                jobs_admitted: 3,
                jobs_completed: 3,
                violations: 0,
            },
        );
        let line = ev.to_json().to_string();
        assert!(line.starts_with("{\"t_us\":9000000,\"ev\":\"audit-summary\""));
        assert!(line.contains("\"jobs_admitted\":3"));
        let ev = TraceEvent::new(
            SimTime::ZERO,
            TraceKind::AuditViolation {
                message: "work conservation broke".into(),
            },
        );
        assert!(ev
            .to_json()
            .to_string()
            .contains("\"ev\":\"audit-violation\""));
    }

    #[test]
    fn optional_waits_round_trip() {
        let ev = TraceEvent::new(
            SimTime::ZERO,
            TraceKind::QueueEnter {
                job: 1,
                cores: 4,
                depth: 2,
                estimated_wait_us: None,
            },
        );
        assert!(ev.to_json().to_string().contains("\"est_us\":null"));
        let ev = TraceEvent::new(
            SimTime::ZERO,
            TraceKind::QueueEnter {
                job: 1,
                cores: 4,
                depth: 2,
                estimated_wait_us: Some(250),
            },
        );
        assert!(ev.to_json().to_string().contains("\"est_us\":250"));
    }
}
