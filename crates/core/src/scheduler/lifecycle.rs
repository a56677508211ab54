//! Instance lifecycle: binding jobs to instances, acquisition (with
//! fault-aware retries), spot instances and their termination, idle
//! retention, release and pool consolidation — and the one eviction
//! path that spot termination and tenant preemption share.

use hcloud_audit::{AuditViolation, AuditViolationKind};
use hcloud_cloud::{AcquireFailure, Family, InstanceType};
use hcloud_quasar::JobEstimate;
use hcloud_sim::event::EventSink;
use hcloud_sim::slot::SlotKey;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_telemetry::{trace_event, TraceKind};
use hcloud_workloads::{JobKind, JobSpec};

use super::{audited_since, Carryover, Colocated, Event, RunningJob, SchedInstance, Scheduler};
use crate::placement::InstanceHandle;
use crate::strategy::{RetentionCtx, RetentionDecision};

/// Acquisition attempts before giving up on fault-aware retries and
/// forcing a plain (never-failing) acquisition.
const MAX_ACQUIRE_ATTEMPTS: u32 = 6;

impl<'a> Scheduler<'a> {
    /// Binds the running job in arena slot `key` to `h`, charging
    /// `cores`, and keeps the idle-retention index in sync: an idle
    /// instance that takes a job leaves it.
    pub(super) fn attach_job(&mut self, h: InstanceHandle, key: SlotKey, cores: u32, now: SimTime) {
        let inst = self
            .instances
            .get_mut(h.key())
            .expect("attach to live instance");
        inst.used_cores += cores;
        inst.jobs.push(Colocated {
            key,
            stamp: 0,
            slowdown: 0.0,
        });
        inst.restamp(&mut self.stamps);
        let od = !inst.reserved;
        let cloud_id = inst.cloud_id.raw();
        let bucket = (inst.itype.family(), inst.itype.vcpus(), h);
        self.auditor.cores_bound(now, cloud_id, cores);
        if od && self.idle_buckets.remove(&bucket) {
            self.counters.index_rebuilds += 1;
        }
    }

    /// Unbinds the job in arena slot `key` from `h`, freeing `cores`.
    /// Returns `true` when the instance is left empty; the caller then
    /// decides between retention (which re-enters the idle index) and
    /// release.
    ///
    /// Freeing more cores than are bound is a conservation bug (e.g. a
    /// double unbind): it is reported as a typed [`AuditViolation`]
    /// instead of being silently clamped by saturating arithmetic.
    pub(super) fn detach_job(
        &mut self,
        h: InstanceHandle,
        key: SlotKey,
        cores: u32,
        now: SimTime,
    ) -> Result<bool, AuditViolation> {
        let inst = self
            .instances
            .get_mut(h.key())
            .expect("detach from live instance");
        let Some(remaining) = inst.used_cores.checked_sub(cores) else {
            let violation = AuditViolation::new(
                now,
                AuditViolationKind::CoreUnderflow {
                    instance: inst.cloud_id.raw(),
                    bound: inst.used_cores,
                    unbind: cores,
                },
            );
            self.auditor.report(violation.clone());
            return Err(violation);
        };
        inst.used_cores = remaining;
        inst.jobs.retain(|c| c.key != key);
        inst.restamp(&mut self.stamps);
        let empty = inst.jobs.is_empty();
        let cloud_id = inst.cloud_id.raw();
        self.auditor.cores_unbound(now, cloud_id, cores);
        Ok(empty)
    }

    /// Acquires a fresh on-demand instance, retrying with exponential
    /// backoff when fault injection makes the attempt fail. Repeated
    /// failures on an optimized family fall back to the widely-available
    /// standard family; after [`MAX_ACQUIRE_ATTEMPTS`] the acquisition is
    /// forced through the never-failing path so placement always
    /// terminates. Without an active fault plan the first attempt always
    /// succeeds and this is identical to a plain acquisition.
    pub(super) fn acquire(&mut self, itype: InstanceType, now: SimTime) -> InstanceHandle {
        let mut itype = itype;
        // Failed attempts push the instance's effective request time out:
        // the caller only learns about the failure after waiting for it.
        let mut delay = SimDuration::ZERO;
        let mut acquired = None;
        for attempt in 0..MAX_ACQUIRE_ATTEMPTS {
            match self.cloud.try_acquire(itype, now + delay) {
                Ok(id) => {
                    acquired = Some(id);
                    break;
                }
                Err(failure) => {
                    self.counters.acquire_retries += 1;
                    match failure {
                        AcquireFailure::OutOfCapacity => {
                            self.counters.capacity_errors += 1;
                            trace_event!(
                                self.tracer,
                                now + delay,
                                TraceKind::FaultOutOfCapacity {
                                    vcpus: itype.vcpus(),
                                    attempt,
                                }
                            );
                        }
                        AcquireFailure::SpinUpTimeout { waited } => {
                            self.counters.spinup_timeouts += 1;
                            trace_event!(
                                self.tracer,
                                now + delay,
                                TraceKind::FaultSpinUpTimeout {
                                    vcpus: itype.vcpus(),
                                    attempt,
                                    waited_us: waited.as_micros(),
                                }
                            );
                            delay += waited;
                        }
                    }
                    let backoff = SimDuration::from_secs_f64(2.0 * 2f64.powi(attempt as i32));
                    delay += backoff;
                    trace_event!(
                        self.tracer,
                        now + delay,
                        TraceKind::RecoveryRetry {
                            attempt,
                            backoff_us: backoff.as_micros(),
                        }
                    );
                    // Two strikes on an optimized family: assume the
                    // shortage is family-specific and fall back.
                    if attempt >= 1 && itype.family() != Family::Standard {
                        itype = InstanceType::standard(itype.vcpus());
                        self.counters.family_fallbacks += 1;
                        trace_event!(
                            self.tracer,
                            now + delay,
                            TraceKind::RecoveryFamilyFallback {
                                vcpus: itype.vcpus(),
                            }
                        );
                    }
                }
            }
        }
        let id = acquired.unwrap_or_else(|| self.cloud.acquire(itype, now + delay));
        let ready_at = self.cloud.instance(id).ready_at();
        self.counters.od_acquired += 1;
        if self.cloud.instance(id).performance_fault().is_some() {
            self.counters.degraded_instances += 1;
        }
        self.od_allocated.record_delta(now, itype.vcpus() as f64);
        self.track_od_instance(SchedInstance::new(id, itype, false, false, ready_at))
    }

    /// Registers a freshly acquired on-demand instance in the arena and
    /// the secondary indices.
    fn track_od_instance(&mut self, inst: SchedInstance) -> InstanceHandle {
        let itype = inst.itype;
        if self.auditor.is_enabled() {
            // Ledger acquisition time must match what the provider bills
            // from: the (possibly retry-delayed) request time, not `now`.
            let requested = self.cloud.instance(inst.cloud_id).requested_at();
            if inst.spot {
                self.auditor
                    .instance_acquired_spot(requested, inst.cloud_id.raw(), itype.vcpus());
            } else {
                self.auditor
                    .instance_acquired(requested, inst.cloud_id.raw(), itype.vcpus());
            }
        }
        let h = InstanceHandle::new(self.instances.insert(inst));
        self.live_od.insert(h);
        if itype.is_full_server() {
            self.od_pool.insert(h);
        }
        self.counters.index_rebuilds += 1;
        h
    }

    /// Acquires a fresh spot instance and schedules its market
    /// termination (if the price path outbids it within the horizon).
    pub(super) fn acquire_spot(
        &mut self,
        itype: InstanceType,
        bid: f64,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> InstanceHandle {
        let id = self.cloud.acquire_spot(itype, bid, now);
        let inst = self.cloud.instance(id);
        let ready_at = inst.ready_at();
        let terminates_at = inst.terminates_at();
        self.counters.spot_acquired += 1;
        if inst.performance_fault().is_some() {
            self.counters.degraded_instances += 1;
        }
        self.od_allocated.record_delta(now, itype.vcpus() as f64);
        let h = self.track_od_instance(SchedInstance::new(id, itype, false, true, ready_at));
        trace_event!(
            self.tracer,
            now,
            TraceKind::SpotAcquired {
                instance: id.raw(),
                bid_multiplier: bid,
                terminates_us: terminates_at.map(|t| t.as_micros()),
            }
        );
        if let Some(t) = terminates_at {
            events.schedule(t.max(now), Event::SpotTermination(h));
        }
        h
    }

    /// Whether a job is eligible for spot capacity under the configured
    /// policy: a tolerant, non-latency-critical batch job.
    pub(super) fn spot_eligible(&self, spec: &JobSpec, est: &JobEstimate) -> bool {
        match self.config.spot {
            Some(policy) => {
                self.strat().is_hybrid()
                    && self.config.profiling
                    && !spec.class.is_latency_metric()
                    && !spec.class.is_sensitive()
                    && est.quality <= policy.max_quality
            }
            None => false,
        }
    }

    /// The spot market (or an injected preemption storm) outbid an
    /// instance: evict its jobs, release it, and re-admit them through
    /// the regular admission path, carrying their remaining work
    /// (progress since the last monitor tick is lost — the
    /// checkpointing granularity).
    pub fn on_spot_termination(
        &mut self,
        h: InstanceHandle,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        // A stale handle means the instance was already released (e.g.
        // drained by consolidation before the market event fired).
        let Ok(inst) = self.instances.get(h.key()) else {
            return Ok(());
        };
        let victims: Vec<SlotKey> = inst.jobs.iter().map(|c| c.key).collect();
        trace_event!(
            self.tracer,
            now,
            TraceKind::SpotTerminated {
                instance: inst.cloud_id.raw(),
                evicted: victims.len(),
            }
        );
        if self.cloud.fault_injector().in_storm(now) {
            self.counters.storm_preemptions += 1;
        }
        // Evict every victim before releasing the instance — re-admission
        // must never pack onto the dying host.
        let mut displaced = Vec::with_capacity(victims.len());
        for key in victims {
            let Ok(job) = self.running.get(key) else {
                continue;
            };
            let jid = job.id;
            self.counters.spot_terminations += 1;
            self.admission.release(jid.0);
            let requeue = |lost| TraceKind::RecoveryRequeue {
                job: jid.0,
                work_lost_core_secs: lost,
            };
            let (job, _) = self.evict(key, now, "spot-termination work loss", requeue)?;
            displaced.push(job);
        }
        self.release_instance(h, now);
        for job in displaced {
            self.readmit(job, now, events);
        }
        self.drain_admission(now, events);
        Ok(())
    }

    /// Evicts the running job in slot `key` (spot termination, tenant
    /// preemption). The work it did since its last checkpoint tick is
    /// redone from the checkpoint: it was real core-time, now lost, and
    /// is booked to the run's counter, the auditor and the tenant
    /// shadow. The caller's `trace` event then records that loss, and the
    /// job is detached from its instance and removed from the running
    /// set. Returns the removed job, for [`Self::readmit`], and whether
    /// its instance is left empty. `context` names the eviction in a
    /// time-inversion report.
    pub(super) fn evict(
        &mut self,
        key: SlotKey,
        now: SimTime,
        context: &'static str,
        trace: impl FnOnce(f64) -> TraceKind,
    ) -> Result<(RunningJob, bool), AuditViolation> {
        let job = self.job(key);
        let (jid, cores, h) = (job.id, job.cores, job.instance);
        let spec = &self.scenario.jobs()[job.spec_idx];
        let lost = if job.started && matches!(spec.kind, JobKind::Batch { .. }) {
            let eff = cores.min(spec.cores).max(1) as f64;
            let slowdown = self.current_slowdown(key, now);
            let since = audited_since(&self.auditor, now, job.last_progress, jid.0, context);
            since.as_secs_f64() * eff / slowdown
        } else {
            0.0
        };
        self.counters.work_lost_core_secs += lost;
        self.auditor.work_lost(now, jid.0, lost);
        self.auditor.job_requeued(now, jid.0);
        self.admission.work_lost(now, jid.0, lost);
        trace_event!(self.tracer, now, trace(lost));
        let now_idle = self.detach_job(h, key, cores, now)?;
        Ok((self.remove_running(key), now_idle))
    }

    /// Re-admits an evicted job through the same admission path as a
    /// fresh arrival, so it is never silently dropped: it is placed,
    /// queued, deferred or escaped like any other job. It resumes from
    /// its checkpoint (`carry`), which also keeps it off spot.
    pub(super) fn readmit(
        &mut self,
        job: RunningJob,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) {
        let spec = &self.scenario.jobs()[job.spec_idx];
        let est = JobEstimate {
            sensitivity: spec.sensitivity,
            quality: 0.0,
            cores: job.cores,
        };
        let carry = Carryover {
            remaining_work: job.remaining_work,
            queue_delay: job.queue_delay,
        };
        self.admit(
            job.spec_idx,
            &est,
            now,
            SimDuration::ZERO,
            Some(carry),
            events,
        );
    }

    /// Decides what to do with a newly idle on-demand instance: release
    /// immediately if its delivered quality is poor, otherwise retain for
    /// `retention_mult ×` its spin-up overhead.
    pub(super) fn handle_idle_od(
        &mut self,
        h: InstanceHandle,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) {
        let (cloud_id, spin_up) = {
            let inst = self.inst(h);
            (
                inst.cloud_id,
                self.cloud.instance(inst.cloud_id).spin_up_overhead(),
            )
        };
        let quality = self.cloud.delivered_quality(cloud_id, now);
        let decision = self.strat().retention(&RetentionCtx {
            spin_up,
            delivered_quality: quality,
            profiling: self.config.profiling,
            retention_mult: self.config.retention_mult,
            quality_retention_threshold: self.config.quality_retention_threshold,
        });
        let retention = match decision {
            RetentionDecision::ReleaseNow => {
                // Poorly-performing instance: release immediately.
                self.counters.od_released_immediately += 1;
                self.release_instance(h, now);
                return;
            }
            RetentionDecision::Retain(d) => d,
        };
        let inst = self.inst_mut(h);
        inst.retention_token += 1;
        let token = inst.retention_token;
        let bucket = (inst.itype.family(), inst.itype.vcpus(), h);
        let raw_id = inst.cloud_id.raw();
        self.auditor.instance_idle(now, raw_id);
        self.idle_buckets.insert(bucket);
        self.counters.index_rebuilds += 1;
        events.schedule(now + retention, Event::Retention(h, token));
    }

    /// Retention timer fired: release the instance if it is still idle.
    /// A stale handle means the instance was already released — the
    /// typed-no-op analogue of the old `released` flag check.
    pub fn on_retention(&mut self, h: InstanceHandle, token: u64, now: SimTime) {
        let Ok(inst) = self.instances.get(h.key()) else {
            return;
        };
        if inst.retention_token != token || !inst.jobs.is_empty() {
            return;
        }
        trace_event!(
            self.tracer,
            now,
            TraceKind::RetentionExpired {
                instance: inst.cloud_id.raw(),
            }
        );
        self.release_instance(h, now);
    }

    /// Releases an on-demand instance: retires its arena slot (every
    /// outstanding handle turns stale) and drops it from all indices.
    /// Stale handles make double releases impossible by construction.
    pub(super) fn release_instance(&mut self, h: InstanceHandle, now: SimTime) {
        let Ok(inst) = self.instances.get(h.key()) else {
            return;
        };
        debug_assert!(!inst.reserved, "reserved instances are never released");
        let vcpus = inst.itype.vcpus() as f64;
        let id = inst.cloud_id;
        let bucket = (inst.itype.family(), inst.itype.vcpus(), h);
        self.auditor.instance_released(now, id.raw());
        self.instances.retire(h.key()).expect("checked live above");
        self.live_od.remove(&h);
        self.od_pool.remove(&h);
        self.idle_buckets.remove(&bucket);
        self.counters.index_rebuilds += 1;
        self.od_allocated.record_delta(now, -vcpus);
        self.cloud.release(id, now);
    }

    /// Consolidates the hybrids' on-demand pool: when a full-server
    /// on-demand instance is lightly used and another pool instance can
    /// absorb its jobs, migrate them over so the drained instance can be
    /// released after its retention window. Both instances are already
    /// up, so migration pays no spin-up. At most one migration per tick
    /// to avoid thrash. The pure on-demand baselines do not do this —
    /// consolidation is part of HCloud's active management.
    pub(super) fn consolidate_od_pool(
        &mut self,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        if !self.strat().is_hybrid() || !self.config.profiling {
            return Ok(());
        }
        // The on-demand pool index (spot included, matching the old
        // whole-arena filter), ascending by index like the old scan.
        let pool: Vec<InstanceHandle> = self
            .od_pool
            .iter()
            .copied()
            .filter(|&h| self.inst(h).ready_at <= now)
            .collect();
        if pool.len() < 2 {
            return Ok(());
        }
        // Source: the least-used instance with at most 4 busy cores.
        let Some(&src) = pool
            .iter()
            .filter(|&&h| {
                let u = self.inst(h).used_cores;
                u > 0 && u <= 4
            })
            .min_by_key(|&&h| self.inst(h).used_cores)
        else {
            return Ok(());
        };
        let need = self.inst(src).used_cores;
        // Destination: the fullest other instance that still fits the
        // whole source load within the packing headroom.
        let cap = InstanceType::full_server().vcpus().saturating_sub(2);
        let Some(&dst) = pool
            .iter()
            .filter(|&&h| h != src && self.inst(h).used_cores + need <= cap)
            .max_by_key(|&&h| self.inst(h).used_cores)
        else {
            return Ok(());
        };
        let moving: Vec<SlotKey> = self.inst(src).jobs.iter().map(|c| c.key).collect();
        for key in moving {
            let Ok(job) = self.running.get_mut(key) else {
                continue;
            };
            let cores = job.cores;
            job.instance = dst;
            self.detach_job(src, key, cores, now)?;
            self.attach_job(dst, key, cores, now);
        }
        self.inst_mut(dst).retention_token += 1;
        if self.inst(src).jobs.is_empty() {
            self.handle_idle_od(src, now, events);
        }
        Ok(())
    }
}
