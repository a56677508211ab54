//! Admission: the multi-tenant fair-share gate in front of placement
//! ([`Admission`]), the reserved queue behind it, and the tenant
//! preemptions that relieve a starved guarantee.

use std::collections::BTreeMap;

use hcloud_audit::{AuditViolation, Auditor};
use hcloud_cloud::InstanceType;
use hcloud_quasar::JobEstimate;
use hcloud_sim::event::EventSink;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_telemetry::{trace_event, ProfSpan, Profiler, TraceKind};
use hcloud_tenancy::{FairShare, Gate, Preemption, Release, TenancyPlan, TenantStat};
use hcloud_workloads::JobId;

use super::{audited_since, Carryover, Event, QueuedJob, Scheduler};
use crate::result::WaitSample;

/// What a tenancy-deferred job needs to resume the admission path once
/// the gate releases it.
#[derive(Debug, Clone)]
pub(super) struct DeferredAdmit {
    spec_idx: usize,
    est: JobEstimate,
    /// Wait already served before this deferral (reserved queue or a
    /// previous gate pass); the drain adds its own wait on top.
    prior_wait: SimDuration,
    carry: Option<Carryover>,
}

/// The multi-tenant admission gate: the weighted fair-share scheduler
/// of the scenario's tenancy plan, the jobs it holds, the
/// [`ProfSpan::Tenancy`] timing of its calls, and the per-tenant shadows
/// of the audit ledgers.
///
/// Without a tenancy plan every method returns at once: jobs pass
/// straight through to placement, nothing is timed and no tenant ledger
/// is booked, so an untenanted run is exactly what it was before
/// tenancy existed.
#[derive(Debug)]
pub(super) struct Admission {
    /// The fair-share gate; `None` when the scenario has no tenants.
    fair: Option<FairShare>,
    /// Jobs held behind the gate, keyed by job id so a DRR drain can
    /// re-enter each release into placement with the same estimate it
    /// arrived with.
    deferred: BTreeMap<u64, DeferredAdmit>,
    auditor: Auditor,
    profiler: Profiler,
}

impl Admission {
    /// The gate for `plan` (`None`: a pass-through), reporting to the
    /// run's auditor and profiler.
    pub(super) fn new(plan: Option<&TenancyPlan>, auditor: &Auditor, profiler: &Profiler) -> Self {
        Admission {
            fair: plan.map(FairShare::new),
            deferred: BTreeMap::new(),
            auditor: auditor.clone(),
            profiler: profiler.clone(),
        }
    }

    /// Asks the gate whether `job` may run now on `cores` cores;
    /// [`Gate::Bypass`] without tenancy.
    pub(super) fn gate(&mut self, job: u64, cores: u32, now: SimTime) -> Gate {
        let Some(fair) = self.fair.as_mut() else {
            return Gate::Bypass;
        };
        self.profiler
            .time(ProfSpan::Tenancy, || fair.gate(job, cores, now))
    }

    /// Releases whatever the gate can now admit (guarantees first in DRR
    /// order, then elastic borrowing of the idle remainder), each with
    /// the admission it was held with.
    pub(super) fn drain(&mut self, now: SimTime) -> Vec<(Release, DeferredAdmit)> {
        let Some(fair) = self.fair.as_mut() else {
            return Vec::new();
        };
        let released = self.profiler.time(ProfSpan::Tenancy, || fair.drain(now));
        released
            .into_iter()
            .map(|r| {
                let d = self
                    .deferred
                    .remove(&r.job)
                    .expect("released job was deferred");
                (r, d)
            })
            .collect()
    }

    /// The starvation-relief preemptions the gate asks for now:
    /// borrowed capacity first, then over-share tenants.
    pub(super) fn starved_victims(&mut self, now: SimTime) -> Vec<Preemption> {
        let Some(fair) = self.fair.as_mut() else {
            return Vec::new();
        };
        self.profiler
            .time(ProfSpan::Tenancy, || fair.starved_victims(now))
    }

    /// `job` left the pool (finished or evicted): its tenant's share is
    /// free again.
    pub(super) fn release(&mut self, job: u64) {
        if let Some(fair) = self.fair.as_mut() {
            self.profiler.time(ProfSpan::Tenancy, || fair.release(job));
        }
    }

    /// Jobs held behind the gate.
    pub(super) fn held(&self) -> usize {
        self.deferred.len()
    }

    /// Per-tenant statistics, ascending by tenant id; empty without
    /// tenancy.
    pub(super) fn stats(&self) -> Vec<TenantStat> {
        self.fair.as_ref().map(FairShare::stats).unwrap_or_default()
    }

    /// The tenant bucket `job`'s shadow-ledger entries go to (the inner
    /// `None` is the untenanted bucket). Looked up only when a tenanted
    /// run is audited; `None` otherwise, which books nothing.
    fn audited_tenant(&self, job: u64) -> Option<Option<u64>> {
        match &self.fair {
            Some(fair) if self.auditor.is_enabled() => Some(fair.tenant_of(job).map(|t| t.0)),
            _ => None,
        }
    }

    /// Tenant shadow of [`Auditor::job_admitted`].
    pub(super) fn job_admitted(&self, at: SimTime, job: u64, work: f64) {
        if let Some(tenant) = self.audited_tenant(job) {
            self.auditor.tenant_job_admitted(at, tenant, job, work);
        }
    }

    /// Tenant shadow of [`Auditor::job_completed`].
    pub(super) fn job_completed(&self, at: SimTime, job: u64) {
        if let Some(tenant) = self.audited_tenant(job) {
            self.auditor.tenant_job_completed(at, tenant, job);
        }
    }

    /// Tenant shadow of [`Auditor::work_executed`].
    pub(super) fn work_executed(&self, at: SimTime, job: u64, core_secs: f64) {
        if let Some(tenant) = self.audited_tenant(job) {
            self.auditor
                .tenant_work_executed(at, tenant, job, core_secs);
        }
    }

    /// Tenant shadow of [`Auditor::work_lost`].
    pub(super) fn work_lost(&self, at: SimTime, job: u64, core_secs: f64) {
        if let Some(tenant) = self.audited_tenant(job) {
            self.auditor.tenant_work_lost(at, tenant, job, core_secs);
        }
    }
}

impl<'a> Scheduler<'a> {
    /// The single admission path: every job — fresh arrival, evicted
    /// job being re-admitted, or tenancy-gate release — goes through the
    /// same gate, placement decision, tracing and dispatch. `carry` is
    /// `Some` for re-admissions; `wait` is delay already served outside
    /// the reserved queue (the tenancy gate) that must ride into the
    /// job's queue-delay accounting. A job the gate defers waits in its
    /// tenant queue; a later [`Self::drain_admission`] re-admits it.
    pub(super) fn admit(
        &mut self,
        idx: usize,
        est: &JobEstimate,
        now: SimTime,
        wait: SimDuration,
        carry: Option<Carryover>,
        events: &mut impl EventSink<Event>,
    ) {
        let jid = self.scenario.jobs()[idx].id;
        match self.admission.gate(jid.0, est.cores, now) {
            Gate::Bypass => {}
            Gate::Admit { borrowed, .. } => {
                if borrowed {
                    self.counters.tenant_borrowed_admissions += 1;
                }
            }
            Gate::Defer { tenant, depth } => {
                self.counters.tenant_deferred_jobs += 1;
                self.admission.deferred.insert(
                    jid.0,
                    DeferredAdmit {
                        spec_idx: idx,
                        est: est.clone(),
                        prior_wait: wait,
                        carry,
                    },
                );
                trace_event!(
                    self.tracer,
                    now,
                    TraceKind::TenantDefer {
                        job: jid.0,
                        tenant: tenant.0,
                        depth,
                    }
                );
                return;
            }
        }
        self.admit_placed(idx, est, now, wait, carry, events);
    }

    /// Re-enters whatever the gate can now release into placement,
    /// crediting the time each job waited behind the gate as queue
    /// delay.
    pub(super) fn drain_admission(&mut self, now: SimTime, events: &mut impl EventSink<Event>) {
        for (r, d) in self.admission.drain(now) {
            if r.borrowed {
                self.counters.tenant_borrowed_admissions += 1;
            }
            self.counters.tenant_drained_jobs += 1;
            trace_event!(
                self.tracer,
                now,
                TraceKind::TenantRelease {
                    job: r.job,
                    tenant: r.tenant.0,
                    waited_us: r.waited.as_micros(),
                    borrowed: r.borrowed,
                }
            );
            self.admit_placed(
                d.spec_idx,
                &d.est,
                now,
                d.prior_wait + r.waited,
                d.carry,
                events,
            );
        }
    }

    /// Tenancy step of the monitor tick: execute the gate's
    /// starvation-relief preemptions, then drain whatever the gate can
    /// now admit — the starved queue's head, since re-gated victims
    /// defer behind the borrow gate.
    pub(super) fn tick_admission(
        &mut self,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        let victims = self.admission.starved_victims(now);
        for p in &victims {
            self.preempt_job(p, now, events)?;
        }
        self.drain_admission(now, events);
        Ok(())
    }

    /// Executes one cross-queue preemption: the victim is evicted (its
    /// progress since the last checkpoint is lost, the same granularity
    /// as spot termination) and re-enters admission behind the gate it
    /// just vacated, where the borrow gate keeps it from reclaiming the
    /// freed cores before the starved tenant does. A victim still
    /// waiting in the reserved queue is pulled back behind the gate
    /// without work loss.
    fn preempt_job(
        &mut self,
        p: &Preemption,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        let jid = JobId(p.victim_job);
        self.counters.tenant_preemptions += 1;
        self.admission.release(jid.0);
        let preempt = |lost: f64| TraceKind::TenantPreempt {
            job: jid.0,
            victim_tenant: p.victim_tenant.0,
            starved_tenant: p.starved_tenant.0,
            work_lost_core_secs: lost,
        };
        if let Some(&key) = self.running_by_id.get(&jid) {
            let (job, now_idle) = self.evict(key, now, "tenant-preemption work loss", preempt)?;
            if self.inst(job.instance).reserved {
                self.reserved_busy.record_delta(now, -(job.cores as f64));
                self.queue_est.record_release(job.cores, now);
            } else if now_idle {
                self.handle_idle_od(job.instance, now, events);
            }
            self.readmit(job, now, events);
        } else if let Some(pos) = self
            .queue
            .iter()
            .position(|q| self.scenario.jobs()[q.spec_idx].id == jid)
        {
            let qj = self.queue.remove(pos).expect("position in bounds");
            self.auditor.queue_left(now, jid.0);
            self.auditor.job_requeued(now, jid.0);
            trace_event!(self.tracer, now, preempt(0.0));
            let waited = qj.prior_wait
                + audited_since(&self.auditor, now, qj.enqueued, jid.0, "preempt queue wait");
            self.admit(qj.spec_idx, &qj.est, now, waited, qj.carry, events);
        }
        Ok(())
    }

    /// Adds a job to the reserved queue. `wait` is delay already served
    /// before entering (the tenancy gate).
    pub(super) fn enqueue(
        &mut self,
        spec_idx: usize,
        est: &JobEstimate,
        now: SimTime,
        wait: SimDuration,
        carry: Option<Carryover>,
    ) {
        self.counters.queued_jobs += 1;
        self.auditor
            .queue_entered(now, self.scenario.jobs()[spec_idx].id.0);
        let estimated_wait = self
            .queue_est
            .estimate_wait(est.cores, self.queue.len(), now);
        trace_event!(
            self.tracer,
            now,
            TraceKind::QueueEnter {
                job: self.scenario.jobs()[spec_idx].id.0,
                cores: est.cores,
                depth: self.queue.len(),
                estimated_wait_us: estimated_wait.map(|d| d.as_micros()),
            }
        );
        self.queue.push_back(QueuedJob {
            spec_idx,
            est: est.clone(),
            enqueued: now,
            prior_wait: wait,
            estimated_wait,
            carry,
        });
    }

    /// Tries to place queued jobs after capacity freed up (FIFO with
    /// skipping: a small job behind a large one may go first).
    pub(super) fn drain_queue(&mut self, now: SimTime, events: &mut impl EventSink<Event>) {
        let mut i = 0;
        while i < self.queue.len() {
            let qj = self.queue[i].clone();
            let wait = qj.prior_wait
                + audited_since(
                    &self.auditor,
                    now,
                    qj.enqueued,
                    self.scenario.jobs()[qj.spec_idx].id.0,
                    "queue drain wait",
                );
            if self.try_place_reserved(qj.spec_idx, &qj.est, now, wait, qj.carry, events) {
                self.auditor
                    .queue_left(now, self.scenario.jobs()[qj.spec_idx].id.0);
                self.queue_est.record_wait(qj.est.cores, wait);
                self.wait_samples.push(WaitSample {
                    size: qj.est.cores,
                    estimated: qj.estimated_wait,
                    actual: wait,
                });
                trace_event!(
                    self.tracer,
                    now,
                    TraceKind::QueueExit {
                        job: self.scenario.jobs()[qj.spec_idx].id.0,
                        cores: qj.est.cores,
                        estimated_wait_us: qj.estimated_wait.map(|d| d.as_micros()),
                        actual_wait_us: wait.as_micros(),
                        relieved: false,
                    }
                );
                self.queue.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Escape hatch for starving queued jobs (hybrids only): after waiting
    /// far beyond the expected spin-up, reroute to a large on-demand
    /// instance.
    pub(super) fn relieve_starving_queue(
        &mut self,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) {
        if !self.strat().is_hybrid() {
            return;
        }
        let spinup = self
            .config
            .cloud
            .spin_up
            .expected(InstanceType::full_server());
        let deadline = spinup.mul_f64(4.0).max(SimDuration::from_secs(60));
        let mut i = 0;
        while i < self.queue.len() {
            if now.saturating_since(self.queue[i].enqueued) > deadline {
                let qj = self.queue.remove(i).expect("index in bounds");
                let wait = qj.prior_wait
                    + audited_since(
                        &self.auditor,
                        now,
                        qj.enqueued,
                        self.scenario.jobs()[qj.spec_idx].id.0,
                        "starvation-relief wait",
                    );
                self.auditor
                    .queue_left(now, self.scenario.jobs()[qj.spec_idx].id.0);
                self.wait_samples.push(WaitSample {
                    size: qj.est.cores,
                    estimated: qj.estimated_wait,
                    actual: wait,
                });
                trace_event!(
                    self.tracer,
                    now,
                    TraceKind::QueueExit {
                        job: self.scenario.jobs()[qj.spec_idx].id.0,
                        cores: qj.est.cores,
                        estimated_wait_us: qj.estimated_wait.map(|d| d.as_micros()),
                        actual_wait_us: wait.as_micros(),
                        relieved: true,
                    }
                );
                // The waiting interval just served must ride along: the
                // assignment credits it to the job's queue delay, on top
                // of any delay carried from earlier preemptions.
                self.place_od_pool(qj.spec_idx, &qj.est, now, wait, qj.carry, events);
            } else {
                i += 1;
            }
        }
    }
}
