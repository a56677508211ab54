//! Job progress: interference and the per-colocation slowdown memo,
//! job start and finish, the periodic monitor tick (progress
//! re-projection, QoS actions, feedback loops) and rescheduling.

use hcloud_audit::AuditViolation;
use hcloud_cloud::InstanceType;
use hcloud_interference::ResourceVector;
use hcloud_sim::event::EventSink;
use hcloud_sim::slot::SlotKey;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_telemetry::{trace_event, ProfSpan, TraceKind};
use hcloud_workloads::JobKind;

use super::{audited_since, Event, Scheduler};
use crate::placement::InstanceHandle;
use crate::result::{JobOutcome, UtilizationSample};

impl<'a> Scheduler<'a> {
    // ------------------------------------------------------------------
    // Interference
    // ------------------------------------------------------------------

    /// Aggregate pressure on instance `h` from co-scheduled jobs (true
    /// sensitivities, scaled by their core share), excluding the job in
    /// slot `exclude`.
    pub(super) fn internal_pressure(
        &self,
        h: InstanceHandle,
        exclude: Option<SlotKey>,
    ) -> ResourceVector {
        let inst = self.inst(h);
        let server = InstanceType::full_server().vcpus() as f64;
        let mut total = ResourceVector::ZERO;
        for c in &inst.jobs {
            if Some(c.key) == exclude {
                continue;
            }
            // O(1) arena access; a stale key is a job no longer running.
            let Ok(job) = self.running.get(c.key) else {
                continue;
            };
            if !job.started {
                continue;
            }
            let spec = &self.scenario.jobs()[job.spec_idx];
            total = total.add(&spec.sensitivity.scale(job.cores as f64 / server));
        }
        total.scale(self.config.internal_pressure_scale)
    }

    /// The total pressure the job in slot `key` experiences right now:
    /// external tenants plus co-scheduled jobs.
    fn pressure_on(&self, key: SlotKey, now: SimTime) -> ResourceVector {
        let job = self.job(key);
        let inst = self.inst(job.instance);
        let external = self.cloud.external_pressure(inst.cloud_id, now);
        external.add(&self.internal_pressure(job.instance, Some(key)))
    }

    /// The multiplicative slowdown the job in slot `key` currently
    /// suffers: interference from external tenants and co-scheduled jobs,
    /// times any injected performance fault on the host (1.0 without an
    /// active fault plan).
    pub(super) fn current_slowdown(&self, key: SlotKey, now: SimTime) -> f64 {
        let job = self.job(key);
        let spec = &self.scenario.jobs()[job.spec_idx];
        let pressure = self.pressure_on(key, now);
        let host = self.inst(job.instance).cloud_id;
        self.cloud
            .slowdown_model()
            .slowdown(&spec.sensitivity, &pressure)
            * self.cloud.fault_slowdown(host, now)
    }

    /// [`Self::current_slowdown`] of the job in slot `key`, bound to `h`,
    /// read from its colocation entry while the entry's stamp is still
    /// the instance's. A change of the cloud's interference epoch
    /// restamps the instance here; the co-runner changes restamp it where
    /// they happen.
    pub(super) fn memo_slowdown(&mut self, h: InstanceHandle, key: SlotKey, now: SimTime) -> f64 {
        let inst = self
            .instances
            .get_mut(h.key())
            .expect("live instance handle");
        let epoch = self.cloud.interference_epoch(inst.cloud_id, now);
        if epoch != inst.epoch {
            inst.epoch = epoch;
            inst.restamp(&mut self.stamps);
        }
        let stamp = inst.stamp;
        let pos = inst
            .jobs
            .iter()
            .position(|c| c.key == key)
            .expect("running job is bound to its instance");
        let memo = inst.jobs[pos];
        if memo.stamp == stamp {
            debug_assert_eq!(
                memo.slowdown.to_bits(),
                self.current_slowdown(key, now).to_bits(),
                "stale slowdown memo for job {}",
                self.job(key).id.0
            );
            return memo.slowdown;
        }
        let slowdown = self.current_slowdown(key, now);
        let entry = &mut self.inst_mut(h).jobs[pos];
        entry.stamp = stamp;
        entry.slowdown = slowdown;
        slowdown
    }

    // ------------------------------------------------------------------
    // Execution events
    // ------------------------------------------------------------------

    /// The running job in slot `key` starts executing. A stale key (the
    /// job finished or was evicted since, and a re-admitted life has a
    /// key of its own) makes this a no-op.
    pub fn on_start(&mut self, key: SlotKey, now: SimTime, events: &mut impl EventSink<Event>) {
        let Ok(job) = self.running.get_mut(key) else {
            return;
        };
        debug_assert!(
            !job.started && now >= job.start_at,
            "one Start per running slot, not before its start time"
        );
        job.started = true;
        job.last_progress = now;
        let (jid, spec_idx) = (job.id, job.spec_idx);
        // Co-runners' interference sums skip jobs that have not started.
        let h = job.instance;
        self.instances
            .get_mut(h.key())
            .expect("live instance handle")
            .restamp(&mut self.stamps);
        let spec = &self.scenario.jobs()[spec_idx];
        match spec.kind {
            JobKind::Batch { .. } => {
                let slowdown = self.current_slowdown(key, now);
                let job = self.job_mut(key);
                let eff = job.cores.min(spec.cores).max(1) as f64;
                let finish = now + SimDuration::from_secs_f64(job.remaining_work * slowdown / eff);
                job.finish_version += 1;
                let v = job.finish_version;
                events.schedule(finish, Event::Finish(key, v));
            }
            JobKind::LatencyCritical { lifetime, .. } => {
                // Requests issued while the service waited for spin-up or
                // in the queue saw effectively unbounded latency; charge
                // the wait at saturation level so delayed starts hurt the
                // latency metric the way they do in the paper.
                let wait = audited_since(&self.auditor, now, spec.arrival, jid.0, "LC start wait")
                    .as_secs_f64();
                let saturated = self.latency_model.saturated_p99_us();
                let job = self.job_mut(key);
                job.lat_weighted_sum += saturated * wait;
                job.lat_weight += wait;
                job.finish_version += 1;
                let v = job.finish_version;
                events.schedule(now + lifetime, Event::Finish(key, v));
            }
        }
    }

    /// The projected finish `version` of the running job in slot `key`
    /// fires. A stale key (the job finished or was evicted since) or a
    /// superseded version makes this a no-op.
    pub fn on_finish(
        &mut self,
        key: SlotKey,
        version: u64,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        let Ok(job) = self.running.get(key) else {
            return Ok(()); // already finished or evicted
        };
        if job.finish_version != version || !job.started {
            return Ok(()); // stale projection
        }
        let job = self.remove_running(key);
        let jid = job.id;
        // The projection completes exactly the work still outstanding at
        // the last checkpoint; credit it to the executed ledger.
        self.auditor.work_executed(now, jid.0, job.remaining_work);
        self.auditor.job_completed(now, jid.0);
        self.admission.work_executed(now, jid.0, job.remaining_work);
        self.admission.job_completed(now, jid.0);
        let spec = &self.scenario.jobs()[job.spec_idx];
        let inst_h = job.instance;

        // Record the outcome.
        let arrival = spec.arrival;
        let (completion, p99, isolation, normalized) = match spec.kind {
            JobKind::Batch { .. } => {
                let completion =
                    audited_since(&self.auditor, now, arrival, jid.0, "batch completion");
                let ideal = spec.ideal_duration().as_secs_f64().max(1e-9);
                let norm = (ideal / completion.as_secs_f64().max(1e-9)).min(1.0);
                (Some(completion), None, None, norm)
            }
            JobKind::LatencyCritical { offered_rps, .. } => {
                let p99 = if job.lat_weight > 0.0 {
                    job.lat_weighted_sum / job.lat_weight
                } else {
                    // Finished before any tick: sample once now.
                    let slowdown = {
                        let pressure = {
                            let inst = self.inst(inst_h);
                            let external = self.cloud.external_pressure(inst.cloud_id, now);
                            external.add(&self.internal_pressure(inst_h, Some(key)))
                        };
                        self.cloud
                            .slowdown_model()
                            .slowdown(&spec.sensitivity, &pressure)
                    };
                    self.latency_model
                        .p99_latency_us(offered_rps, job.cores, slowdown)
                };
                let norm = (job.isolation_p99 / p99.max(1e-9)).min(1.0);
                (None, Some(p99), Some(job.isolation_p99), norm)
            }
        };
        self.outcomes.push(JobOutcome {
            id: spec.id,
            class: spec.class,
            arrival,
            started: job.start_at,
            finished: now,
            on_reserved: self.inst(inst_h).reserved,
            cores: job.cores,
            completion,
            p99_latency_us: p99,
            isolation_p99_us: isolation,
            normalized_perf: normalized,
            queue_delay: job.queue_delay,
            spinup_delay: self
                .inst(inst_h)
                .ready_at
                .saturating_since(arrival)
                .min(job.start_at.saturating_since(arrival)),
            rescheduled: job.rescheduled,
        });
        self.last_finish = self.last_finish.max(now);

        // Free the capacity.
        let freed = job.cores;
        let reserved = self.inst(inst_h).reserved;
        let now_idle = self.detach_job(inst_h, key, freed, now)?;
        if reserved {
            self.reserved_busy.record_delta(now, -(freed as f64));
            self.queue_est.record_release(freed, now);
            self.drain_queue(now, events);
        } else if now_idle {
            self.handle_idle_od(inst_h, now, events);
        }
        // Tenancy: the finished job leaves the pool; the freed share may
        // admit deferred work.
        self.admission.release(jid.0);
        self.drain_admission(now, events);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Monitor tick
    // ------------------------------------------------------------------

    /// Feeds the quality monitor one delivered-quality sample per ready
    /// live on-demand instance — the per-tick quantile churn that
    /// `RollingQuantiles` keeps incremental, and what the
    /// [`ProfSpan::MonitorQuantiles`] span times.
    fn sample_delivered_quality(&mut self, now: SimTime) {
        // `live_od` iterates ascending by index — the same order the
        // old full scan visited live on-demand instances in.
        for &h in &self.live_od {
            let inst = self.instances.get(h.key()).expect("live index entry");
            if inst.ready_at > now {
                continue;
            }
            let q = self.cloud.delivered_quality(inst.cloud_id, now);
            self.monitor.record(inst.itype, q);
        }
    }

    /// Periodic monitoring: quality sampling, progress re-projection,
    /// QoS actions, feedback loops.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        // 0. Fault injection: while the monitor signal is dropped out, no
        // quality samples arrive and the dynamic policy degrades to the
        // static soft-limit rule (see `decide_placement`).
        let dropped = self.cloud.fault_injector().monitor_dropped(now);
        if dropped != self.monitor_dropped {
            self.monitor_dropped = dropped;
            trace_event!(
                self.tracer,
                now,
                TraceKind::FaultMonitorDropout { active: dropped }
            );
            if self.config.policy == crate::mapping::MappingPolicy::Dynamic
                && self.strat().is_hybrid()
            {
                if dropped {
                    self.counters.policy_fallbacks += 1;
                }
                trace_event!(
                    self.tracer,
                    now,
                    TraceKind::RecoveryPolicyFallback { active: dropped }
                );
            }
        }

        // 1. Sample delivered quality of active on-demand instances.
        if dropped {
            self.counters.monitor_dropout_ticks += 1;
        } else if self.profiler.is_enabled() {
            let profiler = self.profiler.clone();
            profiler.time(ProfSpan::MonitorQuantiles, || {
                self.sample_delivered_quality(now)
            });
        } else {
            self.sample_delivered_quality(now);
        }

        // 2. Update running jobs, ascending by scenario id — the iteration
        // order of the old id-keyed map, which floating-point accumulation
        // makes order-bearing.
        let mut walk = std::mem::take(&mut self.tick_jobs);
        walk.clear();
        walk.extend(self.running_by_id.values().copied());
        let updated = walk
            .iter()
            .try_for_each(|&key| self.update_job(key, now, events));
        self.tick_jobs = walk;
        updated?;

        // 2b. Tenancy: starvation-relief preemption, then drain the gate.
        self.tick_admission(now, events)?;

        // 3. Feedback loops, starting with the strategy's soft-limit
        // adaptation hook (the paper's linear transfer functions by
        // default).
        let mut strategy = self.strategy.take().expect("strategy present");
        strategy.adapt_limits(&mut self.limits, self.queue.len(), now);
        self.strategy = Some(strategy);
        self.relieve_starving_queue(now, events);
        self.consolidate_od_pool(now, events)?;

        // 4. Optional utilization heat-map samples. Reserved instances
        // occupy the index prefix, so "reserved prefix, then live
        // on-demand ascending" is exactly the old whole-arena scan order.
        if self.config.record_utilization {
            for &h in self.reserved_handles.iter().chain(self.live_od.iter()) {
                let inst = self.instances.get(h.key()).expect("live index entry");
                if inst.ready_at > now {
                    continue;
                }
                self.utilization_samples.push(UtilizationSample {
                    instance_index: h.index(),
                    reserved: inst.reserved,
                    time: now,
                    utilization: inst.used_cores as f64 / inst.itype.vcpus() as f64,
                });
            }
        }
        Ok(())
    }

    /// Progress + QoS update for the job in arena slot `key`; a no-op
    /// once that job has left the running set.
    pub(super) fn update_job(
        &mut self,
        key: SlotKey,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        let Ok(job) = self.running.get(key) else {
            return Ok(());
        };
        if !job.started {
            return Ok(());
        }
        let jid = job.id;
        let spec_idx = job.spec_idx;
        let inst_h = job.instance;
        let cores = job.cores;
        let last_progress = job.last_progress;
        let spec = &self.scenario.jobs()[spec_idx];
        let slowdown = self.memo_slowdown(inst_h, key, now);

        match spec.kind {
            JobKind::Batch { .. } => {
                let eff = cores.min(spec.cores).max(1) as f64;
                let dt = audited_since(&self.auditor, now, last_progress, jid.0, "batch tick dt")
                    .as_secs_f64();
                let (executed, v, finish) = {
                    let job = self.running.get_mut(key).expect("running");
                    let before = job.remaining_work;
                    job.remaining_work = (job.remaining_work - eff * dt / slowdown).max(0.0);
                    job.last_progress = now;
                    job.finish_version += 1;
                    (
                        before - job.remaining_work,
                        job.finish_version,
                        now + SimDuration::from_secs_f64(job.remaining_work * slowdown / eff),
                    )
                };
                self.auditor.work_executed(now, jid.0, executed);
                self.admission.work_executed(now, jid.0, executed);
                events.schedule(finish, Event::Finish(key, v));
            }
            JobKind::LatencyCritical { offered_rps, .. } => {
                let rho = self.latency_model.utilization(offered_rps, cores, slowdown);
                // Local QoS action: grow the allocation on the same
                // server when the service nears saturation (Section 3.3).
                if self.config.profiling && rho > 0.85 {
                    let free = self.inst(inst_h).free_cores();
                    if free > 0 {
                        let grow = free.min(cores);
                        self.inst_mut(inst_h).used_cores += grow;
                        let raw_id = self.inst(inst_h).cloud_id.raw();
                        self.auditor.cores_bound(now, raw_id, grow);
                        if self.inst(inst_h).reserved {
                            self.reserved_busy.record_delta(now, grow as f64);
                        }
                        self.running.get_mut(key).expect("running").cores += grow;
                        // The co-runners' interference sums weigh our cores.
                        self.instances
                            .get_mut(inst_h.key())
                            .expect("live instance handle")
                            .restamp(&mut self.stamps);
                        trace_event!(
                            self.tracer,
                            now,
                            TraceKind::LocalBoost {
                                job: jid.0,
                                extra_cores: grow,
                                cores: cores + grow,
                            }
                        );
                    }
                }
                // Deliberately saturating, NOT `audited_since`: a
                // rescheduled service's checkpoint sits in the future
                // (the replacement instance's ready time), and ticks
                // before it must contribute zero weight.
                let (dt, grown_cores) = {
                    let job = self.running.get_mut(key).expect("running");
                    let dt = now.saturating_since(job.last_progress).as_secs_f64();
                    job.last_progress = now;
                    (dt, job.cores)
                };
                let p99 = self
                    .latency_model
                    .p99_latency_us(offered_rps, grown_cores, slowdown);
                // Rescheduling: persistent severe degradation on an
                // on-demand instance (rare; Section 3.3 "the latter is
                // unlikely in practice").
                let (badly, bad_ticks, threshold, rescheduled) = {
                    let job = self.running.get_mut(key).expect("running");
                    job.lat_weighted_sum += p99 * dt;
                    job.lat_weight += dt;
                    let threshold = 6.0 * job.isolation_p99;
                    let badly = p99 > threshold;
                    if badly {
                        job.qos_bad_ticks += 1;
                    } else {
                        job.qos_bad_ticks = 0;
                    }
                    (badly, job.qos_bad_ticks, threshold, job.rescheduled)
                };
                if badly {
                    trace_event!(
                        self.tracer,
                        now,
                        TraceKind::QosViolation {
                            job: jid.0,
                            p99,
                            threshold,
                            bad_ticks,
                        }
                    );
                }
                let should_reschedule = self.config.profiling
                    && bad_ticks >= 3
                    && !rescheduled
                    && !self.inst(inst_h).reserved;
                if should_reschedule {
                    self.reschedule(key, now, events)?;
                }
            }
        }
        Ok(())
    }

    /// Moves the persistently degraded job in slot `key` to a fresh
    /// on-demand instance.
    fn reschedule(
        &mut self,
        key: SlotKey,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), AuditViolation> {
        self.counters.reschedules += 1;
        let (jid, cores, old_inst) = {
            let job = self.job(key);
            (job.id, job.cores, job.instance)
        };
        trace_event!(
            self.tracer,
            now,
            TraceKind::Reschedule {
                job: jid.0,
                from_instance: self.inst(old_inst).cloud_id.raw(),
            }
        );
        // The replacement matches the old type; read it before the old
        // instance can be released (its handle would then be stale).
        let itype = self.inst(old_inst).itype;
        // Free the old slot.
        if self.detach_job(old_inst, key, cores, now)? {
            // A degraded instance we are fleeing: release immediately.
            self.counters.od_released_immediately += 1;
            self.release_instance(old_inst, now);
        }
        // Acquire a replacement of the same type.
        let new_h = self.acquire(itype, now);
        self.attach_job(new_h, key, cores, now);
        let ready = {
            let inst = self.inst_mut(new_h);
            inst.retention_token += 1;
            inst.ready_at
        };
        let job = self.job_mut(key);
        job.instance = new_h;
        job.rescheduled = true;
        job.qos_bad_ticks = 0;
        // Service resumes once the replacement is up; the LC finish event
        // (fixed lifetime) remains valid, so no rescheduling of events.
        job.last_progress = ready.max(now);
        let _ = events;
        Ok(())
    }
}
