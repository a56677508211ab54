//! Job placement, packing, retention, queueing and QoS monitoring.
//!
//! The [`Scheduler`] owns all mutable state of a scenario run: the cloud
//! instances it holds, the jobs running on them, the reserved queue, the
//! quality monitor, the dynamic limits and the queueing-time estimator.
//! The [`crate::runner`] drives it with discrete events.
//!
//! Placement follows Section 3.3:
//!
//! * with profiling info, jobs are sized from Quasar estimates and placed
//!   on the candidate instance that minimizes predicted interference
//!   (greedy search);
//! * without profiling info, jobs are sized by error-prone user
//!   reservations and placed least-loaded, interference-oblivious.
//!
//! On-demand instances are retained idle for `retention_mult ×` their
//! spin-up overhead, but only if they delivered predictably high quality;
//! poorly-performing instances are released immediately (Section 3.2).
//!
//! The scheduler is one state type, [`Scheduler`], whose methods are
//! split by seam across child modules (each sees the parent's private
//! fields):
//!
//! * this module: the state, construction, arrival → placement
//!   decision → assignment, and the final [`RunResult`];
//! * `admission`: the multi-tenant fair-share gate (`Admission`), the
//!   reserved queue and tenant preemption;
//! * `search`: the placement search behind [`Scheduler::find_placement`];
//! * `lifecycle`: acquisition, spot termination, retention, release,
//!   consolidation, and the one eviction path (`evict` / `readmit`);
//! * `progress`: interference and the slowdown memo, job start and
//!   finish, the monitor tick and rescheduling;
//! * `tests`: the unit tests of all of them, in one module.

mod admission;
mod lifecycle;
mod progress;
mod search;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use hcloud_audit::{AuditViolation, AuditViolationKind, Auditor};
use hcloud_cloud::{Cloud, Family, InstanceId, InstanceType};
use hcloud_faults::FaultInjector;
use hcloud_interference::ResourceVector;
use hcloud_quasar::{JobEstimate, ProfilingEnvironment, QuasarEngine};
use hcloud_sim::event::EventSink;
use hcloud_sim::rng::{RngFactory, SimRng};
use hcloud_sim::series::StepSeries;
use hcloud_sim::slot::{SlotKey, SlotMap};
use hcloud_sim::{SimDuration, SimTime};
use hcloud_telemetry::{Profiler, TraceKind, Tracer};
use hcloud_workloads::{AppClass, JobId, JobKind, JobSpec, LatencyModel, Scenario};

use crate::config::RunConfig;
use crate::dynamic::DynamicLimits;
use crate::mapping::{MappingContext, Placement};
use crate::monitor::QualityMonitor;
use crate::placement::InstanceHandle;
use crate::queue_estimator::QueueEstimator;
use crate::result::{
    JobOutcome, PlacementReason, RunCounters, RunResult, UtilizationSample, WaitSample,
};
use crate::strategy::{PlacementCtx, ProvisioningStrategy};

use admission::Admission;

/// Discrete events driving the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// The job at this position of the scenario's job list arrives. A
    /// position past the end fails [`Scheduler::on_arrival`] typed.
    Arrival(usize),
    /// The running job in this arena slot begins executing on its
    /// assigned instance. The key is stale (and the event a no-op) once
    /// that job has finished or been evicted, even if a later job holds
    /// the slot.
    Start(SlotKey),
    /// The projected finish of the running job in this arena slot; `u64`
    /// is the projection version. Stale keys and superseded versions are
    /// ignored.
    Finish(SlotKey, u64),
    /// Periodic monitor tick.
    Tick,
    /// Retention timeout for an instance with token `u64`. The handle is
    /// stale (and the event a no-op) when the instance was released.
    Retention(InstanceHandle, u64),
    /// The spot market outbids an instance: it is terminated and its
    /// jobs must be evacuated.
    SpotTermination(InstanceHandle),
}

/// An arrival for a position past the end of the scenario's job list —
/// the typed failure that replaces a panic on out-of-bounds indexing on
/// the scheduler's public surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownJob {
    /// The foreign position.
    pub position: usize,
    /// How many jobs the scenario holds.
    pub jobs: usize,
}

impl std::fmt::Display for UnknownJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "arrival position {} is past the end of this scenario's {} jobs",
            self.position, self.jobs
        )
    }
}

impl std::error::Error for UnknownJob {}

/// One instance as the scheduler sees it.
#[derive(Debug, Clone)]
struct SchedInstance {
    cloud_id: InstanceId,
    itype: InstanceType,
    reserved: bool,
    spot: bool,
    ready_at: SimTime,
    used_cores: u32,
    /// Jobs bound to this instance, in arrival order, each by its slot in
    /// the running-job arena so hot paths (interference sums) reach job
    /// state in O(1). Kept as a small vector (not a set): interference
    /// sums iterate it in insertion order, which floating-point addition
    /// makes order-bearing.
    jobs: Vec<Colocated>,
    retention_token: u64,
    /// Redrawn from the run's stamp counter whenever the slowdown of a
    /// job bound here may change: its co-runner sum (attach, detach, a
    /// co-runner's start or local boost) or the cloud's interference
    /// epoch. A colocation entry's memo holds while its stamp is this.
    stamp: u64,
    /// The cloud's interference epoch as of the last memo lookup.
    epoch: u64,
}

/// One job bound to an instance, with its memoized slowdown.
#[derive(Debug, Clone, Copy)]
struct Colocated {
    /// The job's slot in the running-job arena.
    key: SlotKey,
    /// The instance stamp `slowdown` was computed under; 0, which the
    /// stamp counter never hands out, until the first computation.
    stamp: u64,
    slowdown: f64,
}

impl SchedInstance {
    /// An instance with no jobs bound. Room for one: most on-demand
    /// instances host a single job, and a first push would reserve four.
    fn new(
        cloud_id: InstanceId,
        itype: InstanceType,
        reserved: bool,
        spot: bool,
        ready_at: SimTime,
    ) -> Self {
        SchedInstance {
            cloud_id,
            itype,
            reserved,
            spot,
            ready_at,
            used_cores: 0,
            jobs: Vec::with_capacity(1),
            retention_token: 0,
            stamp: 0,
            epoch: 0,
        }
    }

    /// Invalidates every slowdown memo on this instance by issuing it
    /// the next stamp of the run's counter.
    fn restamp(&mut self, stamps: &mut u64) {
        *stamps += 1;
        self.stamp = *stamps;
    }

    fn free_cores(&self) -> u32 {
        debug_assert!(
            self.used_cores <= self.itype.vcpus(),
            "instance {} binds {} cores on {} vCPUs",
            self.cloud_id.raw(),
            self.used_cores,
            self.itype.vcpus()
        );
        self.itype.vcpus().saturating_sub(self.used_cores)
    }
}

/// Measures `now - earlier` with checked arithmetic. A negative span is
/// the silent-underflow class `saturating_since` clamps away (the
/// `detach_job` double-release bug shipped exactly that way), so it is
/// reported as a typed [`AuditViolationKind::TimeInversion`] and then
/// clamped — byte-identical behaviour to the old code on clean runs.
fn audited_since(
    auditor: &Auditor,
    now: SimTime,
    earlier: SimTime,
    job: u64,
    context: &'static str,
) -> SimDuration {
    match now.checked_since(earlier) {
        Some(d) => d,
        None => {
            auditor.report(AuditViolation::new(
                now,
                AuditViolationKind::TimeInversion {
                    job,
                    context,
                    at_us: now.as_micros(),
                    earlier_us: earlier.as_micros(),
                },
            ));
            SimDuration::ZERO
        }
    }
}

/// A job currently assigned to an instance.
#[derive(Debug, Clone)]
struct RunningJob {
    id: JobId,
    spec_idx: usize,
    instance: InstanceHandle,
    cores: u32,
    started: bool,
    start_at: SimTime,
    queue_delay: SimDuration,
    // Batch progress state.
    remaining_work: f64,
    last_progress: SimTime,
    finish_version: u64,
    // Latency-critical accumulators.
    lat_weighted_sum: f64,
    lat_weight: f64,
    isolation_p99: f64,
    qos_bad_ticks: u32,
    rescheduled: bool,
}

/// A job waiting for reserved capacity.
#[derive(Debug, Clone)]
struct QueuedJob {
    spec_idx: usize,
    /// The estimate the job was admitted with; placement out of the
    /// queue sizes and places it by this.
    est: JobEstimate,
    enqueued: SimTime,
    /// Wait already served before entering this queue (the tenancy
    /// gate); zero in untenanted runs. Added to the realized queue wait
    /// wherever that is credited.
    prior_wait: SimDuration,
    estimated_wait: Option<SimDuration>,
    carry: Option<Carryover>,
}

/// State a preempted job carries into its re-admission, so the new life
/// resumes where the old one checkpointed instead of restarting. The new
/// life gets a new arena key, so the old life's pending `Start` and
/// `Finish` events stay stale.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Carryover {
    /// Batch work still owed (as of the last checkpoint tick).
    remaining_work: f64,
    /// Queueing delay already accumulated in previous lives.
    queue_delay: SimDuration,
}

/// The scheduler state for one scenario run.
#[derive(Debug)]
pub struct Scheduler<'a> {
    scenario: &'a Scenario,
    config: &'a RunConfig,
    /// The per-run strategy instance (see
    /// [`ProvisioningStrategy::fresh_run`]). `Option` only so `&mut`
    /// hooks can be called while the scheduler is borrowed: hook sites
    /// `take()` the box, call in, and put it back before returning.
    strategy: Option<Box<dyn ProvisioningStrategy>>,
    cloud: Cloud,
    quasar: Option<QuasarEngine>,
    profiled_classes: Vec<AppClass>,
    monitor: QualityMonitor,
    limits: DynamicLimits,
    queue_est: QueueEstimator,
    mapping_rng: SimRng,
    latency_model: LatencyModel,

    /// All instances ever held, in acquisition order. Releasing retires
    /// the slot (outstanding handles fail typed) and never reuses its
    /// index, so `InstanceHandle::index` is a stable telemetry identifier.
    instances: SlotMap<SchedInstance>,
    /// The reserved full-server pool, in provisioning (= index) order.
    /// Fixed for the whole run; reserved instances are never released.
    reserved_handles: Vec<InstanceHandle>,
    /// Live on-demand instances (everything non-reserved still held),
    /// ascending by index — the iteration order of the old full scans.
    live_od: BTreeSet<InstanceHandle>,
    /// Live on-demand *pool* instances (full servers, spot included):
    /// the candidates of the pool placement search and of consolidation.
    od_pool: BTreeSet<InstanceHandle>,
    /// Idle retained on-demand instances, keyed `(family, size, handle)`
    /// so dedicated reuse is an ordered range probe (smallest fitting
    /// size first, then acquisition order) instead of a full scan.
    idle_buckets: BTreeSet<(Family, u32, InstanceHandle)>,
    reserved_total: u32,
    queue: VecDeque<QueuedJob>,
    /// Running-job state lives in a slot arena whose slots are recycled:
    /// a finished or evicted job's slot goes to a later job under a new
    /// generation, so the arena holds about peak-concurrency slots.
    /// Instances, `Start` and `Finish` events hold the job's key and
    /// reach it in O(1); a key outliving its job fails typed.
    running: SlotMap<RunningJob>,
    /// The running jobs ascending by scenario id: the tick walks them in
    /// this order, which floating-point accumulation makes
    /// order-bearing. Tenant preemption (which names a job id) is its
    /// only other reader.
    running_by_id: BTreeMap<JobId, SlotKey>,

    outcomes: Vec<JobOutcome>,
    od_allocated: StepSeries,
    reserved_busy: StepSeries,
    wait_samples: Vec<WaitSample>,
    utilization_samples: Vec<UtilizationSample>,
    counters: RunCounters,
    last_finish: SimTime,
    tracer: Tracer,
    auditor: Auditor,
    /// Per-subsystem profiling spans (placement search, monitor
    /// quantiles); disabled unless `HCLOUD_TRACE` reports spans.
    profiler: Profiler,
    /// Which side of the dynamic limits the last traced decision saw:
    /// 0 below soft, 1 between, 2 above hard. Only consulted when tracing.
    last_band: u8,
    /// Whether the QoS monitor signal is currently dropped out (fault
    /// injection); while `true`, the dynamic policy degrades to the
    /// static soft-limit rule.
    monitor_dropped: bool,
    /// The multi-tenant fair-share gate in front of placement; passes
    /// every job straight through when the scenario has no tenants.
    admission: Admission,
    /// The last stamp handed to an instance (see `SchedInstance::stamp`).
    stamps: u64,
    /// The monitor tick's walk of running-job keys, reused across ticks.
    tick_jobs: Vec<SlotKey>,
}

/// Wire names for the utilization bands of a `limit-crossing` event.
const BAND_NAMES: [&str; 3] = ["below-soft", "between-limits", "above-hard"];

impl<'a> Scheduler<'a> {
    /// Builds the scheduler: provisions reserved capacity and seeds the
    /// classification engine.
    pub fn new(scenario: &'a Scenario, config: &'a RunConfig, factory: &RngFactory) -> Self {
        Scheduler::with_instruments(
            scenario,
            config,
            factory,
            Tracer::disabled(),
            Auditor::disabled(),
            Profiler::disabled(),
        )
    }

    /// Like [`Scheduler::new`], but every instrumented decision (placement,
    /// limit crossings, queueing, QoS actions, instance lifecycle) is
    /// recorded into `tracer`, semantic accounting events (work credited,
    /// cores bound, instance lifecycle) feed `auditor`'s conservation
    /// ledgers, and hot-path subsystems attribute their wall clock to
    /// `profiler`'s spans. With disabled instruments this is exactly
    /// [`Scheduler::new`].
    pub fn with_instruments(
        scenario: &'a Scenario,
        config: &'a RunConfig,
        factory: &RngFactory,
        tracer: Tracer,
        auditor: Auditor,
        profiler: Profiler,
    ) -> Self {
        let injector = FaultInjector::new(config.faults.clone(), factory.child("faults"));
        let mut cloud = Cloud::with_instruments(
            config.cloud.clone(),
            factory.child("cloud"),
            tracer.clone(),
            injector,
        );
        let reserved_cores = config.reserved_cores(scenario);
        let reserved_servers =
            (reserved_cores as f64 / InstanceType::full_server().vcpus() as f64).ceil() as usize;
        let reserved_ids = cloud.provision_reserved(reserved_servers, SimTime::ZERO);
        let mut instances = SlotMap::new();
        let reserved_handles: Vec<InstanceHandle> = reserved_ids
            .iter()
            .map(|&id| {
                InstanceHandle::new(instances.insert(SchedInstance::new(
                    id,
                    InstanceType::full_server(),
                    true,
                    false,
                    SimTime::ZERO,
                )))
            })
            .collect();
        for &id in &reserved_ids {
            auditor.instance_acquired(SimTime::ZERO, id.raw(), InstanceType::full_server().vcpus());
        }
        let quasar = config
            .profiling
            .then(|| QuasarEngine::new(config.quasar.clone(), &factory.child("quasar")));
        Scheduler {
            scenario,
            config,
            strategy: Some(config.strategy.fresh_run()),
            cloud,
            quasar,
            profiled_classes: Vec::new(),
            monitor: QualityMonitor::default(),
            limits: match config.dynamic_limits {
                Some((soft, hard)) => DynamicLimits::new(soft, hard),
                None => DynamicLimits::default(),
            },
            queue_est: QueueEstimator::default(),
            mapping_rng: factory.stream("scheduler.mapping"),
            latency_model: scenario.config().latency_model,
            instances,
            reserved_handles,
            live_od: BTreeSet::new(),
            od_pool: BTreeSet::new(),
            idle_buckets: BTreeSet::new(),
            reserved_total: (reserved_servers as u32) * InstanceType::full_server().vcpus(),
            queue: VecDeque::new(),
            running: SlotMap::new(),
            running_by_id: BTreeMap::new(),
            outcomes: Vec::new(),
            od_allocated: StepSeries::new(0.0),
            reserved_busy: StepSeries::new(0.0),
            wait_samples: Vec::new(),
            utilization_samples: Vec::new(),
            counters: RunCounters::default(),
            last_finish: SimTime::ZERO,
            admission: Admission::new(scenario.tenancy(), &auditor, &profiler),
            tracer,
            auditor,
            profiler,
            last_band: 0,
            monitor_dropped: false,
            stamps: 0,
            tick_jobs: Vec::new(),
        }
    }

    /// Reserved cores provisioned.
    pub fn reserved_cores(&self) -> u32 {
        self.reserved_total
    }

    /// The per-run strategy instance, for immutable hook queries
    /// (flags). `&mut` hooks take/put the box instead.
    fn strat(&self) -> &dyn ProvisioningStrategy {
        self.strategy
            .as_deref()
            .expect("strategy present outside hook calls")
    }

    /// Jobs still running, queued, or held at the tenancy gate. Keeping
    /// deferred jobs in this count keeps the runner's monitor tick alive
    /// until the DRR drain has released every one of them.
    pub fn pending_jobs(&self) -> usize {
        self.running.live_len() + self.queue.len() + self.admission.held()
    }

    // ------------------------------------------------------------------
    // Instance arena & index bookkeeping
    // ------------------------------------------------------------------

    /// The live instance behind `h`. Internal call sites only hold
    /// handles to live instances; a stale handle here is a logic error.
    fn inst(&self, h: InstanceHandle) -> &SchedInstance {
        self.instances.get(h.key()).expect("live instance handle")
    }

    /// Mutable access to the live instance behind `h`.
    fn inst_mut(&mut self, h: InstanceHandle) -> &mut SchedInstance {
        self.instances
            .get_mut(h.key())
            .expect("live instance handle")
    }

    /// The running job in arena slot `key`. Internal call sites only
    /// hold keys of running jobs; a stale key here is a logic error.
    fn job(&self, key: SlotKey) -> &RunningJob {
        self.running.get(key).expect("running job key")
    }

    /// Mutable access to the running job in arena slot `key`.
    fn job_mut(&mut self, key: SlotKey) -> &mut RunningJob {
        self.running.get_mut(key).expect("running job key")
    }

    /// Moves the running job in slot `key` out of the running set. The
    /// slot goes back to the arena under a new generation, so any key
    /// still held for this job (a pending `Start` or `Finish`) fails
    /// typed, even once a later job holds the slot.
    fn remove_running(&mut self, key: SlotKey) -> RunningJob {
        let job = self.running.remove(key).expect("running job key");
        self.running_by_id.remove(&job.id);
        job
    }

    // ------------------------------------------------------------------
    // Estimation
    // ------------------------------------------------------------------

    /// Estimates a job's needs: Quasar when profiling info is on,
    /// user-reservation defaults otherwise.
    fn estimate(&mut self, spec: &JobSpec) -> JobEstimate {
        // Profiling on small shared instances (the only kind OdM holds)
        // yields noisier signals.
        let noisy = self.strat().profiles_noisily();
        match self.quasar.as_mut() {
            Some(engine) => {
                if !self.profiled_classes.contains(&spec.class) {
                    self.profiled_classes.push(spec.class);
                    self.counters.profiled += 1;
                }
                self.counters.classified += 1;
                let env = if noisy {
                    ProfilingEnvironment::noisy()
                } else {
                    ProfilingEnvironment::clean()
                };
                let mut est = engine.estimate(spec, &env);
                est.cores = est.cores.clamp(1, 16);
                est
            }
            None => JobEstimate {
                sensitivity: ResourceVector::ZERO,
                quality: 0.0,
                cores: spec.user_sized_cores().clamp(1, 16),
            },
        }
    }

    // ------------------------------------------------------------------
    // Arrival & placement
    // ------------------------------------------------------------------

    /// Handles the arrival of the job at `idx` in the scenario's job list.
    /// A position past the end fails with [`UnknownJob`].
    pub fn on_arrival(
        &mut self,
        idx: usize,
        now: SimTime,
        events: &mut impl EventSink<Event>,
    ) -> Result<(), UnknownJob> {
        let jobs = self.scenario.jobs();
        let spec = jobs.get(idx).ok_or(UnknownJob {
            position: idx,
            jobs: jobs.len(),
        })?;
        let est = self.estimate(spec);
        if self.auditor.is_enabled() {
            let spec = &self.scenario.jobs()[idx];
            let demanded = match spec.kind {
                JobKind::Batch { work_core_secs } => work_core_secs,
                JobKind::LatencyCritical { .. } => 0.0,
            };
            self.auditor.job_admitted(now, spec.id.0, demanded);
            self.admission.job_admitted(now, spec.id.0, demanded);
        }
        self.admit(idx, &est, now, SimDuration::ZERO, None, events);
        Ok(())
    }

    /// Placement and dispatch for an admitted job (the pre-tenancy body
    /// of `admit`; the gate never re-enters here).
    #[allow(clippy::too_many_arguments)]
    fn admit_placed(
        &mut self,
        idx: usize,
        est: &JobEstimate,
        now: SimTime,
        wait: SimDuration,
        carry: Option<Carryover>,
        events: &mut impl EventSink<Event>,
    ) {
        let spec = &self.scenario.jobs()[idx];
        let class = spec.class;
        let mut placement = self.decide_placement(idx, est, now);
        let mut data_override = false;
        // Data-aware mitigation: when the transfer would dominate the
        // job, prefer the side where the data lives (if the policy's
        // choice disagrees and the job can run there).
        if let Some(data) = self.config.data {
            if data.data_aware_placement && self.strat().is_hybrid() {
                let spec = &self.scenario.jobs()[idx];
                let transfer = data.transfer_delay(spec.dataset_gb());
                let heavy = transfer.as_secs_f64() > 0.25 * spec.ideal_duration().as_secs_f64();
                if heavy {
                    let private = data.data_in_private(spec.id.0);
                    let before = placement;
                    placement = match (placement, private) {
                        // Data in the private facility: pull back to
                        // reserved while below the hard limit.
                        (Placement::OnDemand, true)
                            if self.reserved_utilization() < self.limits.hard() =>
                        {
                            Placement::Reserved
                        }
                        // Data in the cloud: don't drag it into the
                        // private facility for a tolerant job.
                        (Placement::Reserved, false) if est.quality < 0.8 => Placement::OnDemand,
                        (p, _) => p,
                    };
                    data_override = placement != before;
                }
            }
        }
        if self.tracer.is_enabled() {
            let spot = placement == Placement::OnDemand
                && carry.is_none()
                && self.spot_eligible(&self.scenario.jobs()[idx], est);
            let util = self.reserved_utilization();
            let reason = if data_override {
                PlacementReason::DataLocality
            } else if spot {
                PlacementReason::Spot
            } else if self.strat().is_hybrid()
                && self.config.policy == crate::mapping::MappingPolicy::Dynamic
            {
                match placement {
                    Placement::Reserved if util < self.limits.soft() => {
                        PlacementReason::BelowSoftLimit
                    }
                    Placement::Reserved => PlacementReason::QualityNeedsReserved,
                    Placement::OnDemand => PlacementReason::OnDemandGoodEnough,
                    Placement::Queue => PlacementReason::QueuedAtHardLimit,
                    Placement::OnDemandLarge => PlacementReason::EscapedToLargeOnDemand,
                }
            } else {
                PlacementReason::FixedByStrategy
            };
            // The Q90-vs-QT comparison the dynamic policy makes: Q90 of
            // the on-demand type this job would get, against the job's
            // quality target. NaN (=> null) when no monitor is consulted.
            let q90 = if self.strat().is_hybrid() {
                let spec = &self.scenario.jobs()[idx];
                self.monitor.q90(self.od_itype_for(est, spec.class))
            } else {
                f64::NAN
            };
            self.tracer.record(
                now,
                TraceKind::Decision {
                    job: self.scenario.jobs()[idx].id.0,
                    placement: match placement {
                        Placement::Reserved => "reserved",
                        Placement::OnDemand => "on-demand",
                        Placement::OnDemandLarge => "on-demand-large",
                        Placement::Queue => "queue",
                    },
                    reason: reason.to_string(),
                    quality_target: est.quality,
                    utilization: util,
                    q90,
                },
            );
            let band = if util < self.limits.soft() {
                0
            } else if util < self.limits.hard() {
                1
            } else {
                2
            };
            if band != self.last_band {
                self.tracer.record(
                    now,
                    TraceKind::LimitCrossing {
                        from: BAND_NAMES[self.last_band as usize],
                        to: BAND_NAMES[band as usize],
                        utilization: util,
                        soft: self.limits.soft(),
                        hard: self.limits.hard(),
                    },
                );
                self.last_band = band;
            }
        }
        match placement {
            Placement::Reserved => {
                if !self.try_place_reserved(idx, est, now, wait, carry, events) {
                    self.enqueue(idx, est, now, wait, carry);
                }
            }
            Placement::OnDemand => {
                // Full-only strategies pool full servers; strategies
                // that never buy on-demand (SR) fall back to the pool
                // path too when QoS actions force an acquisition.
                if self.strat().on_demand_full_only() || !self.strat().uses_on_demand() {
                    self.place_od_pool(idx, est, now, wait, carry, events);
                } else {
                    self.place_od_dedicated(idx, est, class, now, wait, carry, events);
                }
            }
            Placement::OnDemandLarge => {
                self.place_od_pool(idx, est, now, wait, carry, events);
            }
            Placement::Queue => {
                self.enqueue(idx, est, now, wait, carry);
            }
        }
    }

    /// Decides between reserved and on-demand via the strategy's
    /// placement hook.
    fn decide_placement(&mut self, idx: usize, est: &JobEstimate, now: SimTime) -> Placement {
        let spec = &self.scenario.jobs()[idx];
        let od_itype = self.od_itype_for(est, spec.class);
        // Graceful degradation: while the QoS monitor signal is dropped
        // out, the dynamic policy cannot trust its Q90 data, so it
        // falls back to the static soft-limit rule.
        let policy = if self.monitor_dropped
            && self.config.policy == crate::mapping::MappingPolicy::Dynamic
        {
            crate::mapping::MappingPolicy::UtilizationLimit(self.limits.soft())
        } else {
            self.config.policy
        };
        let mut strategy = self.strategy.take().expect("strategy present");
        let ctx = PlacementCtx {
            mapping: MappingContext {
                reserved_utilization: self.reserved_utilization(),
                job_quality: est.quality,
                od_itype,
                job_cores: est.cores,
                queue_len: self.queue.len(),
                expected_spinup_large: self
                    .config
                    .cloud
                    .spin_up
                    .expected(InstanceType::full_server()),
                monitor: &self.monitor,
                limits: &self.limits,
                queue_estimator: &self.queue_est,
                now,
            },
            policy,
            reserved_cores: self.reserved_total,
        };
        let placement = strategy.place(&ctx, &mut self.mapping_rng);
        self.strategy = Some(strategy);
        placement
    }

    /// The on-demand instance type this job would be offered: a full
    /// server for full-only strategies, a per-job-sized instance otherwise.
    fn od_itype_for(&self, est: &JobEstimate, class: AppClass) -> InstanceType {
        if self.strat().on_demand_full_only() {
            InstanceType::full_server()
        } else {
            self.dedicated_itype(est, class)
        }
    }

    /// Current reserved-pool utilization.
    pub fn reserved_utilization(&self) -> f64 {
        if self.reserved_total == 0 {
            return 1.0;
        }
        self.reserved_busy.last_value() / self.reserved_total as f64
    }

    /// Binds a job to an instance and schedules its start. `carry` (set
    /// for re-admitted preemption victims) resumes the job from its last
    /// checkpoint instead of restarting it.
    #[allow(clippy::too_many_arguments)]
    fn assign(
        &mut self,
        spec_idx: usize,
        est: &JobEstimate,
        h: InstanceHandle,
        now: SimTime,
        queue_delay: SimDuration,
        carry: Option<Carryover>,
        events: &mut impl EventSink<Event>,
    ) {
        let spec = &self.scenario.jobs()[spec_idx];
        let cores = est.cores.min(self.inst(h).free_cores()).max(1);
        debug_assert!(self.inst(h).free_cores() >= cores, "overpacked instance");
        let (reserved_side, ready_at) = {
            let inst = self.inst_mut(h);
            inst.retention_token += 1;
            (inst.reserved, inst.ready_at)
        };
        let mut start_at = now.max(ready_at);
        if reserved_side {
            self.reserved_busy.record_delta(now, cores as f64);
        }
        // Data-locality extension: running a job away from its dataset
        // first copies it across the inter-cluster link.
        if let Some(data) = self.config.data {
            if data.data_in_private(spec.id.0) != reserved_side {
                let gb = spec.dataset_gb();
                start_at += data.transfer_delay(gb);
                self.counters.data_transfers += 1;
                self.counters.data_transferred_gb += gb;
            }
        }
        let isolation_p99 = match spec.kind {
            JobKind::LatencyCritical { offered_rps, .. } => self
                .latency_model
                .isolation_p99_us(offered_rps, spec.cores.max(1)),
            JobKind::Batch { .. } => 0.0,
        };
        let remaining_work = match (spec.kind, carry) {
            (JobKind::Batch { .. }, Some(c)) => c.remaining_work,
            (JobKind::Batch { work_core_secs }, None) => work_core_secs,
            (JobKind::LatencyCritical { .. }, _) => 0.0,
        };
        let key = self.running.insert(RunningJob {
            id: spec.id,
            spec_idx,
            instance: h,
            cores,
            started: false,
            start_at,
            queue_delay: queue_delay + carry.map_or(SimDuration::ZERO, |c| c.queue_delay),
            remaining_work,
            last_progress: start_at,
            finish_version: 0,
            lat_weighted_sum: 0.0,
            lat_weight: 0.0,
            isolation_p99,
            qos_bad_ticks: 0,
            rescheduled: carry.is_some(),
        });
        self.running_by_id.insert(spec.id, key);
        self.attach_job(h, key, cores, now);
        events.schedule(start_at, Event::Start(key));
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    /// Consumes the scheduler and produces the run result.
    ///
    /// The makespan is the completion time of the last job (`end` only
    /// matters for empty scenarios); pending retention or spot-market
    /// events past that instant do not extend the run.
    pub fn into_result(mut self, end: SimTime) -> RunResult {
        let makespan = if self.outcomes.is_empty() {
            end
        } else {
            self.last_finish
        };
        // Release everything still held, ascending by index (the order
        // the old whole-arena scan released in).
        let still_open: Vec<InstanceHandle> = self.live_od.iter().copied().collect();
        for h in still_open {
            self.release_instance(h, makespan.max(SimTime::ZERO));
        }
        RunResult {
            strategy: self.config.strategy.clone(),
            outcomes: self.outcomes,
            usage_records: self.cloud.usage_records(makespan),
            makespan,
            reserved_cores: self.reserved_total,
            od_allocated: self.od_allocated,
            reserved_busy: self.reserved_busy,
            soft_limit_trace: self.limits.trace().to_vec(),
            wait_samples: self.wait_samples,
            utilization_samples: self.utilization_samples,
            counters: self.counters,
            tenant_stats: self.admission.stats(),
        }
    }
}

#[cfg(test)]
mod tests;
