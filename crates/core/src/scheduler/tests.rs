//! Unit tests of the scheduler, kept in one module so their names stay
//! `scheduler::tests::*` whichever child module holds the code under
//! test.

use super::*;
use crate::config::SpotPolicy;
use crate::strategy::StrategyId;
use hcloud_interference::Resource;
use hcloud_sim::event::EventQueue;
use hcloud_tenancy::{TenancyPlan, TenantSpec};
use hcloud_workloads::{ScenarioConfig, ScenarioKind};

fn job(id: u64, class: AppClass, cores: u32, secs: u64) -> JobSpec {
    let mut rng = SimRng::from_seed_u64(id);
    let kind = if class.is_latency_metric() {
        JobKind::LatencyCritical {
            offered_rps: LatencyModel::default().offered_rps_for(cores),
            lifetime: SimDuration::from_secs(secs),
        }
    } else {
        JobKind::Batch {
            work_core_secs: (cores as u64 * secs) as f64,
        }
    };
    JobSpec {
        id: JobId(id),
        class,
        arrival: SimTime::ZERO,
        kind,
        cores,
        sensitivity: class.sample_sensitivity(&mut rng),
    }
}

fn scenario_of(jobs: Vec<JobSpec>) -> Scenario {
    Scenario::from_jobs(ScenarioConfig::scaled(ScenarioKind::Static, 0.05, 10), jobs)
}

/// Id-addressed views for tests: the scheduler itself reaches running
/// jobs by arena key.
impl Scheduler<'_> {
    /// The arena key of the running job with scenario id `id`.
    fn key_of(&self, id: JobId) -> SlotKey {
        self.running_by_id[&id]
    }

    /// The running job with scenario id `id`, if any.
    fn running_job(&self, id: JobId) -> Option<&RunningJob> {
        self.running_by_id.get(&id).map(|&key| self.job(key))
    }

    /// `on_start` for the running job with scenario id `id`.
    fn start(&mut self, id: JobId, now: SimTime, events: &mut EventQueue<Event>) {
        self.on_start(self.key_of(id), now, events);
    }

    /// `on_finish` for the running job with scenario id `id`, at its
    /// current projection version.
    fn finish(
        &mut self,
        id: JobId,
        now: SimTime,
        events: &mut EventQueue<Event>,
    ) -> Result<(), AuditViolation> {
        let key = self.key_of(id);
        let version = self.job(key).finish_version;
        self.on_finish(key, version, now, events)
    }
}

fn scheduler<'a>(
    scenario: &'a Scenario,
    config: &'a RunConfig,
) -> (Scheduler<'a>, EventQueue<Event>) {
    (
        Scheduler::new(scenario, config, &RngFactory::new(1)),
        EventQueue::new(),
    )
}

/// Tests that attach ad-hoc jobs directly (bypassing `assign`) still
/// need an arena slot for the colocation entry; this inserts a
/// placeholder running-job record and returns its key.
fn fake_slot(sched: &mut Scheduler<'_>, h: InstanceHandle, cores: u32, at: SimTime) -> SlotKey {
    sched.running.insert(RunningJob {
        id: JobId(u64::MAX),
        spec_idx: 0,
        instance: h,
        cores,
        started: false,
        start_at: at,
        queue_delay: SimDuration::ZERO,
        remaining_work: 0.0,
        last_progress: at,
        finish_version: 0,
        lat_weighted_sum: 0.0,
        lat_weight: 0.0,
        isolation_p99: 0.0,
        qos_bad_ticks: 0,
        rescheduled: false,
    })
}

#[test]
fn estimate_without_profiling_uses_user_sizing() {
    let jobs = vec![job(0, AppClass::HadoopSvm, 8, 300)];
    let scenario = scenario_of(jobs);
    let config = RunConfig::new(StrategyId::SR).without_profiling();
    let (mut sched, _) = scheduler(&scenario, &config);
    let est = sched.estimate(&scenario.jobs()[0]);
    assert_eq!(est.cores, scenario.jobs()[0].user_sized_cores());
    assert_eq!(est.quality, 0.0);
    assert_eq!(est.sensitivity, ResourceVector::ZERO);
    assert_eq!(sched.counters.classified, 0);
}

#[test]
fn estimate_with_profiling_charges_one_profile_per_class() {
    let jobs = vec![
        job(0, AppClass::Memcached, 2, 300),
        job(1, AppClass::Memcached, 2, 300),
        job(2, AppClass::SparkBatch, 4, 300),
    ];
    let scenario = scenario_of(jobs);
    let config = RunConfig::new(StrategyId::HM);
    let (mut sched, _) = scheduler(&scenario, &config);
    for spec in scenario.jobs() {
        let _ = sched.estimate(spec);
    }
    assert_eq!(sched.counters.classified, 3);
    assert_eq!(sched.counters.profiled, 2, "one profiling run per class");
}

#[test]
fn dedicated_itype_matches_dominant_sensitivity() {
    let scenario = scenario_of(vec![job(0, AppClass::SparkBatch, 4, 300)]);
    let config = RunConfig::new(StrategyId::ODM);
    let (sched, _) = scheduler(&scenario, &config);
    // Memory-dominant estimate → memory-optimized family.
    let mem = JobEstimate {
        sensitivity: ResourceVector::ZERO.with(Resource::MemCapacity, 0.9),
        quality: 0.9,
        cores: 3,
    };
    let t = sched.dedicated_itype(&mem, AppClass::SparkBatch);
    assert_eq!(t.family(), Family::MemoryOptimized);
    assert_eq!(t.vcpus(), 4, "3 cores round up to the next size");
    // CPU-dominant → compute-optimized.
    let cpu = JobEstimate {
        sensitivity: ResourceVector::ZERO.with(Resource::Cpu, 0.9),
        quality: 0.9,
        cores: 2,
    };
    assert_eq!(
        sched.dedicated_itype(&cpu, AppClass::HadoopSvm).family(),
        Family::ComputeOptimized
    );
    // Balanced → standard.
    let flat = JobEstimate {
        sensitivity: ResourceVector::uniform(0.4),
        quality: 0.5,
        cores: 2,
    };
    assert_eq!(
        sched.dedicated_itype(&flat, AppClass::HadoopSvm).family(),
        Family::Standard
    );
}

#[test]
fn internal_pressure_respects_config_scale() {
    let jobs = vec![
        job(0, AppClass::SparkBatch, 8, 600),
        job(1, AppClass::SparkBatch, 8, 600),
    ];
    let scenario = scenario_of(jobs);
    let mut config = RunConfig::new(StrategyId::SR);
    config.reserved_cores_override = Some(16);
    config.internal_pressure_scale = 1.0;
    let run_pressure = |config: &RunConfig| {
        let (mut sched, mut events) = scheduler(&scenario, config);
        sched.on_arrival(0, SimTime::ZERO, &mut events).unwrap();
        sched.on_arrival(1, SimTime::ZERO, &mut events).unwrap();
        sched.start(JobId(0), SimTime::ZERO, &mut events);
        sched.start(JobId(1), SimTime::ZERO, &mut events);
        let h = sched.reserved_handles[0];
        sched
            .internal_pressure(h, Some(sched.key_of(JobId(0))))
            .sum()
    };
    let full = run_pressure(&config);
    config.internal_pressure_scale = 0.1;
    let tenth = run_pressure(&config);
    assert!(full > 0.0);
    assert!((tenth - full * 0.1).abs() < 1e-9, "{tenth} vs {full}");
}

/// Reads `jid`'s slowdown through its memo and checks it against a
/// fresh computation, bit for bit (debug builds also check inside
/// `memo_slowdown`, on every hit).
fn fresh_memo(sched: &mut Scheduler<'_>, jid: JobId, now: SimTime) -> f64 {
    let key = sched.key_of(jid);
    let h = sched.job(key).instance;
    let memo = sched.memo_slowdown(h, key, now);
    assert_eq!(
        memo.to_bits(),
        sched.current_slowdown(key, now).to_bits(),
        "stale slowdown memo for job {}",
        jid.0
    );
    memo
}

/// Two 8-core batch jobs sharing the one reserved server, with the
/// co-runner pressure at full strength.
fn reserved_pair() -> (Scenario, RunConfig) {
    let jobs = vec![
        job(0, AppClass::SparkBatch, 8, 600),
        job(1, AppClass::SparkBatch, 8, 600),
    ];
    let mut config = RunConfig::new(StrategyId::SR);
    config.reserved_cores_override = Some(16);
    config.internal_pressure_scale = 1.0;
    (scenario_of(jobs), config)
}

#[test]
fn co_runner_start_invalidates_the_slowdown_memo() {
    let (scenario, config) = reserved_pair();
    let (mut sched, mut events) = scheduler(&scenario, &config);
    for id in [0, 1] {
        sched
            .on_arrival(id as usize, SimTime::ZERO, &mut events)
            .unwrap();
    }
    sched.start(JobId(0), SimTime::ZERO, &mut events);
    let alone = fresh_memo(&mut sched, JobId(0), SimTime::ZERO);
    sched.start(JobId(1), SimTime::ZERO, &mut events);
    let shared = fresh_memo(&mut sched, JobId(0), SimTime::ZERO);
    assert!(shared > alone, "{shared} vs {alone}");
}

#[test]
fn detach_invalidates_the_slowdown_memo() {
    // Consolidation detaches every job from its source, leaving no
    // co-runner behind to read a memo; a finishing co-runner does.
    let (scenario, config) = reserved_pair();
    let (mut sched, mut events) = scheduler(&scenario, &config);
    for id in [0, 1] {
        sched
            .on_arrival(id as usize, SimTime::ZERO, &mut events)
            .unwrap();
        sched.start(JobId(id), SimTime::ZERO, &mut events);
    }
    let shared = fresh_memo(&mut sched, JobId(0), SimTime::ZERO);
    let t = SimTime::from_secs(60);
    sched.finish(JobId(1), t, &mut events).unwrap();
    let alone = fresh_memo(&mut sched, JobId(0), t);
    assert!(alone < shared, "{alone} vs {shared}");
}

#[test]
fn attach_invalidates_the_slowdown_memo() {
    // Consolidation moves a running job onto a pool instance whose
    // resident job already holds a memo.
    let jobs = vec![
        job(0, AppClass::HadoopSvm, 2, 3600),
        job(1, AppClass::HadoopSvm, 8, 3600),
    ];
    let scenario = scenario_of(jobs);
    let mut config = RunConfig::new(StrategyId::HM);
    config.reserved_cores_override = Some(16);
    config.internal_pressure_scale = 1.0;
    let (mut sched, mut events) = scheduler(&scenario, &config);
    let e0 = sched.estimate(&scenario.jobs()[0]);
    let e1 = sched.estimate(&scenario.jobs()[1]);
    sched.place_od_pool(0, &e0, SimTime::ZERO, SimDuration::ZERO, None, &mut events);
    let h = sched.acquire(InstanceType::full_server(), SimTime::ZERO);
    let (zero, start) = (SimDuration::ZERO, SimTime::from_secs(30));
    sched.assign(1, &e1, h, SimTime::ZERO, zero, None, &mut events);
    sched.start(JobId(0), start, &mut events);
    sched.start(JobId(1), start, &mut events);
    let t = SimTime::from_secs(60);
    let alone = fresh_memo(&mut sched, JobId(1), t);
    sched.consolidate_od_pool(t, &mut events).unwrap();
    assert_eq!(sched.running_job(JobId(0)).unwrap().instance, h);
    let shared = fresh_memo(&mut sched, JobId(1), t);
    assert!(shared > alone, "{shared} vs {alone}");
}

#[test]
fn local_boost_invalidates_the_slowdown_memo() {
    // An LC service offered four times what its 2 cores serve at the
    // target utilization saturates and grows on its server, which
    // raises its batch co-runner's interference.
    let mut lc = job(0, AppClass::Memcached, 2, 600);
    lc.kind = JobKind::LatencyCritical {
        offered_rps: LatencyModel::default().offered_rps_for(8),
        lifetime: SimDuration::from_secs(600),
    };
    let scenario = scenario_of(vec![lc, job(1, AppClass::SparkBatch, 4, 600)]);
    let mut config = RunConfig::new(StrategyId::SR);
    config.reserved_cores_override = Some(16);
    config.internal_pressure_scale = 1.0;
    let (mut sched, mut events) = scheduler(&scenario, &config);
    let h = sched.reserved_handles[0];
    for (idx, cores) in [(0, 2), (1, 4)] {
        let est = JobEstimate {
            sensitivity: scenario.jobs()[idx].sensitivity,
            quality: 0.5,
            cores,
        };
        let zero = SimDuration::ZERO;
        sched.assign(idx, &est, h, SimTime::ZERO, zero, None, &mut events);
        sched.start(JobId(idx as u64), SimTime::ZERO, &mut events);
    }
    let before = fresh_memo(&mut sched, JobId(1), SimTime::ZERO);
    let t = SimTime::from_secs(10);
    let key = sched.key_of(JobId(0));
    sched.update_job(key, t, &mut events).unwrap();
    assert!(sched.running_job(JobId(0)).unwrap().cores > 2, "no boost");
    let after = fresh_memo(&mut sched, JobId(1), t);
    assert!(after > before, "{after} vs {before}");
}

#[test]
fn interference_epoch_invalidates_the_slowdown_memo() {
    // A job alone on a small on-demand instance: only the external
    // level, re-drawn every epoch, moves its slowdown.
    let scenario = scenario_of(vec![job(0, AppClass::HadoopSvm, 2, 3600)]);
    let config = RunConfig::new(StrategyId::ODM);
    let (mut sched, mut events) = scheduler(&scenario, &config);
    sched.on_arrival(0, SimTime::ZERO, &mut events).unwrap();
    let h = sched.running_job(JobId(0)).unwrap().instance;
    assert!(sched.inst(h).itype.external_share() > 0.0);
    let ready = sched.inst(h).ready_at;
    sched.start(JobId(0), ready, &mut events);
    let first = fresh_memo(&mut sched, JobId(0), ready);
    let later = (1..100)
        .map(|k| ready + SimDuration::from_secs(10 * k))
        .find(|&t| sched.current_slowdown(sched.key_of(JobId(0)), t) != first)
        .expect("the external level moves within 100 epochs");
    assert_ne!(fresh_memo(&mut sched, JobId(0), later), first);
}

#[test]
fn consolidation_drains_lightly_used_pool_instances() {
    // Two od pool instances, one holding a small job: a tick should
    // migrate the job and idle the source.
    let jobs = vec![
        job(0, AppClass::HadoopSvm, 2, 3600),
        job(1, AppClass::HadoopSvm, 8, 3600),
    ];
    let scenario = scenario_of(jobs);
    let mut config = RunConfig::new(StrategyId::HM);
    config.reserved_cores_override = Some(16);
    let (mut sched, mut events) = scheduler(&scenario, &config);
    // Force both jobs onto separate od pool instances.
    let e0 = sched.estimate(&scenario.jobs()[0]);
    let e1 = sched.estimate(&scenario.jobs()[1]);
    sched.place_od_pool(0, &e0, SimTime::ZERO, SimDuration::ZERO, None, &mut events);
    let first_pool = *sched.od_pool.iter().next().expect("pool instance acquired");
    let h = sched.acquire(InstanceType::full_server(), SimTime::ZERO);
    sched.assign(
        1,
        &e1,
        h,
        SimTime::ZERO,
        SimDuration::ZERO,
        None,
        &mut events,
    );
    sched.start(JobId(0), SimTime::from_secs(30), &mut events);
    sched.start(JobId(1), SimTime::from_secs(30), &mut events);
    assert!(sched.inst(first_pool).used_cores > 0);
    sched
        .consolidate_od_pool(SimTime::from_secs(60), &mut events)
        .unwrap();
    // The small job moved off one of the two instances.
    let empties = sched
        .instances
        .iter()
        .filter(|(_, i)| !i.reserved && i.jobs.is_empty())
        .count();
    assert_eq!(empties, 1, "one pool instance should have been drained");
    // Bookkeeping stays consistent.
    let total_assigned: u32 = sched.instances.iter().map(|(_, i)| i.used_cores).sum();
    assert_eq!(total_assigned, e0.cores + e1.cores);
}

#[test]
fn spot_eligibility_gates_correctly() {
    let jobs = vec![
        job(0, AppClass::HadoopSvm, 4, 300),   // tolerant batch
        job(1, AppClass::Memcached, 2, 300),   // latency-critical
        job(2, AppClass::SparkRealtime, 1, 5), // sensitive batch
    ];
    let scenario = scenario_of(jobs);
    let mut config = RunConfig::new(StrategyId::HM);
    config.spot = Some(SpotPolicy {
        bid_multiplier: 0.6,
        max_quality: 0.99,
    });
    let (mut sched, _) = scheduler(&scenario, &config);
    let est = |sched: &mut Scheduler, i: usize| sched.estimate(&scenario.jobs()[i]);
    let e0 = est(&mut sched, 0);
    let e1 = est(&mut sched, 1);
    let e2 = est(&mut sched, 2);
    assert!(sched.spot_eligible(&scenario.jobs()[0], &e0));
    assert!(
        !sched.spot_eligible(&scenario.jobs()[1], &e1),
        "LC never rides spot"
    );
    assert!(
        !sched.spot_eligible(&scenario.jobs()[2], &e2),
        "sensitive batch never rides spot"
    );
    // OdM (non-hybrid) never uses spot even for tolerant jobs.
    let mut odm = RunConfig::new(StrategyId::ODM);
    odm.spot = config.spot;
    let (mut sched, _) = scheduler(&scenario, &odm);
    let e0 = sched.estimate(&scenario.jobs()[0]);
    assert!(!sched.spot_eligible(&scenario.jobs()[0], &e0));
}

#[test]
fn queue_drain_is_fifo_with_skip() {
    // Reserved pool of 16 cores; a 16-core job fills it, then a
    // 16-core job and a 2-core job queue. On release, the 16-core job
    // (head of queue) is placed; the 2-core one waits if no room, or
    // fits if there is.
    let jobs = vec![
        job(0, AppClass::Memcached, 16, 600),
        job(1, AppClass::Memcached, 16, 600),
        job(2, AppClass::Memcached, 2, 600),
    ];
    let scenario = scenario_of(jobs);
    let mut config = RunConfig::new(StrategyId::SR);
    config.reserved_cores_override = Some(16);
    let (mut sched, mut events) = scheduler(&scenario, &config);
    sched.on_arrival(0, SimTime::ZERO, &mut events).unwrap();
    sched.on_arrival(1, SimTime::ZERO, &mut events).unwrap();
    sched.on_arrival(2, SimTime::ZERO, &mut events).unwrap();
    assert_eq!(sched.queue.len(), 2, "both later jobs queue");
    sched.start(JobId(0), SimTime::ZERO, &mut events);
    // Finish the first job: the queue head (16-core) takes the slot.
    sched
        .finish(JobId(0), SimTime::from_secs(600), &mut events)
        .unwrap();
    assert_eq!(sched.queue.len(), 1);
    assert!(sched.running_by_id.contains_key(&JobId(1)));
    assert!(!sched.running_by_id.contains_key(&JobId(2)) || sched.queue.is_empty());
}

#[test]
fn foreign_job_id_fails_typed() {
    let scenario = scenario_of(vec![job(0, AppClass::HadoopSvm, 2, 100)]);
    let config = RunConfig::new(StrategyId::SR);
    let (mut sched, mut events) = scheduler(&scenario, &config);
    let err = sched
        .on_arrival(999, SimTime::ZERO, &mut events)
        .expect_err("a position past the scenario's end must fail typed");
    assert_eq!(
        err,
        UnknownJob {
            position: 999,
            jobs: 1
        }
    );
    assert_eq!(sched.pending_jobs(), 0, "nothing was admitted");
    assert!(events.is_empty(), "nothing was scheduled");
    // The in-scenario id still works.
    sched.on_arrival(0, SimTime::ZERO, &mut events).unwrap();
    assert_eq!(sched.pending_jobs(), 1);
}

#[test]
fn retention_token_prevents_stale_release() {
    let jobs = vec![
        job(0, AppClass::HadoopSvm, 2, 100),
        job(1, AppClass::HadoopSvm, 2, 100),
    ];
    let scenario = scenario_of(jobs);
    let config = RunConfig::new(StrategyId::ODM);
    let (mut sched, mut events) = scheduler(&scenario, &config);
    sched.on_arrival(0, SimTime::ZERO, &mut events).unwrap();
    let h = *sched.live_od.iter().next().expect("od instance acquired");
    let token_before = sched.inst(h).retention_token;
    // A new job lands on the instance (reuse) before the retention
    // timer fires; the stale token must not release it.
    let key = fake_slot(&mut sched, h, 2, SimTime::ZERO);
    sched.inst_mut(h).jobs.push(Colocated {
        key,
        stamp: 0,
        slowdown: 0.0,
    });
    sched.inst_mut(h).retention_token += 1;
    sched.on_retention(h, token_before, SimTime::from_secs(500));
    assert!(
        sched.instances.contains(h.key()),
        "stale token must not release the instance"
    );
}

#[test]
fn released_instance_handles_turn_stale() {
    let scenario = scenario_of(vec![job(0, AppClass::HadoopSvm, 2, 100)]);
    let config = RunConfig::new(StrategyId::ODM);
    let (mut sched, _) = scheduler(&scenario, &config);
    let h = sched.acquire(InstanceType::standard(2), SimTime::ZERO);
    assert!(sched.live_od.contains(&h));
    sched.release_instance(h, SimTime::from_secs(1));
    assert!(!sched.instances.contains(h.key()), "handle is stale");
    assert!(!sched.live_od.contains(&h), "dropped from the live index");
    assert!(!sched.od_pool.contains(&h));
    // Double release and late retention are typed no-ops.
    sched.release_instance(h, SimTime::from_secs(2));
    sched.on_retention(h, 0, SimTime::from_secs(3));
    assert_eq!(sched.instances.live_len(), sched.reserved_handles.len());
}

#[test]
fn idle_index_tracks_retained_instances() {
    let scenario = scenario_of(vec![job(0, AppClass::HadoopSvm, 2, 100)]);
    let config = RunConfig::new(StrategyId::ODM).without_profiling();
    let (mut sched, mut events) = scheduler(&scenario, &config);
    let h = sched.acquire(InstanceType::standard(2), SimTime::ZERO);
    assert!(sched.idle_buckets.is_empty());
    // Retained idle: the instance enters the idle index...
    sched.handle_idle_od(h, SimTime::from_secs(10), &mut events);
    assert_eq!(sched.idle_buckets.len(), 1);
    // ...and a reuse query finds it through the range probe.
    let found =
        sched.find_idle_dedicated(Family::Standard, 2, false, 0.0, SimTime::from_secs(3600));
    assert_eq!(found, Some(h));
    // Attaching a job removes it from the idle index.
    let key = fake_slot(&mut sched, h, 2, SimTime::from_secs(3600));
    sched.attach_job(h, key, 2, SimTime::from_secs(3600));
    assert!(sched.idle_buckets.is_empty());
}

/// The pre-index semantics of the idle-reuse search: a linear scan
/// over the retained set in acquisition order, smallest fitting size
/// first with first-seen tie-break.
fn naive_idle_search(
    sched: &Scheduler<'_>,
    retained: &[InstanceHandle],
    family: Family,
    vcpus: u32,
    now: SimTime,
) -> Option<InstanceHandle> {
    retained
        .iter()
        .copied()
        .filter(|&h| {
            let inst = sched.inst(h);
            inst.itype.family() == family
                && inst.itype.vcpus() >= vcpus
                && inst.itype.vcpus() <= vcpus * 2
                && inst.ready_at <= now
                && !inst.spot
        })
        .min_by_key(|&h| (sched.inst(h).itype.vcpus(), h))
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// Any interleaving of acquire / retain-idle / reuse / release
    /// leaves the secondary indices exactly equal to a from-scratch
    /// recomputation over the arena, and the indexed idle-reuse
    /// search returns the same instance as the naive linear scan it
    /// replaced.
    #[test]
    fn placement_indices_match_naive_reference(
        steps in proptest::collection::vec((0u8..6, proptest::prelude::any::<u16>()), 1..48),
        q_size in 0usize..4,
    ) {
        use proptest::prelude::{prop_assert, prop_assert_eq};

        const SIZES: [u32; 4] = [2, 4, 8, 16];
        let scenario = scenario_of(vec![job(0, AppClass::HadoopSvm, 2, 100)]);
        let config = RunConfig::new(StrategyId::ODM).without_profiling();
        let (mut sched, mut events) = scheduler(&scenario, &config);
        // Reference model mirroring the instance lifecycle: fresh
        // acquisitions are empty but unretained, `handle_idle_od`
        // moves them into the retained set, a reuse occupies them,
        // and a finish empties them back into retention. `retained`
        // stays in handle (= acquisition) order. Sim time advances
        // monotonically across steps.
        let mut unretained: Vec<InstanceHandle> = Vec::new();
        let mut occupied: Vec<(InstanceHandle, SlotKey)> = Vec::new();
        let mut retained: Vec<InstanceHandle> = Vec::new();
        let retain = |list: &mut Vec<InstanceHandle>, h: InstanceHandle| {
            let pos = list.partition_point(|&r| r < h);
            list.insert(pos, h);
        };
        let mut t = SimTime::ZERO;
        for (op, x) in steps {
            t += SimDuration::from_secs(1);
            match op {
                0 | 1 => {
                    let size = SIZES[x as usize % SIZES.len()];
                    unretained.push(sched.acquire(InstanceType::standard(size), t));
                }
                2 if !unretained.is_empty() => {
                    let h = unretained.remove(x as usize % unretained.len());
                    sched.handle_idle_od(h, t, &mut events);
                    retain(&mut retained, h);
                }
                3 if !retained.is_empty() => {
                    // Reuse: a job lands on a retained instance.
                    let h = retained.remove(x as usize % retained.len());
                    let key = fake_slot(&mut sched, h, 1, t);
                    sched.attach_job(h, key, 1, t);
                    occupied.push((h, key));
                }
                4 if !occupied.is_empty() => {
                    // Finish: the instance empties and is retained again.
                    let (h, key) = occupied.remove(x as usize % occupied.len());
                    prop_assert!(sched.detach_job(h, key, 1, t).expect("single detach"));
                    sched.handle_idle_od(h, t, &mut events);
                    retain(&mut retained, h);
                }
                5 if !retained.is_empty() => {
                    let h = retained.remove(x as usize % retained.len());
                    sched.release_instance(h, t);
                }
                _ => {}
            }
        }
        // Query well past every spin-up so readiness never filters.
        let now = t + SimDuration::from_secs(3600);
        // The indexed range probe agrees with the naive scan.
        let want_size = SIZES[q_size];
        prop_assert_eq!(
            sched.find_idle_dedicated(Family::Standard, want_size, false, 0.0, now),
            naive_idle_search(&sched, &retained, Family::Standard, want_size, now)
        );
        // Each index equals a from-scratch recomputation over the arena.
        let live_naive: Vec<InstanceHandle> = sched
            .instances
            .iter()
            .filter(|(_, i)| !i.reserved)
            .map(|(k, _)| InstanceHandle::new(k))
            .collect();
        prop_assert_eq!(
            sched.live_od.iter().copied().collect::<Vec<_>>(),
            live_naive.clone()
        );
        let pool_naive: Vec<InstanceHandle> = live_naive
            .iter()
            .copied()
            .filter(|&h| sched.inst(h).itype.is_full_server())
            .collect();
        prop_assert_eq!(sched.od_pool.iter().copied().collect::<Vec<_>>(), pool_naive);
        for &(family, vcpus, h) in &sched.idle_buckets {
            let inst = sched.inst(h);
            prop_assert!(!inst.reserved && inst.jobs.is_empty(), "idle index invariant");
            prop_assert_eq!(inst.itype.family(), family);
            prop_assert_eq!(inst.itype.vcpus(), vcpus);
        }
        let mut idle_handles: Vec<InstanceHandle> =
            sched.idle_buckets.iter().map(|&(_, _, h)| h).collect();
        idle_handles.sort();
        prop_assert_eq!(idle_handles, retained, "idle index = retained set");
    }
}

/// Regression: `detach_job` used `saturating_sub`, so unbinding more
/// cores than are bound (e.g. a double unbind) silently clamped to
/// zero and corrupted the core ledger. It must be a typed accounting
/// error instead.
#[test]
fn double_detach_is_a_typed_accounting_error() {
    let scenario = scenario_of(vec![job(0, AppClass::HadoopSvm, 2, 100)]);
    let config = RunConfig::new(StrategyId::ODM);
    let (mut sched, _) = scheduler(&scenario, &config);
    let h = sched.acquire(InstanceType::standard(4), SimTime::ZERO);
    let key = fake_slot(&mut sched, h, 2, SimTime::ZERO);
    sched.attach_job(h, key, 2, SimTime::ZERO);
    assert!(sched
        .detach_job(h, key, 2, SimTime::from_secs(1))
        .expect("first unbind is legal"));
    let err = sched
        .detach_job(h, key, 2, SimTime::from_secs(2))
        .expect_err("second unbind of the same cores must be caught");
    assert_eq!(err.at, SimTime::from_secs(2));
    assert!(
        matches!(
            err.kind,
            AuditViolationKind::CoreUnderflow {
                bound: 0,
                unbind: 2,
                ..
            }
        ),
        "unexpected violation: {err}"
    );
    // The instance state is untouched by the rejected unbind.
    assert_eq!(sched.inst(h).used_cores, 0);
}

/// Regression: the starvation-relief path re-placed a queued job with
/// a zero queue delay, dropping the waiting interval it had just
/// served. A job that queues, is relieved to on-demand, is preempted
/// there, queues again (twice over) must end up with a queue delay
/// equal to the sum of its distinct waiting intervals — no dropped
/// and no double-counted interval.
#[test]
fn queue_delay_accumulates_across_preemptions() {
    let jobs = vec![
        job(0, AppClass::HadoopSvm, 16, 10_000),
        job(1, AppClass::HadoopSvm, 2, 10_000),
    ];
    let scenario = scenario_of(jobs);
    let mut config = RunConfig::new(StrategyId::HF);
    config.reserved_cores_override = Some(16);
    // Always prefer reserved, so job 1 queues whenever job 0 holds
    // the whole reserved pool.
    config.policy = crate::mapping::MappingPolicy::UtilizationLimit(2.0);
    let (mut sched, mut events) = scheduler(&scenario, &config);

    // Job 0 fills the reserved pool; job 1 queues behind it.
    sched.on_arrival(0, SimTime::ZERO, &mut events).unwrap();
    sched.start(JobId(0), SimTime::ZERO, &mut events);
    sched.on_arrival(1, SimTime::ZERO, &mut events).unwrap();
    assert_eq!(sched.queue.len(), 1, "job 1 must queue behind job 0");

    // Wait 1: starved for 3600s, then relieved to the od pool.
    let t1 = SimTime::from_secs(3600);
    sched.on_tick(t1, &mut events).unwrap();
    assert!(sched.queue.is_empty(), "job 1 must be relieved");
    assert!(sched.running_by_id.contains_key(&JobId(1)));

    // Preemption 1 kills the od instance; job 1 queues again.
    let h1 = *sched.od_pool.iter().next().expect("od pool instance");
    let t2 = SimTime::from_secs(4000);
    sched.on_spot_termination(h1, t2, &mut events).unwrap();
    assert_eq!(sched.queue.len(), 1, "job 1 requeued after preemption");

    // Wait 2: starved for 7200s, relieved again.
    let t3 = SimTime::from_secs(4000 + 7200);
    sched.on_tick(t3, &mut events).unwrap();
    assert!(sched.queue.is_empty());

    // Preemption 2.
    let h2 = *sched.od_pool.iter().next().expect("od pool instance");
    let t4 = SimTime::from_secs(12_000);
    sched.on_spot_termination(h2, t4, &mut events).unwrap();
    assert_eq!(sched.queue.len(), 1);

    // Wait 3: job 0 finishes; the queue drains onto reserved.
    let t5 = SimTime::from_secs(20_000);
    sched.finish(JobId(0), t5, &mut events).unwrap();
    let job1 = sched.running_job(JobId(1)).unwrap();
    assert_eq!(
        job1.queue_delay,
        SimDuration::from_secs(3600 + 7200 + 8000),
        "total queueing time must equal the sum of the three distinct waits"
    );
}

/// Two-job tenancy scenario: a pool sized for one job at a time, so
/// the second arrival defers behind the gate and drains when the
/// first finishes, with the gate wait credited as queue delay.
fn tenanted_pair() -> Scenario {
    let jobs = vec![
        job(0, AppClass::SparkBatch, 4, 100),
        job(1, AppClass::SparkBatch, 4, 100),
    ];
    // Without profiling the scheduler sizes jobs by user reservation,
    // which is deterministic per job id; size the pool so either job
    // fits alone but never both.
    let c0 = jobs[0].user_sized_cores().clamp(1, 16);
    let c1 = jobs[1].user_sized_cores().clamp(1, 16);
    let pool = c0.max(c1);
    let mut plan = TenancyPlan::new(pool)
        .with_quantum(16.0)
        .with_starvation_secs(1e9)
        .tenant(TenantSpec::new(0, 1.0, pool, pool));
    plan.assign(0, 0);
    plan.assign(1, 0);
    scenario_of(jobs).with_tenancy(plan)
}

#[test]
fn tenancy_gate_defers_and_finish_drains() {
    let scenario = tenanted_pair();
    let mut config = RunConfig::new(StrategyId::SR).without_profiling();
    config.reserved_cores_override = Some(32);
    let (mut sched, mut events) = scheduler(&scenario, &config);
    sched.on_arrival(0, SimTime::ZERO, &mut events).unwrap();
    sched.on_arrival(1, SimTime::ZERO, &mut events).unwrap();
    assert!(sched.running_by_id.contains_key(&JobId(0)));
    assert!(
        !sched.running_by_id.contains_key(&JobId(1)),
        "job 1 must be held at the tenancy gate"
    );
    assert_eq!(sched.counters.tenant_deferred_jobs, 1);
    assert_eq!(sched.pending_jobs(), 2, "deferred jobs count as pending");

    // Finishing job 0 frees the share; the drain admits job 1 and
    // credits its 100s behind the gate as queue delay.
    sched.start(JobId(0), SimTime::ZERO, &mut events);
    sched
        .finish(JobId(0), SimTime::from_secs(100), &mut events)
        .unwrap();
    assert!(sched.running_by_id.contains_key(&JobId(1)));
    assert_eq!(sched.counters.tenant_drained_jobs, 1);
    assert_eq!(
        sched.running_job(JobId(1)).unwrap().queue_delay,
        SimDuration::from_secs(100)
    );
}

/// Spot termination books the work its victim loses to the run's
/// counter, the global ledger and the victim's tenant ledger, and takes
/// the victim out of the fair-share pool before the gate drains: the
/// job held behind the full pool runs next, and the re-admitted victim
/// queues behind it (FIFO).
#[test]
fn spot_termination_books_the_loss_and_frees_the_tenant_share() {
    let scenario = tenanted_pair();
    let config = RunConfig::new(StrategyId::ODM).without_profiling();
    let auditor = Auditor::new(hcloud_audit::AuditMode::Final);
    let mut sched = Scheduler::with_instruments(
        &scenario,
        &config,
        &RngFactory::new(1),
        Tracer::disabled(),
        auditor.clone(),
        Profiler::disabled(),
    );
    let mut events = EventQueue::new();
    for id in [0, 1] {
        sched
            .on_arrival(id as usize, SimTime::ZERO, &mut events)
            .unwrap();
    }
    assert!(
        !sched.running_by_id.contains_key(&JobId(1)),
        "job 1 is held"
    );
    let h = sched.running_job(JobId(0)).unwrap().instance;
    let ready = sched.inst(h).ready_at;
    sched.start(JobId(0), ready, &mut events);
    let t = ready + SimDuration::from_secs(60);
    sched.on_spot_termination(h, t, &mut events).unwrap();
    let lost = sched.counters.work_lost_core_secs;
    assert!(lost > 0.0, "60 s of progress since the checkpoint are lost");
    assert_eq!(auditor.summary().lost_core_secs, lost);
    let tenant_lost: f64 = auditor.tenant_ledgers().iter().map(|(_, l)| l.lost).sum();
    assert_eq!(tenant_lost, lost);
    assert_eq!(sched.counters.tenant_drained_jobs, 1);
    assert!(sched.running_by_id.contains_key(&JobId(1)));
    assert!(!sched.running_by_id.contains_key(&JobId(0)), "victim waits");
}

#[test]
fn tenancy_starved_guarantee_reclaims_via_preemption() {
    let jobs = vec![
        job(0, AppClass::SparkBatch, 4, 100_000),
        job(1, AppClass::SparkBatch, 4, 100_000),
    ];
    let c0 = jobs[0].user_sized_cores().clamp(1, 16);
    let c1 = jobs[1].user_sized_cores().clamp(1, 16);
    let pool = c0.max(c1);
    // Tenant 0 is guaranteed the whole pool; tenant 1 (guarantee 0)
    // can only borrow.
    let mut plan = TenancyPlan::new(pool)
        .with_quantum(16.0)
        .with_starvation_secs(30.0)
        .tenant(TenantSpec::new(0, 4.0, pool, pool))
        .tenant(TenantSpec::new(1, 1.0, 0, pool));
    plan.assign(0, 1);
    plan.assign(1, 0);
    let scenario = scenario_of(jobs).with_tenancy(plan);
    let mut config = RunConfig::new(StrategyId::SR).without_profiling();
    config.reserved_cores_override = Some(32);
    let (mut sched, mut events) = scheduler(&scenario, &config);

    // The borrower takes the idle pool; the guaranteed tenant's job
    // then defers and the tenant goes needy.
    sched.on_arrival(0, SimTime::ZERO, &mut events).unwrap();
    sched.start(JobId(0), SimTime::ZERO, &mut events);
    sched.on_arrival(1, SimTime::ZERO, &mut events).unwrap();
    assert_eq!(sched.counters.tenant_borrowed_admissions, 1);
    assert!(!sched.running_by_id.contains_key(&JobId(1)));

    // Tick past the starvation window: the borrower is evicted, the
    // guaranteed job reclaims the pool, and the victim re-defers
    // behind the borrow gate.
    sched.on_tick(SimTime::from_secs(60), &mut events).unwrap();
    assert_eq!(sched.counters.tenant_preemptions, 1);
    assert!(sched.running_by_id.contains_key(&JobId(1)));
    assert!(
        !sched.running_by_id.contains_key(&JobId(0)),
        "victim must wait behind the gate, not re-grab the pool"
    );
    assert_eq!(sched.counters.tenant_drained_jobs, 1);
    assert_eq!(sched.counters.tenant_deferred_jobs, 2);

    let result = sched.into_result(SimTime::from_secs(60));
    assert_eq!(result.tenant_stats.len(), 2);
    assert_eq!(result.tenant_stats[0].id, 0);
    assert_eq!(result.tenant_stats[0].reclaims, 1);
    assert_eq!(result.tenant_stats[1].victims, 1);
}

#[test]
fn audited_since_measures_forward_spans_exactly() {
    let auditor = Auditor::new(hcloud_audit::AuditMode::Final);
    let span = audited_since(
        &auditor,
        SimTime::from_secs(20),
        SimTime::from_secs(15),
        3,
        "forward",
    );
    assert_eq!(span, SimDuration::from_secs(5));
    assert!(auditor.violations().is_empty());
    // Zero-width spans are forward, not inverted.
    let zero = audited_since(
        &auditor,
        SimTime::from_secs(20),
        SimTime::from_secs(20),
        3,
        "forward",
    );
    assert_eq!(zero, SimDuration::ZERO);
    assert!(auditor.violations().is_empty());
}

#[test]
fn audited_since_reports_time_inversion_and_clamps() {
    let auditor = Auditor::new(hcloud_audit::AuditMode::Final);
    let span = audited_since(
        &auditor,
        SimTime::from_secs(10),
        SimTime::from_secs(20),
        7,
        "test inversion",
    );
    assert_eq!(span, SimDuration::ZERO, "inverted spans clamp to zero");
    let violations = auditor.violations();
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].at, SimTime::from_secs(10));
    match violations[0].kind {
        AuditViolationKind::TimeInversion {
            job,
            context,
            at_us,
            earlier_us,
        } => {
            assert_eq!(job, 7);
            assert_eq!(context, "test inversion");
            assert_eq!(at_us, 10_000_000);
            assert_eq!(earlier_us, 20_000_000);
        }
        ref other => panic!("expected TimeInversion, got {other:?}"),
    }
}

#[test]
fn audited_since_is_silent_when_auditing_is_off() {
    // The disabled auditor still clamps — identical arithmetic to the
    // old `saturating_since` path — but records nothing.
    let auditor = Auditor::new(hcloud_audit::AuditMode::Off);
    let span = audited_since(
        &auditor,
        SimTime::ZERO,
        SimTime::from_secs(1),
        1,
        "off-mode inversion",
    );
    assert_eq!(span, SimDuration::ZERO);
    assert!(auditor.violations().is_empty());
}

/// A finished job's slot goes to the next job under a new generation, so
/// the finished job's own `Finish` — here with a version equal to the
/// new holder's current one — fails the key's generation check instead
/// of finishing the new holder.
#[test]
fn a_recycled_slot_never_takes_a_stale_finish() {
    let (scenario, config) = reserved_pair();
    let (mut sched, mut events) = scheduler(&scenario, &config);
    sched.on_arrival(0, SimTime::ZERO, &mut events).unwrap();
    sched.start(JobId(0), SimTime::ZERO, &mut events);
    let a = sched.key_of(JobId(0));
    let a_version = sched.job(a).finish_version;
    let t = SimTime::from_secs(600);
    sched.on_finish(a, a_version, t, &mut events).unwrap();
    sched.on_arrival(1, t, &mut events).unwrap();
    sched.start(JobId(1), t, &mut events);
    let b = sched.key_of(JobId(1));
    assert_eq!(b.index(), a.index(), "job 1 holds job 0's recycled slot");
    assert_ne!(b, a);
    let b_version = sched.job(b).finish_version;
    assert_eq!(b_version, a_version);

    sched
        .on_finish(a, a_version, SimTime::from_secs(700), &mut events)
        .unwrap();
    assert_eq!(sched.outcomes.len(), 1, "the stale Finish finished nothing");
    let held = sched.job(b);
    assert_eq!(held.id, JobId(1));
    assert_eq!(held.finish_version, b_version, "job 1 keeps its projection");
    sched
        .on_finish(b, b_version, SimTime::from_secs(1200), &mut events)
        .unwrap();
    assert_eq!(sched.outcomes.len(), 2);
}

/// A tenant preemption evicts a job whose on-demand instance is still
/// spinning up, so its `Start` is still in flight. The key that `Start`
/// carries must never start whoever holds the recycled slot: first the
/// job admitted in the victim's place, then the victim's own re-admitted
/// life.
#[test]
fn a_recycled_slot_never_takes_a_stale_start() {
    let jobs = vec![
        job(0, AppClass::SparkBatch, 4, 1_000),
        job(1, AppClass::SparkBatch, 4, 1_000),
    ];
    let pool = jobs.iter().map(|j| j.user_sized_cores().clamp(1, 16)).max();
    let pool = pool.expect("two jobs");
    // Tenant 1 borrows the idle pool; tenant 0, guaranteed all of it,
    // starves after a second and reclaims it by preemption.
    let mut plan = TenancyPlan::new(pool)
        .with_quantum(16.0)
        .with_starvation_secs(1.0)
        .tenant(TenantSpec::new(0, 4.0, pool, pool))
        .tenant(TenantSpec::new(1, 1.0, 0, pool));
    plan.assign(0, 1);
    plan.assign(1, 0);
    let scenario = scenario_of(jobs).with_tenancy(plan);
    let config = RunConfig::new(StrategyId::ODM).without_profiling();
    let (mut sched, mut events) = scheduler(&scenario, &config);
    sched.on_arrival(0, SimTime::ZERO, &mut events).unwrap();
    sched.on_arrival(1, SimTime::ZERO, &mut events).unwrap();
    let stale = sched.key_of(JobId(0));
    let tick = SimTime::from_secs(2);
    assert!(
        sched.job(stale).start_at > tick,
        "job 0's instance is still spinning up at the tick"
    );
    sched.on_tick(tick, &mut events).unwrap();
    assert_eq!(sched.counters.tenant_preemptions, 1);
    assert!(
        sched.running_job(JobId(0)).is_none(),
        "job 0 waits at the gate"
    );

    // Job 1, admitted in job 0's place, holds the recycled slot.
    let held = sched.key_of(JobId(1));
    assert_eq!((held.index(), held.generation()), (stale.index(), 1));
    let start_at = sched.job(held).start_at;
    sched.on_start(stale, start_at, &mut events);
    assert!(!sched.job(held).started, "the stale Start started job 1");
    sched.on_start(held, start_at, &mut events);
    assert!(sched.job(held).started);

    // Job 1 finishes; the drain re-admits job 0 into the same slot.
    let done = start_at + SimDuration::from_secs(100);
    sched.finish(JobId(1), done, &mut events).unwrap();
    let again = sched.key_of(JobId(0));
    assert_eq!((again.index(), again.generation()), (stale.index(), 2));
    let start_at = sched.job(again).start_at;
    sched.on_start(stale, start_at, &mut events);
    assert!(
        !sched.job(again).started,
        "the stale Start started job 0's new life"
    );
    sched.on_start(again, start_at, &mut events);
    assert!(sched.job(again).started);
}

/// Finished jobs hand their arena slots on: over a whole OdM run the
/// running arena grows to the peak number of jobs running at once, not
/// to the job count.
#[test]
fn the_running_arena_holds_peak_concurrency_slots() {
    let scenario = Scenario::generate(
        ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.08, 20),
        &RngFactory::new(7),
    );
    let config = RunConfig::new(StrategyId::ODM);
    let (mut sched, mut events) = scheduler(&scenario, &config);
    for (idx, job) in scenario.jobs().iter().enumerate() {
        events.schedule(job.arrival, Event::Arrival(idx));
    }
    events.schedule(SimTime::ZERO, Event::Tick);
    let last_arrival = scenario.jobs().last().expect("jobs").arrival;
    let mut peak = 0;
    while let Some((t, event)) = events.pop() {
        match event {
            Event::Arrival(idx) => sched.on_arrival(idx, t, &mut events).unwrap(),
            Event::Start(key) => sched.on_start(key, t, &mut events),
            Event::Finish(key, v) => sched.on_finish(key, v, t, &mut events).unwrap(),
            Event::Retention(h, token) => sched.on_retention(h, token, t),
            Event::SpotTermination(h) => sched.on_spot_termination(h, t, &mut events).unwrap(),
            Event::Tick => {
                sched.on_tick(t, &mut events).unwrap();
                if t < last_arrival || sched.pending_jobs() > 0 {
                    events.schedule(t + config.monitor_interval, Event::Tick);
                }
            }
        }
        peak = peak.max(sched.running.live_len());
    }
    let jobs = scenario.jobs().len();
    assert_eq!(sched.outcomes.len(), jobs, "every job finished");
    assert_eq!(sched.running.live_len(), 0);
    assert_eq!(
        sched.running.len(),
        peak,
        "one slot per job running at peak"
    );
    assert!(peak * 4 < jobs, "{peak} slots for {jobs} jobs");
}
