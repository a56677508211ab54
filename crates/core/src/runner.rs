//! End-to-end scenario execution.
//!
//! [`run_scenario`] feeds a generated [`Scenario`] through the
//! [`Scheduler`] under a [`RunConfig`], driving the discrete-event loop to
//! completion and returning the [`RunResult`] every figure binary
//! aggregates. What used to be three entry points (plain / traced /
//! instrumented) is now one: a [`RunCtx`] carries the rng factory plus the
//! [`Tracer`], conservation [`Auditor`] and [`Profiler`] handles, disabled
//! unless attached, so callers opt into instrumentation by attaching it
//! rather than by picking a function.
//!
//! The event loop itself is batched: [`run_scenario`] drains every event
//! sharing the current timestamp in one call against the timing-wheel
//! [`EventQueue`] and applies the batch as a slice, acknowledging each
//! event as it is dispatched so queue-depth telemetry stays
//! byte-identical to a one-pop-per-iteration loop.
//!
//! Arrivals stream from the scenario's sorted job list: the queue reserves
//! one sequence number per job at set-up but holds only the next group of
//! equal-time arrivals, and the group's last dispatch feeds the next one
//! in. Every tie pops, and every depth count reads, as if all arrivals had
//! been pushed at set-up.

use hcloud_audit::Auditor;
// Re-exported so downstream `main() -> Result<(), AuditViolation>`
// wrappers need only the `hcloud` dependency.
pub use hcloud_audit::AuditViolation;
use hcloud_sim::event::{EventQueue, EventSink};
use hcloud_sim::rng::RngFactory;
use hcloud_sim::SimTime;
use hcloud_telemetry::{trace_event, ProfSpan, Profiler, TraceKind, Tracer};
use hcloud_workloads::{JobSpec, Scenario};

use crate::config::RunConfig;
use crate::result::RunResult;
use crate::scheduler::{Event, Scheduler};

/// How often the event loop emits a `progress` trace event.
const PROGRESS_EVERY: usize = 4096;

/// Everything a run needs besides the scenario and config: the rng factory
/// that makes it deterministic, plus the instrumentation handles, each
/// disabled until attached.
///
/// ```
/// use hcloud::runner::RunCtx;
/// use hcloud_sim::rng::RngFactory;
/// use hcloud_telemetry::Tracer;
///
/// let factory = RngFactory::new(7);
/// let tracer = Tracer::enabled();
/// let ctx = RunCtx::new(&factory).with_tracer(&tracer);
/// # let _ = ctx;
/// ```
#[derive(Clone)]
pub struct RunCtx<'a> {
    factory: &'a RngFactory,
    tracer: Tracer,
    auditor: Auditor,
    profiler: Profiler,
}

impl<'a> RunCtx<'a> {
    /// A bare context: deterministic in `factory`, no tracing, no audit.
    pub fn new(factory: &'a RngFactory) -> Self {
        Self {
            factory,
            tracer: Tracer::disabled(),
            auditor: Auditor::disabled(),
            profiler: Profiler::disabled(),
        }
    }

    /// Attach a [`Tracer`]: every instrumented decision in the scheduler,
    /// cloud and event loop lands in it, stamped with sim time. Tracing
    /// never perturbs simulation outcomes.
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Attach the conservation-audit oracle. The auditor's shadow ledgers
    /// are fed by the scheduler's accounting hooks; under
    /// [`hcloud_audit::AuditMode::Strict`] every event-loop step asserts
    /// the ledgers are violation-free, and under any enabled mode the
    /// end-of-run identities (work demanded == executed + lost, observed
    /// == billed instance-seconds, queue and job conservation,
    /// per-instance core leaks) are checked against the finished
    /// [`RunResult`].
    pub fn with_auditor(mut self, auditor: &Auditor) -> Self {
        self.auditor = auditor.clone();
        self
    }

    /// Attach a [`Profiler`]: the event queue, the placement front door,
    /// the monitor's quantile churn and the audit hooks attribute their
    /// wall clock to its per-subsystem spans. Operation counts are
    /// deterministic; wall clock is machine-dependent. Profiling never
    /// perturbs simulation outcomes.
    pub fn with_profiler(mut self, profiler: &Profiler) -> Self {
        self.profiler = profiler.clone();
        self
    }

    /// The rng factory this context runs under.
    pub fn factory(&self) -> &'a RngFactory {
        self.factory
    }
}

/// An [`EventSink`] adapter attributing queue operations to a run's
/// profiling spans: pushes through the trait (the path the scheduler
/// sees), batch pops through the inherent [`drain_next_batch`]. With a
/// disabled profiler every call is one branch away from the bare queue.
///
/// [`drain_next_batch`]: ProfiledQueue::drain_next_batch
struct ProfiledQueue<'p> {
    inner: EventQueue<Event>,
    profiler: &'p Profiler,
}

impl EventSink<Event> for ProfiledQueue<'_> {
    fn schedule(&mut self, at: SimTime, event: Event) {
        let profiler = self.profiler;
        profiler.time(ProfSpan::EventPush, || self.inner.schedule(at, event))
    }
}

impl<'p> ProfiledQueue<'p> {
    fn new(profiler: &'p Profiler) -> Self {
        ProfiledQueue {
            inner: EventQueue::new(),
            profiler,
        }
    }

    /// [`EventQueue::schedule_reserved`], timed as a push.
    fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: Event) {
        let profiler = self.profiler;
        profiler.time(ProfSpan::EventPush, || {
            self.inner.schedule_reserved(at, seq, event)
        })
    }

    fn drain_next_batch(&mut self, buf: &mut Vec<Event>) -> Option<SimTime> {
        let profiler = self.profiler;
        profiler.time(ProfSpan::EventPop, || self.inner.drain_next_batch(buf))
    }

    fn ack(&mut self) {
        self.inner.ack();
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn scheduled_total(&self) -> u64 {
        self.inner.scheduled_total()
    }

    fn max_depth(&self) -> usize {
        self.inner.max_depth()
    }
}

/// The scenario's arrivals, fed into the queue one group of equal-time
/// arrivals at a time. Job `i` pops as `Event::Arrival(i)` under sequence
/// number `first_seq + i`, reserved at set-up, so the stream pops exactly
/// as if it had been pushed whole before anything else.
struct Arrivals<'s> {
    jobs: &'s [JobSpec],
    first_seq: u64,
    /// Position of the first arrival not yet in the queue.
    next: usize,
}

impl<'s> Arrivals<'s> {
    /// Reserves the stream's sequence numbers and feeds its first group.
    fn new(jobs: &'s [JobSpec], events: &mut ProfiledQueue) -> Self {
        let first_seq = events.inner.reserve(jobs.len());
        let mut arrivals = Arrivals {
            jobs,
            first_seq,
            next: 0,
        };
        arrivals.feed(events);
        arrivals
    }

    /// Pushes the next group of equal-time arrivals, if any remain.
    fn feed(&mut self, events: &mut ProfiledQueue) {
        let Some(at) = self.jobs.get(self.next).map(|j| j.arrival) else {
            return;
        };
        debug_assert!(
            self.next == 0 || self.jobs[self.next - 1].arrival < at,
            "scenario jobs ascend by arrival"
        );
        while self.jobs.get(self.next).is_some_and(|j| j.arrival == at) {
            let seq = self.first_seq + self.next as u64;
            events.schedule_reserved(at, seq, Event::Arrival(self.next));
            self.next += 1;
        }
    }

    /// Arrival `idx` was dispatched: if it closed the queued group, the
    /// next group goes in, strictly later than now.
    fn dispatched(&mut self, idx: usize, events: &mut ProfiledQueue) {
        if idx + 1 == self.next {
            self.feed(events);
        }
    }
}

/// Runs `scenario` under `config` with the instrumentation carried by
/// `ctx`. Deterministic in `ctx`'s rng factory.
///
/// The monitor tick keeps firing until every job has finished, so the
/// returned makespan covers stragglers (OdM's high-variability run takes
/// ~48% longer than SR's, Section 5.4).
///
/// Without an auditor attached this never returns `Err`.
pub fn run_scenario(
    scenario: &Scenario,
    config: &RunConfig,
    ctx: &RunCtx,
) -> Result<RunResult, AuditViolation> {
    let (tracer, auditor, profiler) = (&ctx.tracer, &ctx.auditor, &ctx.profiler);
    let mut sched = Scheduler::with_instruments(
        scenario,
        config,
        ctx.factory,
        tracer.clone(),
        auditor.clone(),
        profiler.clone(),
    );
    let mut events = ProfiledQueue::new(profiler);
    let mut arrivals = Arrivals::new(scenario.jobs(), &mut events);
    let last_arrival = scenario
        .jobs()
        .last()
        .map(|j| j.arrival)
        .unwrap_or(SimTime::ZERO);
    events.schedule(SimTime::ZERO, Event::Tick);

    let mut end = SimTime::ZERO;
    let mut events_processed = 0usize;
    let mut batch: Vec<Event> = Vec::new();
    let result = 'run: loop {
        // Drain every event sharing the next timestamp and apply them as
        // a slice. Events scheduled *at* `t` during the batch (job starts
        // with zero spin-up, same-instant retention) land in the next
        // batch at the same `t`, exactly where a one-pop loop would pop
        // them.
        let Some(t) = events.drain_next_batch(&mut batch) else {
            break Ok(());
        };
        end = t;
        for event in batch.drain(..) {
            // Acknowledge before dispatch so `events.len()` observed by
            // telemetry matches the sequential pop loop event-for-event.
            events.ack();
            events_processed += 1;
            let stepped = match event {
                Event::Arrival(idx) => {
                    sched
                        .on_arrival(idx, t, &mut events)
                        .expect("arrivals are fed from the scenario's own job list");
                    arrivals.dispatched(idx, &mut events);
                    Ok(())
                }
                Event::Start(key) => {
                    sched.on_start(key, t, &mut events);
                    Ok(())
                }
                Event::Finish(key, v) => sched.on_finish(key, v, t, &mut events),
                Event::Retention(idx, token) => {
                    sched.on_retention(idx, token, t);
                    Ok(())
                }
                Event::SpotTermination(idx) => sched.on_spot_termination(idx, t, &mut events),
                Event::Tick => {
                    let r = sched.on_tick(t, &mut events);
                    if t < last_arrival || sched.pending_jobs() > 0 {
                        events.schedule(t + config.monitor_interval, Event::Tick);
                    }
                    r
                }
            };
            if let Err(violation) =
                stepped.and_then(|()| profiler.time(ProfSpan::AuditHooks, || auditor.step_check()))
            {
                break 'run Err(violation);
            }
            if events_processed.is_multiple_of(PROGRESS_EVERY) {
                trace_event!(
                    tracer,
                    t,
                    TraceKind::Progress {
                        events_processed: events_processed as u64,
                        queue_depth: events.len(),
                    }
                );
            }
        }
    };
    trace_event!(
        tracer,
        end,
        TraceKind::RunEnd {
            events_processed: events_processed as u64,
            scheduled_total: events.scheduled_total(),
            max_queue_depth: events.max_depth(),
        }
    );
    if let Err(violation) = result {
        trace_event!(
            tracer,
            end,
            TraceKind::AuditViolation {
                message: violation.to_string(),
            }
        );
        return Err(violation);
    }
    let mut run = sched.into_result(end);
    run.counters.events_processed = events_processed;
    if auditor.is_enabled() {
        // The billing side of the instance-seconds identity, exactly as
        // the provider computes it: micro-vCPU-seconds over the usage
        // records, clipped to the makespan.
        let mut billed: u128 = 0;
        let mut billed_spot: u128 = 0;
        for u in &run.usage_records {
            let micro = u.duration().as_micros() as u128 * u.itype.vcpus() as u128;
            billed += micro;
            if u.spot {
                billed_spot += micro;
            }
        }
        // The spot partition must reconcile separately: spot seconds
        // billed at on-demand rates (or vice versa) are a violation even
        // when the totals happen to agree.
        auditor.spot_billed(billed_spot);
        let finalized = profiler.time(ProfSpan::AuditHooks, || {
            auditor.finalize(run.makespan, billed, run.counters.work_lost_core_secs)
        });
        let summary = auditor.summary();
        trace_event!(
            tracer,
            end,
            TraceKind::AuditSummary {
                demanded_core_secs: summary.demanded_core_secs,
                credited_core_secs: summary.credited_core_secs,
                lost_core_secs: summary.lost_core_secs,
                jobs_admitted: summary.jobs_admitted,
                jobs_completed: summary.jobs_completed,
                violations: summary.violations,
            }
        );
        if let Err(violation) = finalized {
            trace_event!(
                tracer,
                end,
                TraceKind::AuditViolation {
                    message: violation.to_string(),
                }
            );
            return Err(violation);
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{StrategyId, StrategyRegistry};
    use hcloud_workloads::{ScenarioConfig, ScenarioKind};

    /// A small scenario that runs in well under a second.
    fn small_scenario(kind: ScenarioKind) -> Scenario {
        Scenario::generate(ScenarioConfig::scaled(kind, 0.08, 20), &RngFactory::new(7))
    }

    fn run(strategy: StrategyId, kind: ScenarioKind) -> RunResult {
        let scenario = small_scenario(kind);
        let config = RunConfig::new(strategy);
        let factory = RngFactory::new(7);
        run_scenario(&scenario, &config, &RunCtx::new(&factory)).expect("no auditor attached")
    }

    #[test]
    fn all_jobs_complete_under_every_strategy() {
        let scenario = small_scenario(ScenarioKind::HighVariability);
        let factory = RngFactory::new(7);
        for strategy in StrategyRegistry::paper() {
            let config = RunConfig::new(strategy);
            let result = run_scenario(&scenario, &config, &RunCtx::new(&factory)).unwrap();
            assert_eq!(
                result.outcomes.len(),
                scenario.jobs().len(),
                "{strategy}: some jobs never finished"
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(StrategyId::HM, ScenarioKind::HighVariability);
        let b = run(StrategyId::HM, ScenarioKind::HighVariability);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        let perf_a: Vec<f64> = a.outcomes.iter().map(|o| o.normalized_perf).collect();
        let perf_b: Vec<f64> = b.outcomes.iter().map(|o| o.normalized_perf).collect();
        assert_eq!(perf_a, perf_b);
    }

    #[test]
    fn sr_uses_no_on_demand() {
        let r = run(StrategyId::SR, ScenarioKind::Static);
        assert_eq!(r.counters.od_acquired, 0);
        assert!(r.usage_records.iter().all(|u| u.reserved));
        assert!(r.outcomes.iter().all(|o| o.on_reserved));
    }

    #[test]
    fn on_demand_strategies_use_no_reserved() {
        for s in [StrategyId::ODF, StrategyId::ODM] {
            let r = run(s, ScenarioKind::Static);
            assert_eq!(r.reserved_cores, 0, "{s}");
            assert!(r.counters.od_acquired > 0, "{s}");
            assert!(r.outcomes.iter().all(|o| !o.on_reserved), "{s}");
        }
    }

    #[test]
    fn odm_uses_smaller_instances_than_odf() {
        let f = run(StrategyId::ODF, ScenarioKind::Static);
        let m = run(StrategyId::ODM, ScenarioKind::Static);
        let mean_vcpus = |r: &RunResult| {
            let od: Vec<u32> = r
                .usage_records
                .iter()
                .filter(|u| !u.reserved)
                .map(|u| u.itype.vcpus())
                .collect();
            od.iter().sum::<u32>() as f64 / od.len() as f64
        };
        assert!(mean_vcpus(&m) < mean_vcpus(&f));
    }

    #[test]
    fn hybrids_use_both_kinds() {
        let r = run(StrategyId::HM, ScenarioKind::HighVariability);
        assert!(r.reserved_cores > 0);
        assert!(r.counters.od_acquired > 0);
        let on_res = r.outcomes.iter().filter(|o| o.on_reserved).count();
        assert!(on_res > 0 && on_res < r.outcomes.len());
    }

    #[test]
    fn sr_outperforms_odm() {
        let sr = run(StrategyId::SR, ScenarioKind::HighVariability);
        let odm = run(StrategyId::ODM, ScenarioKind::HighVariability);
        assert!(
            sr.mean_normalized_perf() > odm.mean_normalized_perf(),
            "SR {} should beat OdM {}",
            sr.mean_normalized_perf(),
            odm.mean_normalized_perf()
        );
    }

    #[test]
    fn profiling_info_helps_hybrids() {
        let scenario = small_scenario(ScenarioKind::HighVariability);
        let factory = RngFactory::new(7);
        let with = run_scenario(
            &scenario,
            &RunConfig::new(StrategyId::HM),
            &RunCtx::new(&factory),
        )
        .unwrap();
        let without = run_scenario(
            &scenario,
            &RunConfig::new(StrategyId::HM).without_profiling(),
            &RunCtx::new(&factory),
        )
        .unwrap();
        assert!(
            with.mean_normalized_perf() > without.mean_normalized_perf(),
            "with {} vs without {}",
            with.mean_normalized_perf(),
            without.mean_normalized_perf()
        );
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        let scenario = small_scenario(ScenarioKind::HighVariability);
        let config = RunConfig::new(StrategyId::HM);
        let factory = RngFactory::new(7);
        let plain = run_scenario(&scenario, &config, &RunCtx::new(&factory)).unwrap();
        let tracer = Tracer::enabled();
        let traced = run_scenario(
            &scenario,
            &config,
            &RunCtx::new(&factory).with_tracer(&tracer),
        )
        .unwrap();
        assert_eq!(plain, traced, "tracer must not change simulation outcomes");
        let events = tracer.take();
        assert!(!events.is_empty(), "enabled tracer records the run");
        assert!(
            matches!(
                events.last().expect("tracer recorded events").kind,
                TraceKind::RunEnd { .. }
            ),
            "run ends with a run-end event"
        );
        let mut last = hcloud_sim::SimTime::ZERO;
        for ev in &events {
            assert!(ev.at >= last, "trace is sim-time ordered");
            last = ev.at;
        }
    }

    #[test]
    fn strict_audit_passes_on_clean_runs() {
        let scenario = small_scenario(ScenarioKind::HighVariability);
        let factory = RngFactory::new(7);
        for strategy in StrategyRegistry::paper() {
            let config = RunConfig::new(strategy);
            let auditor = Auditor::new(hcloud_audit::AuditMode::Strict);
            let result = run_scenario(
                &scenario,
                &config,
                &RunCtx::new(&factory).with_auditor(&auditor),
            );
            let result = result.unwrap_or_else(|v| panic!("{strategy}: {v}"));
            assert_eq!(result.outcomes.len(), scenario.jobs().len());
            let summary = auditor.summary();
            assert_eq!(summary.violations, 0, "{strategy}");
            assert_eq!(summary.jobs_admitted, scenario.jobs().len() as u64);
            assert_eq!(summary.jobs_completed, summary.jobs_admitted);
        }
    }

    #[test]
    fn auditing_does_not_perturb_results() {
        let scenario = small_scenario(ScenarioKind::HighVariability);
        let config = RunConfig::new(StrategyId::HM);
        let factory = RngFactory::new(7);
        let plain = run_scenario(&scenario, &config, &RunCtx::new(&factory)).unwrap();
        let auditor = Auditor::new(hcloud_audit::AuditMode::Strict);
        let audited = run_scenario(
            &scenario,
            &config,
            &RunCtx::new(&factory).with_auditor(&auditor),
        )
        .expect("clean run");
        assert_eq!(
            plain, audited,
            "auditor must not change simulation outcomes"
        );
    }

    #[test]
    fn profiling_does_not_perturb_results() {
        let scenario = small_scenario(ScenarioKind::HighVariability);
        let config = RunConfig::new(StrategyId::HM);
        let factory = RngFactory::new(7);
        let plain = run_scenario(&scenario, &config, &RunCtx::new(&factory)).unwrap();
        let profiler = Profiler::enabled();
        let profiled = run_scenario(
            &scenario,
            &config,
            &RunCtx::new(&factory).with_profiler(&profiler),
        )
        .unwrap();
        assert_eq!(
            plain, profiled,
            "profiler must not change simulation outcomes"
        );
        let snap = profiler.snapshot();
        use hcloud_telemetry::ProfSpan;
        assert!(snap.get(ProfSpan::EventPush).ops > 0);
        assert!(snap.get(ProfSpan::EventPop).ops > 0);
        assert!(snap.get(ProfSpan::FindPlacement).ops > 0);
        assert!(snap.get(ProfSpan::MonitorQuantiles).ops > 0);
        // Audit hooks still tick (one disabled step_check per event).
        assert!(snap.get(ProfSpan::AuditHooks).ops > 0);
        // Ops counts are deterministic: a second profiled run agrees.
        let profiler2 = Profiler::enabled();
        let again = run_scenario(
            &scenario,
            &config,
            &RunCtx::new(&factory).with_profiler(&profiler2),
        )
        .unwrap();
        assert_eq!(plain, again);
        for span in ProfSpan::ALL {
            assert_eq!(
                snap.get(span).ops,
                profiler2.snapshot().get(span).ops,
                "{}: op counts must be deterministic",
                span.name()
            );
        }
        assert_eq!(
            snap.get(ProfSpan::Tenancy).ops,
            0,
            "an untenanted run never calls the fair-share layer"
        );
    }

    #[test]
    fn tenancy_span_times_the_fair_share_calls() {
        let scenario = small_scenario(ScenarioKind::HighVariability);
        let mut plan = hcloud_tenancy::TenancyPlan::zipf(20, 1.1, 32, 0.5);
        let ids: Vec<u64> = scenario.jobs().iter().map(|j| j.id.0).collect();
        plan.assign_jobs(&ids, &mut RngFactory::new(7).stream("tenant-assign"));
        let scenario = scenario.with_tenancy(plan);
        let config = RunConfig::new(StrategyId::HM);
        let factory = RngFactory::new(7);
        let plain = run_scenario(&scenario, &config, &RunCtx::new(&factory)).unwrap();
        let profiler = Profiler::enabled();
        let profiled = run_scenario(
            &scenario,
            &config,
            &RunCtx::new(&factory).with_profiler(&profiler),
        )
        .unwrap();
        assert_eq!(plain, profiled);
        // At least one gate per job, plus releases, drains and scans.
        let ops = profiler.snapshot().get(ProfSpan::Tenancy).ops;
        assert!(ops > scenario.jobs().len() as u64, "{ops} tenancy ops");
    }

    #[test]
    fn makespan_covers_all_outcomes() {
        let r = run(StrategyId::ODM, ScenarioKind::LowVariability);
        for o in &r.outcomes {
            assert!(o.finished <= r.makespan);
            assert!(o.started >= o.arrival);
            assert!((0.0..=1.0).contains(&o.normalized_perf));
        }
    }

    #[test]
    fn reserved_busy_never_exceeds_capacity() {
        let r = run(StrategyId::SR, ScenarioKind::Static);
        for &(_, v) in r.reserved_busy.points() {
            assert!(v >= -1e-9, "negative busy cores {v}");
            assert!(
                v <= r.reserved_cores as f64 + 1e-9,
                "busy {v} exceeds capacity {}",
                r.reserved_cores
            );
        }
    }
}
