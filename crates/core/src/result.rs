//! Run outputs and the aggregations behind the paper's figures.

use hcloud_cloud::UsageRecord;
use hcloud_pricing::{run_cost, CostBreakdown, PricingModel, Rates};
use hcloud_sim::series::StepSeries;
use hcloud_sim::stats::{percentile, Boxplot};
use hcloud_sim::{SimDuration, SimTime};
use hcloud_tenancy::{jain, TenantStat};
use hcloud_workloads::{AppClass, JobId};

use crate::strategy::StrategyRef;

/// Per-job outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job.
    pub id: JobId,
    /// Its application class.
    pub class: AppClass,
    /// Submission time.
    pub arrival: SimTime,
    /// When it began executing.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
    /// Whether it ran on reserved resources.
    pub on_reserved: bool,
    /// Cores allocated to it.
    pub cores: u32,
    /// Batch jobs: completion time (arrival → finish).
    pub completion: Option<SimDuration>,
    /// Latency-critical jobs: lifetime-weighted mean p99 latency (µs).
    pub p99_latency_us: Option<f64>,
    /// Latency-critical jobs: the isolation baseline p99 (µs).
    pub isolation_p99_us: Option<f64>,
    /// Performance normalized to isolated execution, in `(0, 1]`.
    pub normalized_perf: f64,
    /// Time spent queued for reserved capacity.
    pub queue_delay: SimDuration,
    /// Time spent waiting for instance spin-up.
    pub spinup_delay: SimDuration,
    /// Whether the QoS monitor rescheduled the job.
    pub rescheduled: bool,
}

impl JobOutcome {
    /// Batch jobs report completion time; LC jobs report latency.
    pub fn is_latency_critical(&self) -> bool {
        self.p99_latency_us.is_some()
    }
}

/// Event counters for Section 5.2's overhead accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunCounters {
    /// Jobs that paid the profiling run (first of their class).
    pub profiled: usize,
    /// Classification invocations.
    pub classified: usize,
    /// QoS-triggered reschedules.
    pub reschedules: usize,
    /// On-demand instances acquired.
    pub od_acquired: usize,
    /// On-demand instances released immediately after use because their
    /// delivered quality was poor.
    pub od_released_immediately: usize,
    /// Jobs that waited in the reserved queue.
    pub queued_jobs: usize,
    /// Spot instances acquired (Section 5.5 extension).
    pub spot_acquired: usize,
    /// Jobs evacuated because the spot market outbid their instance.
    pub spot_terminations: usize,
    /// Cross-cluster dataset transfers (data-locality extension).
    pub data_transfers: usize,
    /// Total gigabytes moved across the inter-cluster link.
    pub data_transferred_gb: f64,
    /// Events processed by the discrete-event loop — the experiment
    /// engine's per-run work telemetry.
    pub events_processed: usize,
    /// Spin-up attempts abandoned after exceeding the hard timeout
    /// (fault injection).
    pub spinup_timeouts: usize,
    /// Transient out-of-capacity errors on acquisition (fault injection).
    pub capacity_errors: usize,
    /// Acquisition attempts retried after an injected failure.
    pub acquire_retries: usize,
    /// Acquisitions that fell back to the standard family after repeated
    /// failures on an optimized family.
    pub family_fallbacks: usize,
    /// Spot terminations caused by an injected preemption storm (as
    /// opposed to the regular price path).
    pub storm_preemptions: usize,
    /// Acquired instances carrying an injected performance fault.
    pub degraded_instances: usize,
    /// Monitor ticks skipped because the QoS signal was dropped.
    pub monitor_dropout_ticks: usize,
    /// Times the dynamic policy degraded to the static soft-limit rule
    /// because the monitor signal dropped out.
    pub policy_fallbacks: usize,
    /// Batch work (core-seconds) lost to preemptions: progress since the
    /// last checkpoint tick that had to be redone.
    pub work_lost_core_secs: f64,
    /// Placement queries answered straight from a maintained secondary
    /// index (on-demand pool hits and idle-retention reuse) instead of a
    /// scan over every instance ever acquired.
    pub placement_fastpath: usize,
    /// Incremental maintenance operations on the placement indices
    /// (entries added or dropped as instances change state) — the cost
    /// side of the fast path.
    pub index_rebuilds: usize,
    /// Jobs held at the tenancy gate (multi-tenant runs only).
    pub tenant_deferred_jobs: usize,
    /// Jobs the DRR drain released from tenant queues into the pool.
    pub tenant_drained_jobs: usize,
    /// Cross-queue preemptions executed for starved guaranteed queues.
    pub tenant_preemptions: usize,
    /// Admissions above a tenant's guarantee (elastic borrowing).
    pub tenant_borrowed_admissions: usize,
}

/// Why a job was placed where it was — the dynamic policy's audit trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementReason {
    /// Reserved pool below the soft limit: everything goes reserved.
    BelowSoftLimit,
    /// The job's quality requirement exceeded the on-demand type's Q90.
    QualityNeedsReserved,
    /// The on-demand type's Q90 satisfied the job.
    OnDemandGoodEnough,
    /// Above the hard limit with a short estimated wait: queued.
    QueuedAtHardLimit,
    /// Above the hard limit with a long wait: escaped to a large
    /// on-demand instance.
    EscapedToLargeOnDemand,
    /// A non-dynamic policy or strategy fixed the side.
    FixedByStrategy,
    /// Rode the spot market (extension).
    Spot,
    /// Data-aware placement pulled the job to its dataset's side.
    DataLocality,
}

impl std::fmt::Display for PlacementReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlacementReason::BelowSoftLimit => "below-soft-limit",
            PlacementReason::QualityNeedsReserved => "quality-needs-reserved",
            PlacementReason::OnDemandGoodEnough => "on-demand-good-enough",
            PlacementReason::QueuedAtHardLimit => "queued-at-hard-limit",
            PlacementReason::EscapedToLargeOnDemand => "escaped-to-large-od",
            PlacementReason::FixedByStrategy => "fixed-by-strategy",
            PlacementReason::Spot => "spot",
            PlacementReason::DataLocality => "data-locality",
        };
        f.write_str(s)
    }
}

/// One queueing-time estimate vs its measured outcome (Figure 9 right).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaitSample {
    /// Requested core size.
    pub size: u32,
    /// The estimator's prediction at enqueue time (if it was warm).
    pub estimated: Option<SimDuration>,
    /// The measured wait.
    pub actual: SimDuration,
}

/// Per-instance utilization sample (Figures 19–20).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSample {
    /// Index of the instance in acquisition order.
    pub instance_index: usize,
    /// Whether it is reserved.
    pub reserved: bool,
    /// Sample time.
    pub time: SimTime,
    /// Busy-core fraction in `[0, 1]`.
    pub utilization: f64,
}

/// Everything a scenario run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The strategy that ran.
    pub strategy: StrategyRef,
    /// Per-job outcomes, in arrival order.
    pub outcomes: Vec<JobOutcome>,
    /// Billing records.
    pub usage_records: Vec<UsageRecord>,
    /// When the last job finished.
    pub makespan: SimTime,
    /// Reserved cores provisioned.
    pub reserved_cores: u32,
    /// Allocated on-demand cores over time.
    pub od_allocated: StepSeries,
    /// Cores busy on the reserved pool over time.
    pub reserved_busy: StepSeries,
    /// The dynamic policy's soft-limit trace (Figure 9 left).
    pub soft_limit_trace: Vec<(SimTime, f64)>,
    /// Queue-wait estimates vs measurements (Figure 9 right).
    pub wait_samples: Vec<WaitSample>,
    /// Optional per-instance utilization samples (Figures 19–20).
    pub utilization_samples: Vec<UtilizationSample>,
    /// Overhead counters (Section 5.2).
    pub counters: RunCounters,
    /// Per-tenant fair-share statistics, ascending by tenant id (empty
    /// unless the scenario carries a tenancy plan).
    pub tenant_stats: Vec<TenantStat>,
}

impl RunResult {
    /// Normalized-performance values, optionally filtered to jobs on
    /// reserved (`Some(true)`) or on-demand (`Some(false)`) resources.
    pub fn normalized_perf(&self, on_reserved: Option<bool>) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| on_reserved.is_none_or(|r| o.on_reserved == r))
            .map(|o| o.normalized_perf)
            .collect()
    }

    /// The p95 of normalized performance — the metric of Figures 14–16.
    /// (The paper plots the 95th percentile of *degradation*, i.e. the
    /// value the slowest 5% of jobs still achieve; that is the 5th
    /// percentile of normalized performance.)
    pub fn p95_normalized_perf(&self) -> f64 {
        percentile(&self.normalized_perf(None), 5.0).unwrap_or(0.0)
    }

    /// Completion-time boxplot over batch jobs, in minutes (Figures 4a,
    /// 10a).
    pub fn batch_performance_boxplot(&self) -> Option<Boxplot> {
        let values: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| o.completion)
            .map(|d| d.as_mins_f64())
            .collect();
        Boxplot::from_values(&values)
    }

    /// p99-latency boxplot over latency-critical jobs, in microseconds
    /// (Figures 4b, 10b).
    pub fn lc_latency_boxplot(&self) -> Option<Boxplot> {
        let values: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| o.p99_latency_us)
            .collect();
        Boxplot::from_values(&values)
    }

    /// Mean normalized performance over all jobs.
    pub fn mean_normalized_perf(&self) -> f64 {
        let v = self.normalized_perf(None);
        if v.is_empty() {
            return 0.0;
        }
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// Mean *degradation factor* over all jobs: how many times slower
    /// than isolation the average job ran (completion-time ratio for
    /// batch, p99-latency ratio for latency-critical jobs). This is the
    /// aggregation behind the paper's "2.2x worse than SR" /
    /// "2.1x better than on-demand" headline numbers, where memcached's
    /// latency blowups weigh in at their full magnitude.
    pub fn mean_degradation(&self) -> f64 {
        let v = self.normalized_perf(None);
        if v.is_empty() {
            return 1.0;
        }
        v.iter().map(|p| 1.0 / p.max(1e-3)).sum::<f64>() / v.len() as f64
    }

    /// Time-weighted mean utilization of the reserved pool over `[0,
    /// makespan]` (the paper: "reserved resources are utilized at 80% on
    /// average in steady-state").
    pub fn mean_reserved_utilization(&self) -> Option<f64> {
        if self.reserved_cores == 0 {
            return None;
        }
        let busy = self
            .reserved_busy
            .time_weighted_mean(SimTime::ZERO, self.makespan)?;
        Some(busy / self.reserved_cores as f64)
    }

    /// Bills the run under `model` (Figures 5, 11, 12, 17).
    pub fn cost(&self, rates: &Rates, model: &PricingModel) -> CostBreakdown {
        run_cost(
            &self.usage_records,
            rates,
            model,
            self.makespan.saturating_since(SimTime::ZERO),
        )
    }

    /// Dollars saved by running spot work at the market multiplier
    /// instead of the full on-demand rate: Σ over spot usage records of
    /// `on_demand_hourly × hours × (1 − rate_multiplier)`. Zero when the
    /// spot market is off.
    pub fn spot_savings(&self, rates: &Rates) -> f64 {
        // `+ 0.0` normalizes the empty sum: f64's Sum identity is -0.0,
        // which would otherwise leak a "-0" into JSON artifacts.
        self.usage_records
            .iter()
            .filter(|u| u.spot)
            .map(|u| {
                rates.on_demand_hourly(u.itype)
                    * u.duration().as_hours_f64()
                    * (1.0 - u.rate_multiplier)
            })
            .sum::<f64>()
            + 0.0
    }

    /// Instance-hours that ran on spot capacity.
    pub fn spot_hours(&self) -> f64 {
        self.usage_records
            .iter()
            .filter(|u| u.spot)
            .map(|u| u.duration().as_hours_f64())
            .sum::<f64>()
            + 0.0
    }

    /// Fraction of jobs that were rescheduled (Section 5.2: 6.1% of OdM
    /// jobs on average).
    pub fn reschedule_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.rescheduled).count() as f64 / self.outcomes.len() as f64
    }

    /// Jain fairness index over each tenant's admitted-job count — 1.0
    /// for an untenanted run (no tenants) or a perfectly even spread.
    pub fn tenant_admission_fairness(&self) -> f64 {
        let admitted: Vec<f64> = self
            .tenant_stats
            .iter()
            .map(|s| s.admitted as f64)
            .collect();
        jain(&admitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, perf: f64, reserved: bool, lc: bool) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            class: if lc {
                AppClass::Memcached
            } else {
                AppClass::SparkBatch
            },
            arrival: SimTime::ZERO,
            started: SimTime::ZERO,
            finished: SimTime::from_secs(100),
            on_reserved: reserved,
            cores: 2,
            completion: (!lc).then(|| SimDuration::from_secs(100)),
            p99_latency_us: lc.then_some(800.0),
            isolation_p99_us: lc.then_some(600.0),
            normalized_perf: perf,
            queue_delay: SimDuration::ZERO,
            spinup_delay: SimDuration::ZERO,
            rescheduled: id.is_multiple_of(2),
        }
    }

    fn result(outcomes: Vec<JobOutcome>) -> RunResult {
        RunResult {
            strategy: crate::strategy::StrategyId::HM.into(),
            outcomes,
            usage_records: vec![],
            makespan: SimTime::from_secs(7200),
            reserved_cores: 32,
            od_allocated: StepSeries::new(0.0),
            reserved_busy: {
                let mut s = StepSeries::new(0.0);
                s.record(SimTime::ZERO, 16.0);
                s
            },
            soft_limit_trace: vec![],
            wait_samples: vec![],
            utilization_samples: vec![],
            counters: RunCounters::default(),
            tenant_stats: vec![],
        }
    }

    #[test]
    fn filters_by_placement() {
        let r = result(vec![
            outcome(0, 0.9, true, false),
            outcome(1, 0.5, false, false),
        ]);
        assert_eq!(r.normalized_perf(Some(true)), vec![0.9]);
        assert_eq!(r.normalized_perf(Some(false)), vec![0.5]);
        assert_eq!(r.normalized_perf(None).len(), 2);
    }

    #[test]
    fn p95_normalized_is_low_tail() {
        let outcomes: Vec<JobOutcome> = (0..100)
            .map(|i| outcome(i, if i < 10 { 0.2 } else { 0.9 }, true, false))
            .collect();
        let r = result(outcomes);
        assert!(r.p95_normalized_perf() < 0.5);
    }

    #[test]
    fn boxplots_split_by_metric() {
        let r = result(vec![
            outcome(0, 0.9, true, false),
            outcome(1, 0.8, true, true),
        ]);
        assert_eq!(
            r.batch_performance_boxplot()
                .expect("one batch outcome present")
                .count,
            1
        );
        assert_eq!(
            r.lc_latency_boxplot()
                .expect("one LC outcome present")
                .count,
            1
        );
    }

    #[test]
    fn reserved_utilization_uses_busy_fraction() {
        let r = result(vec![]);
        let u = r
            .mean_reserved_utilization()
            .expect("fixture provisions reserved cores");
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn reschedule_rate_counts() {
        let r = result((0..10).map(|i| outcome(i, 0.9, true, false)).collect());
        assert!((r.reschedule_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn no_reserved_means_no_utilization() {
        let mut r = result(vec![]);
        r.reserved_cores = 0;
        assert_eq!(r.mean_reserved_utilization(), None);
    }

    #[test]
    fn tenant_fairness_defaults_to_one() {
        let mut r = result(vec![]);
        assert!((r.tenant_admission_fairness() - 1.0).abs() < 1e-12);
        let even = TenantStat {
            id: 0,
            admitted: 10,
            ..TenantStat::default()
        };
        let starved = TenantStat {
            id: 1,
            admitted: 0,
            ..TenantStat::default()
        };
        r.tenant_stats = vec![even, starved];
        assert!((r.tenant_admission_fairness() - 0.5).abs() < 1e-12);
    }
}
