//! The metric catalogue: every name the benchmark emits, with its unit,
//! direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json` mirrors these tables; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` per layer.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported with `--trace 0`, measured with tracing off. The `sim_*`
/// outcomes are simulated on the reference inputs whatever the seed, so
/// they carry no noise: their 1% bound is a tolerance on changed
/// simulated behaviour.
pub const END_TO_END: &[MetricDef] = &[
    e2e("jobs_per_s", "jobs/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("sim_cost_usd", "USD", Lower, 0.01),
    e2e("sim_perf_mean", "ratio", Higher, 0.01),
    e2e("sim_perf_p5", "ratio", Higher, 0.01),
];

/// Reported with `--trace 1`, from the traced rep and the micro-benches.
pub const PER_LAYER: &[MetricDef] = &[
    // Profiler spans and the wall clock they are reconciled against.
    layer("core.run.traced_ms", "ms", Lower),
    layer("sim.event.push_ops", "count", Lower),
    layer("sim.event.push_ms", "ms", Lower),
    layer("sim.event.pop_batches", "count", Lower),
    layer("sim.event.pop_ms", "ms", Lower),
    layer("sim.event.events_per_job", "events/job", Lower),
    layer("core.find_placement.ops", "count", Lower),
    layer("core.find_placement.ms", "ms", Lower),
    layer("core.find_placement.fastpath_frac", "ratio", Higher),
    layer("core.monitor.ticks", "count", Lower),
    layer("core.monitor.ms", "ms", Lower),
    layer("audit.step.ops", "count", Lower),
    layer("audit.step.ms", "ms", Lower),
    layer("core.run.unattributed_ms", "ms", Lower),
    layer("core.run.unattributed_frac", "ratio", Lower),
    layer("telemetry.overhead_frac", "ratio", Lower),
    // Spans the benchmark wraps around its own calls.
    layer("workloads.generate_ms", "ms", Lower),
    layer("tenancy.plan_ms", "ms", Lower),
    layer("pricing.cost_ms", "ms", Lower),
    // Run counters.
    layer("cloud.instances", "count", Lower),
    layer("cloud.peak_live_instances", "count", Lower),
    layer("cloud.od_acquired", "count", Lower),
    layer("cloud.acquire_retries", "count", Lower),
    layer("cloud.spot_terminations", "count", Lower),
    layer("core.reschedules", "count", Lower),
    layer("core.queued_jobs", "count", Lower),
    layer("tenancy.deferred_jobs", "count", Lower),
    layer("tenancy.drained_jobs", "count", Lower),
    layer("tenancy.preemptions", "count", Lower),
    layer("faults.work_lost_core_s", "core-s", Lower),
    // Micro-benches over each hot structure's public API.
    layer("sim.wheel.schedule_ns", "ns", Lower),
    layer("sim.wheel.drain_ns_per_event", "ns", Lower),
    layer("cloud.delivered_quality_ns", "ns", Lower),
    layer("core.monitor.record_q90_ns", "ns", Lower),
    layer("tenancy.gate_ns", "ns", Lower),
    layer("tenancy.drain_us", "us", Lower),
    layer("tenancy.starved_victims_us", "us", Lower),
    layer("audit.step_check_ns", "ns", Lower),
    layer("core.find_placement_ns", "ns", Lower),
    layer("quasar.estimate_us", "us", Lower),
    layer("core.scheduler_new_ms.SR", "ms", Lower),
    layer("core.scheduler_new_ms.OdF", "ms", Lower),
    layer("core.scheduler_new_ms.OdM", "ms", Lower),
    layer("core.scheduler_new_ms.HF", "ms", Lower),
    layer("core.scheduler_new_ms.HM", "ms", Lower),
    layer("core.scheduler_new_ms.RA", "ms", Lower),
    layer("core.scheduler_new_ms.QC", "ms", Lower),
];

/// Whether `name` is a legal metric or workload name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
            assert!(name.len() <= 64, "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn end_to_end_bounds_are_within_the_contract() {
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("core.scheduler_new_ms.OdF"));
        assert!(valid_name("fleet-odm"));
        assert!(!valid_name(""));
        assert!(!valid_name("jobs per s"));
        assert!(!valid_name("a/b"));
    }
}
