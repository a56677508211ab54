//! Frozen benchmark of the HCloud simulator: four workloads, end-to-end
//! host-time, memory and simulated-outcome metrics, and a per-layer
//! profile from a traced rep plus micro-benches. See `README.md`.

pub mod args;
pub mod metrics;
pub mod micro;
pub mod protocol;
pub mod stats;
pub mod workload;

use hcloud_json::{ObjectBuilder, Value};

use protocol::Report;

/// The result line: `correct`, `attempted` and `failed` (reps), and every
/// metric with its unit. `correct` also fails on a harness error. Metric
/// names carry a `<workload>.` prefix when more than one workload ran.
pub fn result_json(reports: &[Report]) -> Value {
    let prefixed = reports.len() > 1;
    let mut metrics = ObjectBuilder::new();
    for report in reports {
        for m in &report.metrics {
            let name = if prefixed {
                format!("{}.{}", report.workload.name(), m.def.name)
            } else {
                m.def.name.to_string()
            };
            metrics = metrics.set(
                &name,
                ObjectBuilder::new()
                    .set("value", m.value)
                    .set("unit", m.def.unit)
                    .build(),
            );
        }
    }
    let failed: usize = reports.iter().map(|r| r.failures.len()).sum();
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let errors = reports.iter().any(|r| !r.errors.is_empty());
    ObjectBuilder::new()
        .set("correct", failed == 0 && !errors)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics.build())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Failure, Workload};

    fn report(attempted: u64, failures: usize, errors: usize) -> Report {
        Report {
            workload: Workload::TenantZipf,
            attempted,
            failures: vec![Failure::new("completion", "rep"); failures],
            errors: vec![Failure::new("peak-rss", "harness"); errors],
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn counts(reports: &[Report]) -> (Option<bool>, Option<u64>, Option<u64>) {
        let line = result_json(reports);
        (
            line.get("correct").and_then(Value::as_bool),
            line.get("attempted").and_then(Value::as_u64),
            line.get("failed").and_then(Value::as_u64),
        )
    }

    #[test]
    fn failed_counts_reps_and_harness_errors_only_clear_correct() {
        assert_eq!(counts(&[report(7, 0, 0)]), (Some(true), Some(7), Some(0)));
        assert_eq!(counts(&[report(7, 2, 0)]), (Some(false), Some(7), Some(2)));
        assert_eq!(counts(&[report(0, 0, 1)]), (Some(false), Some(0), Some(0)));
        assert_eq!(
            counts(&[report(3, 1, 0), report(4, 0, 1)]),
            (Some(false), Some(7), Some(1))
        );
    }
}
