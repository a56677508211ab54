//! The measurement protocol of one workload, closed loop on one thread:
//! every rep starts when the previous one ends.
//!
//! 1. One untimed warm-up rep; its per-run digests are the reference.
//!    The simulated-outcome (`sim_*`) metrics come from one untimed rep
//!    on the reference inputs ([`REFERENCE_SEED`]): the warm-up itself
//!    when the seed is the reference seed.
//! 2. Timed reps with tracing off, until both `min_reps` reps and
//!    `seconds` of wall clock are done. Each rep regenerates the inputs,
//!    so set-up time is sampled as often as run time.
//! 3. With tracing on, one traced rep under an enabled `Profiler`, then
//!    the micro-benches, and the folded-stack profile.
//!
//! Every rep is checked: no panic, strict audit clean where attached,
//! every job completed, and digests equal to the warm-up's.

use std::path::PathBuf;
use std::time::Instant;

use hcloud::RunResult;
use hcloud_bench::fleet::run_digest;
use hcloud_pricing::{PricingModel, Rates};
use hcloud_sim::stats::percentile;
use hcloud_telemetry::{ProfSpan, ProfileSnapshot, Profiler};

use crate::metrics::{self, MetricDef};
use crate::micro;
use crate::stats::{median, quartiles};
use crate::workload::{run_cell, setup, Failure, Inputs, SetupTimes, Workload, REFERENCE_SEED};

/// How to measure.
#[derive(Debug, Clone)]
pub struct Protocol {
    pub seed: u64,
    /// Minimum wall-clock seconds of timed reps.
    pub seconds: f64,
    /// Minimum number of timed reps.
    pub min_reps: usize,
    /// Report the per-layer metrics of a traced rep instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Where traced runs write `<workload>.folded`.
    pub out_dir: PathBuf,
}

/// One reported metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub def: &'static MetricDef,
    pub value: f64,
}

/// What one workload's run produced.
#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    /// Reps run, warm-up and traced rep included.
    pub attempted: u64,
    /// One per failed rep.
    pub failures: Vec<Failure>,
    /// Failures of the harness rather than of a rep: reading or resetting
    /// the peak RSS, writing the folded profile.
    pub errors: Vec<Failure>,
    /// Every declared metric for the run's mode, in declared order;
    /// empty when the warm-up failed.
    pub metrics: Vec<Metric>,
    /// Unbounded context lines for stderr: samples, counts, digests.
    pub notes: Vec<String>,
}

/// One executed rep.
struct Rep {
    inputs: Inputs,
    setup: SetupTimes,
    /// Host seconds inside `run_scenario`, summed over the rep's runs.
    run_s: f64,
    results: Vec<RunResult>,
}

impl Rep {
    fn digests(&self) -> Vec<String> {
        self.results.iter().map(run_digest).collect()
    }
}

fn run_rep(workload: Workload, seed: u64, profiler: Option<&Profiler>) -> Result<Rep, Failure> {
    let (inputs, setup) = setup(workload, seed);
    let mut run_s = 0.0;
    let mut results = Vec::with_capacity(inputs.cells.len());
    for cell in &inputs.cells {
        let run = run_cell(&inputs, cell, seed, profiler)?;
        run_s += run.run_s;
        results.push(run.result);
    }
    Ok(Rep {
        inputs,
        setup,
        run_s,
        results,
    })
}

/// Runs a rep and checks its digests against the warm-up's.
fn checked_rep(
    workload: Workload,
    seed: u64,
    profiler: Option<&Profiler>,
    reference: &[String],
) -> Result<Rep, Failure> {
    let rep = run_rep(workload, seed, profiler)?;
    let digests = rep.digests();
    if digests != reference {
        return Err(Failure::new(
            "determinism",
            format!("digests {digests:?} differ from the warm-up's {reference:?}"),
        ));
    }
    Ok(rep)
}

/// The most instances alive at once in any one run.
fn peak_live_instances(results: &[RunResult]) -> usize {
    results
        .iter()
        .map(|r| {
            let mut edges: Vec<(u64, i64)> = r
                .usage_records
                .iter()
                .flat_map(|u| [(u.from.as_micros(), 1), (u.to.as_micros(), -1)])
                .collect();
            // Releases sort before acquisitions at the same instant.
            edges.sort_unstable();
            let mut live = 0i64;
            let mut peak = 0i64;
            for (_, delta) in edges {
                live += delta;
                peak = peak.max(live);
            }
            peak as usize
        })
        .max()
        .unwrap_or(0)
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, Failure> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Failure::new("peak-rss", format!("read /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| Failure::new("peak-rss", "no VmHWM line in /proc/self/status"))
}

/// Resets `VmHWM` to the current resident set, so the next workload's
/// peak is its own.
fn reset_peak_rss() -> Result<(), Failure> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| Failure::new("peak-rss", format!("reset via /proc/self/clear_refs: {e}")))
}

/// Metric values keyed by name, ordered by the declared tables on output.
#[derive(Default)]
struct Values(Vec<(String, f64)>);

impl Values {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// Exactly the declared metrics, in declared order.
    ///
    /// # Panics
    /// Panics if a declared metric was not measured or an undeclared one
    /// was: either is a bug in this benchmark, not in the simulator.
    fn into_metrics(self, declared: &'static [MetricDef]) -> Vec<Metric> {
        for (name, _) in &self.0 {
            assert!(
                declared.iter().any(|d| d.name == name),
                "metric {name} is not declared"
            );
        }
        declared
            .iter()
            .map(|def| {
                let value = self
                    .0
                    .iter()
                    .find(|(n, _)| n == def.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", def.name))
                    .1;
                Metric { def, value }
            })
            .collect()
    }
}

fn spans_ms(snapshot: &ProfileSnapshot, span: ProfSpan) -> f64 {
    snapshot.get(span).nanos as f64 / 1e6
}

/// Per-layer values from the traced rep's profile and run counters.
fn traced_values(
    values: &mut Values,
    rep: &Rep,
    snapshot: &ProfileSnapshot,
    untraced_run_s: f64,
    cost_s: f64,
) {
    let traced_ms = rep.run_s * 1e3;
    let spans_total: f64 = ProfSpan::ALL.iter().map(|&s| spans_ms(snapshot, s)).sum();
    let jobs: usize = rep.results.iter().map(|r| r.outcomes.len()).sum();
    let sum = |f: fn(&RunResult) -> f64| rep.results.iter().map(f).sum::<f64>();
    let events = sum(|r| r.counters.events_processed as f64);
    let placement_ops = snapshot.get(ProfSpan::FindPlacement).ops as f64;

    values.set("core.run.traced_ms", traced_ms);
    values.set(
        "sim.event.push_ops",
        snapshot.get(ProfSpan::EventPush).ops as f64,
    );
    values.set("sim.event.push_ms", spans_ms(snapshot, ProfSpan::EventPush));
    values.set(
        "sim.event.pop_batches",
        snapshot.get(ProfSpan::EventPop).ops as f64,
    );
    values.set("sim.event.pop_ms", spans_ms(snapshot, ProfSpan::EventPop));
    values.set("sim.event.events_per_job", events / jobs.max(1) as f64);
    values.set("core.find_placement.ops", placement_ops);
    values.set(
        "core.find_placement.ms",
        spans_ms(snapshot, ProfSpan::FindPlacement),
    );
    values.set(
        "core.find_placement.fastpath_frac",
        sum(|r| r.counters.placement_fastpath as f64) / placement_ops.max(1.0),
    );
    values.set(
        "core.monitor.ticks",
        snapshot.get(ProfSpan::MonitorQuantiles).ops as f64,
    );
    values.set(
        "core.monitor.ms",
        spans_ms(snapshot, ProfSpan::MonitorQuantiles),
    );
    values.set(
        "audit.step.ops",
        snapshot.get(ProfSpan::AuditHooks).ops as f64,
    );
    values.set("audit.step.ms", spans_ms(snapshot, ProfSpan::AuditHooks));
    values.set("core.run.unattributed_ms", traced_ms - spans_total);
    values.set("core.run.unattributed_frac", 1.0 - spans_total / traced_ms);
    values.set("telemetry.overhead_frac", rep.run_s / untraced_run_s - 1.0);
    values.set("workloads.generate_ms", rep.setup.generate_s * 1e3);
    values.set("tenancy.plan_ms", rep.setup.tenancy_s * 1e3);
    values.set("pricing.cost_ms", cost_s * 1e3);
    values.set("cloud.instances", sum(|r| r.usage_records.len() as f64));
    values.set(
        "cloud.peak_live_instances",
        peak_live_instances(&rep.results) as f64,
    );
    values.set("cloud.od_acquired", sum(|r| r.counters.od_acquired as f64));
    values.set(
        "cloud.acquire_retries",
        sum(|r| r.counters.acquire_retries as f64),
    );
    values.set(
        "cloud.spot_terminations",
        sum(|r| r.counters.spot_terminations as f64),
    );
    values.set("core.reschedules", sum(|r| r.counters.reschedules as f64));
    values.set("core.queued_jobs", sum(|r| r.counters.queued_jobs as f64));
    values.set(
        "tenancy.deferred_jobs",
        sum(|r| r.counters.tenant_deferred_jobs as f64),
    );
    values.set(
        "tenancy.drained_jobs",
        sum(|r| r.counters.tenant_drained_jobs as f64),
    );
    values.set(
        "tenancy.preemptions",
        sum(|r| r.counters.tenant_preemptions as f64),
    );
    values.set(
        "faults.work_lost_core_s",
        sum(|r| r.counters.work_lost_core_secs),
    );
}

/// The traced rep as a folded-stack profile (one `stack value` line per
/// leaf, values in µs). The `run_scenario` leaves, `other` included,
/// sum to the traced `run_scenario` wall clock.
fn folded(setup: &SetupTimes, snapshot: &ProfileSnapshot, run_s: f64, cost_s: f64) -> String {
    let us = |s: f64| (s * 1e6).round() as i64;
    let mut lines = vec![
        ("setup;generate".to_string(), us(setup.generate_s)),
        ("setup;tenancy".to_string(), us(setup.tenancy_s)),
    ];
    let mut attributed = 0;
    for span in ProfSpan::ALL {
        let v = us(snapshot.get(span).nanos as f64 / 1e9);
        attributed += v;
        lines.push((format!("run_scenario;{}", span.name()), v));
    }
    lines.push(("run_scenario;other".to_string(), us(run_s) - attributed));
    lines.push(("cost".to_string(), us(cost_s)));
    lines
        .iter()
        .map(|(stack, v)| format!("{stack} {v}\n"))
        .collect()
}

/// The simulated outcomes of a rep: Σ cost of its runs, and the mean and
/// 5th percentile (the Fig. 14–16 metric) of normalized performance over
/// every job of every run.
fn sim_outcomes(values: &mut Values, results: &[RunResult]) {
    let rates = Rates::default();
    let model = PricingModel::aws();
    let cost: f64 = results.iter().map(|r| r.cost(&rates, &model).total()).sum();
    let perf: Vec<f64> = results
        .iter()
        .flat_map(|r| r.normalized_perf(None))
        .collect();
    values.set("sim_cost_usd", cost);
    values.set(
        "sim_perf_mean",
        perf.iter().sum::<f64>() / perf.len().max(1) as f64,
    );
    values.set(
        "sim_perf_p5",
        percentile(&perf, 5.0).expect("every run completes at least one job"),
    );
}

/// One line on what a rep simulated: runs, jobs, events and digests.
fn rep_summary(label: &str, rep: &Rep) -> String {
    let digests = rep.digests();
    let jobs: usize = rep.results.iter().map(|r| r.outcomes.len()).sum();
    let events: usize = rep
        .results
        .iter()
        .map(|r| r.counters.events_processed)
        .sum();
    format!(
        "{label}: {} run(s), {jobs} jobs, {events} events, digest {}",
        digests.len(),
        if digests.len() == 1 {
            digests[0].clone()
        } else {
            format!("{digests:?}")
        }
    )
}

/// Runs `workload` under `protocol`. `reset_rss` resets the peak-RSS
/// counter first, when an earlier workload ran in this process.
pub fn run_workload(workload: Workload, protocol: &Protocol, reset_rss: bool) -> Report {
    let seed = protocol.seed;
    let mut report = Report {
        workload,
        attempted: 0,
        failures: Vec::new(),
        errors: Vec::new(),
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    if reset_rss {
        if let Err(e) = reset_peak_rss() {
            report.errors.push(e);
            return report;
        }
    }

    report.attempted += 1;
    let warm = match run_rep(workload, seed, None) {
        Ok(rep) => rep,
        Err(f) => {
            report.failures.push(f);
            return report;
        }
    };
    let reference = warm.digests();
    let jobs: usize = warm.results.iter().map(|r| r.outcomes.len()).sum();
    let peak_live = peak_live_instances(&warm.results);
    let mut values = Values::default();
    // The warm-up's peak: one rep's allocations in a fresh process (or
    // after the reset), unlike later reps whose heaps carry fragmentation
    // from however many reps came before.
    match peak_rss_mb() {
        Ok(mb) => values.set("peak_rss_mb", mb),
        Err(e) => {
            report.errors.push(e);
            return report;
        }
    }
    report
        .notes
        .push(rep_summary(&format!("seed {seed}"), &warm));
    // The simulated outcomes always come from the reference inputs, so
    // every run of a workload, whatever its seed, compares the same
    // simulation: they move only when the simulated behaviour does.
    if seed == REFERENCE_SEED {
        sim_outcomes(&mut values, &warm.results);
        drop(warm);
    } else {
        drop(warm);
        report.attempted += 1;
        match run_rep(workload, REFERENCE_SEED, None) {
            Ok(rep) => {
                report.notes.push(rep_summary(
                    &format!("reference seed {REFERENCE_SEED}"),
                    &rep,
                ));
                sim_outcomes(&mut values, &rep.results);
            }
            Err(f) => {
                report.failures.push(f);
                return report;
            }
        }
    }

    let mut run_samples = Vec::new();
    let mut setup_samples = Vec::new();
    let mut reps = 0usize;
    let start = Instant::now();
    while reps < protocol.min_reps || start.elapsed().as_secs_f64() < protocol.seconds {
        reps += 1;
        report.attempted += 1;
        match checked_rep(workload, seed, None, &reference) {
            Ok(rep) => {
                run_samples.push(rep.run_s);
                setup_samples.push(rep.setup.total());
            }
            Err(f) => report.failures.push(f),
        }
    }
    if run_samples.is_empty() {
        return report;
    }
    let run_s = median(&run_samples);
    let (q1, q3) = quartiles(&run_samples);
    report.notes.push(format!(
        "wall_s median {run_s:.6} q1 {q1:.6} q3 {q3:.6} over {} reps: {:?}",
        run_samples.len(),
        run_samples
    ));
    let (s1, s3) = quartiles(&setup_samples);
    report.notes.push(format!(
        "setup_s median {:.6} q1 {s1:.6} q3 {s3:.6}",
        median(&setup_samples)
    ));
    values.set("jobs_per_s", jobs as f64 / run_s);
    values.set("setup_s", median(&setup_samples));

    if !protocol.trace {
        report.metrics = values.into_metrics(metrics::END_TO_END);
        return report;
    }

    report.attempted += 1;
    let profiler = Profiler::enabled();
    let rep = match checked_rep(workload, seed, Some(&profiler), &reference) {
        Ok(rep) => rep,
        Err(f) => {
            report.failures.push(f);
            return report;
        }
    };
    let rates = Rates::default();
    let model = PricingModel::aws();
    let start = Instant::now();
    for r in &rep.results {
        std::hint::black_box(r.cost(&rates, &model));
    }
    let cost_s = start.elapsed().as_secs_f64();
    let snapshot = profiler.snapshot();
    let mut values = Values::default();
    traced_values(&mut values, &rep, &snapshot, run_s, cost_s);
    for (name, value) in micro::run_all(&rep.inputs.scenarios[0], peak_live, seed) {
        values.set(name, value);
    }
    let path = protocol.out_dir.join(format!("{}.folded", workload.name()));
    let written = std::fs::create_dir_all(&protocol.out_dir)
        .and_then(|()| std::fs::write(&path, folded(&rep.setup, &snapshot, rep.run_s, cost_s)));
    match written {
        Ok(()) => report
            .notes
            .push(format!("profile written to {}", path.display())),
        Err(e) => report.errors.push(Failure::new(
            "folded-export",
            format!("write {}: {e}", path.display()),
        )),
    }
    report.metrics = values.into_metrics(metrics::PER_LAYER);
    report
}
