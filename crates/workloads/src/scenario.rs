//! The three workload scenarios of Figure 3 / Table 2.
//!
//! | | Static | Low Var | High Var |
//! |---|---|---|---|
//! | max:min resources | 1.1× | 1.5× | 6.2× |
//! | batch:low-latency in jobs | 4.2× | 3.6× | 4.1× |
//! | batch:low-latency in cores | 1.4× | 1.4× | 1.5× |
//! | inter-arrival times | 1.0 s | 1.0 s | 1.0 s |
//! | ideal completion time | ~2.1 h | ~2.0 h | ~2.0 h |
//!
//! Each scenario defines an analytic **target required-cores curve**
//! (piecewise linear, plotted by the Figure 3 binary) and a deterministic
//! **job-stream generator** that tracks it: jobs arrive with exponential
//! 1-second inter-arrival times, and a feedback term stretches or shrinks
//! job durations so the ideal concurrent core demand follows the curve.
//! The generated stream is independent of any provisioning strategy.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hcloud_sim::dist::{Exponential, LogNormal, Sample, Uniform};
use hcloud_sim::rng::RngFactory;
use hcloud_sim::series::StepSeries;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_tenancy::TenancyPlan;
use rand::Rng;

use crate::job::{AppClass, JobId, JobKind, JobSpec};
use crate::latency::LatencyModel;

/// Which of the paper's three scenarios to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Minimal load variability; ~854 cores in steady state.
    Static,
    /// Mild long-term variability: 605 cores rising to 900 mid-scenario,
    /// mostly from increased latency-critical load.
    LowVariability,
    /// Large short-term load changes: 210–1226 cores, shorter jobs.
    HighVariability,
}

impl ScenarioKind {
    /// All three scenarios.
    pub const ALL: [ScenarioKind; 3] = [
        ScenarioKind::Static,
        ScenarioKind::LowVariability,
        ScenarioKind::HighVariability,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Static => "Static",
            ScenarioKind::LowVariability => "Low Variability",
            ScenarioKind::HighVariability => "High Variability",
        }
    }

    /// The piecewise-linear target curve `(minute, cores)`.
    fn curve_points(self) -> &'static [(f64, f64)] {
        match self {
            ScenarioKind::Static => &[
                (0.0, 830.0),
                (15.0, 870.0),
                (30.0, 845.0),
                (45.0, 880.0),
                (60.0, 850.0),
                (75.0, 885.0),
                (90.0, 840.0),
                (105.0, 875.0),
                (120.0, 845.0),
            ],
            ScenarioKind::LowVariability => &[
                (0.0, 605.0),
                (35.0, 615.0),
                (45.0, 760.0),
                (55.0, 900.0),
                (75.0, 890.0),
                (90.0, 650.0),
                (120.0, 605.0),
            ],
            ScenarioKind::HighVariability => &[
                (0.0, 280.0),
                (8.0, 198.0),
                (16.0, 300.0),
                (20.0, 560.0),
                (24.0, 570.0),
                (28.0, 330.0),
                (33.0, 760.0),
                (41.0, 1226.0),
                (49.0, 1120.0),
                (56.0, 700.0),
                (60.0, 320.0),
                (67.0, 250.0),
                (71.0, 620.0),
                (76.0, 640.0),
                (80.0, 280.0),
                (88.0, 470.0),
                (94.0, 490.0),
                (100.0, 210.0),
                (108.0, 330.0),
                (120.0, 260.0),
            ],
        }
    }

    /// Fraction of arriving jobs that are batch (Table 2 job ratios:
    /// 4.2×, 3.6×, 4.1×).
    pub fn batch_job_fraction(self) -> f64 {
        let ratio = match self {
            ScenarioKind::Static => 4.2,
            ScenarioKind::LowVariability => 3.6,
            ScenarioKind::HighVariability => 4.1,
        };
        ratio / (1.0 + ratio)
    }

    /// Fraction of required cores serving batch work (Table 2 core ratios:
    /// 1.4×, 1.4×, 1.5×).
    pub fn batch_core_fraction(self) -> f64 {
        let ratio = match self {
            ScenarioKind::Static | ScenarioKind::LowVariability => 1.4,
            ScenarioKind::HighVariability => 1.5,
        };
        ratio / (1.0 + ratio)
    }

    /// The target required cores at time `t` (linear interpolation of the
    /// scenario curve).
    pub fn target_cores(self, t: SimTime) -> f64 {
        let m = t.as_mins_f64();
        let pts = self.curve_points();
        if m <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let (m0, c0) = w[0];
            let (m1, c1) = w[1];
            if m <= m1 {
                let f = (m - m0) / (m1 - m0);
                return c0 + f * (c1 - c0);
            }
        }
        pts.last().expect("curve non-empty").1
    }
}

/// A custom piecewise-linear demand curve: `(minute, cores)` knots in
/// *real* scenario time (unlike the built-in [`ScenarioKind`] curves,
/// which are authored on a virtual 120-minute axis and stretched to the
/// configured duration). This is what the long-horizon scenario DSL
/// compiles its diurnal / flash-crowd / batch-burst shapes into.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandCurve {
    points: Vec<(f64, f64)>,
}

impl DemandCurve {
    /// Builds a curve from `(minute, cores)` knots. Errors (naming the
    /// offending knot) on fewer than two knots, non-finite values,
    /// negative cores, or non-increasing minutes.
    pub fn new(points: Vec<(f64, f64)>) -> Result<DemandCurve, String> {
        if points.len() < 2 {
            return Err(format!(
                "demand curve needs at least 2 points, got {}",
                points.len()
            ));
        }
        for (i, &(m, c)) in points.iter().enumerate() {
            if !m.is_finite() || !c.is_finite() {
                return Err(format!("demand curve point {i} is not finite: ({m}, {c})"));
            }
            if c < 0.0 {
                return Err(format!("demand curve point {i} has negative cores: {c}"));
            }
        }
        for (i, w) in points.windows(2).enumerate() {
            if w[1].0 <= w[0].0 {
                return Err(format!(
                    "demand curve minutes must be strictly increasing: point {} ({}) \
                     does not follow point {i} ({})",
                    i + 1,
                    w[1].0,
                    w[0].0
                ));
            }
        }
        Ok(DemandCurve { points })
    }

    /// The `(minute, cores)` knots.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Linear interpolation at `t`, holding the first value before the
    /// first knot and the final value past the last.
    pub fn cores_at(&self, t: SimTime) -> f64 {
        let m = t.as_mins_f64();
        let pts = &self.points;
        if m <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let (m0, c0) = w[0];
            let (m1, c1) = w[1];
            if m <= m1 {
                let f = (m - m0) / (m1 - m0);
                return c0 + f * (c1 - c0);
            }
        }
        pts.last().expect("curve non-empty").1
    }
}

/// Configuration for scenario generation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Which scenario. With a custom [`DemandCurve`] attached, the kind
    /// still selects the batch/latency-critical mix ratios; only its
    /// analytic curve is overridden.
    pub kind: ScenarioKind,
    /// Arrival window (the paper's scenarios span 2 hours).
    pub duration: SimDuration,
    /// Mean job inter-arrival time (Table 2: 1 second).
    pub mean_interarrival: SimDuration,
    /// Uniform scale on the required-core curve (1.0 = paper scale;
    /// smaller values make fast tests).
    pub load_scale: f64,
    /// Overrides the fraction of interference-sensitive jobs
    /// (memcached + real-time Spark) — the Figure 16 sweep knob.
    pub sensitive_fraction: Option<f64>,
    /// The latency model used to derive memcached loads from core counts.
    pub latency_model: LatencyModel,
    /// Custom target curve in real scenario time, overriding the kind's
    /// stretched analytic curve. `None` keeps the paper behaviour (and
    /// every pre-DSL run byte-identical).
    pub curve: Option<DemandCurve>,
}

impl ScenarioConfig {
    /// The paper's configuration for `kind`.
    pub fn paper(kind: ScenarioKind) -> Self {
        ScenarioConfig {
            kind,
            duration: SimDuration::from_hours(2),
            mean_interarrival: SimDuration::from_secs(1),
            load_scale: 1.0,
            sensitive_fraction: None,
            latency_model: LatencyModel::default(),
            curve: None,
        }
    }

    /// A scaled-down configuration for fast tests: `scale` on load,
    /// `minutes`-long arrival window.
    pub fn scaled(kind: ScenarioKind, scale: f64, minutes: u64) -> Self {
        ScenarioConfig {
            duration: SimDuration::from_mins(minutes),
            load_scale: scale,
            ..ScenarioConfig::paper(kind)
        }
    }

    /// Target required cores at `t` under this config's scale. Times past
    /// the arrival window hold the curve's final value.
    pub fn target_cores(&self, t: SimTime) -> f64 {
        if let Some(curve) = &self.curve {
            // Custom curves are authored in real scenario time: no
            // virtual-axis stretch.
            return curve.cores_at(t) * self.load_scale;
        }
        // The analytic curves are authored on a 120-minute x-axis; stretch
        // to the configured duration.
        let frac = t.as_secs_f64() / self.duration.as_secs_f64();
        let virtual_t = SimTime::from_secs_f64_lossy(frac.min(1.0) * 7200.0);
        self.kind.target_cores(virtual_t) * self.load_scale
    }
}

/// Internal helper: fractional-second construction for virtual curve time.
trait FromSecsF64 {
    fn from_secs_f64_lossy(secs: f64) -> SimTime;
}

impl FromSecsF64 for SimTime {
    fn from_secs_f64_lossy(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs.max(0.0))
    }
}

/// Aggregate characteristics of a generated scenario (the Table 2 row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioStats {
    /// Ratio of max to min concurrent required cores (measured over the
    /// middle of the run, like the paper's steady-state numbers).
    pub max_min_ratio: f64,
    /// batch : latency-critical ratio in job counts.
    pub batch_lc_job_ratio: f64,
    /// batch : latency-critical ratio in core-seconds.
    pub batch_lc_core_ratio: f64,
    /// Mean job duration in minutes.
    pub mean_duration_mins: f64,
    /// Total jobs generated.
    pub job_count: usize,
}

/// A generated scenario: the job stream plus its provenance.
#[derive(Debug, Clone)]
pub struct Scenario {
    config: ScenarioConfig,
    jobs: Vec<JobSpec>,
    /// Optional multi-tenant section; `None` runs untenanted and is
    /// byte-identical to a scenario that predates tenancy.
    tenancy: Option<TenancyPlan>,
}

impl Scenario {
    /// Generates the scenario deterministically from `factory`.
    pub fn generate(config: ScenarioConfig, factory: &RngFactory) -> Scenario {
        assert!(config.load_scale > 0.0, "load scale must be positive");
        let mut rng = factory.stream("scenario.generator");
        let interarrival_secs = config.mean_interarrival.as_secs_f64();
        let interarrival = Exponential::with_mean(interarrival_secs);
        let duration_noise = LogNormal::with_mean(1.0, 0.25);
        let batch_frac = config.kind.batch_job_fraction();
        let batch_core_frac = config.kind.batch_core_fraction();

        // Load-carrying arrival rates per side (jobs/sec). Real-time Spark
        // jobs are too short to carry load, so they are excluded from the
        // batch side's Little's-law budget.
        let (rate_batch, rate_lc) = match config.sensitive_fraction {
            Some(f) => (
                ((1.0 - f) / interarrival_secs).max(1e-6),
                (f * 0.7 / interarrival_secs).max(1e-6),
            ),
            None => (
                batch_frac * 0.9 / interarrival_secs,
                (1.0 - batch_frac) / interarrival_secs,
            ),
        };
        // Mean cores per job, from the sampling tables below.
        const E_CORES_BATCH: f64 = 2.6;
        const E_CORES_LC: f64 = 1.95;

        let mut jobs: Vec<JobSpec> = Vec::new();
        // Ideal active load per side: a min-heap of (end time, cores) and
        // the running sum of the cores it holds.
        let mut active: [BinaryHeap<Reverse<(SimTime, u32)>>; 2] = Default::default();
        let mut active_cores = [0u32; 2];
        let mut t = SimTime::ZERO;
        let mut id = 0u64;
        let end = SimTime::ZERO + config.duration;

        loop {
            t += SimDuration::from_secs_f64(interarrival.sample(&mut rng));
            if t >= end {
                break;
            }
            // Pick the side (batch vs latency-critical), honoring a
            // sensitive-fraction override when present.
            let (class, is_batch_side) = pick_class(&config, batch_frac, &mut rng);
            let side = usize::from(!is_batch_side);

            // Current ideal concurrent cores on this side: retire the jobs
            // that ended by `t`.
            while let Some(&Reverse((e, c))) = active[side].peek() {
                if e > t {
                    break;
                }
                active[side].pop();
                active_cores[side] -= c;
            }
            let current = active_cores[side];
            let share = if is_batch_side {
                batch_core_frac
            } else {
                1.0 - batch_core_frac
            };
            let target = config.target_cores(t) * share;
            // Over-correct slightly (exponent > 1) so the stream snaps back
            // to the curve instead of drifting around it.
            let gap_ratio = (target / (current.max(1) as f64))
                .powf(1.3)
                .clamp(0.05, 2.5);

            let cores = sample_cores(class, target - current as f64, target, &mut rng);
            // Little's law: the per-job core·seconds budget that keeps this
            // side's concurrent cores at its target given its arrival rate.
            // Dividing the budget by the sampled core count (instead of
            // using a mean duration) keeps every job's contribution equal,
            // so core upgrades during load spikes don't inflate the load.
            let (rate, e_cores) = if is_batch_side {
                (rate_batch, E_CORES_BATCH)
            } else {
                (rate_lc, E_CORES_LC)
            };
            let base_d = target / (rate * e_cores) * (e_cores / cores as f64);
            let mut dur_secs = match class {
                // Real-time analytics: 100 ms – 10 s (Section 3.2).
                AppClass::SparkRealtime => Uniform::new(0.1, 10.0).sample(&mut rng),
                _ => base_d * gap_ratio * duration_noise.sample(&mut rng),
            };
            // Jobs should mostly drain by the ideal completion time
            // (~duration + a few minutes).
            let remaining = (end + SimDuration::from_mins(8)) - t;
            dur_secs = dur_secs.clamp(5.0, remaining.as_secs_f64().max(5.0));
            let d = SimDuration::from_secs_f64(dur_secs);

            let sensitivity = class.sample_sensitivity(&mut rng);
            let kind = if class.is_latency_metric() {
                JobKind::LatencyCritical {
                    offered_rps: config.latency_model.offered_rps_for(cores),
                    lifetime: d,
                }
            } else {
                JobKind::Batch {
                    work_core_secs: cores as f64 * d.as_secs_f64(),
                }
            };
            if class != AppClass::SparkRealtime {
                active[side].push(Reverse((t + d, cores)));
                active_cores[side] += cores;
            }
            jobs.push(JobSpec {
                id: JobId(id),
                class,
                arrival: t,
                kind,
                cores,
                sensitivity,
            });
            id += 1;
        }

        Scenario {
            config,
            jobs,
            tenancy: None,
        }
    }

    /// Builds a scenario from an explicit job stream (for custom
    /// workloads — the built-in generator covers the paper's three
    /// scenarios). Jobs are sorted by arrival time.
    ///
    /// The `config`'s target curve is only used for reserved-capacity
    /// sizing; pick the [`ScenarioKind`] whose shape best matches the
    /// custom stream, or override reserved sizing in the run
    /// configuration.
    pub fn from_jobs(config: ScenarioConfig, mut jobs: Vec<JobSpec>) -> Scenario {
        jobs.sort_by_key(|j| j.arrival);
        Scenario {
            config,
            jobs,
            tenancy: None,
        }
    }

    /// Attaches a multi-tenant section: tenant contracts plus the
    /// job→tenant assignment map. The scheduler only instantiates its
    /// tenancy runtime when this is present.
    pub fn with_tenancy(mut self, plan: TenancyPlan) -> Scenario {
        self.tenancy = Some(plan);
        self
    }

    /// The optional multi-tenant section.
    pub fn tenancy(&self) -> Option<&TenancyPlan> {
        self.tenancy.as_ref()
    }

    /// The configuration this scenario was generated from.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The scenario kind.
    pub fn kind(&self) -> ScenarioKind {
        self.config.kind
    }

    /// The generated jobs, in arrival order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// The ideal concurrent required-core series implied by the job
    /// stream (each job occupies its cores from arrival for its ideal
    /// duration) — the measured version of Figure 3.
    pub fn required_cores_series(&self) -> StepSeries {
        let mut events: Vec<(SimTime, f64)> = Vec::with_capacity(self.jobs.len() * 2);
        for job in &self.jobs {
            events.push((job.arrival, job.cores as f64));
            events.push((job.arrival + job.ideal_duration(), -(job.cores as f64)));
        }
        events.sort_by_key(|&(t, _)| t);
        let mut series = StepSeries::new(0.0);
        for (t, delta) in events {
            series.record_delta(t, delta);
        }
        series
    }

    /// The ideal completion time: when the last job would finish with no
    /// scheduling delays or interference.
    pub fn ideal_completion(&self) -> SimTime {
        self.jobs
            .iter()
            .map(|j| j.arrival + j.ideal_duration())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Aggregate characteristics (the measured Table 2 row). Max:min is
    /// measured on 1-minute averages to avoid instantaneous zero loads.
    pub fn stats(&self) -> ScenarioStats {
        let series = self.required_cores_series();
        let window = self.config.duration;
        // Smooth over multi-minute windows: Table 2's max:min describes the
        // demand curve (Figure 3), not instantaneous arrival noise.
        let step = SimDuration::from_mins(4);
        let mut max = f64::MIN;
        let mut min = f64::MAX;
        // Skip the ramp-up (the stream starts empty) and the drain at the
        // end; the paper's Table 2 ratios describe steady state.
        let mut t = SimTime::ZERO + SimDuration::from_secs_f64(window.as_secs_f64() * 0.125);
        let measure_end = SimTime::ZERO + (window - SimDuration::from_mins(5));
        while t < measure_end {
            let v = series.time_weighted_mean(t, t + step).unwrap_or(0.0);
            max = max.max(v);
            min = min.min(v);
            t += step;
        }
        let batch_jobs = self
            .jobs
            .iter()
            .filter(|j| !j.is_latency_critical())
            .count();
        let lc_jobs = self.jobs.len() - batch_jobs;
        let batch_core_secs: f64 = self
            .jobs
            .iter()
            .filter(|j| !j.is_latency_critical())
            .map(|j| j.cores as f64 * j.ideal_duration().as_secs_f64())
            .sum();
        let lc_core_secs: f64 = self
            .jobs
            .iter()
            .filter(|j| j.is_latency_critical())
            .map(|j| j.cores as f64 * j.ideal_duration().as_secs_f64())
            .sum();
        let mean_duration_mins = self
            .jobs
            .iter()
            .map(|j| j.ideal_duration().as_mins_f64())
            .sum::<f64>()
            / self.jobs.len().max(1) as f64;
        ScenarioStats {
            max_min_ratio: max / min.max(1.0),
            batch_lc_job_ratio: batch_jobs as f64 / lc_jobs.max(1) as f64,
            batch_lc_core_ratio: batch_core_secs / lc_core_secs.max(1.0),
            mean_duration_mins,
            job_count: self.jobs.len(),
        }
    }
}

/// Picks an application class for the next arrival.
fn pick_class<R: Rng + ?Sized>(
    config: &ScenarioConfig,
    batch_frac: f64,
    rng: &mut R,
) -> (AppClass, bool) {
    if let Some(f) = config.sensitive_fraction {
        // Figure 16 mode: control the sensitive-job fraction directly.
        if rng.gen::<f64>() < f {
            let class = if rng.gen::<f64>() < 0.7 {
                AppClass::Memcached
            } else {
                AppClass::SparkRealtime
            };
            return (class, class.is_batch());
        }
        let class = *pick_weighted(
            rng,
            &[
                (AppClass::HadoopRecommender, 0.35),
                (AppClass::HadoopSvm, 0.25),
                (AppClass::HadoopMatrixFactorization, 0.2),
                (AppClass::SparkBatch, 0.2),
            ],
        );
        return (class, true);
    }
    if rng.gen::<f64>() < batch_frac {
        let class = *pick_weighted(
            rng,
            &[
                (AppClass::HadoopRecommender, 0.30),
                (AppClass::HadoopSvm, 0.20),
                (AppClass::HadoopMatrixFactorization, 0.20),
                (AppClass::SparkBatch, 0.20),
                (AppClass::SparkRealtime, 0.10),
            ],
        );
        (class, true)
    } else {
        (AppClass::Memcached, false)
    }
}

fn pick_weighted<'a, T, R: Rng + ?Sized>(rng: &mut R, options: &'a [(T, f64)]) -> &'a T {
    let total: f64 = options.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen::<f64>() * total;
    for (v, w) in options {
        x -= w;
        if x <= 0.0 {
            return v;
        }
    }
    &options.last().expect("non-empty options").0
}

/// Samples a job's core count; when the side is far below its target the
/// generator favours larger sizes to close the gap quickly (this is what
/// makes the high-variability spikes steep).
fn sample_cores<R: Rng + ?Sized>(class: AppClass, gap: f64, target: f64, rng: &mut R) -> u32 {
    let base: &[(u32, f64)] = if class.is_latency_metric() {
        &[(1, 0.45), (2, 0.35), (4, 0.20)]
    } else {
        &[(1, 0.40), (2, 0.30), (4, 0.20), (8, 0.10)]
    };
    let mut cores = *pick_weighted(rng, base);
    if gap > 0.2 * target {
        cores = (cores * 2).min(16);
    }
    if gap > 0.6 * target {
        cores = (cores * 2).min(16);
    }
    cores
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(kind: ScenarioKind) -> Scenario {
        Scenario::generate(ScenarioConfig::paper(kind), &RngFactory::new(42))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen(ScenarioKind::Static);
        let b = gen(ScenarioKind::Static);
        assert_eq!(a.jobs().len(), b.jobs().len());
        assert_eq!(a.jobs()[100], b.jobs()[100]);
    }

    #[test]
    fn about_one_job_per_second() {
        let s = gen(ScenarioKind::Static);
        let n = s.jobs().len() as f64;
        assert!((6000.0..8500.0).contains(&n), "job count {n}");
    }

    #[test]
    fn static_scenario_tracks_854_cores() {
        let s = gen(ScenarioKind::Static);
        let series = s.required_cores_series();
        let mean = series
            .time_weighted_mean(SimTime::from_secs(1200), SimTime::from_secs(6000))
            .unwrap();
        assert!(
            (854.0 * 0.8..854.0 * 1.2).contains(&mean),
            "steady-state mean {mean}"
        );
    }

    #[test]
    fn table2_job_ratios() {
        for kind in ScenarioKind::ALL {
            let stats = gen(kind).stats();
            let expect = match kind {
                ScenarioKind::Static => 4.2,
                ScenarioKind::LowVariability => 3.6,
                ScenarioKind::HighVariability => 4.1,
            };
            assert!(
                (stats.batch_lc_job_ratio - expect).abs() < 0.8,
                "{}: job ratio {} vs {expect}",
                kind.name(),
                stats.batch_lc_job_ratio
            );
        }
    }

    #[test]
    fn variability_ordering_matches_table2() {
        let r_static = gen(ScenarioKind::Static).stats().max_min_ratio;
        let r_low = gen(ScenarioKind::LowVariability).stats().max_min_ratio;
        let r_high = gen(ScenarioKind::HighVariability).stats().max_min_ratio;
        assert!(
            r_static < r_low && r_low < r_high,
            "{r_static} {r_low} {r_high}"
        );
        assert!(r_static < 1.35, "static ratio {r_static}");
        assert!((1.2..2.2).contains(&r_low), "low ratio {r_low}");
        assert!(r_high > 3.0, "high ratio {r_high}");
    }

    #[test]
    fn high_variability_jobs_are_shorter() {
        let d_static = gen(ScenarioKind::Static).stats().mean_duration_mins;
        let d_high = gen(ScenarioKind::HighVariability)
            .stats()
            .mean_duration_mins;
        assert!(d_high < d_static, "{d_high} vs {d_static}");
        assert!(
            (2.0..14.0).contains(&d_high),
            "high-var mean duration {d_high}"
        );
    }

    #[test]
    fn ideal_completion_close_to_two_hours() {
        for kind in ScenarioKind::ALL {
            let s = gen(kind);
            let hours = s.ideal_completion().as_hours_f64();
            assert!(
                (1.9..2.3).contains(&hours),
                "{}: ideal completion {hours}h",
                kind.name()
            );
        }
    }

    #[test]
    fn generator_tracks_target_curve() {
        let s = gen(ScenarioKind::HighVariability);
        let series = s.required_cores_series();
        // Time-weighted relative error over the interior of the run.
        let step = SimDuration::from_mins(2);
        let mut err = 0.0;
        let mut n = 0;
        let mut t = SimTime::from_secs(600);
        while t < SimTime::from_secs(6600) {
            let actual = series.time_weighted_mean(t, t + step).unwrap();
            let target = s.config().target_cores(t + step / 2);
            err += (actual - target).abs() / target;
            n += 1;
            t += step;
        }
        let mean_err = err / n as f64;
        assert!(mean_err < 0.35, "mean tracking error {mean_err}");
    }

    #[test]
    fn sensitive_fraction_override_takes_effect() {
        let mut config = ScenarioConfig::scaled(ScenarioKind::HighVariability, 0.3, 30);
        config.sensitive_fraction = Some(0.8);
        let s = Scenario::generate(config, &RngFactory::new(1));
        let sensitive = s.jobs().iter().filter(|j| j.class.is_sensitive()).count();
        let frac = sensitive as f64 / s.jobs().len() as f64;
        assert!((0.72..0.88).contains(&frac), "sensitive fraction {frac}");
    }

    #[test]
    fn scaled_config_shrinks_load() {
        let s = Scenario::generate(
            ScenarioConfig::scaled(ScenarioKind::Static, 0.1, 20),
            &RngFactory::new(9),
        );
        let series = s.required_cores_series();
        let mean = series
            .time_weighted_mean(SimTime::from_secs(300), SimTime::from_secs(900))
            .unwrap();
        assert!((40.0..140.0).contains(&mean), "scaled mean {mean}");
    }

    #[test]
    fn curve_endpoints_match_table2_extremes() {
        // The high-variability curve spans 198..1226 → ratio ≈ 6.2.
        let pts = ScenarioKind::HighVariability.curve_points();
        let max = pts.iter().map(|&(_, c)| c).fold(f64::MIN, f64::max);
        let min = pts.iter().map(|&(_, c)| c).fold(f64::MAX, f64::min);
        assert_eq!(max, 1226.0);
        assert!((max / min - 6.2).abs() < 0.1, "ratio {}", max / min);
    }

    #[test]
    fn memcached_jobs_carry_load_matching_cores() {
        let s = gen(ScenarioKind::Static);
        let lm = LatencyModel::default();
        for j in s.jobs().iter().filter(|j| j.is_latency_critical()).take(50) {
            let JobKind::LatencyCritical { offered_rps, .. } = j.kind else {
                unreachable!()
            };
            assert_eq!(lm.cores_for(offered_rps), j.cores);
        }
    }

    /// Pins every `JobSpec` of a dense stream. At 1 ms mean
    /// inter-arrival, some arrivals land on the exact microsecond a job
    /// of the same side ends; that job no longer counts toward the
    /// side's active load. The ×100 load keeps durations above the 5 s
    /// floor, so counting it would move later jobs and the pinned hash.
    #[test]
    fn dense_stream_is_pinned() {
        let mut config = ScenarioConfig::scaled(ScenarioKind::HighVariability, 100.0, 1);
        config.mean_interarrival = SimDuration::from_micros(1_000);
        let s = Scenario::generate(config, &RngFactory::new(42));
        let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.jobs().iter().flat_map(|j| format!("{j:?}").into_bytes()) {
            fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!((s.jobs().len(), fnv), (59_756, 0x5ce7_80f9_33c7_76e8));
    }
}

#[cfg(test)]
mod from_jobs_tests {
    use super::*;
    use crate::job::{JobId, JobKind, JobSpec};

    fn j(id: u64, arrival_mins: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            class: AppClass::HadoopSvm,
            arrival: SimTime::from_secs(arrival_mins * 60),
            kind: JobKind::Batch {
                work_core_secs: 240.0,
            },
            cores: 2,
            sensitivity: AppClass::HadoopSvm.sensitivity_template(),
        }
    }

    #[test]
    fn from_jobs_sorts_by_arrival() {
        let config = ScenarioConfig::scaled(ScenarioKind::Static, 0.05, 10);
        let s = Scenario::from_jobs(config, vec![j(0, 5), j(1, 1), j(2, 3)]);
        let arrivals: Vec<u64> = s.jobs().iter().map(|x| x.arrival.as_micros()).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s.jobs().len(), 3);
    }

    #[test]
    fn from_jobs_required_series_tracks_custom_stream() {
        let config = ScenarioConfig::scaled(ScenarioKind::Static, 0.05, 10);
        let s = Scenario::from_jobs(config, vec![j(0, 0), j(1, 0)]);
        let series = s.required_cores_series();
        // Two 2-core jobs of 120s each, starting at t=0.
        assert_eq!(series.value_at(SimTime::from_secs(30)), 4.0);
        assert_eq!(series.value_at(SimTime::from_secs(300)), 0.0);
    }

    #[test]
    fn target_cores_interpolates_and_holds_past_end() {
        let config = ScenarioConfig::paper(ScenarioKind::LowVariability);
        // The low-var curve starts at 605 and peaks at 900.
        assert!((config.target_cores(SimTime::ZERO) - 605.0).abs() < 1.0);
        let peak = (0..=120)
            .map(|m| config.target_cores(SimTime::ZERO + SimDuration::from_mins(m)))
            .fold(f64::MIN, f64::max);
        assert!((peak - 900.0).abs() < 5.0, "peak {peak}");
        // Past the arrival window the curve holds its final value.
        let after = config.target_cores(SimTime::ZERO + SimDuration::from_hours(5));
        assert!((after - 605.0).abs() < 1.0, "after-end {after}");
    }

    #[test]
    fn load_scale_scales_targets_linearly() {
        let full = ScenarioConfig::paper(ScenarioKind::Static);
        let half = ScenarioConfig {
            load_scale: 0.5,
            ..full.clone()
        };
        let t = SimTime::from_secs(1800);
        assert!((half.target_cores(t) - full.target_cores(t) * 0.5).abs() < 1e-9);
    }

    #[test]
    fn demand_curve_rejects_malformed_knots_naming_them() {
        let e = DemandCurve::new(vec![(0.0, 10.0)]).expect_err("too few");
        assert!(e.contains("at least 2"), "{e}");
        let e = DemandCurve::new(vec![(0.0, 10.0), (5.0, -1.0)]).expect_err("negative");
        assert!(e.contains("point 1"), "{e}");
        let e = DemandCurve::new(vec![(0.0, 10.0), (0.0, 20.0)]).expect_err("non-increasing");
        assert!(e.contains("strictly increasing"), "{e}");
        let e = DemandCurve::new(vec![(0.0, f64::NAN), (5.0, 1.0)]).expect_err("nan");
        assert!(e.contains("point 0"), "{e}");
    }

    #[test]
    fn custom_curve_overrides_kind_in_real_time() {
        // A 10-hour linear ramp 100 → 300 cores, unaffected by the
        // kind's 120-minute virtual axis.
        let curve = DemandCurve::new(vec![(0.0, 100.0), (600.0, 300.0)]).unwrap();
        let config = ScenarioConfig {
            duration: SimDuration::from_hours(10),
            curve: Some(curve),
            ..ScenarioConfig::paper(ScenarioKind::HighVariability)
        };
        let at = |mins: u64| config.target_cores(SimTime::ZERO + SimDuration::from_mins(mins));
        assert!((at(0) - 100.0).abs() < 1e-9);
        assert!((at(300) - 200.0).abs() < 1e-9, "midpoint {}", at(300));
        // Holds past the last knot.
        assert!((at(700) - 300.0).abs() < 1e-9);
        // load_scale still applies on top.
        let half = ScenarioConfig {
            load_scale: 0.5,
            ..config.clone()
        };
        assert!((half.target_cores(SimTime::from_secs(18_000)) - 100.0).abs() < 1e-9);
    }
}
