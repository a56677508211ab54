//! A custom workload built from explicit job specs: a diurnal web stack —
//! a fleet of memcached services whose load follows a day/night pattern,
//! with background analytics — provisioned with HF vs OdF.
//!
//! Demonstrates [`Scenario::from_jobs`]: you are not limited to the
//! paper's three scenarios; any job stream can be provisioned.
//!
//! ```text
//! cargo run --release --example web_service_autoscale
//! ```

use hcloud::{
    runner::{run_scenario, AuditViolation, RunCtx},
    RunConfig, StrategyId, StrategyRef,
};
use hcloud_pricing::{PricingModel, Rates};
use hcloud_sim::dist::{LogNormal, Sample};
use hcloud_sim::rng::RngFactory;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_workloads::{
    AppClass, JobId, JobKind, JobSpec, LatencyModel, Scenario, ScenarioConfig, ScenarioKind,
};

/// One simulated "day" is compressed into this window.
const DAY: SimDuration = SimDuration::from_mins(60);

/// Diurnal intensity in [0.35, 1.0]: quiet nights, busy afternoons.
fn diurnal(t: SimTime) -> f64 {
    let phase = t.as_secs_f64() / DAY.as_secs_f64() * std::f64::consts::TAU;
    0.675 - 0.325 * phase.cos()
}

fn main() -> Result<(), AuditViolation> {
    let factory = RngFactory::new(7);
    let mut rng = factory.stream("example.webstack");
    let latency = LatencyModel::default();
    let mut jobs = Vec::new();
    let mut id = 0u64;

    // Front-end cache fleet: waves of memcached services, each running
    // ~12 minutes, sized with the current diurnal intensity.
    let mut t = SimTime::ZERO;
    while t < SimTime::ZERO + DAY {
        let intensity = diurnal(t);
        let shards = (6.0 * intensity).round() as usize;
        for _ in 0..shards {
            let cores = if intensity > 0.8 { 4 } else { 2 };
            jobs.push(JobSpec {
                id: JobId(id),
                class: AppClass::Memcached,
                arrival: t,
                kind: JobKind::LatencyCritical {
                    offered_rps: latency.offered_rps_for(cores),
                    lifetime: SimDuration::from_mins(12),
                },
                cores,
                sensitivity: AppClass::Memcached.sample_sensitivity(&mut rng),
            });
            id += 1;
        }
        t += SimDuration::from_mins(10);
    }

    // Background analytics: steady stream of Hadoop jobs, heavier at night.
    let dur_noise = LogNormal::with_mean(1.0, 0.3);
    let mut t = SimTime::ZERO;
    while t < SimTime::ZERO + DAY {
        let nightly = 1.35 - diurnal(t);
        let n = (3.0 * nightly).round() as usize;
        for _ in 0..n {
            let cores = 4;
            let minutes = 6.0 * dur_noise.sample(&mut rng);
            jobs.push(JobSpec {
                id: JobId(id),
                class: AppClass::HadoopRecommender,
                arrival: t,
                kind: JobKind::Batch {
                    work_core_secs: cores as f64 * minutes * 60.0,
                },
                cores,
                sensitivity: AppClass::HadoopRecommender.sample_sensitivity(&mut rng),
            });
            id += 1;
        }
        t += SimDuration::from_mins(5);
    }

    let scenario = Scenario::from_jobs(
        ScenarioConfig::scaled(ScenarioKind::LowVariability, 0.07, 60),
        jobs,
    );
    println!(
        "diurnal web stack: {} jobs over one compressed day\n",
        scenario.jobs().len()
    );

    let rates = Rates::default();
    let pricing = PricingModel::aws();
    for strategy in [StrategyId::HF, StrategyId::ODF].map(StrategyRef::from) {
        let result = run_scenario(
            &scenario,
            &RunConfig::new(&strategy),
            &RunCtx::new(&factory),
        )?;
        let lc = result.lc_latency_boxplot().expect("memcached present");
        let cost = result.cost(&rates, &pricing);
        println!("{}:", strategy.short_name());
        println!(
            "  cache p99 latency: mean {:.0}us, p95 {:.0}us",
            lc.mean, lc.p95
        );
        if let Some(b) = result.batch_performance_boxplot() {
            println!("  analytics completion: mean {:.1}min", b.mean);
        }
        println!(
            "  cost: {:.2}$ (reserved {:.2}$ + on-demand {:.2}$), {} instances acquired\n",
            cost.total(),
            cost.reserved,
            cost.on_demand,
            result.counters.od_acquired
        );
    }
    println!("HF serves the diurnal trough from its small reserved pool and rides");
    println!("the afternoon peak on on-demand servers; OdF re-buys the whole stack");
    println!("at the on-demand rate every hour of the day.");
    Ok(())
}
