//! Figure 1: performance unpredictability for a Hadoop (Mahout
//! recommender) job across instance types on EC2 and GCE.
//!
//! For each provider and instance type, the experiment launches 40 instances,
//! runs an identical recommender job on each, and reports the completion
//! time distribution. Small instances share servers with fluctuating
//! external load, so their distributions spread out; 16-vCPU instances
//! occupy whole servers and stay tight. On EC2, a fraction of micro
//! instances get terminated by the provider's internal scheduler.

use hcloud_cloud::{Cloud, CloudConfig, InstanceType, ProviderProfile};
use hcloud_interference::ResourceVector;
use hcloud_sim::stats::Boxplot;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_workloads::AppClass;
use rand::Rng;

use crate::{Harness, Table};

/// Effective work, in scaled core-seconds: ~35 minutes on an uncontended
/// 16-vCPU instance given the job's sublinear scaling.
const WORK_CORE_SECS: f64 = 8.0 * 35.0 * 60.0;
const INSTANCES_PER_TYPE: usize = 40;

/// Simulates the completion time of the recommender job on one instance,
/// integrating the interference-inflated progress in 10-second steps.
/// Returns `None` if the provider killed the instance (EC2 micro).
fn completion_minutes(
    cloud: &Cloud,
    id: hcloud_cloud::InstanceId,
    sensitivity: &ResourceVector,
    provider: &ProviderProfile,
    rng: &mut impl Rng,
) -> Option<f64> {
    let itype = cloud.instance(id).itype();
    if itype.is_micro() && rng.gen::<f64>() < provider.micro_kill_prob {
        return None;
    }
    // Micro's shared core runs at reduced effective speed.
    let speed = provider.batch_speed * if itype.is_micro() { 0.6 } else { 1.0 };
    // Data-parallel analytics scale sublinearly with cores (the paper's
    // m16:st1 completion ratio is ~4x, not 16x).
    let cores = (itype.vcpus() as f64).powf(0.75);
    let step = SimDuration::from_secs(10);
    let mut t = cloud.instance(id).ready_at();
    let mut remaining = WORK_CORE_SECS;
    let mut elapsed = 0.0;
    while remaining > 0.0 {
        let pressure = cloud.external_pressure(id, t);
        let slowdown = cloud.slowdown_model().slowdown(sensitivity, &pressure);
        let rate = cores * speed / slowdown;
        let dt = step.as_secs_f64();
        if remaining <= rate * dt {
            elapsed += remaining / rate;
            remaining = 0.0;
        } else {
            remaining -= rate * dt;
            elapsed += dt;
        }
        t += step;
    }
    Some(elapsed / 60.0)
}

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let factory = h.factory();
    let sensitivity = AppClass::HadoopRecommender.sensitivity_template();
    println!("Figure 1: Hadoop (Mahout recommender) completion time across instance types\n");
    let mut table = Table::new(vec![
        "provider", "type", "n_ok", "failed", "p5", "p25", "mean", "p75", "p95", "max",
    ]);
    let mut json: Vec<Vec<f64>> = Vec::new();
    for (pidx, provider) in [ProviderProfile::ec2(), ProviderProfile::gce()]
        .iter()
        .enumerate()
    {
        let config = CloudConfig {
            provider: provider.clone(),
            ..CloudConfig::default()
        };
        let mut cloud = Cloud::new(config, factory.child(provider.name));
        let mut rng = factory.child(provider.name).stream("kills");
        for (tidx, itype) in InstanceType::figure12_catalog().into_iter().enumerate() {
            let mut times = Vec::new();
            let mut failed = 0;
            for k in 0..INSTANCES_PER_TYPE {
                let id = cloud.acquire(itype, SimTime::from_secs((k as u64) * 30));
                match completion_minutes(&cloud, id, &sensitivity, provider, &mut rng) {
                    Some(m) => times.push(m),
                    None => failed += 1,
                }
            }
            let b = Boxplot::from_values(&times).expect("some jobs complete");
            table.row(vec![
                provider.name.into(),
                itype.to_string(),
                format!("{}", times.len()),
                format!("{failed}"),
                format!("{:.1}", b.p5),
                format!("{:.1}", b.p25),
                format!("{:.1}", b.mean),
                format!("{:.1}", b.p75),
                format!("{:.1}", b.p95),
                format!("{:.1}", b.max),
            ]);
            json.push(vec![
                pidx as f64,
                tidx as f64,
                b.p5,
                b.p25,
                b.mean,
                b.p75,
                b.p95,
                failed as f64,
            ]);
        }
    }
    println!("{table}");
    println!("(completion times in minutes; paper: small instances spread widely,");
    println!(" m16 tight; EC2 faster on average but heavier-tailed, micro jobs killed)");
    h.write_json(
        "fig01_variability_batch",
        &[
            "provider", "type", "p5", "p25", "mean", "p75", "p95", "failed",
        ],
        &json,
    );
}
