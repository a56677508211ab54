//! Figure 2: performance unpredictability for memcached across instance
//! types on EC2 and GCE.
//!
//! The client load is scaled by the instance's vCPU count so every
//! instance operates at the same utilization (Section 1). Each instance
//! runs the service for an hour; the reported metric is the
//! time-averaged p99 request latency.

use hcloud_cloud::{Cloud, CloudConfig, InstanceType, ProviderProfile};
use hcloud_sim::stats::Boxplot;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_workloads::{AppClass, LatencyModel};

use crate::{Harness, Table};

const INSTANCES_PER_TYPE: usize = 40;

/// The figure's load point: moderate utilization, so the violin spread
/// comes from interference rather than outright saturation (the paper's
/// y-axis tops out at 1.4 ms).
fn figure_latency_model() -> LatencyModel {
    LatencyModel {
        target_utilization: 0.35,
        ..LatencyModel::default()
    }
}

/// Mean p99 latency (µs) of an hour of service on one instance.
fn mean_p99_us(
    cloud: &Cloud,
    id: hcloud_cloud::InstanceId,
    latency: &LatencyModel,
    provider: &ProviderProfile,
) -> f64 {
    let itype = cloud.instance(id).itype();
    let sensitivity = AppClass::Memcached.sensitivity_template();
    // Load scaled by vCPUs so all instances see the same utilization.
    let cores = itype.vcpus();
    let offered = latency.offered_rps_for(cores);
    let speed_penalty = 1.0 / provider.latency_speed;
    let step = SimDuration::from_secs(10);
    let mut t = cloud.instance(id).ready_at();
    let end = t + SimDuration::from_hours(1);
    let mut sum = 0.0;
    let mut n = 0usize;
    while t < end {
        let pressure = cloud.external_pressure(id, t);
        let slowdown = cloud.slowdown_model().slowdown(&sensitivity, &pressure) * speed_penalty;
        sum += latency.p99_latency_us(offered, cores, slowdown);
        n += 1;
        t += step;
    }
    sum / n as f64
}

/// Runs the experiment.
pub fn run(h: &mut Harness) {
    let factory = h.factory();
    let latency = figure_latency_model();
    println!("Figure 2: memcached p99 latency across instance types\n");
    let mut table = Table::new(vec![
        "provider", "type", "p5", "p25", "mean", "p75", "p95", "max",
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
        for (tidx, itype) in InstanceType::figure12_catalog().into_iter().enumerate() {
            let values: Vec<f64> = (0..INSTANCES_PER_TYPE)
                .map(|k| {
                    let id = cloud.acquire(itype, SimTime::from_secs((k as u64) * 30));
                    mean_p99_us(&cloud, id, &latency, provider)
                })
                .collect();
            let b = Boxplot::from_values(&values).expect("non-empty");
            table.row(vec![
                provider.name.into(),
                itype.to_string(),
                format!("{:.0}", b.p5),
                format!("{:.0}", b.p25),
                format!("{:.0}", b.mean),
                format!("{:.0}", b.p75),
                format!("{:.0}", b.p95),
                format!("{:.0}", b.max),
            ]);
            json.push(vec![
                pidx as f64,
                tidx as f64,
                b.p5,
                b.p25,
                b.mean,
                b.p75,
                b.p95,
            ]);
        }
    }
    println!("{table}");
    println!("(p99 latencies in µs; paper: <8-vCPU instances vary wildly, m16 tight,");
    println!(" GCE better than EC2 on both average and tail for memcached)");
    h.write_json(
        "fig02_variability_memcached",
        &["provider", "type", "p5", "p25", "mean", "p75", "p95"],
        &json,
    );
}
