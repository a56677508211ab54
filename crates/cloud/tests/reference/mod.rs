//! The stateless external-load model kept as a reference model, the way
//! `hcloud-tenancy`'s tests keep the O(tenants) `FairShare`.
//!
//! This is the straightforward implementation: every query re-derives the
//! server's spatial offset and resource mix from their RNG streams and
//! re-draws the temporal level, and the cloud's partitioning shield and
//! straggler fault are applied on top. The production `Cloud` builds each
//! exposed server's profile once and memoizes its level per epoch; the
//! differential test requires bit-identical answers.

use hcloud_cloud::{Cloud, ExternalLoadModel, InstanceId};
use hcloud_interference::{Resource, ResourceVector};
use hcloud_sim::dist::{Normal, Sample, TruncatedNormal, Uniform};
use hcloud_sim::rng::RngFactory;
use hcloud_sim::SimTime;
use rand::Rng;

/// The external utilization level of server `server_seed` at `t`.
pub fn level(m: &ExternalLoadModel, factory: &RngFactory, server_seed: u64, t: SimTime) -> f64 {
    if m.mean == 0.0 && m.spike_prob == 0.0 {
        return 0.0;
    }
    let spatial = {
        let mut rng = factory.indexed_stream("external.spatial", server_seed);
        Normal::new(0.0, m.spatial_sigma).sample(&mut rng)
    };
    let k = t.as_micros() / m.interval.as_micros().max(1);
    let idx = server_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(k);
    let mut rng = factory.indexed_stream("external.temporal", idx);
    let temporal = if m.fluctuation > 0.0 {
        TruncatedNormal::new(0.0, m.fluctuation / 2.0, -m.fluctuation, m.fluctuation)
            .sample(&mut rng)
    } else {
        0.0
    };
    let spike = if rng.gen::<f64>() < m.spike_prob {
        Uniform::new(m.spike_range.0, m.spike_range.1).sample(&mut rng)
    } else {
        0.0
    };
    (m.mean + spatial + temporal + spike).clamp(0.0, 0.95)
}

/// The per-resource mix direction of server `server_seed`.
pub fn mix(factory: &RngFactory, server_seed: u64) -> ResourceVector {
    let mut rng = factory.indexed_stream("external.mix", server_seed);
    let raw = ResourceVector::from_fn(|_| Uniform::new(0.6, 1.4).sample(&mut rng));
    raw.scale(1.0 / raw.mean())
}

/// The external pressure on a server at `t` for an external `share`.
pub fn pressure(
    m: &ExternalLoadModel,
    factory: &RngFactory,
    server_seed: u64,
    t: SimTime,
    share: f64,
) -> ResourceVector {
    if share == 0.0 {
        return ResourceVector::ZERO;
    }
    let level = level(m, factory, server_seed, t) * share;
    mix(factory, server_seed).scale(level)
}

/// `Cloud::external_pressure` of `id`, recomputed on every call. The
/// cloud seeds each server's load streams with the instance id, and
/// `factory` must be the factory the cloud was built with.
pub fn external_pressure(
    cloud: &Cloud,
    factory: &RngFactory,
    id: InstanceId,
    t: SimTime,
) -> ResourceVector {
    let inst = cloud.instance(id);
    if inst.is_reserved() {
        return ResourceVector::ZERO;
    }
    let raw = pressure(
        cloud.external_model(),
        factory,
        id.raw(),
        t,
        inst.itype().external_share(),
    );
    let partitioning = cloud.config().partitioning;
    if partitioning <= 0.0 {
        return raw;
    }
    let iso = partitioning.clamp(0.0, 1.0);
    let mut shielded = raw;
    for r in [
        Resource::CacheLlc,
        Resource::MemBandwidth,
        Resource::NetBandwidth,
    ] {
        shielded[r] *= 1.0 - iso;
    }
    shielded
}

/// `Cloud::delivered_quality` of `id`, recomputed on every call.
pub fn delivered_quality(cloud: &Cloud, factory: &RngFactory, id: InstanceId, t: SimTime) -> f64 {
    let pressure = external_pressure(cloud, factory, id, t);
    let fault = match cloud.instance(id).performance_fault() {
        Some((onset, factor)) if t >= onset => factor,
        _ => 1.0,
    };
    cloud.slowdown_model().delivered_quality(&pressure) / fault
}
