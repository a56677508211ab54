//! Differential test: the cloud's memoized external load against the
//! stateless reference model in `reference/`.
//!
//! Random sequences of acquire (on-demand and spot, every size and
//! family, micro included), release and query calls drive one cloud.
//! Query instants land inside the current 10-s epoch, in later epochs,
//! on epoch boundaries and back in earlier epochs, on held, released and
//! reserved instances, under partitioning 0 and 0.5, with and without
//! straggler faults, and under silent, spike-only, default and heavy
//! external models. Every `external_pressure` and `delivered_quality`
//! answer must be bit-equal to the reference's, and two instants with
//! the same `interference_epoch` must get the same answers.

mod reference;

use std::collections::BTreeMap;

use hcloud_cloud::instance_type::VALID_SIZES;
use hcloud_cloud::{
    Cloud, CloudConfig, ExternalLoadModel, Family, InstanceId, InstanceType, ProviderProfile,
};
use hcloud_faults::{FaultInjector, FaultPlanId};
use hcloud_interference::ResourceVector;
use hcloud_sim::rng::RngFactory;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_telemetry::Tracer;
use proptest::prelude::*;

/// The external-load epoch of every model under test.
const EPOCH_US: u64 = 10_000_000;

fn model(code: u8) -> ExternalLoadModel {
    match code {
        0 => ExternalLoadModel::none(),
        1 => ExternalLoadModel::with_mean(0.0),
        2 => ExternalLoadModel::default(),
        _ => ExternalLoadModel::with_mean(0.9),
    }
}

fn itype(pick: u64) -> InstanceType {
    if pick.is_multiple_of(7) {
        return InstanceType::MICRO;
    }
    let family = Family::ALL[(pick / 7 % 3) as usize];
    InstanceType::new(family, VALID_SIZES[(pick / 21 % 5) as usize])
}

fn bits(v: &ResourceVector) -> [u64; 10] {
    v.as_array().map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memoized_load_matches_reference(
        seed in any::<u64>(),
        knobs in (0u8..4, any::<bool>(), any::<bool>(), any::<bool>()),
        // One call each: (kind, pick, signed time offset in µs).
        ops in prop::collection::vec((0u8..10, any::<u64>(), -60_000_000i64..60_000_000), 1..160),
    ) {
        let (model_code, partitioned, stragglers, ec2) = knobs;
        let factory = RngFactory::new(seed);
        let config = CloudConfig {
            external: model(model_code),
            provider: if ec2 { ProviderProfile::ec2() } else { ProviderProfile::gce() },
            partitioning: if partitioned { 0.5 } else { 0.0 },
            ..CloudConfig::default()
        };
        let injector = if stragglers {
            let plan = FaultPlanId::DegradedFleet.plan().with_intensity(5.0);
            FaultInjector::new(plan, factory.child("faults"))
        } else {
            FaultInjector::disabled()
        };
        let mut cloud = Cloud::with_instruments(config, factory, Tracer::disabled(), injector);
        let mut all: Vec<InstanceId> = cloud.provision_reserved(2, SimTime::ZERO);
        let mut held: Vec<InstanceId> = Vec::new();
        let mut clock = SimTime::ZERO;
        // (instance, interference epoch) → the answers first seen there.
        let mut seen: BTreeMap<(u64, u64), ([u64; 10], u64, u64)> = BTreeMap::new();
        for (kind, pick, offset) in ops {
            match kind {
                0 | 1 => {
                    let id = cloud.acquire(itype(pick), clock);
                    all.push(id);
                    held.push(id);
                }
                2 => {
                    let id = cloud.acquire_spot(itype(pick), 0.8, clock);
                    all.push(id);
                    held.push(id);
                }
                3 if !held.is_empty() => {
                    let id = held.remove((pick % held.len() as u64) as usize);
                    cloud.release(id, clock);
                }
                4 => clock += SimDuration::from_micros(offset.unsigned_abs() * 4),
                _ => {
                    let id = all[(pick % all.len() as u64) as usize];
                    // Near the clock (often the same epoch), up to six
                    // epochs either side, or on an epoch boundary.
                    let offset = if kind < 7 { offset / 8 } else { offset };
                    let mut t = clock.as_micros().saturating_add_signed(offset);
                    if kind == 9 {
                        t -= t % EPOCH_US;
                    }
                    let t = SimTime::from_micros(t);
                    let pressure = cloud.external_pressure(id, t);
                    let quality = cloud.delivered_quality(id, t);
                    let want_pressure = reference::external_pressure(&cloud, &factory, id, t);
                    let want_quality = reference::delivered_quality(&cloud, &factory, id, t);
                    prop_assert_eq!(bits(&pressure), bits(&want_pressure), "pressure on {} at {}", id, t);
                    prop_assert_eq!(quality.to_bits(), want_quality.to_bits(), "quality of {} at {}", id, t);
                    let epoch = cloud.interference_epoch(id, t);
                    let answers = (
                        bits(&pressure),
                        quality.to_bits(),
                        cloud.fault_slowdown(id, t).to_bits(),
                    );
                    let first = *seen.entry((id.raw(), epoch)).or_insert(answers);
                    prop_assert_eq!(first, answers, "{} changed within interference epoch {}", id, epoch);
                }
            }
        }
    }
}
