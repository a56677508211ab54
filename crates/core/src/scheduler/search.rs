//! The placement search: the indexed pool and idle-reuse probes behind
//! [`Scheduler::find_placement`], and the placement paths that call it.

use hcloud_cloud::{Family, InstanceType};
use hcloud_interference::{Resource, ResourceVector};
use hcloud_quasar::JobEstimate;
use hcloud_sim::event::EventSink;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_telemetry::ProfSpan;
use hcloud_workloads::AppClass;

use super::{Carryover, Event, Scheduler};
use crate::placement::{InstanceHandle, Placement as PoolMatch, PlacementQuery, SearchPolicy};

/// The outcome of a pool placement search: an instance that satisfies the
/// job's QoS headroom, and the least-bad alternative when none does.
#[derive(Debug, Clone, Copy, Default)]
struct PoolCandidate {
    acceptable: Option<InstanceHandle>,
    fallback: Option<InstanceHandle>,
}

impl PoolCandidate {
    /// Collapses the pair into the typed search result: an acceptable
    /// instance, or the least-bad fallback flagged as such.
    fn into_match(self) -> Option<PoolMatch> {
        match (self.acceptable, self.fallback) {
            (Some(instance), _) => Some(PoolMatch {
                instance,
                fallback: false,
            }),
            (None, Some(instance)) => Some(PoolMatch {
                instance,
                fallback: true,
            }),
            (None, None) => None,
        }
    }
}

impl<'a> Scheduler<'a> {
    /// Attempts to place a job on the reserved pool. Returns `false` when
    /// no reserved instance has enough free cores.
    pub(super) fn try_place_reserved(
        &mut self,
        idx: usize,
        est: &JobEstimate,
        now: SimTime,
        queue_delay: SimDuration,
        carry: Option<Carryover>,
        events: &mut impl EventSink<Event>,
    ) -> bool {
        let query = PlacementQuery {
            family: Family::Standard,
            min_cores: est.cores,
            policy: SearchPolicy::ReservedPool {
                sensitivity: est.sensitivity,
                quality: est.quality,
            },
        };
        // The reserved pool accepts fallbacks: a degraded placement beats
        // queueing behind the hard limit.
        match self.find_placement(&query, now) {
            Some(m) => {
                self.assign(idx, est, m.instance, now, queue_delay, carry, events);
                true
            }
            None => false,
        }
    }

    /// The single placement-search front door: every policy (P1–P8 and
    /// any future one) routes through here, so placement always answers
    /// from the maintained indices — see [`crate::placement`].
    ///
    /// Being the single front door also makes it the natural profiling
    /// boundary: with spans enabled, every placement search attributes
    /// its wall clock to [`ProfSpan::FindPlacement`].
    pub fn find_placement(&mut self, query: &PlacementQuery, now: SimTime) -> Option<PoolMatch> {
        if self.profiler.is_enabled() {
            let profiler = self.profiler.clone();
            profiler.time(ProfSpan::FindPlacement, || {
                self.find_placement_inner(query, now)
            })
        } else {
            self.find_placement_inner(query, now)
        }
    }

    fn find_placement_inner(&mut self, query: &PlacementQuery, now: SimTime) -> Option<PoolMatch> {
        match query.policy {
            SearchPolicy::ReservedPool {
                sensitivity,
                quality,
            } => self
                .best_pool_instance(true, query.min_cores, &sensitivity, quality, now)
                .into_match(),
            SearchPolicy::OnDemandPool {
                sensitivity,
                quality,
            } => {
                let found = self
                    .best_pool_instance(false, query.min_cores, &sensitivity, quality, now)
                    .into_match();
                if matches!(found, Some(m) if !m.fallback) {
                    self.counters.placement_fastpath += 1;
                }
                found
            }
            SearchPolicy::IdleDedicated {
                spot_ok,
                min_quality,
            } => {
                let h = self.find_idle_dedicated(
                    query.family,
                    query.min_cores,
                    spot_ok,
                    min_quality,
                    now,
                )?;
                self.counters.placement_fastpath += 1;
                Some(PoolMatch {
                    instance: h,
                    fallback: false,
                })
            }
        }
    }

    /// The greedy search of Section 3.3 over a pool of full-server
    /// instances (reserved pool or on-demand pool).
    ///
    /// With profiling info the search is QoS-aware and consolidating:
    /// among instances whose predicted interference still satisfies the
    /// job (more-sensitive jobs accept less), pick the most loaded — so
    /// load dips leave whole instances idle and releasable. If no
    /// instance is acceptable, fall back to the least-interfering one.
    /// Without profiling info, placement is least-loaded and oblivious.
    fn best_pool_instance(
        &self,
        reserved: bool,
        cores: u32,
        sensitivity: &ResourceVector,
        quality: f64,
        now: SimTime,
    ) -> PoolCandidate {
        let mut acceptable: Option<(InstanceHandle, u32)> = None; // most loaded
        let mut fallback: Option<(InstanceHandle, f64)> = None; // min slowdown
        let mut least_loaded: Option<(InstanceHandle, u32)> = None;
        // A sensitive job (high Q) tolerates little predicted slowdown; a
        // tolerant one accepts more.
        let headroom = 1.0 + 0.6 * (1.0 - quality).max(0.08);
        // The candidate pool is an index now, not a scan over every
        // instance ever acquired: the fixed reserved prefix, or the live
        // on-demand pool set. Both iterate ascending by index — the
        // visit order of the old full scan, so ties break identically.
        let mut consider = |h: InstanceHandle| {
            let inst = self.inst(h);
            debug_assert_eq!(inst.reserved, reserved, "pool index invariant");
            debug_assert!(inst.itype.is_full_server(), "pool index invariant");
            if inst.spot || inst.free_cores() < cores {
                return;
            }
            // On-demand pool instances keep ~2 cores of headroom to absorb
            // unpredictability (the overprovisioning the paper attributes
            // to OdF/HF "only requesting the largest instances").
            if !reserved && inst.used_cores + cores > inst.itype.vcpus().saturating_sub(2) {
                return;
            }
            if !self.config.profiling {
                if least_loaded.is_none_or(|(_, u)| inst.used_cores < u) {
                    least_loaded = Some((h, inst.used_cores));
                }
                return;
            }
            let mut pressure = self.internal_pressure(h, None);
            if !reserved {
                pressure = pressure.add(&self.cloud.external_pressure(inst.cloud_id, now));
            }
            let slowdown = self.cloud.slowdown_model().slowdown(sensitivity, &pressure);
            if slowdown <= headroom {
                if acceptable.is_none_or(|(_, u)| inst.used_cores > u) {
                    acceptable = Some((h, inst.used_cores));
                }
            } else if fallback.is_none_or(|(_, s)| slowdown < s) {
                fallback = Some((h, slowdown));
            }
        };
        if reserved {
            for &h in &self.reserved_handles {
                consider(h);
            }
        } else {
            for &h in &self.od_pool {
                consider(h);
            }
        }
        if !self.config.profiling {
            return PoolCandidate {
                acceptable: least_loaded.map(|(i, _)| i),
                fallback: None,
            };
        }
        PoolCandidate {
            acceptable: acceptable.map(|(i, _)| i),
            fallback: fallback.map(|(i, _)| i),
        }
    }

    /// Places a job on the on-demand full-server pool, packing onto an
    /// existing instance when possible. `queue_delay` is the waiting
    /// interval the job just finished serving (non-zero when arriving
    /// here from the starvation-relief path), so it is credited to the
    /// job rather than dropped.
    pub(super) fn place_od_pool(
        &mut self,
        idx: usize,
        est: &JobEstimate,
        now: SimTime,
        queue_delay: SimDuration,
        carry: Option<Carryover>,
        events: &mut impl EventSink<Event>,
    ) {
        // Pack onto an acceptable existing pool instance; acquire a fresh
        // one rather than degrade the job on an unacceptable instance.
        let query = PlacementQuery {
            family: Family::Standard,
            min_cores: est.cores,
            policy: SearchPolicy::OnDemandPool {
                sensitivity: est.sensitivity,
                quality: est.quality,
            },
        };
        let inst = match self.find_placement(&query, now) {
            Some(m) if !m.fallback => m.instance,
            _ => self.acquire(InstanceType::full_server(), now),
        };
        self.assign(idx, est, inst, now, queue_delay, carry, events);
    }

    /// The instance type a mixed-size strategy requests for this job:
    /// smallest fitting size, family matched to the dominant estimated
    /// sensitivity (Section 3.3: "standard, compute- or memory-optimized").
    pub(super) fn dedicated_itype(&self, est: &JobEstimate, _class: AppClass) -> InstanceType {
        let size = InstanceType::smallest_fitting(est.cores).unwrap_or(16);
        if !self.config.profiling {
            return InstanceType::new(Family::Standard, size);
        }
        let s = &est.sensitivity;
        let mem = s
            .get(Resource::MemCapacity)
            .max(s.get(Resource::MemBandwidth));
        let cpu = s.get(Resource::Cpu);
        let family = if mem > 0.6 && mem > cpu {
            Family::MemoryOptimized
        } else if cpu > 0.6 && cpu > mem {
            Family::ComputeOptimized
        } else {
            Family::Standard
        };
        InstanceType::new(family, size)
    }

    /// Places a job on a per-job-sized on-demand instance, reusing an
    /// idle retained instance of the same type when one exists.
    /// `queue_delay` is wait already served (tenancy gate), credited to
    /// the job rather than dropped.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn place_od_dedicated(
        &mut self,
        idx: usize,
        est: &JobEstimate,
        class: AppClass,
        now: SimTime,
        queue_delay: SimDuration,
        carry: Option<Carryover>,
        events: &mut impl EventSink<Event>,
    ) {
        let itype = self.dedicated_itype(est, class);
        // Preemption victims never ride spot again: re-admitting them onto
        // another doomed instance at the same instant would loop forever.
        let spot_ok = carry.is_none() && self.spot_eligible(&self.scenario.jobs()[idx], est);
        // Hybrids: free cores on an already-held full-server on-demand
        // instance (e.g. one acquired by the hard-limit escape hatch) are
        // paid for whether used or not, and deliver full-server quality;
        // fill them first. OdM has no such pool — the paper's OdM
        // requests the smallest instance per job.
        if self.strat().is_hybrid() {
            let query = PlacementQuery {
                family: Family::Standard,
                min_cores: est.cores,
                policy: SearchPolicy::OnDemandPool {
                    sensitivity: est.sensitivity,
                    quality: est.quality,
                },
            };
            if let Some(m) = self.find_placement(&query, now) {
                if !m.fallback {
                    self.assign(idx, est, m.instance, now, queue_delay, carry, events);
                    return;
                }
            }
        }
        // Reuse an idle retained instance of the same family whose size
        // fits without gross waste (up to 2× the requested size), smallest
        // first — but only if it currently delivers the quality the job
        // needs (Section 3.3: match "the resource capabilities of
        // instances to the interference requirements of a job").
        let reuse_query = PlacementQuery {
            family: itype.family(),
            min_cores: itype.vcpus(),
            policy: SearchPolicy::IdleDedicated {
                spot_ok,
                min_quality: est.quality * 0.9,
            },
        };
        let inst = match self.find_placement(&reuse_query, now) {
            Some(m) => m.instance,
            None if spot_ok => {
                let bid = self
                    .config
                    .spot
                    .expect("spot_eligible checked")
                    .bid_multiplier;
                self.acquire_spot(itype, bid, now, events)
            }
            None => self.acquire(itype, now),
        };
        self.assign(idx, est, inst, now, queue_delay, carry, events);
    }

    /// The idle-retention reuse search: an ordered range probe over the
    /// `(family, size, handle)` index, so the first eligible hit is the
    /// smallest fitting size in acquisition order — the same instance the
    /// old `min_by_key` full scan chose.
    pub(super) fn find_idle_dedicated(
        &self,
        family: Family,
        vcpus: u32,
        spot_ok: bool,
        min_quality: f64,
        now: SimTime,
    ) -> Option<InstanceHandle> {
        let margin = SimDuration::from_mins(2);
        let lo = (family, vcpus, InstanceHandle::MIN);
        let hi = (family, vcpus * 2, InstanceHandle::MAX);
        for &(_, _, h) in self.idle_buckets.range(lo..=hi) {
            let inst = self.inst(h);
            debug_assert!(
                !inst.reserved && inst.jobs.is_empty(),
                "idle index invariant"
            );
            if inst.ready_at > now {
                continue;
            }
            // Spot instances only host spot-tolerant jobs, and only while
            // the market is not about to reclaim them.
            if inst.spot
                && !(spot_ok
                    && self
                        .cloud
                        .instance(inst.cloud_id)
                        .terminates_at()
                        .is_none_or(|t| t > now + margin))
            {
                continue;
            }
            if self.config.profiling
                && self.cloud.delivered_quality(inst.cloud_id, now) < min_quality
            {
                continue;
            }
            return Some(h);
        }
        None
    }
}
