//! Run configuration: everything one experiment varies.

use hcloud_cloud::CloudConfig;
use hcloud_faults::FaultPlan;
use hcloud_quasar::QuasarConfig;
use hcloud_sim::{SimDuration, SimTime};
use hcloud_workloads::Scenario;

use crate::mapping::MappingPolicy;
use crate::strategy::{ReservedSizingCtx, StrategyRef};

/// Spot-instance usage policy (the Section 5.5 extension): hybrids may
/// run tolerant, non-critical batch jobs on deeply discounted spot
/// capacity, accepting market terminations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotPolicy {
    /// Bid, as a multiple of the on-demand rate. Higher bids survive more
    /// market spikes but cap the savings.
    pub bid_multiplier: f64,
    /// Only jobs whose estimated quality requirement is at or below this
    /// are spot-eligible ("jobs with very relaxed performance
    /// requirements").
    pub max_quality: f64,
}

impl Default for SpotPolicy {
    fn default() -> Self {
        SpotPolicy {
            bid_multiplier: 0.6,
            max_quality: 0.80,
        }
    }
}

/// Data-locality model (Section 5.5: "When reserved resources are
/// deployed as a private facility, provisioning must also consider how
/// to minimize data transfers and replication across the two clusters").
///
/// Each job's dataset deterministically lives either in the private
/// (reserved) facility or in the public cloud; running a job on the
/// other side first copies the dataset across the inter-cluster link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataLocalityModel {
    /// Fraction of jobs whose dataset lives in the private facility.
    pub private_data_fraction: f64,
    /// Inter-cluster link bandwidth in Gbit/s.
    pub bandwidth_gbps: f64,
    /// When true, placement prefers the side holding the job's data if
    /// the transfer would dominate the job (the mitigation the paper
    /// calls for); when false, placement is locality-oblivious.
    pub data_aware_placement: bool,
}

impl Default for DataLocalityModel {
    fn default() -> Self {
        DataLocalityModel {
            private_data_fraction: 0.7,
            bandwidth_gbps: 10.0,
            data_aware_placement: true,
        }
    }
}

impl DataLocalityModel {
    /// Whether the dataset of job `job_id` lives in the private facility
    /// (deterministic hash, identical across strategies).
    pub fn data_in_private(&self, job_id: u64) -> bool {
        let mut h = job_id.wrapping_mul(0xD6E8FEB86659FD93) ^ 0x0008_FE88_9F55;
        h ^= h >> 31;
        h = h.wrapping_mul(0x94D049BB133111EB);
        h ^= h >> 29;
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.private_data_fraction
    }

    /// Time to copy `dataset_gb` across the inter-cluster link.
    pub fn transfer_delay(&self, dataset_gb: f64) -> hcloud_sim::SimDuration {
        hcloud_sim::SimDuration::from_secs_f64(dataset_gb * 8.0 / self.bandwidth_gbps.max(1e-6))
    }
}

/// Configuration for a single scenario run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The provisioning strategy under test.
    pub strategy: StrategyRef,
    /// The job-mapping policy (consulted by hybrid strategies only).
    pub policy: MappingPolicy,
    /// Whether Quasar profiling/classification information is available
    /// (the with/without split of Figures 4 and 10).
    pub profiling: bool,
    /// Idle on-demand instances are retained for this multiple of their
    /// spin-up overhead (Section 3.2: "we set the retention time to 10x
    /// the spin-up overhead").
    pub retention_mult: f64,
    /// SR overprovisioning above peak with profiling info (Section 3.1:
    /// 10–15%).
    pub overprovision: f64,
    /// SR overprovisioning without profiling info (user reservations are
    /// error-prone; Section 3.3).
    pub overprovision_unprofiled: f64,
    /// The cloud substrate configuration (spin-up, external load,
    /// provider, slowdown model).
    pub cloud: CloudConfig,
    /// The classification engine configuration.
    pub quasar: QuasarConfig,
    /// How often the monitor samples quality/progress and the feedback
    /// loops adjust.
    pub monitor_interval: SimDuration,
    /// Overrides the computed reserved-core count.
    pub reserved_cores_override: Option<u32>,
    /// On-demand instances whose observed quality at release time is
    /// below this are released immediately instead of retained
    /// (Section 3.2: "Only instances that provide predictably high
    /// performance are retained").
    pub quality_retention_threshold: f64,
    /// How much pressure co-scheduled jobs exert relative to external
    /// tenants. The paper's evaluation partitions servers with Linux
    /// containers (Section 2.2), so scheduler-managed colocation is far
    /// better isolated than unmanaged external load.
    pub internal_pressure_scale: f64,
    /// Record per-instance utilization samples (Figures 19–20); off by
    /// default to keep sweeps lean.
    pub record_utilization: bool,
    /// Spot-instance usage (Section 5.5 extension); `None` reproduces the
    /// paper's strategies exactly.
    pub spot: Option<SpotPolicy>,
    /// Overrides the dynamic policy's `(starting soft, hard)` utilization
    /// limits (ablation knob); `None` uses the paper defaults.
    pub dynamic_limits: Option<(f64, f64)>,
    /// Data-locality modeling (Section 5.5 extension); `None` assumes
    /// both resource pools share one physical cluster, like the paper's
    /// evaluation.
    pub data: Option<DataLocalityModel>,
    /// Fault-injection plan (preemption storms, spin-up faults, capacity
    /// errors, stragglers, monitor dropouts). The off plan injects
    /// nothing and consumes no randomness, reproducing fault-free runs
    /// byte-for-byte.
    pub faults: FaultPlan,
}

impl RunConfig {
    /// The paper-default configuration for `strategy` — a
    /// [`crate::StrategyId`], a [`StrategyRef`], or anything else that
    /// converts into one.
    pub fn new(strategy: impl Into<StrategyRef>) -> RunConfig {
        RunConfig {
            strategy: strategy.into(),
            policy: MappingPolicy::Dynamic,
            profiling: true,
            retention_mult: 10.0,
            overprovision: 0.15,
            overprovision_unprofiled: 0.30,
            cloud: CloudConfig::default(),
            quasar: QuasarConfig::default(),
            monitor_interval: SimDuration::from_secs(10),
            reserved_cores_override: None,
            quality_retention_threshold: 0.75,
            internal_pressure_scale: 0.10,
            record_utilization: false,
            spot: None,
            dynamic_limits: None,
            data: None,
            faults: FaultPlan::off(),
        }
    }

    /// Same configuration with a different mapping policy (Figures 6–7).
    pub fn with_policy(mut self, policy: MappingPolicy) -> RunConfig {
        self.policy = policy;
        self
    }

    /// Same configuration without profiling information.
    pub fn without_profiling(mut self) -> RunConfig {
        self.profiling = false;
        self
    }

    /// Sets whether Quasar profiling/classification information is
    /// available (the with/without split of Figures 4 and 10).
    pub fn with_profiling(mut self, profiling: bool) -> RunConfig {
        self.profiling = profiling;
        self
    }

    /// Sets the idle-instance retention multiple (Figure 15's sweep knob).
    pub fn with_retention_mult(mut self, retention_mult: f64) -> RunConfig {
        self.retention_mult = retention_mult;
        self
    }

    /// Overrides the dynamic policy's `(starting soft, hard)` utilization
    /// limits (ablation knob).
    pub fn with_dynamic_limits(mut self, soft: f64, hard: f64) -> RunConfig {
        self.dynamic_limits = Some((soft, hard));
        self
    }

    /// Replaces the classification-engine configuration (fidelity
    /// ablations).
    pub fn with_quasar(mut self, quasar: QuasarConfig) -> RunConfig {
        self.quasar = quasar;
        self
    }

    /// Replaces the cloud substrate configuration wholesale.
    pub fn with_cloud(mut self, cloud: CloudConfig) -> RunConfig {
        self.cloud = cloud;
        self
    }

    /// Sets the on-demand spin-up overhead model (Figure 14a's knob).
    pub fn with_spin_up(mut self, spin_up: hcloud_cloud::SpinUpModel) -> RunConfig {
        self.cloud.spin_up = spin_up;
        self
    }

    /// Sets the external-load process on shared servers (Figure 14b's
    /// knob).
    pub fn with_external_load(mut self, external: hcloud_cloud::ExternalLoadModel) -> RunConfig {
        self.cloud.external = external;
        self
    }

    /// Sets the degree of shared-resource partitioning (Section 5.5
    /// extension).
    pub fn with_partitioning(mut self, isolation: f64) -> RunConfig {
        self.cloud.partitioning = isolation;
        self
    }

    /// Sets the retention quality gate: on-demand instances observed below
    /// this quality are released immediately (0 disables the gate).
    pub fn with_quality_retention_threshold(mut self, threshold: f64) -> RunConfig {
        self.quality_retention_threshold = threshold;
        self
    }

    /// Enables spot-instance usage (Section 5.5 extension).
    pub fn with_spot(mut self, spot: SpotPolicy) -> RunConfig {
        self.spot = Some(spot);
        self
    }

    /// Enables data-locality modeling (Section 5.5 extension).
    pub fn with_data(mut self, data: DataLocalityModel) -> RunConfig {
        self.data = Some(data);
        self
    }

    /// Records per-instance utilization samples (Figures 19–20).
    pub fn with_record_utilization(mut self, record: bool) -> RunConfig {
        self.record_utilization = record;
        self
    }

    /// Sets the fault-injection plan (resilience studies).
    pub fn with_faults(mut self, faults: FaultPlan) -> RunConfig {
        self.faults = faults;
        self
    }

    /// Overrides the computed reserved-core count.
    pub fn with_reserved_cores_override(mut self, cores: u32) -> RunConfig {
        self.reserved_cores_override = Some(cores);
        self
    }

    /// The reserved cores this strategy provisions for `scenario`,
    /// delegated to the strategy's sizing hook: peak × (1 +
    /// overprovisioning) for SR, the steady-state minimum for the
    /// hybrids, zero for the on-demand strategies (Sections 3.1, 4.1).
    pub fn reserved_cores(&self, scenario: &Scenario) -> u32 {
        if let Some(o) = self.reserved_cores_override {
            return o;
        }
        if !self.strategy.uses_reserved() {
            return 0;
        }
        let cfg = scenario.config();
        // Scan the analytic demand curve (the paper assumes knowledge of
        // min/max aggregate load; Section 1).
        let mut peak = 0.0f64;
        let mut min = f64::MAX;
        let step = SimDuration::from_secs(30);
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + cfg.duration;
        while t <= end {
            let v = cfg.target_cores(t);
            peak = peak.max(v);
            min = min.min(v);
            t += step;
        }
        self.strategy.reserved_cores(&ReservedSizingCtx {
            peak_cores: peak,
            min_cores: min,
            profiling: self.profiling,
            overprovision: self.overprovision,
            overprovision_unprofiled: self.overprovision_unprofiled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyId;
    use hcloud_sim::rng::RngFactory;
    use hcloud_workloads::{ScenarioConfig, ScenarioKind};

    fn scenario(kind: ScenarioKind) -> Scenario {
        Scenario::generate(ScenarioConfig::paper(kind), &RngFactory::new(1))
    }

    #[test]
    fn sr_provisions_for_peak_plus_margin() {
        let s = scenario(ScenarioKind::Static);
        let cores = RunConfig::new(StrategyId::SR).reserved_cores(&s);
        // Peak ≈ 885, ×1.15 ≈ 1018.
        assert!((950..1100).contains(&cores), "SR cores {cores}");
    }

    #[test]
    fn unprofiled_sr_overprovisions_more() {
        let s = scenario(ScenarioKind::Static);
        let with = RunConfig::new(StrategyId::SR).reserved_cores(&s);
        let without = RunConfig::new(StrategyId::SR)
            .without_profiling()
            .reserved_cores(&s);
        assert!(without > with);
    }

    #[test]
    fn hybrids_provision_for_steady_minimum() {
        let s = scenario(ScenarioKind::LowVariability);
        let cores = RunConfig::new(StrategyId::HM).reserved_cores(&s);
        // The paper quotes ~600 cores for the low-variability scenario.
        assert!((550..680).contains(&cores), "hybrid cores {cores}");
    }

    #[test]
    fn on_demand_strategies_reserve_nothing() {
        let s = scenario(ScenarioKind::Static);
        assert_eq!(RunConfig::new(StrategyId::ODF).reserved_cores(&s), 0);
        assert_eq!(RunConfig::new(StrategyId::ODM).reserved_cores(&s), 0);
    }

    #[test]
    fn override_wins() {
        let s = scenario(ScenarioKind::Static);
        let mut c = RunConfig::new(StrategyId::SR);
        c.reserved_cores_override = Some(64);
        assert_eq!(c.reserved_cores(&s), 64);
    }

    #[test]
    fn high_variability_hybrid_reserves_little() {
        let s = scenario(ScenarioKind::HighVariability);
        let cores = RunConfig::new(StrategyId::HF).reserved_cores(&s);
        // Min of the high-var curve is ~198-210.
        assert!((150..260).contains(&cores), "hybrid cores {cores}");
    }
}
