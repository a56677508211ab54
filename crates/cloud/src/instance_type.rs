//! The instance catalog.
//!
//! The paper's experiments use 1-vCPU micro instances, 1–8 vCPU standard
//! instances (`st1`–`st8`), and 16-vCPU memory-optimized instances (`m16`)
//! for Figures 1–2; the provisioning strategies partition 16-vCPU servers
//! into `{1, 2, 4, 8, 16}`-vCPU slices (Section 2.2), and OdM may request
//! standard, compute-optimized, or memory-optimized types (Section 3.3).

use std::fmt;

/// An instance family, mirroring the standard / compute-optimized /
/// memory-optimized split on GCE and EC2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Balanced vCPU:memory ratio (GCE `n1-standard`).
    Standard,
    /// Higher vCPU:memory ratio (GCE `n1-highcpu`).
    ComputeOptimized,
    /// Lower vCPU:memory ratio (GCE `n1-highmem`).
    MemoryOptimized,
}

impl Family {
    /// All families.
    pub const ALL: [Family; 3] = [
        Family::Standard,
        Family::ComputeOptimized,
        Family::MemoryOptimized,
    ];

    /// Memory per vCPU in GB for this family.
    pub fn memory_per_vcpu_gb(self) -> f64 {
        match self {
            Family::Standard => 3.75,
            Family::ComputeOptimized => 0.9,
            Family::MemoryOptimized => 6.5,
        }
    }

    /// Short prefix used in type names (`st`, `c`, `m`).
    fn prefix(self) -> &'static str {
        match self {
            Family::Standard => "st",
            Family::ComputeOptimized => "c",
            Family::MemoryOptimized => "m",
        }
    }
}

/// A concrete instance type: a family, a size, and whether it is the
/// shared-core "micro" type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceType {
    family: Family,
    vcpus: u32,
    micro: bool,
}

/// Number of vCPUs on a full physical server (the largest instance).
pub const SERVER_VCPUS: u32 = 16;

/// The slice sizes servers may be partitioned into (Section 2.2: "we only
/// partition servers at the granularity of existing GCE instances").
pub const VALID_SIZES: [u32; 5] = [1, 2, 4, 8, 16];

impl InstanceType {
    /// The shared-core 1-vCPU micro instance.
    pub const MICRO: InstanceType = InstanceType {
        family: Family::Standard,
        vcpus: 1,
        micro: true,
    };

    /// Creates a standard instance with `vcpus` vCPUs.
    ///
    /// # Panics
    /// Panics if `vcpus` is not one of [`VALID_SIZES`].
    pub fn standard(vcpus: u32) -> InstanceType {
        InstanceType::new(Family::Standard, vcpus)
    }

    /// Creates an instance of the given family and size.
    ///
    /// # Panics
    /// Panics if `vcpus` is not one of [`VALID_SIZES`].
    pub fn new(family: Family, vcpus: u32) -> InstanceType {
        assert!(
            VALID_SIZES.contains(&vcpus),
            "invalid instance size {vcpus}; sizes are {VALID_SIZES:?}"
        );
        InstanceType {
            family,
            vcpus,
            micro: false,
        }
    }

    /// The largest standard instance (a full server). SR, OdF and the
    /// reserved portion of the hybrids use only this type.
    pub fn full_server() -> InstanceType {
        InstanceType::standard(SERVER_VCPUS)
    }

    /// The 16-vCPU memory-optimized instance from Figures 1–2.
    pub fn m16() -> InstanceType {
        InstanceType::new(Family::MemoryOptimized, SERVER_VCPUS)
    }

    /// Number of distinct instance types: every family × size, micro or
    /// not. [`InstanceType::index`] ranges over `0..COUNT`.
    pub const COUNT: usize = Family::ALL.len() * VALID_SIZES.len() * 2;

    /// A dense index in `0..COUNT`, distinct per type: family × size ×
    /// micro. Lets per-type tables be arrays instead of hash maps.
    pub fn index(self) -> usize {
        // Sizes are the powers of two 1..=16: the exponent is the size's
        // position in `VALID_SIZES`.
        let size = self.vcpus.trailing_zeros() as usize;
        (self.family as usize * VALID_SIZES.len() + size) * 2 + usize::from(self.micro)
    }

    /// The family.
    pub fn family(self) -> Family {
        self.family
    }

    /// Number of vCPUs.
    pub fn vcpus(self) -> u32 {
        self.vcpus
    }

    /// Whether this is the shared-core micro type.
    pub fn is_micro(self) -> bool {
        self.micro
    }

    /// Memory allocation in GB.
    pub fn memory_gb(self) -> f64 {
        if self.micro {
            0.6
        } else {
            self.family.memory_per_vcpu_gb() * self.vcpus as f64
        }
    }

    /// Whether the instance occupies a full server (and therefore sees no
    /// external interference beyond the network).
    pub fn is_full_server(self) -> bool {
        self.vcpus == SERVER_VCPUS
    }

    /// The fraction of a server left to external tenants: 0 for a full
    /// server, 15/16 for a 1-vCPU slice. This caps how much external
    /// pressure an instance can experience, which is why larger instances
    /// are more predictable (Figures 1–2).
    pub fn external_share(self) -> f64 {
        1.0 - self.vcpus as f64 / SERVER_VCPUS as f64
    }

    /// The smallest valid instance size with at least `vcpus` vCPUs.
    /// Returns `None` if the request exceeds a full server.
    pub fn smallest_fitting(vcpus: u32) -> Option<u32> {
        VALID_SIZES.iter().copied().find(|&s| s >= vcpus)
    }

    /// The catalog used in Figures 1–2: micro, st1, st2, st8, m16.
    pub fn figure12_catalog() -> Vec<InstanceType> {
        vec![
            InstanceType::MICRO,
            InstanceType::standard(1),
            InstanceType::standard(2),
            InstanceType::standard(8),
            InstanceType::m16(),
        ]
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.micro {
            write!(f, "micro")
        } else {
            write!(f, "{}{}", self.family.prefix(), self.vcpus)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(InstanceType::MICRO.to_string(), "micro");
        assert_eq!(InstanceType::standard(8).to_string(), "st8");
        assert_eq!(InstanceType::m16().to_string(), "m16");
        assert_eq!(
            InstanceType::new(Family::ComputeOptimized, 4).to_string(),
            "c4"
        );
    }

    #[test]
    fn index_is_dense_and_distinct() {
        let mut seen = [false; InstanceType::COUNT];
        let mut types: Vec<InstanceType> = Family::ALL
            .iter()
            .flat_map(|&f| VALID_SIZES.iter().map(move |&s| InstanceType::new(f, s)))
            .collect();
        types.extend(
            types
                .clone()
                .into_iter()
                .map(|t| InstanceType { micro: true, ..t }),
        );
        assert_eq!(types.len(), InstanceType::COUNT);
        for t in types {
            assert!(
                !std::mem::replace(&mut seen[t.index()], true),
                "{t:?} collides"
            );
        }
        assert!(seen[InstanceType::MICRO.index()]);
    }

    #[test]
    #[should_panic(expected = "invalid instance size")]
    fn rejects_off_catalog_sizes() {
        InstanceType::standard(3);
    }

    #[test]
    fn external_share_shrinks_with_size() {
        let shares: Vec<f64> = VALID_SIZES
            .iter()
            .map(|&s| InstanceType::standard(s).external_share())
            .collect();
        for w in shares.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert_eq!(InstanceType::full_server().external_share(), 0.0);
        assert!(InstanceType::full_server().is_full_server());
    }

    #[test]
    fn smallest_fitting_rounds_up() {
        assert_eq!(InstanceType::smallest_fitting(1), Some(1));
        assert_eq!(InstanceType::smallest_fitting(3), Some(4));
        assert_eq!(InstanceType::smallest_fitting(9), Some(16));
        assert_eq!(InstanceType::smallest_fitting(17), None);
    }

    #[test]
    fn memory_scales_with_family() {
        assert!(InstanceType::m16().memory_gb() > InstanceType::standard(16).memory_gb());
        assert!(
            InstanceType::new(Family::ComputeOptimized, 16).memory_gb()
                < InstanceType::standard(16).memory_gb()
        );
        assert!(InstanceType::MICRO.memory_gb() < 1.0);
    }

    #[test]
    fn figure12_catalog_is_ordered_small_to_large() {
        let cat = InstanceType::figure12_catalog();
        assert_eq!(cat.len(), 5);
        for w in cat.windows(2) {
            assert!(w[0].vcpus() <= w[1].vcpus());
        }
    }
}
