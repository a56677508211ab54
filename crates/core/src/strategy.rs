//! Provisioning strategies: the pluggable decision surface.
//!
//! The paper's five strategies (Tables 1 and 3) are implementations of
//! the [`ProvisioningStrategy`] trait, registered under stable string
//! ids in a [`StrategyRegistry`]. Everything the scheduler used to
//! decide by matching on a closed enum — reserved sizing, on-demand
//! acquisition and shape, idle-instance retention, soft-limit
//! adaptation — is a trait hook, so strategies beyond the paper's five
//! plug in without touching the scheduler. Callers name a builtin
//! through the [`StrategyId`] constants (`StrategyId::HM`) and iterate
//! the paper's five with [`StrategyRegistry::paper`].
//!
//! | | SR | OdF | OdM | HF | HM | RA | QC |
//! |---|---|---|---|---|---|---|---|
//! | Reserved resources | yes | no | no | yes | yes | yes | yes |
//! | On-demand resources | no | full | any | full | any | any | any |
//!
//! The two post-paper strategies are theory-grounded extensions:
//!
//! * **`reservation-autoscale` (RA)** — blocking-threshold reservation
//!   scaling after Psychas & Ghaderi (arXiv 2005.13744): the reserved
//!   queue is the blocking signal; sustained blocking trips a
//!   multiplicative cut of the soft utilization limit (carving headroom
//!   by diverting work to on-demand), and a block-free dwell window
//!   relaxes it back additively — hysteresis instead of the paper's
//!   linear transfer functions.
//! * **`queueing-capacity` (QC)** — Furman-style M\[x\]/G/s capacity
//!   planning (arXiv 2209.08820): the observed batch sizes (estimated
//!   cores per arrival) feed an EWMA, and square-root safety staffing
//!   sets the reserved-pool occupancy target ρ\* = 1 − β·√b̄/√s; jobs
//!   map to reserved below ρ\* and overflow to on-demand above it.

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use hcloud_sim::rng::SimRng;
use hcloud_sim::{SimDuration, SimTime};

use crate::dynamic::DynamicLimits;
use crate::mapping::{MappingContext, MappingPolicy, Placement};

// ----------------------------------------------------------------------
// Decision contexts
// ----------------------------------------------------------------------

/// Inputs to [`ProvisioningStrategy::reserved_cores`]: the extremes of
/// the scenario's analytic demand curve (the paper assumes knowledge of
/// min/max aggregate load; Section 1) and the sizing knobs of the run
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReservedSizingCtx {
    /// Peak of the demand curve, in cores.
    pub peak_cores: f64,
    /// Steady-state minimum of the demand curve, in cores.
    pub min_cores: f64,
    /// Whether Quasar profiling/classification information is available.
    pub profiling: bool,
    /// SR overprovisioning above peak with profiling info (Section 3.1).
    pub overprovision: f64,
    /// SR overprovisioning without profiling info (Section 3.3).
    pub overprovision_unprofiled: f64,
}

/// Inputs to [`ProvisioningStrategy::place`]: the mapping-policy context
/// plus the strategy-level facts the old enum branches consulted.
#[derive(Debug)]
pub struct PlacementCtx<'a> {
    /// Everything a mapping decision may consult.
    pub mapping: MappingContext<'a>,
    /// The effective mapping policy — already degraded from `Dynamic` to
    /// the static soft-limit rule while the QoS monitor signal is
    /// dropped out (fault injection).
    pub policy: MappingPolicy,
    /// Reserved cores provisioned for this run.
    pub reserved_cores: u32,
}

/// Inputs to [`ProvisioningStrategy::retention`] for a newly idle
/// on-demand instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionCtx {
    /// The instance's spin-up overhead.
    pub spin_up: SimDuration,
    /// The quality the instance delivered over its busy period.
    pub delivered_quality: f64,
    /// Whether profiling information (and thus a quality signal) exists.
    pub profiling: bool,
    /// Idle instances are retained for this multiple of their spin-up
    /// overhead (Section 3.2).
    pub retention_mult: f64,
    /// Instances observed below this quality are released immediately.
    pub quality_retention_threshold: f64,
}

/// What to do with a newly idle on-demand instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetentionDecision {
    /// Release it immediately (poor delivered quality; Section 3.2).
    ReleaseNow,
    /// Keep it idle for this long, then release if still unused.
    Retain(SimDuration),
}

// ----------------------------------------------------------------------
// The trait
// ----------------------------------------------------------------------

/// A provisioning strategy: every decision hook the scheduler consults.
///
/// One boxed instance is created per run via [`fresh_run`]
/// (strategies may carry run-local adaptive state); the flag methods
/// (`uses_reserved` & co.) must be pure and stable for the strategy's
/// lifetime. Implementations must not consume randomness beyond the
/// `rng` handed to [`place`] — determinism across worker counts depends
/// on it.
///
/// [`fresh_run`]: ProvisioningStrategy::fresh_run
/// [`place`]: ProvisioningStrategy::place
pub trait ProvisioningStrategy: fmt::Debug + Send + Sync {
    /// Stable registry id (kebab-case, e.g. `"hybrid-mixed"`).
    fn id(&self) -> &'static str;

    /// Short display name (e.g. `"HM"`), used in figure labels.
    fn short_name(&self) -> &'static str;

    /// Whether the strategy provisions reserved resources (Table 3 row 1).
    fn uses_reserved(&self) -> bool;

    /// Whether the strategy acquires on-demand resources (Table 3 row 2).
    fn uses_on_demand(&self) -> bool;

    /// Whether on-demand acquisitions are restricted to full servers.
    fn on_demand_full_only(&self) -> bool;

    /// Whether the strategy actively manages a reserved/on-demand mix
    /// (pool consolidation, starvation relief, spot, data-aware
    /// placement — the hybrid machinery of Sections 3.2–3.3).
    fn is_hybrid(&self) -> bool;

    /// Whether profiling runs in a noisy environment (OdM's small shared
    /// instances; Section 3.3).
    fn profiles_noisily(&self) -> bool {
        false
    }

    /// Reserved cores to provision. Default: the steady-state minimum
    /// for reserved-using strategies (Section 4.1), zero otherwise.
    fn reserved_cores(&self, ctx: &ReservedSizingCtx) -> u32 {
        if self.uses_reserved() {
            ctx.min_cores.ceil() as u32
        } else {
            0
        }
    }

    /// Where to send an arriving job. `rng` is the shared mapping
    /// stream; draw from it only when the decision is genuinely random
    /// (today only [`MappingPolicy::Random`] does).
    fn place(&mut self, ctx: &PlacementCtx<'_>, rng: &mut SimRng) -> Placement;

    /// Per-tick feedback on the reserved queue. Default: the paper's
    /// linear transfer functions on the soft limit (Figure 9 left).
    fn adapt_limits(&mut self, limits: &mut DynamicLimits, queue_len: usize, now: SimTime) {
        limits.observe_queue(queue_len, now);
    }

    /// What to do with a newly idle on-demand instance. Default: the
    /// paper's quality-gated retention (Section 3.2) — release
    /// immediately below the quality threshold, otherwise retain for
    /// `retention_mult ×` spin-up (at least one second).
    fn retention(&self, ctx: &RetentionCtx) -> RetentionDecision {
        if ctx.profiling && ctx.delivered_quality < ctx.quality_retention_threshold {
            RetentionDecision::ReleaseNow
        } else {
            RetentionDecision::Retain(
                ctx.spin_up
                    .mul_f64(ctx.retention_mult)
                    .max(SimDuration::from_secs(1)),
            )
        }
    }

    /// A pristine instance for one scenario run. Run-local adaptive
    /// state starts from the same initial value on every call, so runs
    /// are independent and byte-reproducible across worker counts.
    fn fresh_run(&self) -> Box<dyn ProvisioningStrategy>;
}

// ----------------------------------------------------------------------
// StrategyRef: the shared, cloneable handle configs carry
// ----------------------------------------------------------------------

/// A shared handle onto a [`ProvisioningStrategy`].
///
/// This is what [`crate::RunConfig`] carries: cheap to clone, `Send +
/// Sync` for the parallel experiment engine, compared/hashs by registry
/// id, displayed by short name (so run labels keep reading `HM`, not
/// `hybrid-mixed`). The scheduler never mutates through it — it calls
/// [`StrategyRef::fresh_run`] and owns the per-run box.
#[derive(Clone)]
pub struct StrategyRef(Arc<dyn ProvisioningStrategy>);

impl StrategyRef {
    /// Wraps a strategy implementation.
    pub fn new(strategy: impl ProvisioningStrategy + 'static) -> StrategyRef {
        StrategyRef(Arc::new(strategy))
    }

    /// Stable registry id.
    pub fn id(&self) -> &'static str {
        self.0.id()
    }

    /// Short display name.
    pub fn short_name(&self) -> &'static str {
        self.0.short_name()
    }

    /// See [`ProvisioningStrategy::uses_reserved`].
    pub fn uses_reserved(&self) -> bool {
        self.0.uses_reserved()
    }

    /// See [`ProvisioningStrategy::uses_on_demand`].
    pub fn uses_on_demand(&self) -> bool {
        self.0.uses_on_demand()
    }

    /// See [`ProvisioningStrategy::on_demand_full_only`].
    pub fn on_demand_full_only(&self) -> bool {
        self.0.on_demand_full_only()
    }

    /// See [`ProvisioningStrategy::is_hybrid`].
    pub fn is_hybrid(&self) -> bool {
        self.0.is_hybrid()
    }

    /// See [`ProvisioningStrategy::profiles_noisily`].
    pub fn profiles_noisily(&self) -> bool {
        self.0.profiles_noisily()
    }

    /// See [`ProvisioningStrategy::reserved_cores`].
    pub fn reserved_cores(&self, ctx: &ReservedSizingCtx) -> u32 {
        self.0.reserved_cores(ctx)
    }

    /// See [`ProvisioningStrategy::fresh_run`].
    pub fn fresh_run(&self) -> Box<dyn ProvisioningStrategy> {
        self.0.fresh_run()
    }
}

impl fmt::Debug for StrategyRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

impl fmt::Display for StrategyRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

impl PartialEq for StrategyRef {
    fn eq(&self, other: &StrategyRef) -> bool {
        self.id() == other.id()
    }
}

impl Eq for StrategyRef {}

impl std::hash::Hash for StrategyRef {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id().hash(state);
    }
}

impl From<&StrategyRef> for StrategyRef {
    fn from(r: &StrategyRef) -> StrategyRef {
        r.clone()
    }
}

/// A strategy name that matched nothing in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownStrategy {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let known: Vec<String> = StrategyRegistry::builtin()
            .all()
            .iter()
            .map(|s| format!("{}|{}", s.id(), s.short_name()))
            .collect();
        write!(
            f,
            "unknown strategy '{}' (known: {})",
            self.name,
            known.join(", ")
        )
    }
}

impl std::error::Error for UnknownStrategy {}

impl FromStr for StrategyRef {
    type Err = UnknownStrategy;

    /// Resolves an id or short name (case-insensitive) against the
    /// builtin registry; round-trips with both [`fmt::Display`] (short
    /// name) and [`StrategyRef::id`].
    fn from_str(s: &str) -> Result<StrategyRef, UnknownStrategy> {
        StrategyRegistry::builtin()
            .get(s)
            .ok_or_else(|| UnknownStrategy {
                name: s.to_string(),
            })
    }
}

/// A `Copy` name for a builtin strategy: the interned registry id.
///
/// The constants name each builtin; anything expecting a
/// [`StrategyRef`] accepts them through `Into`
/// (`RunConfig::new(StrategyId::HM)`). Displays as the registry id, so
/// resolve to a [`StrategyRef`] for the short figure label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrategyId(&'static str);

impl StrategyId {
    /// Statically reserved (SR): reserved full servers for peak load
    /// plus overprovisioning; never acquires on-demand.
    pub const SR: StrategyId = StrategyId("static-reserved");
    /// Fully on-demand, full servers only (OdF).
    pub const ODF: StrategyId = StrategyId("on-demand-full");
    /// Fully on-demand, mixed instance sizes (OdM).
    pub const ODM: StrategyId = StrategyId("on-demand-mixed");
    /// Hybrid: reserved for the steady-state minimum, on-demand full
    /// servers for overflow (HF).
    pub const HF: StrategyId = StrategyId("hybrid-full");
    /// Hybrid: reserved for the steady-state minimum, mixed-size
    /// on-demand for overflow (HM).
    pub const HM: StrategyId = StrategyId("hybrid-mixed");
    /// Blocking-threshold reservation scaling (RA; arXiv 2005.13744).
    pub const RA: StrategyId = StrategyId("reservation-autoscale");
    /// M\[x\]/G/s capacity planning (QC; arXiv 2209.08820).
    pub const QC: StrategyId = StrategyId("queueing-capacity");

    /// The interned id string.
    pub const fn as_str(self) -> &'static str {
        self.0
    }

    /// The full strategy handle from the builtin registry.
    pub fn resolve(self) -> StrategyRef {
        StrategyRegistry::builtin()
            .get(self.0)
            .expect("StrategyId holds an interned builtin id")
    }
}

impl fmt::Display for StrategyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl FromStr for StrategyId {
    type Err = UnknownStrategy;

    fn from_str(s: &str) -> Result<StrategyId, UnknownStrategy> {
        s.parse::<StrategyRef>().map(|r| StrategyId(r.id()))
    }
}

impl From<StrategyId> for StrategyRef {
    fn from(id: StrategyId) -> StrategyRef {
        id.resolve()
    }
}

// ----------------------------------------------------------------------
// Registry
// ----------------------------------------------------------------------

/// Strategies by stable string id.
///
/// Lookup accepts the id or the short name, case-insensitively.
/// [`StrategyRegistry::builtin`] holds the paper's five plus the two
/// theory-grounded extensions; experiment code can build its own
/// instance and [`register`](StrategyRegistry::register) more.
#[derive(Debug, Default)]
pub struct StrategyRegistry {
    entries: Vec<StrategyRef>,
}

impl StrategyRegistry {
    /// An empty registry.
    pub fn empty() -> StrategyRegistry {
        StrategyRegistry::default()
    }

    /// A registry holding every builtin strategy: the paper's five
    /// first, in presentation order, then RA and QC.
    pub fn with_builtins() -> StrategyRegistry {
        let mut r = StrategyRegistry::empty();
        for paper in PaperStrategy::ALL {
            r.register(StrategyRef::new(paper));
        }
        r.register(StrategyRef::new(ReservationAutoscale::default()));
        r.register(StrategyRef::new(QueueingCapacity::default()));
        r
    }

    /// The process-wide builtin registry.
    pub fn builtin() -> &'static StrategyRegistry {
        static BUILTIN: OnceLock<StrategyRegistry> = OnceLock::new();
        BUILTIN.get_or_init(StrategyRegistry::with_builtins)
    }

    /// The paper's five strategies in presentation order: SR, OdF, OdM,
    /// HF, HM.
    pub fn paper() -> &'static [StrategyRef] {
        &StrategyRegistry::builtin().all()[..PaperStrategy::ALL.len()]
    }

    /// Registers a strategy, replacing any entry with the same id.
    pub fn register(&mut self, strategy: StrategyRef) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id() == strategy.id()) {
            *e = strategy;
        } else {
            self.entries.push(strategy);
        }
    }

    /// Resolves an id or short name, case-insensitively.
    pub fn get(&self, name: &str) -> Option<StrategyRef> {
        self.entries
            .iter()
            .find(|s| {
                s.id().eq_ignore_ascii_case(name) || s.short_name().eq_ignore_ascii_case(name)
            })
            .cloned()
    }

    /// All registered strategies, in registration order.
    pub fn all(&self) -> &[StrategyRef] {
        &self.entries
    }

    /// All registered ids, in registration order.
    pub fn ids(&self) -> Vec<&'static str> {
        self.entries.iter().map(|s| s.id()).collect()
    }
}

// ----------------------------------------------------------------------
// The paper's five strategies
// ----------------------------------------------------------------------

/// The paper's five strategies (Tables 1 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PaperStrategy {
    StaticReserved,
    OnDemandFull,
    OnDemandMixed,
    HybridFull,
    HybridMixed,
}

impl PaperStrategy {
    /// In the paper's presentation order (the registry's first five).
    const ALL: [PaperStrategy; 5] = [
        PaperStrategy::StaticReserved,
        PaperStrategy::OnDemandFull,
        PaperStrategy::OnDemandMixed,
        PaperStrategy::HybridFull,
        PaperStrategy::HybridMixed,
    ];
}

impl ProvisioningStrategy for PaperStrategy {
    fn id(&self) -> &'static str {
        match self {
            PaperStrategy::StaticReserved => StrategyId::SR,
            PaperStrategy::OnDemandFull => StrategyId::ODF,
            PaperStrategy::OnDemandMixed => StrategyId::ODM,
            PaperStrategy::HybridFull => StrategyId::HF,
            PaperStrategy::HybridMixed => StrategyId::HM,
        }
        .as_str()
    }

    fn short_name(&self) -> &'static str {
        match self {
            PaperStrategy::StaticReserved => "SR",
            PaperStrategy::OnDemandFull => "OdF",
            PaperStrategy::OnDemandMixed => "OdM",
            PaperStrategy::HybridFull => "HF",
            PaperStrategy::HybridMixed => "HM",
        }
    }

    fn uses_reserved(&self) -> bool {
        matches!(
            self,
            PaperStrategy::StaticReserved | PaperStrategy::HybridFull | PaperStrategy::HybridMixed
        )
    }

    fn uses_on_demand(&self) -> bool {
        *self != PaperStrategy::StaticReserved
    }

    fn on_demand_full_only(&self) -> bool {
        matches!(
            self,
            PaperStrategy::OnDemandFull | PaperStrategy::HybridFull
        )
    }

    fn is_hybrid(&self) -> bool {
        matches!(self, PaperStrategy::HybridFull | PaperStrategy::HybridMixed)
    }

    fn profiles_noisily(&self) -> bool {
        // Profiling on small shared instances (the only kind OdM holds)
        // yields noisier signals (Section 3.3).
        *self == PaperStrategy::OnDemandMixed
    }

    fn reserved_cores(&self, ctx: &ReservedSizingCtx) -> u32 {
        match self {
            // SR: peak × (1 + overprovisioning), the margin widening
            // without profiling info (Sections 3.1, 3.3).
            PaperStrategy::StaticReserved => {
                let over = if ctx.profiling {
                    ctx.overprovision
                } else {
                    ctx.overprovision_unprofiled
                };
                (ctx.peak_cores * (1.0 + over)).ceil() as u32
            }
            // Hybrids: the steady-state minimum (Section 4.1).
            PaperStrategy::HybridFull | PaperStrategy::HybridMixed => ctx.min_cores.ceil() as u32,
            PaperStrategy::OnDemandFull | PaperStrategy::OnDemandMixed => 0,
        }
    }

    fn place(&mut self, ctx: &PlacementCtx<'_>, rng: &mut SimRng) -> Placement {
        match self {
            PaperStrategy::StaticReserved => Placement::Reserved,
            PaperStrategy::OnDemandFull | PaperStrategy::OnDemandMixed => Placement::OnDemand,
            PaperStrategy::HybridFull | PaperStrategy::HybridMixed => {
                ctx.policy.decide(&ctx.mapping, rng)
            }
        }
    }

    fn fresh_run(&self) -> Box<dyn ProvisioningStrategy> {
        Box::new(*self)
    }
}

// ----------------------------------------------------------------------
// reservation-autoscale (Psychas & Ghaderi, arXiv 2005.13744)
// ----------------------------------------------------------------------

/// Blocking-threshold reservation scaling.
///
/// Psychas & Ghaderi scale a reservation by watching *blocking events*:
/// when arrivals find the reservation full beyond a threshold, the
/// reservation grows; after a long block-free stretch it shrinks. The
/// reserved pool here is fixed for a run, so the control surface is the
/// soft utilization limit instead — the knob that decides how much of
/// the pool arrivals may claim before overflowing to on-demand:
///
/// * the reserved queue is the blocking signal; `BLOCK_THRESHOLD` or
///   more queued jobs on `TRIP_OBS` consecutive ticks trips a
///   multiplicative cut (`× DOWN_STEP`) of the soft limit, diverting
///   arrivals to on-demand until the backlog drains;
/// * a block-free dwell of `DWELL_SECS` relaxes the limit back by
///   `UP_STEP` per window.
///
/// The asymmetry (fast multiplicative cut, slow additive recovery) is
/// the hysteresis that keeps the controller from oscillating. Placement
/// itself delegates to the configured mapping policy, like HM.
#[derive(Debug, Clone, Default)]
pub struct ReservationAutoscale {
    /// Consecutive ticks with the queue at or above the threshold.
    blocked_obs: u32,
    /// Start of the current block-free stretch.
    clear_since: Option<SimTime>,
}

impl ReservationAutoscale {
    /// Queued jobs counted as a blocking event.
    const BLOCK_THRESHOLD: usize = 4;
    /// Consecutive blocked ticks before the controller trips.
    const TRIP_OBS: u32 = 3;
    /// Multiplicative soft-limit cut on a trip.
    const DOWN_STEP: f64 = 0.85;
    /// Additive soft-limit recovery per block-free dwell window.
    const UP_STEP: f64 = 0.01;
    /// Block-free seconds before one recovery step.
    const DWELL_SECS: u64 = 60;
}

impl ProvisioningStrategy for ReservationAutoscale {
    fn id(&self) -> &'static str {
        StrategyId::RA.as_str()
    }

    fn short_name(&self) -> &'static str {
        "RA"
    }

    fn uses_reserved(&self) -> bool {
        true
    }

    fn uses_on_demand(&self) -> bool {
        true
    }

    fn on_demand_full_only(&self) -> bool {
        false
    }

    fn is_hybrid(&self) -> bool {
        true
    }

    fn place(&mut self, ctx: &PlacementCtx<'_>, rng: &mut SimRng) -> Placement {
        ctx.policy.decide(&ctx.mapping, rng)
    }

    fn adapt_limits(&mut self, limits: &mut DynamicLimits, queue_len: usize, now: SimTime) {
        if queue_len >= Self::BLOCK_THRESHOLD {
            self.clear_since = None;
            self.blocked_obs += 1;
            if self.blocked_obs >= Self::TRIP_OBS {
                self.blocked_obs = 0;
                limits.set_soft(limits.soft() * Self::DOWN_STEP, now);
            }
        } else {
            self.blocked_obs = 0;
            if queue_len == 0 {
                let since = *self.clear_since.get_or_insert(now);
                if now.saturating_since(since) >= SimDuration::from_secs(Self::DWELL_SECS) {
                    limits.set_soft(limits.soft() + Self::UP_STEP, now);
                    self.clear_since = Some(now);
                }
            } else {
                self.clear_since = None;
            }
        }
    }

    fn fresh_run(&self) -> Box<dyn ProvisioningStrategy> {
        Box::new(ReservationAutoscale::default())
    }
}

// ----------------------------------------------------------------------
// queueing-capacity (Furman et al., arXiv 2209.08820)
// ----------------------------------------------------------------------

/// M\[x\]/G/s capacity planning on observed batch arrivals.
///
/// Furman et al. size capacity for queues with parallel processing and
/// batch arrivals; the square-root safety-staffing form of their
/// occupancy target is ρ\* = 1 − β·√b̄/√s, where b̄ is the mean batch
/// size and `s` the server count. Here a *batch* is one job's estimated
/// core demand (jobs claim `est.cores` servers of the reserved pool at
/// once), b̄ is an EWMA over arrivals, and `s` the provisioned reserved
/// cores. Each arrival maps through a static utilization-limit rule at
/// ρ\*: reserved below the target occupancy, on-demand overflow above
/// it. Bigger observed batches or a smaller pool widen the safety
/// margin, exactly the √b̄/√s scaling of the theory.
#[derive(Debug, Clone)]
pub struct QueueingCapacity {
    /// Quality-of-service parameter β (larger → more safety margin).
    beta: f64,
    /// EWMA of the estimated cores per arriving job.
    mean_batch: f64,
    /// Arrivals observed so far.
    arrivals: u64,
}

impl QueueingCapacity {
    /// EWMA smoothing factor for the batch-size estimate.
    const ALPHA: f64 = 0.05;
    /// Occupancy-target clamp: never starve the pool entirely, never
    /// plan past the dynamic hard limit's territory.
    const RHO_MIN: f64 = 0.30;
    const RHO_MAX: f64 = 0.95;

    /// A planner with quality-of-service parameter `beta`.
    pub fn with_beta(beta: f64) -> QueueingCapacity {
        QueueingCapacity {
            beta,
            mean_batch: 0.0,
            arrivals: 0,
        }
    }

    /// The current occupancy target ρ\* for a pool of `reserved_cores`.
    fn occupancy_target(&self, reserved_cores: u32) -> f64 {
        let s = reserved_cores.max(1) as f64;
        let b = self.mean_batch.max(1.0);
        (1.0 - self.beta * b.sqrt() / s.sqrt()).clamp(Self::RHO_MIN, Self::RHO_MAX)
    }
}

impl Default for QueueingCapacity {
    fn default() -> QueueingCapacity {
        QueueingCapacity::with_beta(2.0)
    }
}

impl ProvisioningStrategy for QueueingCapacity {
    fn id(&self) -> &'static str {
        StrategyId::QC.as_str()
    }

    fn short_name(&self) -> &'static str {
        "QC"
    }

    fn uses_reserved(&self) -> bool {
        true
    }

    fn uses_on_demand(&self) -> bool {
        true
    }

    fn on_demand_full_only(&self) -> bool {
        false
    }

    fn is_hybrid(&self) -> bool {
        true
    }

    fn place(&mut self, ctx: &PlacementCtx<'_>, rng: &mut SimRng) -> Placement {
        let b = ctx.mapping.job_cores as f64;
        self.arrivals += 1;
        if self.arrivals == 1 {
            self.mean_batch = b;
        } else {
            self.mean_batch += Self::ALPHA * (b - self.mean_batch);
        }
        let rho = self.occupancy_target(ctx.reserved_cores);
        MappingPolicy::UtilizationLimit(rho).decide(&ctx.mapping, rng)
    }

    fn fresh_run(&self) -> Box<dyn ProvisioningStrategy> {
        Box::new(QueueingCapacity::with_beta(self.beta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::QualityMonitor;
    use crate::queue_estimator::QueueEstimator;
    use hcloud_cloud::InstanceType;

    #[test]
    fn paper_strategies_match_table3() {
        // (short name, reserved, on-demand, full-only, hybrid, noisy).
        let table = [
            ("SR", true, false, false, false, false),
            ("OdF", false, true, true, false, false),
            ("OdM", false, true, false, false, true),
            ("HF", true, true, true, true, false),
            ("HM", true, true, false, true, false),
        ];
        let paper = StrategyRegistry::paper();
        assert_eq!(paper.len(), table.len());
        for (s, &(name, reserved, on_demand, full_only, hybrid, noisy)) in paper.iter().zip(&table)
        {
            assert_eq!(s.short_name(), name);
            assert_eq!(s.uses_reserved(), reserved, "{name}");
            assert_eq!(s.uses_on_demand(), on_demand, "{name}");
            assert_eq!(s.on_demand_full_only(), full_only, "{name}");
            assert_eq!(s.is_hybrid(), hybrid, "{name}");
            assert_eq!(s.profiles_noisily(), noisy, "{name}");
        }
    }

    #[test]
    fn builtin_registry_holds_seven() {
        let r = StrategyRegistry::builtin();
        assert_eq!(
            r.ids(),
            vec![
                "static-reserved",
                "on-demand-full",
                "on-demand-mixed",
                "hybrid-full",
                "hybrid-mixed",
                "reservation-autoscale",
                "queueing-capacity",
            ]
        );
        let named = [
            StrategyId::SR,
            StrategyId::ODF,
            StrategyId::ODM,
            StrategyId::HF,
            StrategyId::HM,
            StrategyId::RA,
            StrategyId::QC,
        ];
        assert_eq!(named.map(StrategyId::as_str).to_vec(), r.ids());
        for (id, s) in named.into_iter().zip(r.all()) {
            assert_eq!(&StrategyRef::from(id), s);
        }
    }

    #[test]
    fn lookup_accepts_ids_and_short_names_case_insensitively() {
        let r = StrategyRegistry::builtin();
        assert_eq!(r.get("hybrid-mixed").unwrap().short_name(), "HM");
        assert_eq!(r.get("HM").unwrap().id(), "hybrid-mixed");
        assert_eq!(r.get("hm").unwrap().id(), "hybrid-mixed");
        assert_eq!(r.get("Hybrid-Mixed").unwrap().id(), "hybrid-mixed");
        assert_eq!(r.get("RA").unwrap().id(), "reservation-autoscale");
        assert_eq!(r.get("qc").unwrap().id(), "queueing-capacity");
        assert!(r.get("bogus").is_none());
    }

    #[test]
    fn from_str_round_trips_every_builtin() {
        for s in StrategyRegistry::builtin().all() {
            let by_id: StrategyRef = s.id().parse().unwrap();
            let by_short: StrategyRef = s.short_name().parse().unwrap();
            let by_display: StrategyRef = s.to_string().parse().unwrap();
            assert_eq!(&by_id, s);
            assert_eq!(&by_short, s);
            assert_eq!(&by_display, s);
            let id: StrategyId = s.id().parse().unwrap();
            assert_eq!(id.as_str(), s.id());
            assert_eq!(&id.resolve(), s);
        }
        assert!("bogus".parse::<StrategyRef>().is_err());
        let err = "bogus".parse::<StrategyRef>().unwrap_err();
        assert!(err.to_string().contains("unknown strategy 'bogus'"));
        assert!(err.to_string().contains("reservation-autoscale"));
    }

    #[test]
    fn register_replaces_same_id() {
        let mut r = StrategyRegistry::with_builtins();
        let n = r.all().len();
        r.register(StrategyRef::new(QueueingCapacity::with_beta(3.0)));
        assert_eq!(r.all().len(), n);
    }

    #[test]
    fn new_strategies_are_hybrids_with_mixed_on_demand() {
        for id in ["reservation-autoscale", "queueing-capacity"] {
            let s = StrategyRegistry::builtin().get(id).unwrap();
            assert!(s.uses_reserved(), "{id}");
            assert!(s.uses_on_demand(), "{id}");
            assert!(!s.on_demand_full_only(), "{id}");
            assert!(s.is_hybrid(), "{id}");
            assert!(!s.profiles_noisily(), "{id}");
            assert!(!StrategyRegistry::paper().contains(&s), "{id}");
        }
    }

    #[test]
    fn reserved_sizing_hook_matches_old_formulas() {
        let ctx = ReservedSizingCtx {
            peak_cores: 885.0,
            min_cores: 602.4,
            profiling: true,
            overprovision: 0.15,
            overprovision_unprofiled: 0.30,
        };
        let sr = StrategyRef::from(StrategyId::SR);
        assert_eq!(sr.reserved_cores(&ctx), (885.0f64 * 1.15).ceil() as u32);
        let unprofiled = ReservedSizingCtx {
            profiling: false,
            ..ctx
        };
        assert_eq!(
            sr.reserved_cores(&unprofiled),
            (885.0f64 * 1.30).ceil() as u32
        );
        assert_eq!(StrategyRef::from(StrategyId::HM).reserved_cores(&ctx), 603);
        assert_eq!(StrategyRef::from(StrategyId::ODM).reserved_cores(&ctx), 0);
        // The new strategies size like the hybrids.
        assert_eq!(
            StrategyRegistry::builtin()
                .get("reservation-autoscale")
                .unwrap()
                .reserved_cores(&ctx),
            603
        );
    }

    #[test]
    fn autoscale_trips_on_sustained_blocking_and_recovers_when_clear() {
        let mut s = ReservationAutoscale::default();
        let mut limits = DynamicLimits::default();
        let before = limits.soft();
        // Two blocked ticks: below TRIP_OBS, no change.
        s.adapt_limits(&mut limits, 10, SimTime::from_secs(10));
        s.adapt_limits(&mut limits, 10, SimTime::from_secs(20));
        assert!((limits.soft() - before).abs() < 1e-12);
        // Third consecutive blocked tick trips the multiplicative cut.
        s.adapt_limits(&mut limits, 10, SimTime::from_secs(30));
        let cut = limits.soft();
        assert!((cut - before * 0.85).abs() < 1e-9, "soft {cut}");
        // A short clear stretch does nothing...
        s.adapt_limits(&mut limits, 0, SimTime::from_secs(40));
        assert!((limits.soft() - cut).abs() < 1e-12);
        // ...but a full dwell window recovers one additive step.
        s.adapt_limits(&mut limits, 0, SimTime::from_secs(110));
        assert!((limits.soft() - (cut + 0.01)).abs() < 1e-9);
    }

    #[test]
    fn autoscale_blocked_counter_resets_between_bursts() {
        let mut s = ReservationAutoscale::default();
        let mut limits = DynamicLimits::default();
        let before = limits.soft();
        // Interleaved blocked/clear ticks never reach TRIP_OBS in a row.
        for k in 0..12u64 {
            let q = if k % 2 == 0 { 10 } else { 1 };
            s.adapt_limits(&mut limits, q, SimTime::from_secs(10 * (k + 1)));
        }
        assert!((limits.soft() - before).abs() < 1e-12);
    }

    #[test]
    fn queueing_capacity_target_scales_with_batch_and_pool() {
        let mut small_batches = QueueingCapacity::default();
        let mut big_batches = QueueingCapacity::default();
        let monitor = QualityMonitor::default();
        let limits = DynamicLimits::default();
        let est = QueueEstimator::default();
        let mut rng = SimRng::from_seed_u64(7);
        let mapping = |cores: u32| MappingContext {
            reserved_utilization: 0.5,
            job_quality: 0.5,
            od_itype: InstanceType::standard(2),
            job_cores: cores,
            queue_len: 0,
            expected_spinup_large: SimDuration::from_secs(18),
            monitor: &monitor,
            limits: &limits,
            queue_estimator: &est,
            now: SimTime::ZERO,
        };
        for _ in 0..50 {
            small_batches.place(
                &PlacementCtx {
                    mapping: mapping(1),
                    policy: MappingPolicy::Dynamic,
                    reserved_cores: 600,
                },
                &mut rng,
            );
            big_batches.place(
                &PlacementCtx {
                    mapping: mapping(16),
                    policy: MappingPolicy::Dynamic,
                    reserved_cores: 600,
                },
                &mut rng,
            );
        }
        let small = small_batches.occupancy_target(600);
        let big = big_batches.occupancy_target(600);
        assert!(
            big < small,
            "bigger batches need more safety margin: {big} vs {small}"
        );
        // A smaller pool also widens the margin.
        assert!(big_batches.occupancy_target(64) < big);
        // Targets stay clamped.
        assert!((0.30..=0.95).contains(&big_batches.occupancy_target(1)));
    }

    #[test]
    fn fresh_run_resets_adaptive_state() {
        let mut qc = QueueingCapacity::default();
        let monitor = QualityMonitor::default();
        let limits = DynamicLimits::default();
        let est = QueueEstimator::default();
        let mut rng = SimRng::from_seed_u64(7);
        let ctx = PlacementCtx {
            mapping: MappingContext {
                reserved_utilization: 0.5,
                job_quality: 0.5,
                od_itype: InstanceType::standard(2),
                job_cores: 8,
                queue_len: 0,
                expected_spinup_large: SimDuration::from_secs(18),
                monitor: &monitor,
                limits: &limits,
                queue_estimator: &est,
                now: SimTime::ZERO,
            },
            policy: MappingPolicy::Dynamic,
            reserved_cores: 600,
        };
        qc.place(&ctx, &mut rng);
        assert!(qc.arrivals > 0);
        let fresh = qc.fresh_run();
        let dbg = format!("{fresh:?}");
        assert!(dbg.contains("arrivals: 0"), "fresh state: {dbg}");
    }

    #[test]
    fn default_retention_matches_paper_rules() {
        let sr = StrategyRef::from(StrategyId::HM);
        let sr = sr.fresh_run();
        let base = RetentionCtx {
            spin_up: SimDuration::from_secs(20),
            delivered_quality: 0.9,
            profiling: true,
            retention_mult: 10.0,
            quality_retention_threshold: 0.75,
        };
        assert_eq!(
            sr.retention(&base),
            RetentionDecision::Retain(SimDuration::from_secs(200))
        );
        // Poor quality with profiling: release immediately.
        assert_eq!(
            sr.retention(&RetentionCtx {
                delivered_quality: 0.5,
                ..base
            }),
            RetentionDecision::ReleaseNow
        );
        // Without profiling there is no quality signal: always retain.
        assert_eq!(
            sr.retention(&RetentionCtx {
                delivered_quality: 0.5,
                profiling: false,
                ..base
            }),
            RetentionDecision::Retain(SimDuration::from_secs(200))
        );
        // Tiny spin-up still retains for at least a second.
        assert_eq!(
            sr.retention(&RetentionCtx {
                spin_up: SimDuration::from_secs_f64(0.01),
                ..base
            }),
            RetentionDecision::Retain(SimDuration::from_secs(1))
        );
    }
}
