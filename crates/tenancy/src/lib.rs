//! Multi-tenant hierarchical queues for the HCloud scheduler.
//!
//! HCloud provisions one undivided job stream; this crate layers weighted
//! tenant queues in front of admission, in the style of Volcano's
//! queue-state management. Each tenant owns a [`TenantQueue`] with
//!
//! * a **weight** driving deficit-round-robin (DRR) drain ordering,
//! * a **guaranteed share** (cores it may always reach),
//! * a **cap** (cores it may never exceed), and
//! * a lifecycle state ([`QueueState`]): `Open` queues admit and borrow,
//!   `Closing` queues drain without borrowing, `Closed` queues bypass
//!   tenancy entirely (best-effort, untenanted).
//!
//! The [`FairShare`] runtime tracks usage against one bounded logical
//! pool. A tenant running above its guarantee is **borrowing** idle
//! capacity; borrowing is elastic — it is only granted while no other
//! tenant is held below its guarantee with work pending. When a
//! guaranteed queue still starves (its head job outwaits the starvation
//! window), [`FairShare::starved_victims`] selects running jobs to
//! preempt: **borrowed first** (largest borrower, most recently admitted
//! job first), then jobs of tenants above their weighted fair share.
//! The scheduler requeues victims through its fault-recovery path, so
//! lost work is carried in the same `Carryover` accounting as spot
//! preemptions.
//!
//! The crate depends only on `hcloud-sim` and keys jobs and tenants by
//! raw `u64`, so every layer above (workloads, core, bench, cli) can
//! speak tenancy without dependency cycles.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use hcloud_sim::{SimDuration, SimTime};
use rand::Rng;

/// A typed tenant identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Queue lifecycle, modeled on Volcano's queue-state management.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueState {
    /// Full semantics: admit, borrow, preempt.
    #[default]
    Open,
    /// Drain mode: existing work runs, new work admits only up to the
    /// guarantee (no borrowing above it).
    Closing,
    /// Tenancy bypass: the tenant's jobs run untenanted (best effort,
    /// outside the pool), so a closed queue can never strand work.
    Closed,
}

impl QueueState {
    /// Stable wire name used by scenario JSON and reports.
    pub fn name(self) -> &'static str {
        match self {
            QueueState::Open => "open",
            QueueState::Closing => "closing",
            QueueState::Closed => "closed",
        }
    }

    /// Parse the wire name back; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<QueueState> {
        match s {
            "open" => Some(QueueState::Open),
            "closing" => Some(QueueState::Closing),
            "closed" => Some(QueueState::Closed),
            _ => None,
        }
    }
}

/// One tenant's static share contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    pub id: TenantId,
    /// DRR weight; also sets the tenant's weighted fair share of the pool.
    pub weight: f64,
    /// Cores the tenant may always reach (its floor).
    pub guaranteed_cores: u32,
    /// Cores the tenant may never exceed (its ceiling).
    pub cap_cores: u32,
    pub state: QueueState,
}

impl TenantSpec {
    pub fn new(id: u64, weight: f64, guaranteed_cores: u32, cap_cores: u32) -> TenantSpec {
        TenantSpec {
            id: TenantId(id),
            weight,
            guaranteed_cores,
            cap_cores,
            state: QueueState::Open,
        }
    }

    pub fn with_state(mut self, state: QueueState) -> TenantSpec {
        self.state = state;
        self
    }
}

/// The static tenancy section of a scenario: tenant contracts, the
/// bounded logical pool they share, DRR/starvation tuning, and the
/// job→tenant assignment map.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyPlan {
    pub tenants: Vec<TenantSpec>,
    /// The bounded logical pool the tenants share, in cores. Tenanted
    /// admissions are gated against this bound; a guaranteed queue can
    /// only starve because the pool is finite.
    pub pool_cores: u32,
    /// DRR quantum in cores credited per round, scaled by weight.
    pub quantum: f64,
    /// How long a below-guarantee tenant's head job may wait before the
    /// starvation scan proposes preemption victims.
    pub starvation_secs: f64,
    /// Job id → tenant id. Unassigned jobs bypass tenancy.
    pub assignments: BTreeMap<u64, u64>,
}

impl TenancyPlan {
    pub fn new(pool_cores: u32) -> TenancyPlan {
        TenancyPlan {
            tenants: Vec::new(),
            pool_cores,
            quantum: 4.0,
            starvation_secs: 60.0,
            assignments: BTreeMap::new(),
        }
    }

    pub fn with_quantum(mut self, quantum: f64) -> TenancyPlan {
        self.quantum = quantum;
        self
    }

    pub fn with_starvation_secs(mut self, secs: f64) -> TenancyPlan {
        self.starvation_secs = secs;
        self
    }

    pub fn tenant(mut self, spec: TenantSpec) -> TenancyPlan {
        self.tenants.push(spec);
        self
    }

    /// Assign one job to one tenant (last assignment wins).
    pub fn assign(&mut self, job: u64, tenant: u64) {
        self.assignments.insert(job, tenant);
    }

    pub fn tenant_of(&self, job: u64) -> Option<TenantId> {
        self.assignments.get(&job).copied().map(TenantId)
    }

    /// Skewed-size tenant population: `n` tenants with Zipf weights
    /// `w_rank ∝ 1/rank^skew`. Guarantees split `guarantee_frac` of the
    /// pool proportionally to weight (≥1 core each); caps give every
    /// tenant 4× its guarantee of elastic headroom, clipped to the pool.
    /// Fully deterministic — scale it to thousands of tenants.
    pub fn zipf(n: usize, skew: f64, pool_cores: u32, guarantee_frac: f64) -> TenancyPlan {
        let mut plan = TenancyPlan::new(pool_cores);
        let total: f64 = (1..=n).map(|rank| 1.0 / (rank as f64).powf(skew)).sum();
        for rank in 1..=n {
            let weight = 1.0 / (rank as f64).powf(skew);
            let share = weight / total;
            let guaranteed = ((pool_cores as f64 * guarantee_frac * share).floor() as u32).max(1);
            let cap = guaranteed.saturating_mul(4).min(pool_cores);
            plan.tenants
                .push(TenantSpec::new(rank as u64 - 1, weight, guaranteed, cap));
        }
        plan
    }

    /// Assign jobs to tenants, weighted by tenant weight, from one
    /// seeded stream. Closed tenants still receive assignments — their
    /// jobs bypass the pool, which is exactly what `Closed` means.
    pub fn assign_jobs<R: Rng>(&mut self, jobs: &[u64], rng: &mut R) {
        if self.tenants.is_empty() {
            return;
        }
        let total: f64 = self.tenants.iter().map(|t| t.weight).sum();
        for &job in jobs {
            let mut pick = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            let mut chosen = self.tenants[0].id.0;
            for t in &self.tenants {
                if pick < t.weight {
                    chosen = t.id.0;
                    break;
                }
                pick -= t.weight;
            }
            self.assignments.insert(job, chosen);
        }
    }

    /// Structural sanity; the scheduler and the CLI both refuse invalid
    /// plans up front rather than mis-accounting later.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = BTreeSet::new();
        for t in &self.tenants {
            if !t.weight.is_finite() || t.weight <= 0.0 {
                return Err(format!("tenant {}: weight must be finite and > 0", t.id));
            }
            if t.cap_cores < t.guaranteed_cores {
                return Err(format!(
                    "tenant {}: cap_cores {} < guaranteed_cores {}",
                    t.id, t.cap_cores, t.guaranteed_cores
                ));
            }
            if !seen.insert(t.id.0) {
                return Err(format!("duplicate tenant id {}", t.id));
            }
        }
        if self.pool_cores == 0 && !self.tenants.is_empty() {
            return Err("pool_cores must be > 0".into());
        }
        if !self.quantum.is_finite() || self.quantum <= 0.0 {
            return Err("quantum must be finite and > 0".into());
        }
        if !self.starvation_secs.is_finite() || self.starvation_secs <= 0.0 {
            return Err("starvation_secs must be finite and > 0".into());
        }
        for (&job, &tenant) in &self.assignments {
            if !seen.contains(&tenant) {
                return Err(format!("job {job} assigned to unknown tenant t{tenant}"));
            }
        }
        Ok(())
    }
}

/// One job waiting in a tenant queue.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingJob {
    job: u64,
    cores: u32,
    enqueued: SimTime,
}

/// One job the pool has admitted.
#[derive(Debug, Clone, Copy)]
struct RunningRec {
    tenant: u64,
    cores: u32,
    /// Monotone admission sequence; preemption evicts the most recently
    /// admitted borrower first.
    seq: u64,
    /// Whether this admission took the tenant above its guarantee.
    borrowed: bool,
}

/// Per-tenant lifetime counters, surfaced in `RunResult::tenant_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantStat {
    pub id: u64,
    pub weight: f64,
    pub guaranteed_cores: u32,
    pub cap_cores: u32,
    /// Jobs admitted into the pool (directly or via drain).
    pub admitted: u64,
    /// Jobs that had to wait in the tenant queue at least once.
    pub deferred: u64,
    /// Deferred jobs later released by the DRR drain.
    pub drained: u64,
    /// Admissions that took the tenant above its guarantee.
    pub borrowed_admissions: u64,
    /// This tenant's running jobs preempted as victims.
    pub victims: u64,
    /// Preemptions this tenant triggered to reclaim its guarantee.
    pub reclaims: u64,
    pub max_pending_depth: usize,
    pub total_queue_wait_secs: f64,
    pub peak_running_cores: u64,
}

/// One weighted tenant queue: the static contract plus live DRR state.
#[derive(Debug, Clone)]
pub struct TenantQueue {
    spec: TenantSpec,
    pending: VecDeque<PendingJob>,
    deficit: f64,
    running_cores: u64,
    stat: TenantStat,
}

impl TenantQueue {
    fn new(spec: TenantSpec) -> TenantQueue {
        let stat = TenantStat {
            id: spec.id.0,
            weight: spec.weight,
            guaranteed_cores: spec.guaranteed_cores,
            cap_cores: spec.cap_cores,
            ..TenantStat::default()
        };
        TenantQueue {
            spec,
            pending: VecDeque::new(),
            deficit: 0.0,
            running_cores: 0,
            stat,
        }
    }

    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    pub fn running_cores(&self) -> u64 {
        self.running_cores
    }

    pub fn pending_depth(&self) -> usize {
        self.pending.len()
    }

    /// Below-guarantee with work pending: the tenant is owed capacity.
    fn needy(&self) -> bool {
        self.spec.state != QueueState::Closed
            && self.running_cores < self.spec.guaranteed_cores as u64
            && !self.pending.is_empty()
    }

    fn note_admit(&mut self, cores: u32, borrowed: bool) {
        self.running_cores += cores as u64;
        self.stat.admitted += 1;
        if borrowed {
            self.stat.borrowed_admissions += 1;
        }
        self.stat.peak_running_cores = self.stat.peak_running_cores.max(self.running_cores);
    }
}

/// The verdict for one job at the tenancy gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Not tenanted (no assignment, or the tenant is `Closed`): the job
    /// proceeds untenanted and outside the pool.
    Bypass,
    /// Admitted into the pool.
    Admit { tenant: TenantId, borrowed: bool },
    /// Held in the tenant queue; `depth` is the queue depth after entry.
    Defer { tenant: TenantId, depth: usize },
}

/// One job released from a tenant queue by the DRR drain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Release {
    pub job: u64,
    pub tenant: TenantId,
    pub cores: u32,
    pub waited: SimDuration,
    pub borrowed: bool,
}

/// One preemption proposal from the starvation scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Preemption {
    pub victim_job: u64,
    pub victim_tenant: TenantId,
    pub starved_tenant: TenantId,
    pub cores: u32,
}

/// The weighted fair-share runtime: every tenant queue plus the pool
/// ledger. The scheduler is the single driver — it gates arrivals,
/// reports releases, drains after capacity frees, and executes the
/// preemptions the starvation scan proposes.
///
/// Every per-event operation costs O(backlogged tenants), not O(all
/// tenants): the drain, the needy check and the starvation scan walk a
/// backlog index of the tenants with pending work, and the weighted fair
/// share reads a total cached at construction. Only [`FairShare::new`]
/// and [`FairShare::stats`] visit every tenant.
#[derive(Debug, Clone)]
pub struct FairShare {
    /// Tenant queues in plan order, which is the DRR rotation order; a
    /// queue's index here is its DRR position.
    queues: Vec<TenantQueue>,
    /// Tenant id → DRR position. Ids are unique in a validated plan; a
    /// duplicate id shadows its earlier specs.
    positions: BTreeMap<u64, usize>,
    /// DRR positions of the tenants whose pending queue is non-empty.
    backlog: BTreeSet<usize>,
    assignments: BTreeMap<u64, u64>,
    running: BTreeMap<u64, RunningRec>,
    /// The DRR position a drain starts from; it persists across drains
    /// so no tenant is structurally favored.
    cursor: usize,
    pool_cores: u64,
    /// Σ weight of the non-closed tenants, summed in ascending id order.
    /// Queue states never change after construction.
    open_weight: f64,
    total_running: u64,
    quantum: f64,
    starvation: SimDuration,
    admit_seq: u64,
}

impl FairShare {
    pub fn new(plan: &TenancyPlan) -> FairShare {
        let queues: Vec<TenantQueue> = plan
            .tenants
            .iter()
            .map(|spec| TenantQueue::new(spec.clone()))
            .collect();
        let positions: BTreeMap<u64, usize> = queues
            .iter()
            .enumerate()
            .map(|(pos, q)| (q.spec.id.0, pos))
            .collect();
        let open_weight: f64 = positions
            .values()
            .map(|&pos| &queues[pos].spec)
            .filter(|spec| spec.state != QueueState::Closed)
            .map(|spec| spec.weight)
            .sum();
        FairShare {
            queues,
            positions,
            backlog: BTreeSet::new(),
            assignments: plan.assignments.clone(),
            running: BTreeMap::new(),
            cursor: 0,
            pool_cores: plan.pool_cores as u64,
            open_weight,
            total_running: 0,
            quantum: plan.quantum,
            starvation: SimDuration::from_secs_f64(plan.starvation_secs),
            admit_seq: 0,
        }
    }

    /// The tenant a job is assigned to, `None` if untenanted.
    pub fn tenant_of(&self, job: u64) -> Option<TenantId> {
        self.assignments.get(&job).copied().map(TenantId)
    }

    pub fn pool_cores(&self) -> u64 {
        self.pool_cores
    }

    pub fn total_running(&self) -> u64 {
        self.total_running
    }

    pub fn queue(&self, tenant: TenantId) -> Option<&TenantQueue> {
        self.positions.get(&tenant.0).map(|&pos| &self.queues[pos])
    }

    /// A tenant's weighted fair share of the pool, over non-closed
    /// tenants. A `Closed` tenant bypasses the pool, so its share is 0.
    pub fn fair_share(&self, tenant: TenantId) -> f64 {
        match self.queue(tenant) {
            Some(q) if q.spec.state != QueueState::Closed && self.open_weight > 0.0 => {
                self.pool_cores as f64 * q.spec.weight / self.open_weight
            }
            _ => 0.0,
        }
    }

    /// Whether any tenant is below guarantee with work pending; while
    /// true, the pool grants no new borrows.
    fn any_needy(&self) -> bool {
        self.backlog.iter().any(|&pos| self.queues[pos].needy())
    }

    /// The backlogged positions in DRR order: from the cursor to the
    /// end, then wrapping around to it.
    fn backlog_round(&self) -> Vec<usize> {
        self.backlog
            .range(self.cursor..)
            .chain(self.backlog.range(..self.cursor))
            .copied()
            .collect()
    }

    /// Books one admission into the pool ledger.
    fn book_admission(&mut self, pos: usize, job: u64, cores: u32, borrowed: bool) {
        let q = &mut self.queues[pos];
        q.note_admit(cores, borrowed);
        let tenant = q.spec.id.0;
        self.total_running += cores as u64;
        self.admit_seq += 1;
        self.running.insert(
            job,
            RunningRec {
                tenant,
                cores,
                seq: self.admit_seq,
                borrowed,
            },
        );
    }

    /// Admits the head job of the queue at `pos`, which the caller has
    /// just popped, and drops the tenant from the backlog if that
    /// emptied its queue.
    fn release_head(
        &mut self,
        pos: usize,
        head: PendingJob,
        borrowed: bool,
        now: SimTime,
    ) -> Release {
        self.book_admission(pos, head.job, head.cores, borrowed);
        let q = &mut self.queues[pos];
        q.stat.drained += 1;
        let waited = now.saturating_since(head.enqueued);
        q.stat.total_queue_wait_secs += waited.as_secs_f64();
        let tenant = q.spec.id;
        if q.pending.is_empty() {
            self.backlog.remove(&pos);
        }
        Release {
            job: head.job,
            tenant,
            cores: head.cores,
            waited,
            borrowed,
        }
    }

    /// Gate one arriving (or re-arriving) job. Admission requires cap
    /// room, pool room, and — when it would be a borrow — an idle pool
    /// (state `Open`, no needy tenant). Anything else defers the job
    /// into its tenant queue, FIFO.
    pub fn gate(&mut self, job: u64, cores: u32, now: SimTime) -> Gate {
        let Some(&tid) = self.assignments.get(&job) else {
            return Gate::Bypass;
        };
        let Some(&pos) = self.positions.get(&tid) else {
            return Gate::Bypass;
        };
        let q = &self.queues[pos];
        if q.spec.state == QueueState::Closed {
            return Gate::Bypass;
        }
        // A job the contract can structurally never hold (wider than the
        // tenant's cap or the whole pool) runs untenanted: deferring it
        // would wedge the queue head forever and strand the job.
        if cores as u64 > q.spec.cap_cores as u64 || cores as u64 > self.pool_cores {
            return Gate::Bypass;
        }
        // Likewise a closing queue with no guarantee: it never borrows,
        // so it could never admit anything — every deferral would be
        // permanent.
        if q.spec.state == QueueState::Closing && q.spec.guaranteed_cores == 0 {
            return Gate::Bypass;
        }
        let borrowed = q.running_cores >= q.spec.guaranteed_cores as u64;
        let cap_ok = q.running_cores + cores as u64 <= q.spec.cap_cores as u64;
        let pool_ok = self.total_running + cores as u64 <= self.pool_cores;
        // FIFO within the queue: once anything is pending, later jobs
        // line up behind it rather than jumping the gate. The needy scan
        // runs last, only when it decides the verdict.
        let admit = cap_ok
            && pool_ok
            && q.pending.is_empty()
            && (!borrowed || (q.spec.state == QueueState::Open && !self.any_needy()));
        if admit {
            self.book_admission(pos, job, cores, borrowed);
            Gate::Admit {
                tenant: TenantId(tid),
                borrowed,
            }
        } else {
            let q = &mut self.queues[pos];
            q.pending.push_back(PendingJob {
                job,
                cores,
                enqueued: now,
            });
            q.stat.deferred += 1;
            q.stat.max_pending_depth = q.stat.max_pending_depth.max(q.pending.len());
            let depth = q.pending.len();
            if depth == 1 {
                self.backlog.insert(pos);
            }
            Gate::Defer {
                tenant: TenantId(tid),
                depth,
            }
        }
    }

    /// A tenanted job left the pool (finished, or was preempted).
    /// Returns its tenant; `None` for untenanted/bypassed jobs.
    pub fn release(&mut self, job: u64) -> Option<TenantId> {
        let rec = self.running.remove(&job)?;
        if let Some(&pos) = self.positions.get(&rec.tenant) {
            let q = &mut self.queues[pos];
            q.running_cores = q.running_cores.saturating_sub(rec.cores as u64);
        }
        self.total_running = self.total_running.saturating_sub(rec.cores as u64);
        Some(TenantId(rec.tenant))
    }

    /// Deficit-round-robin drain: hand freed capacity to tenant queues.
    ///
    /// Pass 1 serves below-guarantee tenants in DRR order (deficit grows
    /// by `quantum × weight` per round; a head job releases while the
    /// deficit covers its cores). Pass 2 lets `Open` tenants borrow the
    /// remainder — only if nobody is still needy. Stops when a full
    /// cycle releases nothing.
    ///
    /// Each round visits only the backlogged tenants, cyclically from the
    /// cursor. A snapshot of the backlog per round is exact: during a
    /// drain the backlog only shrinks and a tenant only stops being
    /// needy, so a tenant missing from the snapshot would have been
    /// skipped anyway.
    pub fn drain(&mut self, now: SimTime) -> Vec<Release> {
        let mut out = Vec::new();
        // Pass 1: guarantees.
        loop {
            let mut progressed = false;
            for pos in self.backlog_round() {
                let q = &mut self.queues[pos];
                if !q.needy() {
                    continue;
                }
                q.deficit += self.quantum * q.spec.weight;
                while let Some(&head) = self.queues[pos].pending.front() {
                    let q = &mut self.queues[pos];
                    let under = q.running_cores < q.spec.guaranteed_cores as u64;
                    let fits_pool = self.total_running + head.cores as u64 <= self.pool_cores;
                    let fits_cap = q.running_cores + head.cores as u64 <= q.spec.cap_cores as u64;
                    if !(under && fits_pool && fits_cap && q.deficit >= head.cores as f64) {
                        break;
                    }
                    q.pending.pop_front();
                    q.deficit -= head.cores as f64;
                    out.push(self.release_head(pos, head, false, now));
                    progressed = true;
                }
                let q = &mut self.queues[pos];
                if q.pending.is_empty() {
                    q.deficit = 0.0;
                }
            }
            if !progressed {
                break;
            }
        }
        if !self.queues.is_empty() {
            self.cursor = (self.cursor + 1) % self.queues.len();
        }
        // Pass 2: elastic borrowing of whatever is left.
        loop {
            if self.any_needy() {
                break;
            }
            let mut progressed = false;
            for pos in self.backlog_round() {
                let q = &mut self.queues[pos];
                if q.spec.state != QueueState::Open {
                    continue;
                }
                let Some(&head) = q.pending.front() else {
                    continue;
                };
                let fits_pool = self.total_running + head.cores as u64 <= self.pool_cores;
                let fits_cap = q.running_cores + head.cores as u64 <= q.spec.cap_cores as u64;
                if !(fits_pool && fits_cap) {
                    continue;
                }
                q.pending.pop_front();
                let borrowed = q.running_cores >= q.spec.guaranteed_cores as u64;
                out.push(self.release_head(pos, head, borrowed, now));
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        out
    }

    /// Starvation scan: if a below-guarantee tenant's head job has
    /// waited past the starvation window, propose victims — borrowed
    /// jobs first (largest borrower, most recently admitted first),
    /// then jobs of tenants above their weighted fair share (never
    /// driving a victim below its own guarantee). The scheduler must
    /// preempt each proposed job and report it back via [`release`],
    /// then [`drain`] to hand the freed cores to the starved queue.
    ///
    /// [`release`]: FairShare::release
    /// [`drain`]: FairShare::drain
    pub fn starved_victims(&mut self, now: SimTime) -> Vec<Preemption> {
        // (tenant, needed cores), in ascending tenant id.
        let mut starved: Vec<(u64, u64)> = self
            .backlog
            .iter()
            .map(|&pos| &self.queues[pos])
            .filter(|q| q.needy())
            .filter_map(|q| {
                let head = q.pending.front().expect("needy implies pending");
                (now.saturating_since(head.enqueued) >= self.starvation)
                    .then_some((q.spec.id.0, head.cores as u64))
            })
            .collect();
        if starved.is_empty() {
            return Vec::new();
        }
        starved.sort_unstable_by_key(|&(tenant, _)| tenant);
        let needed: u64 = starved.iter().map(|&(_, n)| n).sum();
        let starved_ids: BTreeSet<u64> = starved.iter().map(|&(t, _)| t).collect();

        // Candidate pass 1: borrowed jobs, keyed for ordering.
        let mut borrowed: Vec<(f64, u64, u64, u32, u64)> = Vec::new(); // (borrow, seq, job, cores, tenant)
        for (&job, rec) in &self.running {
            if !rec.borrowed || starved_ids.contains(&rec.tenant) {
                continue;
            }
            let q = self.queue_of(rec.tenant);
            let over = q.running_cores as f64 - q.spec.guaranteed_cores as f64;
            if over <= 0.0 {
                continue;
            }
            borrowed.push((over, rec.seq, job, rec.cores, rec.tenant));
        }
        borrowed.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.1.cmp(&a.1))
        });

        let mut victims = Vec::new();
        let mut freed = 0u64;
        // Track how far each victim tenant has been drawn down so one
        // scan never over-preempts a single tenant.
        let mut drawn: BTreeMap<u64, u64> = BTreeMap::new();
        let first_starved = TenantId(starved[0].0);
        for (_, _, job, cores, tenant) in &borrowed {
            if freed >= needed {
                break;
            }
            let q = self.queue_of(*tenant);
            let remaining = q.running_cores - drawn.get(tenant).copied().unwrap_or(0);
            if remaining <= q.spec.guaranteed_cores as u64 {
                continue;
            }
            victims.push(Preemption {
                victim_job: *job,
                victim_tenant: TenantId(*tenant),
                starved_tenant: first_starved,
                cores: *cores,
            });
            *drawn.entry(*tenant).or_insert(0) += *cores as u64;
            freed += *cores as u64;
        }
        if freed < needed {
            // Candidate pass 2: tenants above weighted fair share.
            let mut over_share: Vec<(f64, u64, u64, u32, u64)> = Vec::new();
            for (&job, rec) in &self.running {
                if starved_ids.contains(&rec.tenant) || victims.iter().any(|v| v.victim_job == job)
                {
                    continue;
                }
                let q = self.queue_of(rec.tenant);
                let share = self.fair_share(TenantId(rec.tenant));
                let over = q.running_cores as f64 - share;
                if over <= 0.0 {
                    continue;
                }
                over_share.push((over, rec.seq, job, rec.cores, rec.tenant));
            }
            over_share.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.1.cmp(&a.1))
            });
            for (_, _, job, cores, tenant) in &over_share {
                if freed >= needed {
                    break;
                }
                let q = self.queue_of(*tenant);
                let remaining = q.running_cores - drawn.get(tenant).copied().unwrap_or(0);
                // Never drive a victim below its own guarantee.
                if remaining.saturating_sub(*cores as u64) < q.spec.guaranteed_cores as u64 {
                    continue;
                }
                victims.push(Preemption {
                    victim_job: *job,
                    victim_tenant: TenantId(*tenant),
                    starved_tenant: first_starved,
                    cores: *cores,
                });
                *drawn.entry(*tenant).or_insert(0) += *cores as u64;
                freed += *cores as u64;
            }
        }
        if !victims.is_empty() {
            for &(tid, _) in &starved {
                self.queues[self.positions[&tid]].stat.reclaims += 1;
            }
            for v in &victims {
                self.queues[self.positions[&v.victim_tenant.0]].stat.victims += 1;
            }
        }
        victims
    }

    /// The queue of a tenant known to the plan (every running or
    /// backlogged job's tenant is).
    fn queue_of(&self, tenant: u64) -> &TenantQueue {
        &self.queues[self.positions[&tenant]]
    }

    /// Per-tenant lifetime counters, ascending by tenant id.
    pub fn stats(&self) -> Vec<TenantStat> {
        self.positions
            .values()
            .map(|&pos| self.queues[pos].stat)
            .collect()
    }
}

/// Jain's fairness index over per-tenant allocations:
/// `(Σx)² / (n · Σx²)` — 1.0 is perfectly fair, `1/n` maximally unfair.
pub fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan3() -> TenancyPlan {
        // 16-core pool: a heavy tenant (guar 8, cap 16), a light tenant
        // (guar 4, cap 8), a best-effort tenant (guar 2, cap 16).
        TenancyPlan::new(16)
            .with_quantum(4.0)
            .with_starvation_secs(30.0)
            .tenant(TenantSpec::new(0, 4.0, 8, 16))
            .tenant(TenantSpec::new(1, 2.0, 4, 8))
            .tenant(TenantSpec::new(2, 1.0, 2, 16))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn unassigned_jobs_bypass() {
        let mut fs = FairShare::new(&plan3());
        assert_eq!(fs.gate(99, 4, t(0)), Gate::Bypass);
        assert_eq!(fs.release(99), None);
        assert_eq!(fs.total_running(), 0);
    }

    #[test]
    fn closed_tenants_bypass() {
        let mut plan = plan3();
        plan.tenants[2].state = QueueState::Closed;
        plan.assign(1, 2);
        let mut fs = FairShare::new(&plan);
        assert_eq!(fs.gate(1, 4, t(0)), Gate::Bypass);
    }

    #[test]
    fn structurally_oversized_jobs_bypass() {
        let mut plan = plan3();
        plan.assign(1, 1); // tenant 1: cap 8
        plan.assign(2, 0); // tenant 0: cap 16 = pool
        let mut fs = FairShare::new(&plan);
        // Wider than the tenant's cap: deferring would wedge the queue.
        assert_eq!(fs.gate(1, 9, t(0)), Gate::Bypass);
        // Wider than the whole pool.
        assert_eq!(fs.gate(2, 17, t(0)), Gate::Bypass);
        assert_eq!(fs.total_running(), 0);
    }

    #[test]
    fn closing_tenants_without_guarantee_bypass() {
        // A closing queue never borrows, and with guarantee 0 every
        // admission would be a borrow — deferral would strand the job
        // forever, so the gate must route it around the pool.
        let mut plan = plan3();
        plan.tenants[2].state = QueueState::Closing;
        plan.tenants[2].guaranteed_cores = 0;
        plan.assign(1, 2);
        let mut fs = FairShare::new(&plan);
        assert_eq!(fs.gate(1, 4, t(0)), Gate::Bypass);
        assert_eq!(fs.total_running(), 0);
    }

    #[test]
    fn admission_within_guarantee() {
        let mut plan = plan3();
        plan.assign(1, 0);
        let mut fs = FairShare::new(&plan);
        assert_eq!(
            fs.gate(1, 4, t(0)),
            Gate::Admit {
                tenant: TenantId(0),
                borrowed: false
            }
        );
        assert_eq!(fs.total_running(), 4);
        assert_eq!(fs.release(1), Some(TenantId(0)));
        assert_eq!(fs.total_running(), 0);
    }

    #[test]
    fn cap_defers() {
        let mut plan = plan3();
        for j in 0..3 {
            plan.assign(j, 1); // tenant 1: cap 8
        }
        let mut fs = FairShare::new(&plan);
        assert!(matches!(fs.gate(0, 4, t(0)), Gate::Admit { .. }));
        assert!(matches!(fs.gate(1, 4, t(0)), Gate::Admit { .. }));
        assert_eq!(
            fs.gate(2, 4, t(0)),
            Gate::Defer {
                tenant: TenantId(1),
                depth: 1
            }
        );
    }

    #[test]
    fn borrowing_allowed_only_while_nobody_is_needy() {
        let mut plan = plan3();
        plan.assign(0, 2);
        plan.assign(1, 2);
        plan.assign(2, 0);
        plan.assign(3, 0);
        let mut fs = FairShare::new(&plan);
        // Tenant 2 (guar 2) borrows up to 8 cores while the pool idles.
        assert!(matches!(
            fs.gate(0, 4, t(0)),
            Gate::Admit {
                borrowed: false,
                ..
            }
        ));
        assert_eq!(
            fs.gate(1, 4, t(0)),
            Gate::Admit {
                tenant: TenantId(2),
                borrowed: true
            }
        );
        // Tenant 0 fills most of the rest of the pool (8 of 16 left).
        assert!(matches!(fs.gate(2, 8, t(1)), Gate::Admit { .. }));
        // Tenant 0 now wants more but the pool is full -> it defers and
        // becomes needy; further borrow attempts by tenant 2 defer.
        assert!(matches!(fs.gate(3, 4, t(1)), Gate::Defer { .. }));
        plan.assign(4, 2);
        fs.assignments.insert(4, 2);
        assert!(matches!(fs.gate(4, 1, t(2)), Gate::Defer { .. }));
    }

    #[test]
    fn drain_serves_guarantees_before_borrowers() {
        let mut plan = plan3();
        for j in 0..6 {
            plan.assign(j, if j < 4 { 2 } else { 0 });
        }
        let mut fs = FairShare::new(&plan);
        // Tenant 2 fills the pool: 4 jobs x 4 cores = 16.
        for j in 0..4 {
            assert!(matches!(fs.gate(j, 4, t(0)), Gate::Admit { .. }));
        }
        // Tenant 0 (guar 8) defers twice.
        assert!(matches!(fs.gate(4, 4, t(0)), Gate::Defer { .. }));
        assert!(matches!(fs.gate(5, 4, t(0)), Gate::Defer { .. }));
        // Two tenant-2 jobs finish; drain must hand both slots to
        // tenant 0 (under guarantee), not back to tenant 2.
        fs.release(0);
        fs.release(1);
        let released = fs.drain(t(10));
        let jobs: Vec<u64> = released.iter().map(|r| r.job).collect();
        assert_eq!(jobs, vec![4, 5]);
        assert!(released.iter().all(|r| r.tenant == TenantId(0)));
        assert!(released.iter().all(|r| !r.borrowed));
        assert_eq!(released[0].waited, SimDuration::from_secs(10));
    }

    #[test]
    fn drain_lets_open_tenants_borrow_leftovers() {
        let mut plan = plan3();
        plan.assign(0, 2);
        plan.assign(1, 2);
        plan.assign(2, 2);
        let mut fs = FairShare::new(&plan);
        assert!(matches!(fs.gate(0, 8, t(0)), Gate::Admit { .. }));
        assert!(matches!(fs.gate(1, 8, t(0)), Gate::Admit { .. })); // pool full
        assert!(matches!(fs.gate(2, 4, t(0)), Gate::Defer { .. }));
        fs.release(0);
        let released = fs.drain(t(5));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].job, 2);
        assert!(
            released[0].borrowed,
            "tenant 2 is above its 2-core guarantee"
        );
    }

    #[test]
    fn closing_tenants_never_borrow() {
        let mut plan = plan3();
        plan.tenants[2].state = QueueState::Closing;
        plan.assign(0, 2);
        plan.assign(1, 2);
        let mut fs = FairShare::new(&plan);
        // First two cores are under guarantee.
        assert!(matches!(
            fs.gate(0, 2, t(0)),
            Gate::Admit {
                borrowed: false,
                ..
            }
        ));
        // Above guarantee would be a borrow: a closing queue defers.
        assert!(matches!(fs.gate(1, 2, t(0)), Gate::Defer { .. }));
        // While the guarantee is occupied, the drain must not borrow
        // for a closing queue either.
        assert!(fs.drain(t(1)).is_empty());
        // Once below guarantee again, the deferred job drains within
        // the guarantee — that is what drain mode means.
        fs.release(0);
        let released = fs.drain(t(2));
        assert_eq!(released.len(), 1);
        assert!(!released[0].borrowed);
    }

    #[test]
    fn starvation_preempts_borrowers_first_most_recent_first() {
        let mut plan = plan3().with_starvation_secs(30.0);
        for j in 0..4 {
            plan.assign(j, 2);
        }
        plan.assign(4, 0);
        let mut fs = FairShare::new(&plan);
        // Tenant 2 (guar 2) fills the pool with 4x4: jobs 2,3 are
        // borrowed (usage 8->16 > guar 2... all but the first are).
        for j in 0..4 {
            fs.gate(j, 4, t(j));
        }
        // Tenant 0 arrives needing 8 cores; defers at t=100.
        assert!(matches!(fs.gate(4, 8, t(100)), Gate::Defer { .. }));
        // Before the window elapses: no victims.
        assert!(fs.starved_victims(t(120)).is_empty());
        // After it: borrowed victims, most recently admitted first.
        let victims = fs.starved_victims(t(131));
        assert_eq!(victims.len(), 2, "8 cores needed, 4-core victims");
        assert_eq!(victims[0].victim_job, 3, "most recent borrower first");
        assert_eq!(victims[1].victim_job, 2);
        assert_eq!(victims[0].starved_tenant, TenantId(0));
        assert_eq!(victims[0].victim_tenant, TenantId(2));
        // Scheduler executes: release victims, drain, re-gate victims.
        for v in &victims {
            assert_eq!(fs.release(v.victim_job), Some(TenantId(2)));
        }
        let released = fs.drain(t(131));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].job, 4, "the starved head reclaims the cores");
        // The preempted jobs re-enter via the gate and defer: tenant 2
        // is above guarantee and the pool is full again.
        assert!(matches!(fs.gate(3, 4, t(131)), Gate::Defer { .. }));
        let stats = fs.stats();
        assert_eq!(stats[0].reclaims, 1);
        assert_eq!(stats[2].victims, 2);
    }

    #[test]
    fn starvation_never_victimizes_below_guarantee() {
        // Tenant 1 sits exactly at its guarantee: preempting it would
        // break the floor, so the scan must come up empty-handed.
        let mut plan = plan3().with_starvation_secs(10.0);
        plan.assign(0, 1);
        plan.assign(1, 0);
        let mut fs = FairShare::new(&plan);
        assert!(matches!(fs.gate(0, 4, t(0)), Gate::Admit { .. })); // t1 at guar
                                                                    // Tenant 0 wants 16 (> remaining 12): defers, starves.
        assert!(matches!(fs.gate(1, 16, t(0)), Gate::Defer { .. }));
        assert!(fs.starved_victims(t(60)).is_empty());
    }

    #[test]
    fn over_share_pass_respects_guarantee_floor() {
        // Tenant 0 runs above its fair share but its jobs are not
        // borrow-flagged (admitted under guarantee); the over-share
        // pass may take it down to — but not below — its guarantee.
        let plan = TenancyPlan::new(12)
            .with_starvation_secs(10.0)
            .tenant(TenantSpec::new(0, 1.0, 8, 12))
            .tenant(TenantSpec::new(1, 1.0, 6, 12));
        let mut fs = FairShare::new(&plan);
        fs.assignments.insert(0, 0);
        fs.assignments.insert(1, 0);
        fs.assignments.insert(2, 1);
        assert!(matches!(fs.gate(0, 4, t(0)), Gate::Admit { .. }));
        assert!(matches!(fs.gate(1, 4, t(0)), Gate::Admit { .. }));
        // Tenant 1 (guar 6) wants 6, pool has 4 left -> starves.
        assert!(matches!(fs.gate(2, 6, t(0)), Gate::Defer { .. }));
        let victims = fs.starved_victims(t(30));
        // Fair share is 6 each; tenant 0 runs 8 > 6, but preempting one
        // 4-core job leaves 4 < 8 guarantee — so no victim qualifies.
        assert!(victims.is_empty());
    }

    #[test]
    fn zipf_plan_is_deterministic_and_valid() {
        let a = TenancyPlan::zipf(2000, 1.1, 4096, 0.6);
        let b = TenancyPlan::zipf(2000, 1.1, 4096, 0.6);
        assert_eq!(a, b);
        assert_eq!(a.tenants.len(), 2000);
        a.validate().expect("zipf plans validate");
        // Skew: rank 1 outweighs rank 2000.
        assert!(a.tenants[0].weight > a.tenants[1999].weight * 100.0);
        assert!(a.tenants.iter().all(|t| t.cap_cores >= t.guaranteed_cores));
        assert!(a.tenants.iter().all(|t| t.guaranteed_cores >= 1));
    }

    #[test]
    fn weighted_assignment_follows_weights() {
        use hcloud_sim::rng::RngFactory;
        let mut plan = TenancyPlan::new(64)
            .tenant(TenantSpec::new(0, 9.0, 8, 64))
            .tenant(TenantSpec::new(1, 1.0, 8, 64));
        let jobs: Vec<u64> = (0..2000).collect();
        let mut rng = RngFactory::new(7).stream("tenancy.assign");
        plan.assign_jobs(&jobs, &mut rng);
        let heavy = plan.assignments.values().filter(|&&t| t == 0).count();
        assert!(
            (1600..2000).contains(&heavy),
            "~90% of jobs should land on the 9x tenant, got {heavy}/2000"
        );
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let bad = TenancyPlan::new(16).tenant(TenantSpec::new(0, 0.0, 4, 8));
        assert!(bad.validate().is_err(), "zero weight");
        let bad = TenancyPlan::new(16).tenant(TenantSpec::new(0, 1.0, 8, 4));
        assert!(bad.validate().is_err(), "cap below guarantee");
        let bad = TenancyPlan::new(16)
            .tenant(TenantSpec::new(0, 1.0, 4, 8))
            .tenant(TenantSpec::new(0, 1.0, 4, 8));
        assert!(bad.validate().is_err(), "duplicate id");
        let mut bad = TenancyPlan::new(16).tenant(TenantSpec::new(0, 1.0, 4, 8));
        bad.assign(1, 7);
        assert!(bad.validate().is_err(), "assignment to unknown tenant");
        let good = plan3();
        assert!(good.validate().is_ok());
    }

    #[test]
    fn jain_index_bounds() {
        assert!((jain(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert!((jain(&[]) - 1.0).abs() < 1e-12);
        assert!((jain(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn closed_tenants_have_no_fair_share() {
        let mut plan = plan3();
        plan.tenants[2].state = QueueState::Closed;
        let fs = FairShare::new(&plan);
        // Closed weight is out of the total: 16 cores split 4:2.
        assert_eq!(fs.fair_share(TenantId(0)), 16.0 * 4.0 / 6.0);
        assert_eq!(fs.fair_share(TenantId(1)), 16.0 * 2.0 / 6.0);
        assert_eq!(fs.fair_share(TenantId(2)), 0.0);
        assert_eq!(fs.fair_share(TenantId(9)), 0.0, "unknown tenant");
    }

    #[test]
    fn state_names_round_trip() {
        for s in [QueueState::Open, QueueState::Closing, QueueState::Closed] {
            assert_eq!(QueueState::parse(s.name()), Some(s));
        }
        assert_eq!(QueueState::parse("draining"), None);
    }
}
