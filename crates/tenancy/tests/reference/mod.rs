//! The O(tenants) `FairShare` kept as a reference model, the way the
//! old `BinaryHeap` event queue serves the timing wheel's tests.
//!
//! This is the straightforward implementation: every drain round visits
//! every tenant in DRR order, every needy check and starvation scan walks
//! every tenant, and every fair-share query re-sums the weights. The
//! production `FairShare` walks a backlog index instead; the differential
//! test drives both through the same calls and requires identical answers.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use hcloud_sim::{SimDuration, SimTime};
use hcloud_tenancy::{
    Gate, Preemption, QueueState, Release, TenancyPlan, TenantId, TenantSpec, TenantStat,
};

#[derive(Debug, Clone, Copy)]
struct PendingJob {
    job: u64,
    cores: u32,
    enqueued: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct RunningRec {
    tenant: u64,
    cores: u32,
    seq: u64,
    borrowed: bool,
}

#[derive(Debug, Clone)]
struct Queue {
    spec: TenantSpec,
    pending: VecDeque<PendingJob>,
    deficit: f64,
    running_cores: u64,
    stat: TenantStat,
}

impl Queue {
    fn new(spec: TenantSpec) -> Queue {
        let stat = TenantStat {
            id: spec.id.0,
            weight: spec.weight,
            guaranteed_cores: spec.guaranteed_cores,
            cap_cores: spec.cap_cores,
            ..TenantStat::default()
        };
        Queue {
            spec,
            pending: VecDeque::new(),
            deficit: 0.0,
            running_cores: 0,
            stat,
        }
    }

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

/// The reference fair-share runtime.
#[derive(Debug, Clone)]
pub struct ReferenceFairShare {
    tenants: BTreeMap<u64, Queue>,
    assignments: BTreeMap<u64, u64>,
    running: BTreeMap<u64, RunningRec>,
    order: Vec<u64>,
    cursor: usize,
    pool_cores: u64,
    total_running: u64,
    quantum: f64,
    starvation: SimDuration,
    admit_seq: u64,
}

impl ReferenceFairShare {
    pub fn new(plan: &TenancyPlan) -> ReferenceFairShare {
        let mut tenants = BTreeMap::new();
        let mut order = Vec::with_capacity(plan.tenants.len());
        for spec in &plan.tenants {
            order.push(spec.id.0);
            tenants.insert(spec.id.0, Queue::new(spec.clone()));
        }
        ReferenceFairShare {
            tenants,
            assignments: plan.assignments.clone(),
            running: BTreeMap::new(),
            order,
            cursor: 0,
            pool_cores: plan.pool_cores as u64,
            total_running: 0,
            quantum: plan.quantum,
            starvation: SimDuration::from_secs_f64(plan.starvation_secs),
            admit_seq: 0,
        }
    }

    pub fn total_running(&self) -> u64 {
        self.total_running
    }

    /// `(running cores, pending depth)` of one tenant.
    pub fn load(&self, tenant: TenantId) -> Option<(u64, usize)> {
        self.tenants
            .get(&tenant.0)
            .map(|q| (q.running_cores, q.pending.len()))
    }

    /// The weighted fair share, over non-closed tenants. Only meaningful
    /// for non-closed tenants: a closed tenant's weight is not in the
    /// total it divides by.
    pub fn fair_share(&self, tenant: TenantId) -> f64 {
        let total: f64 = self
            .tenants
            .values()
            .filter(|q| q.spec.state != QueueState::Closed)
            .map(|q| q.spec.weight)
            .sum();
        match self.tenants.get(&tenant.0) {
            Some(q) if total > 0.0 => self.pool_cores as f64 * q.spec.weight / total,
            _ => 0.0,
        }
    }

    fn any_needy(&self) -> bool {
        self.tenants.values().any(|q| q.needy())
    }

    pub fn gate(&mut self, job: u64, cores: u32, now: SimTime) -> Gate {
        let Some(&tid) = self.assignments.get(&job) else {
            return Gate::Bypass;
        };
        let any_needy = self.any_needy();
        let Some(q) = self.tenants.get_mut(&tid) else {
            return Gate::Bypass;
        };
        if q.spec.state == QueueState::Closed {
            return Gate::Bypass;
        }
        if cores as u64 > q.spec.cap_cores as u64 || cores as u64 > self.pool_cores {
            return Gate::Bypass;
        }
        if q.spec.state == QueueState::Closing && q.spec.guaranteed_cores == 0 {
            return Gate::Bypass;
        }
        let borrowed = q.running_cores >= q.spec.guaranteed_cores as u64;
        let cap_ok = q.running_cores + cores as u64 <= q.spec.cap_cores as u64;
        let pool_ok = self.total_running + cores as u64 <= self.pool_cores;
        let borrow_ok = !borrowed || (q.spec.state == QueueState::Open && !any_needy);
        if cap_ok && pool_ok && borrow_ok && q.pending.is_empty() {
            q.note_admit(cores, borrowed);
            self.total_running += cores as u64;
            self.admit_seq += 1;
            self.running.insert(
                job,
                RunningRec {
                    tenant: tid,
                    cores,
                    seq: self.admit_seq,
                    borrowed,
                },
            );
            Gate::Admit {
                tenant: TenantId(tid),
                borrowed,
            }
        } else {
            q.pending.push_back(PendingJob {
                job,
                cores,
                enqueued: now,
            });
            q.stat.deferred += 1;
            q.stat.max_pending_depth = q.stat.max_pending_depth.max(q.pending.len());
            Gate::Defer {
                tenant: TenantId(tid),
                depth: q.pending.len(),
            }
        }
    }

    pub fn release(&mut self, job: u64) -> Option<TenantId> {
        let rec = self.running.remove(&job)?;
        if let Some(q) = self.tenants.get_mut(&rec.tenant) {
            q.running_cores = q.running_cores.saturating_sub(rec.cores as u64);
        }
        self.total_running = self.total_running.saturating_sub(rec.cores as u64);
        Some(TenantId(rec.tenant))
    }

    pub fn drain(&mut self, now: SimTime) -> Vec<Release> {
        let mut out = Vec::new();
        // Pass 1: guarantees.
        loop {
            let mut progressed = false;
            for i in 0..self.order.len() {
                let tid = self.order[(self.cursor + i) % self.order.len()];
                let q = self.tenants.get_mut(&tid).expect("order tracks tenants");
                if !q.needy() {
                    continue;
                }
                q.deficit += self.quantum * q.spec.weight;
                while let Some(&head) = q.pending.front() {
                    let under = q.running_cores < q.spec.guaranteed_cores as u64;
                    let fits_pool = self.total_running + head.cores as u64 <= self.pool_cores;
                    let fits_cap = q.running_cores + head.cores as u64 <= q.spec.cap_cores as u64;
                    if !(under && fits_pool && fits_cap && q.deficit >= head.cores as f64) {
                        break;
                    }
                    q.pending.pop_front();
                    q.deficit -= head.cores as f64;
                    q.note_admit(head.cores, false);
                    q.stat.drained += 1;
                    let waited = now.saturating_since(head.enqueued);
                    q.stat.total_queue_wait_secs += waited.as_secs_f64();
                    self.total_running += head.cores as u64;
                    self.admit_seq += 1;
                    self.running.insert(
                        head.job,
                        RunningRec {
                            tenant: tid,
                            cores: head.cores,
                            seq: self.admit_seq,
                            borrowed: false,
                        },
                    );
                    out.push(Release {
                        job: head.job,
                        tenant: TenantId(tid),
                        cores: head.cores,
                        waited,
                        borrowed: false,
                    });
                    progressed = true;
                }
                if q.pending.is_empty() {
                    q.deficit = 0.0;
                }
            }
            if !progressed {
                break;
            }
        }
        if !self.order.is_empty() {
            self.cursor = (self.cursor + 1) % self.order.len();
        }
        // Pass 2: elastic borrowing of whatever is left.
        loop {
            if self.any_needy() {
                break;
            }
            let mut progressed = false;
            for i in 0..self.order.len() {
                let tid = self.order[(self.cursor + i) % self.order.len()];
                let q = self.tenants.get_mut(&tid).expect("order tracks tenants");
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
                q.note_admit(head.cores, borrowed);
                q.stat.drained += 1;
                let waited = now.saturating_since(head.enqueued);
                q.stat.total_queue_wait_secs += waited.as_secs_f64();
                self.total_running += head.cores as u64;
                self.admit_seq += 1;
                self.running.insert(
                    head.job,
                    RunningRec {
                        tenant: tid,
                        cores: head.cores,
                        seq: self.admit_seq,
                        borrowed,
                    },
                );
                out.push(Release {
                    job: head.job,
                    tenant: TenantId(tid),
                    cores: head.cores,
                    waited,
                    borrowed,
                });
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        out
    }

    pub fn starved_victims(&mut self, now: SimTime) -> Vec<Preemption> {
        let mut starved: Vec<(u64, u64)> = Vec::new();
        for q in self.tenants.values() {
            if !q.needy() {
                continue;
            }
            let head = q.pending.front().expect("needy implies pending");
            if now.saturating_since(head.enqueued) >= self.starvation {
                starved.push((q.spec.id.0, head.cores as u64));
            }
        }
        if starved.is_empty() {
            return Vec::new();
        }
        let needed: u64 = starved.iter().map(|&(_, n)| n).sum();
        let starved_ids: BTreeSet<u64> = starved.iter().map(|&(t, _)| t).collect();

        let mut borrowed: Vec<(f64, u64, u64, u32, u64)> = Vec::new();
        for (&job, rec) in &self.running {
            if !rec.borrowed || starved_ids.contains(&rec.tenant) {
                continue;
            }
            let q = &self.tenants[&rec.tenant];
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
        let mut drawn: BTreeMap<u64, u64> = BTreeMap::new();
        let first_starved = TenantId(starved[0].0);
        for (_, _, job, cores, tenant) in &borrowed {
            if freed >= needed {
                break;
            }
            let q = &self.tenants[tenant];
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
            let mut over_share: Vec<(f64, u64, u64, u32, u64)> = Vec::new();
            for (&job, rec) in &self.running {
                if starved_ids.contains(&rec.tenant) || victims.iter().any(|v| v.victim_job == job)
                {
                    continue;
                }
                let q = &self.tenants[&rec.tenant];
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
                let q = &self.tenants[tenant];
                let remaining = q.running_cores - drawn.get(tenant).copied().unwrap_or(0);
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
                if let Some(q) = self.tenants.get_mut(&tid) {
                    q.stat.reclaims += 1;
                }
            }
            for v in &victims {
                if let Some(q) = self.tenants.get_mut(&v.victim_tenant.0) {
                    q.stat.victims += 1;
                }
            }
        }
        victims
    }

    pub fn stats(&self) -> Vec<TenantStat> {
        self.tenants.values().map(|q| q.stat).collect()
    }
}
