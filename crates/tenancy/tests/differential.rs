//! Differential test: the backlog-indexed `FairShare` against the
//! O(tenants) reference model in `reference/`.
//!
//! Both runtimes are driven through the same random sequence of gate,
//! release, drain and starvation-relief calls, replayed the way the
//! scheduler makes them (victims are released, re-gated, then a drain
//! follows). Every answer — `Gate`, `Release` and `Preemption` vectors —
//! and the full observable state after every call (`stats()`, pool
//! usage, per-tenant load, fair shares) must agree exactly.
//!
//! Plans mix `Open`, `Closing` and `Closed` tenants and zero-guarantee
//! tenants, and their tenant ids are random, so plan (DRR) order is
//! usually not ascending id order: a Zipf plan, whose ids ascend in plan
//! order, would hide a drain that walks ids instead of DRR positions.

mod reference;

use hcloud_sim::{SimDuration, SimTime};
use hcloud_tenancy::{FairShare, Gate, QueueState, TenancyPlan, TenantId, TenantSpec};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use reference::ReferenceFairShare;

/// Jobs the plan assigns (or leaves unassigned).
const JOBS: usize = 48;

/// One drawn tenant: (id, weight, guaranteed cores, cap headroom above
/// the guarantee, state code).
type TenantDraw = (u64, f64, u32, u32, u8);
/// One drawn call: (kind, pick, cores, seconds to advance first).
type OpDraw = (u8, u64, u32, u64);
/// Pool cores, DRR quantum, starvation window in seconds.
type KnobDraw = (u32, f64, f64);

fn tenants() -> impl Strategy<Value = Vec<TenantDraw>> {
    prop::collection::vec((0u64..64, 0.1f64..5.0, 0u32..7, 0u32..12, 0u8..4), 1..12)
}

/// Per job: its tenant's index in the plan, taken modulo one more than
/// the tenant count; the extra slot leaves the job unassigned.
fn assignments() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..64, JOBS)
}

fn knobs() -> impl Strategy<Value = KnobDraw> {
    (4u32..32, 0.5f64..6.0, 5.0f64..40.0)
}

fn ops() -> impl Strategy<Value = Vec<OpDraw>> {
    prop::collection::vec((0u8..9, any::<u64>(), 1u32..6, 0u64..10), 1..200)
}

fn state_of(code: u8) -> QueueState {
    match code {
        2 => QueueState::Closing,
        3 => QueueState::Closed,
        _ => QueueState::Open,
    }
}

/// A valid plan from the draws: duplicate ids are dropped, plan order is
/// draw order.
fn plan_of(tenants: &[TenantDraw], assignments: &[usize], knobs: KnobDraw) -> TenancyPlan {
    let (pool, quantum, starvation) = knobs;
    let mut plan = TenancyPlan::new(pool)
        .with_quantum(quantum)
        .with_starvation_secs(starvation);
    for &(id, weight, guaranteed, headroom, state) in tenants {
        if plan.tenants.iter().all(|t| t.id.0 != id) {
            plan = plan.tenant(
                TenantSpec::new(id, weight, guaranteed, guaranteed + headroom)
                    .with_state(state_of(state)),
            );
        }
    }
    for (job, &idx) in assignments.iter().enumerate() {
        if let Some(t) = plan.tenants.get(idx % (plan.tenants.len() + 1)) {
            plan.assign(job as u64, t.id.0);
        }
    }
    plan.validate().expect("drawn plans are valid");
    plan
}

/// Where the driver believes a job is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Job {
    Idle,
    /// Gated through as untenanted.
    Outside,
    Pending(u32),
    Running(u32),
}

/// What cases exercised, so a separate test can check the generator
/// reaches every interesting state. The first four count cases, the
/// rest count calls.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    non_ascending_plans: u64,
    closing_plans: u64,
    zero_guarantee_plans: u64,
    closed_bypasses: u64,
    deferred: u64,
    drained: u64,
    borrowed_drains: u64,
    victims: u64,
}

impl Coverage {
    fn add(&mut self, case: Coverage) {
        self.non_ascending_plans += case.non_ascending_plans;
        self.closing_plans += case.closing_plans;
        self.zero_guarantee_plans += case.zero_guarantee_plans;
        self.closed_bypasses += case.closed_bypasses;
        self.deferred += case.deferred;
        self.drained += case.drained;
        self.borrowed_drains += case.borrowed_drains;
        self.victims += case.victims;
    }
}

/// Both runtimes plus the driver's view of every job.
struct Pair {
    plan: TenancyPlan,
    fast: FairShare,
    slow: ReferenceFairShare,
    jobs: Vec<Job>,
    now: SimTime,
    cov: Coverage,
}

fn fail(msg: String) -> TestCaseError {
    TestCaseError::fail(msg)
}

impl Pair {
    fn new(plan: TenancyPlan) -> Pair {
        let ids: Vec<u64> = plan.tenants.iter().map(|t| t.id.0).collect();
        let cov = Coverage {
            non_ascending_plans: ids.windows(2).any(|w| w[0] > w[1]) as u64,
            closing_plans: plan.tenants.iter().any(|t| t.state == QueueState::Closing) as u64,
            zero_guarantee_plans: plan.tenants.iter().any(|t| t.guaranteed_cores == 0) as u64,
            ..Coverage::default()
        };
        Pair {
            fast: FairShare::new(&plan),
            slow: ReferenceFairShare::new(&plan),
            plan,
            jobs: vec![Job::Idle; JOBS],
            now: SimTime::ZERO,
            cov,
        }
    }

    /// The first job at or cyclically after `pick` that `want` accepts.
    fn find(&self, pick: u64, want: impl Fn(Job) -> bool) -> Option<usize> {
        (0..JOBS)
            .map(|k| (pick as usize + k) % JOBS)
            .find(|&j| want(self.jobs[j]))
    }

    fn gate(&mut self, job: usize, cores: u32) -> Result<(), TestCaseError> {
        let got = self.fast.gate(job as u64, cores, self.now);
        let want = self.slow.gate(job as u64, cores, self.now);
        if got != want {
            return Err(fail(format!("gate({job}, {cores}): {got:?} != {want:?}")));
        }
        self.jobs[job] = match got {
            Gate::Bypass => {
                let tenant = self.plan.tenant_of(job as u64);
                if tenant.is_some_and(|t| self.is_closed(t)) {
                    self.cov.closed_bypasses = 1;
                }
                Job::Outside
            }
            Gate::Admit { .. } => Job::Running(cores),
            Gate::Defer { .. } => {
                self.cov.deferred += 1;
                Job::Pending(cores)
            }
        };
        Ok(())
    }

    fn is_closed(&self, tenant: TenantId) -> bool {
        self.plan
            .tenants
            .iter()
            .any(|t| t.id == tenant && t.state == QueueState::Closed)
    }

    fn release(&mut self, job: usize) -> Result<(), TestCaseError> {
        let got = self.fast.release(job as u64);
        let want = self.slow.release(job as u64);
        if got != want {
            return Err(fail(format!("release({job}): {got:?} != {want:?}")));
        }
        if matches!(self.jobs[job], Job::Running(_) | Job::Outside) {
            self.jobs[job] = Job::Idle;
        }
        Ok(())
    }

    fn drain(&mut self) -> Result<(), TestCaseError> {
        let got = self.fast.drain(self.now);
        let want = self.slow.drain(self.now);
        if got != want {
            return Err(fail(format!("drain: {got:?} != {want:?}")));
        }
        for r in got {
            let Job::Pending(cores) = self.jobs[r.job as usize] else {
                return Err(fail(format!("drain released non-pending job {}", r.job)));
            };
            self.jobs[r.job as usize] = Job::Running(cores);
            self.cov.drained += 1;
            self.cov.borrowed_drains += r.borrowed as u64;
        }
        Ok(())
    }

    /// The scheduler's starvation step: scan, release and re-gate every
    /// victim, then drain.
    fn relieve(&mut self) -> Result<(), TestCaseError> {
        let got = self.fast.starved_victims(self.now);
        let want = self.slow.starved_victims(self.now);
        if got != want {
            return Err(fail(format!("starved_victims: {got:?} != {want:?}")));
        }
        for v in &got {
            let job = v.victim_job as usize;
            let Job::Running(cores) = self.jobs[job] else {
                return Err(fail(format!("victim {job} is not running")));
            };
            self.release(job)?;
            self.gate(job, cores)?;
            self.cov.victims += 1;
        }
        self.drain()
    }

    fn step(&mut self, op: OpDraw) -> Result<(), TestCaseError> {
        let (kind, pick, cores, advance) = op;
        self.now += SimDuration::from_secs(advance);
        match kind {
            0..=2 => {
                if let Some(job) = self.find(pick, |j| j == Job::Idle) {
                    self.gate(job, cores)?;
                }
            }
            3 | 4 => {
                if let Some(job) = self.find(pick, |j| matches!(j, Job::Running(_) | Job::Outside))
                {
                    self.release(job)?;
                }
            }
            // Any job at all: pending and idle jobs must release nothing.
            5 => self.release(pick as usize % JOBS)?,
            6 | 7 => self.drain()?,
            _ => self.relieve()?,
        }
        self.check_state()
    }

    fn check_state(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.fast.stats(), self.slow.stats());
        prop_assert_eq!(self.fast.total_running(), self.slow.total_running());
        for spec in &self.plan.tenants {
            let q = self
                .fast
                .queue(spec.id)
                .expect("planned tenant has a queue");
            prop_assert_eq!(
                Some((q.running_cores(), q.pending_depth())),
                self.slow.load(spec.id)
            );
            if spec.state != QueueState::Closed {
                let (got, want) = (self.fast.fair_share(spec.id), self.slow.fair_share(spec.id));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "fair share of {}", spec.id);
            }
        }
        Ok(())
    }
}

fn run_case(
    tenants: &[TenantDraw],
    assignments: &[usize],
    knobs: KnobDraw,
    ops: &[OpDraw],
) -> Result<Coverage, TestCaseError> {
    let mut pair = Pair::new(plan_of(tenants, assignments, knobs));
    for &op in ops {
        pair.step(op)?;
    }
    Ok(pair.cov)
}

proptest! {
    #[test]
    fn backlog_indexed_fair_share_matches_reference(
        tenants in tenants(),
        assignments in assignments(),
        knobs in knobs(),
        ops in ops(),
    ) {
        run_case(&tenants, &assignments, knobs, &ops)?;
    }
}

/// The draws above reach every state the differential test is meant to
/// cover; without this a generator change could quietly stop exercising
/// borrowing, closing queues or preemption.
#[test]
fn differential_cases_cover_every_path() {
    let mut rng = TestRng::deterministic("backlog_indexed_fair_share_matches_reference");
    let mut total = Coverage::default();
    for _ in 0..256 {
        let case = run_case(
            &tenants().generate(&mut rng),
            &assignments().generate(&mut rng),
            knobs().generate(&mut rng),
            &ops().generate(&mut rng),
        )
        .expect("the property holds");
        total.add(case);
    }
    // Cases:
    assert!(total.non_ascending_plans > 128, "{total:?}");
    assert!(total.closing_plans > 64, "{total:?}");
    assert!(total.zero_guarantee_plans > 64, "{total:?}");
    assert!(total.closed_bypasses > 64, "{total:?}");
    // Calls:
    assert!(total.deferred > 1000, "{total:?}");
    assert!(total.drained > 400, "{total:?}");
    assert!(total.borrowed_drains > 80, "{total:?}");
    assert!(total.victims > 40, "{total:?}");
}
