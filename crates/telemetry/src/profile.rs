//! Per-subsystem profiling spans.
//!
//! The trace layer answers *what happened*; the profiler answers *where
//! the wall clock went*. Each simulated run can carry a [`Profiler`] — the
//! same cheap-to-clone `Rc` handle idiom as [`crate::Tracer`] — and the
//! hot paths wrap their work in [`Profiler::time`], attributing it to one
//! of a small fixed set of [`ProfSpan`] subsystems. A disabled profiler
//! reduces every site to a single predictable branch: no `Instant::now`,
//! no accumulation, byte-identical behaviour to an uninstrumented build.
//!
//! Two kinds of numbers come out of a [`ProfileSnapshot`]:
//!
//! * **operation counts** — fully deterministic (a function of the
//!   simulation alone), safe to serialize into committed artifacts and to
//!   diff across worker counts;
//! * **wall-clock nanoseconds** — machine-dependent, reported on stderr
//!   (`HCLOUD_TRACE=summary`) and in the perf benches' wall-clock
//!   artifacts only.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use hcloud_json::{ObjectBuilder, Value};

/// The instrumented subsystems, in reporting order.
///
/// The set mirrors the optimisation history: the event queue (PR 6's
/// timing wheel vs the reference heap), the placement front door (PR 4's
/// indexed `find_placement`), the quality-monitor quantile windows
/// (`RollingQuantiles`), the conservation-audit hooks, and the
/// fair-share tenancy calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfSpan {
    /// `sim::event` — scheduling events into the queue.
    EventPush,
    /// `sim::event` — draining due event batches out of the queue.
    EventPop,
    /// `core::scheduler` — the typed placement front door.
    FindPlacement,
    /// `core::monitor` — quality-sample absorption and Q90 queries.
    MonitorQuantiles,
    /// `audit` — per-step and end-of-run conservation checks.
    AuditHooks,
    /// `tenancy` — the scheduler's fair-share gate, release, drain and
    /// starvation-scan calls (zero on untenanted runs).
    Tenancy,
}

/// Number of subsystems (the fixed cell-array size).
pub const PROF_SPANS: usize = 6;

impl ProfSpan {
    /// Every subsystem, in reporting order.
    pub const ALL: [ProfSpan; PROF_SPANS] = [
        ProfSpan::EventPush,
        ProfSpan::EventPop,
        ProfSpan::FindPlacement,
        ProfSpan::MonitorQuantiles,
        ProfSpan::AuditHooks,
        ProfSpan::Tenancy,
    ];

    /// Stable wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            ProfSpan::EventPush => "event-push",
            ProfSpan::EventPop => "event-pop",
            ProfSpan::FindPlacement => "find-placement",
            ProfSpan::MonitorQuantiles => "monitor-quantiles",
            ProfSpan::AuditHooks => "audit-hooks",
            ProfSpan::Tenancy => "tenancy",
        }
    }
}

/// One subsystem's accumulated cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Operations attributed to the span (deterministic).
    pub ops: u64,
    /// Wall-clock nanoseconds inside the span (machine-dependent).
    pub nanos: u64,
}

/// A cheap-to-clone handle onto one run's span accumulators.
///
/// Single-threaded within a run, like [`crate::Tracer`]; runs only cross
/// threads as finished [`ProfileSnapshot`]s.
#[derive(Debug, Clone)]
pub struct Profiler {
    enabled: bool,
    cells: Rc<RefCell<[SpanTotals; PROF_SPANS]>>,
}

impl Profiler {
    /// A profiler that measures nothing; this is the hot-path default.
    pub fn disabled() -> Profiler {
        Profiler {
            enabled: false,
            cells: Rc::new(RefCell::new([SpanTotals::default(); PROF_SPANS])),
        }
    }

    /// A profiler that attributes wrapped work to its subsystem.
    pub fn enabled() -> Profiler {
        Profiler {
            enabled: true,
            cells: Rc::new(RefCell::new([SpanTotals::default(); PROF_SPANS])),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, attributing its wall clock and one operation to `span`.
    /// Disabled: exactly one branch, then `f` runs unobserved.
    #[inline]
    pub fn time<T>(&self, span: ProfSpan, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos() as u64;
        let mut cells = self.cells.borrow_mut();
        let cell = &mut cells[span as usize];
        cell.ops += 1;
        cell.nanos += nanos;
        out
    }

    /// The accumulated totals so far.
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            spans: *self.cells.borrow(),
        }
    }
}

/// Frozen per-subsystem totals, indexable by [`ProfSpan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    spans: [SpanTotals; PROF_SPANS],
}

impl ProfileSnapshot {
    /// One subsystem's totals.
    pub fn get(&self, span: ProfSpan) -> SpanTotals {
        self.spans[span as usize]
    }

    /// Whether any span recorded anything.
    pub fn is_empty(&self) -> bool {
        self.spans.iter().all(|s| s.ops == 0)
    }

    /// Total operations across subsystems.
    pub fn total_ops(&self) -> u64 {
        self.spans.iter().map(|s| s.ops).sum()
    }

    /// Sums `other` into `self` (plan/session aggregation).
    pub fn absorb(&mut self, other: &ProfileSnapshot) {
        for (mine, theirs) in self.spans.iter_mut().zip(&other.spans) {
            mine.ops += theirs.ops;
            mine.nanos += theirs.nanos;
        }
    }

    /// Deterministic JSON object of per-subsystem operation counts only
    /// (wall clock deliberately excluded — artifacts carrying this block
    /// stay byte-identical across machines and worker counts).
    pub fn ops_json(&self) -> Value {
        let mut b = ObjectBuilder::new();
        for span in ProfSpan::ALL {
            b = b.set(span.name(), self.get(span).ops);
        }
        b.build()
    }

    /// JSON object of per-subsystem wall-clock milliseconds (the perf
    /// benches' localization payload; machine-dependent by nature).
    pub fn wall_ms_json(&self) -> Value {
        let mut b = ObjectBuilder::new();
        for span in ProfSpan::ALL {
            b = b.set(span.name(), self.get(span).nanos as f64 / 1e6);
        }
        b.build()
    }

    /// One human-readable summary line: `event-push 1234 ops 5.6ms, …`.
    pub fn summary(&self) -> String {
        ProfSpan::ALL
            .iter()
            .map(|&span| {
                let t = self.get(span);
                format!(
                    "{} {} ops {:.1}ms",
                    span.name(),
                    t.ops,
                    t.nanos as f64 / 1e6
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_accumulates_nothing() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        let v = p.time(ProfSpan::EventPush, || 41 + 1);
        assert_eq!(v, 42);
        assert!(p.snapshot().is_empty());
        assert_eq!(p.snapshot().total_ops(), 0);
    }

    #[test]
    fn enabled_profiler_counts_ops_per_span() {
        let p = Profiler::enabled();
        for _ in 0..3 {
            p.time(ProfSpan::FindPlacement, || std::hint::black_box(1));
        }
        p.time(ProfSpan::AuditHooks, || std::hint::black_box(2));
        let snap = p.snapshot();
        assert_eq!(snap.get(ProfSpan::FindPlacement).ops, 3);
        assert_eq!(snap.get(ProfSpan::AuditHooks).ops, 1);
        assert_eq!(snap.get(ProfSpan::EventPop).ops, 0);
        assert_eq!(snap.total_ops(), 4);
        assert!(!snap.is_empty());
    }

    #[test]
    fn clones_share_one_accumulator() {
        let p = Profiler::enabled();
        let q = p.clone();
        q.time(ProfSpan::MonitorQuantiles, || ());
        assert_eq!(p.snapshot().get(ProfSpan::MonitorQuantiles).ops, 1);
    }

    #[test]
    fn snapshots_absorb_and_serialize_deterministically() {
        let p = Profiler::enabled();
        p.time(ProfSpan::EventPush, || ());
        p.time(ProfSpan::EventPush, || ());
        let mut total = ProfileSnapshot::default();
        total.absorb(&p.snapshot());
        total.absorb(&p.snapshot());
        assert_eq!(total.get(ProfSpan::EventPush).ops, 4);
        let json = total.ops_json().to_string();
        assert!(json.contains("\"event-push\":4"), "{json}");
        // Counts only — no wall-clock field sneaks into the ops block.
        assert!(!json.contains("ms"), "{json}");
        let line = total.summary();
        assert!(line.starts_with("event-push 4 ops"), "{line}");
    }

    #[test]
    fn span_names_are_stable_and_unique() {
        let names: Vec<&str> = ProfSpan::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names[0], "event-push");
    }
}
