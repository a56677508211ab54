//! Structured telemetry for the HCloud reproduction.
//!
//! Three layers, each usable on its own:
//!
//! * [`Tracer`] + [`trace_event!`] — a zero-cost-when-disabled structured
//!   event stream. Events are typed ([`TraceKind`]), stamped with **sim
//!   time** (never wall clock, so traces are deterministic), and buffered
//!   per run.
//! * [`Profiler`] — per-subsystem profiling spans (event queue, placement,
//!   monitor quantiles, audit hooks): zero-cost when disabled, and split
//!   into deterministic operation counts vs machine-dependent wall clock.
//! * [`FlightRecorder`] — serializes one run's event stream to JSONL via
//!   `hcloud-json` under `results/traces/`, and [`render_timeline`] replays
//!   such a file into a human-readable timeline (`hcloud-cli trace`).
//!
//! The switchboard is [`TraceMode`], parsed from `HCLOUD_TRACE` with the
//! same loud-failure contract as the other `HCLOUD_*` knobs: `off`
//! (default, byte-identical behaviour to a build without telemetry),
//! `summary` (per-phase profiling spans on stderr), and `full` (summary
//! plus per-run flight recording).

pub mod mode;
pub mod profile;
pub mod recorder;
pub mod timeline;
pub mod trace;

pub use mode::TraceMode;
pub use profile::{ProfSpan, ProfileSnapshot, Profiler, SpanTotals};
pub use recorder::{render_jsonl, sanitize_label, FlightRecorder, RunMeta, TRACE_SCHEMA_VERSION};
pub use timeline::render_timeline;
pub use trace::{TraceEvent, TraceKind, Tracer};

/// Record a structured event iff the tracer is enabled.
///
/// The event payload expression is only evaluated when tracing is on, so
/// instrumentation sites pay a single branch on the hot path — no
/// allocation, no formatting — when the tracer is disabled.
///
/// ```
/// use hcloud_sim::SimTime;
/// use hcloud_telemetry::{trace_event, TraceKind, Tracer};
///
/// let tracer = Tracer::disabled();
/// trace_event!(tracer, SimTime::ZERO, TraceKind::Progress {
///     events_processed: 0,
///     queue_depth: 0,
/// });
/// assert!(tracer.take().is_empty());
/// ```
#[macro_export]
macro_rules! trace_event {
    ($tracer:expr, $at:expr, $kind:expr) => {
        if $tracer.is_enabled() {
            $tracer.record($at, $kind);
        }
    };
}
