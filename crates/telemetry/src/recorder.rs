//! The per-run flight recorder: trace streams as JSONL files.
//!
//! One file per simulated run under `results/traces/`. The first line is a
//! header object carrying the run's identity (label, scenario, strategy,
//! seed, schema version); every following line is one [`TraceEvent`].
//! Nothing in a file depends on wall clock, worker count, or machine, so
//! the same run always produces the same bytes, under the same file name
//! for any `HCLOUD_JOBS` setting.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use hcloud_json::ObjectBuilder;

use crate::trace::TraceEvent;

/// Bumped whenever the JSONL layout changes incompatibly.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Identity of one recorded run — the header line of its trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Human-readable run label, e.g. `HighVariability/HM/seed42`.
    pub label: String,
    /// Scenario name (`ScenarioKind::name()` or `"custom"`).
    pub scenario: String,
    /// Strategy short name (SR, OdF, OdM, HF, HM).
    pub strategy: String,
    /// The run's effective seed.
    pub seed: u64,
}

/// Serialize a run (header + events) as deterministic JSONL.
pub fn render_jsonl(meta: &RunMeta, events: &[TraceEvent]) -> String {
    let header = ObjectBuilder::new()
        .set("schema", TRACE_SCHEMA_VERSION)
        .set("run", meta.label.as_str())
        .set("scenario", meta.scenario.as_str())
        .set("strategy", meta.strategy.as_str())
        .set("seed", meta.seed)
        .set("events", events.len() as u64)
        .build();
    let mut out = String::new();
    out.push_str(&header.to_string());
    out.push('\n');
    for ev in events {
        out.push_str(&ev.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Turn a run label into a safe, stable file stem: every character outside
/// `[A-Za-z0-9._-]` becomes `-`.
pub fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Writes run traces into a directory (normally `results/traces/`).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    dir: PathBuf,
}

impl FlightRecorder {
    /// The conventional location, relative to the working directory.
    pub fn default_dir() -> FlightRecorder {
        FlightRecorder::new("results/traces")
    }

    pub fn new(dir: impl Into<PathBuf>) -> FlightRecorder {
        FlightRecorder { dir: dir.into() }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a run named `name` records into:
    /// `<dir>/<sanitized name>.jsonl`. The caller picks a name unique to
    /// the run, so no two runs share a file.
    pub fn path_for(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{}.jsonl", sanitize_label(name)))
    }

    /// Serialize and write one run's trace into the file named `name`;
    /// returns the file written.
    pub fn write(&self, name: &str, meta: &RunMeta, events: &[TraceEvent]) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let path = self.path_for(name);
        fs::write(&path, render_jsonl(meta, events))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;
    use hcloud_sim::SimTime;

    fn meta() -> RunMeta {
        RunMeta {
            label: "HighVariability/HM/seed42".into(),
            scenario: "HighVariability".into(),
            strategy: "HM".into(),
            seed: 42,
        }
    }

    #[test]
    fn labels_sanitize_to_safe_stems() {
        assert_eq!(
            sanitize_label("HighVariability/HM/seed42"),
            "HighVariability-HM-seed42"
        );
        assert_eq!(sanitize_label("a b:c\\d"), "a-b-c-d");
        assert_eq!(sanitize_label("ok_1.2-x"), "ok_1.2-x");
    }

    #[test]
    fn jsonl_has_header_then_events() {
        let events = vec![
            TraceEvent::new(
                SimTime::ZERO,
                TraceKind::Progress {
                    events_processed: 0,
                    queue_depth: 1,
                },
            ),
            TraceEvent::new(
                SimTime::from_secs(5),
                TraceKind::InstanceReleased { instance: 3 },
            ),
        ];
        let text = render_jsonl(&meta(), &events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = hcloud_json::parse(lines[0]).unwrap();
        assert_eq!(header.get("schema").unwrap().as_u64(), Some(1));
        assert_eq!(
            header.get("run").unwrap().as_str(),
            Some("HighVariability/HM/seed42")
        );
        assert_eq!(header.get("events").unwrap().as_u64(), Some(2));
        let ev = hcloud_json::parse(lines[2]).unwrap();
        assert_eq!(ev.get("ev").unwrap().as_str(), Some("instance-released"));
        assert_eq!(ev.get("t_us").unwrap().as_u64(), Some(5_000_000));
    }

    #[test]
    fn rendering_is_reproducible() {
        let events = vec![TraceEvent::new(
            SimTime::from_micros(17),
            TraceKind::RetentionExpired { instance: 9 },
        )];
        assert_eq!(
            render_jsonl(&meta(), &events),
            render_jsonl(&meta(), &events)
        );
    }
}
