//! The generated paper-parity & perf-trajectory dashboard.
//!
//! [`write_dashboard`] walks the [`crate::registry`] against the working
//! tree — `results/*.json` artifact stamps, committed goldens, and the
//! repo-root `BENCH_hotpath.json` / `BENCH_fleet.json` perf records — and
//! renders two files under `docs/alignment/`:
//!
//! * `STATUS.md` — one coverage row per registered experiment (artifact
//!   freshness, golden, trace/audit/fault coverage, CI job, digest),
//!   plus the rendered perf trajectory;
//! * `PERF_TRAJECTORY.json` — a cumulative, append-only record of the
//!   perf benches' wall-clock/digest rows. Re-rendering from the same
//!   inputs is byte-identical (rows already present are never
//!   re-appended, and nothing here reads the clock), which is what lets
//!   CI regenerate the dashboard and fail on `git diff --exit-code`.
//!
//! Run it with `cargo run -p hcloud-bench --bin render_dashboard` or
//! `hcloud-cli dashboard`.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

use hcloud_json::{ObjectBuilder, Value};

use crate::artifacts::{self, SCHEMA_VERSION};
use crate::fleet::Fnv;
use crate::registry::{self, ExperimentInfo, ExperimentKind};

/// Where the rendered dashboard lives, relative to the repo root.
pub const DASHBOARD_DIR: &str = "docs/alignment";

/// One artifact's freshness, as judged from its stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Freshness {
    /// Stamped with the current schema version by the owning experiment.
    Fresh,
    /// Present but unstamped, mis-stamped, or stamped by another binary.
    Stale,
    /// No file at `results/<stem>.json`.
    Missing,
}

/// Parses `path` as JSON, if it exists and parses.
fn load_json(path: &Path) -> Option<Value> {
    let body = fs::read_to_string(path).ok()?;
    hcloud_json::parse(&body).ok()
}

/// Judges one artifact's stamp against its owning experiment. The stamp
/// is either a `meta` envelope (`write_json` artifacts) or top-level
/// `schema_version` + `bench` keys (the perf benches' documents).
fn artifact_freshness(root: &Path, info: &ExperimentInfo, stem: &str) -> Freshness {
    let Some(doc) = load_json(&root.join(format!("results/{stem}.json"))) else {
        return Freshness::Missing;
    };
    let stamp = doc.get("meta").unwrap_or(&doc);
    let version = stamp.get("schema_version").and_then(Value::as_u64);
    let bench = stamp.get("bench").and_then(Value::as_str);
    if version == Some(SCHEMA_VERSION) && bench == Some(info.id) {
        Freshness::Fresh
    } else {
        Freshness::Stale
    }
}

/// The coverage matrix's artifact cell: `3/3 fresh`, `1/3 fresh (2
/// stale)`, `0/1 fresh (1 missing)`, or `-` for binaries that write no
/// JSON artifacts.
fn artifact_cell(root: &Path, info: &ExperimentInfo) -> String {
    if info.artifacts.is_empty() {
        return "-".to_string();
    }
    let states: Vec<Freshness> = info
        .artifacts
        .iter()
        .map(|stem| artifact_freshness(root, info, stem))
        .collect();
    let fresh = states.iter().filter(|&&s| s == Freshness::Fresh).count();
    let stale = states.iter().filter(|&&s| s == Freshness::Stale).count();
    let missing = states.iter().filter(|&&s| s == Freshness::Missing).count();
    let mut cell = format!("{fresh}/{} fresh", states.len());
    if stale > 0 || missing > 0 {
        let mut notes = Vec::new();
        if stale > 0 {
            notes.push(format!("{stale} stale"));
        }
        if missing > 0 {
            notes.push(format!("{missing} missing"));
        }
        let _ = write!(cell, " ({})", notes.join(", "));
    }
    cell
}

/// An FNV-1a digest-of-digests over every `digest` field found in the
/// experiment's artifacts (the perf documents carry one per strategy or
/// queue) — a compact identity for "did any simulated byte move".
fn digest_cell(root: &Path, info: &ExperimentInfo) -> String {
    let mut h = Fnv::new();
    let mut found = false;
    for stem in info.artifacts {
        let Some(doc) = load_json(&root.join(format!("results/{stem}.json"))) else {
            continue;
        };
        for rows_key in ["strategies", "queues"] {
            if let Some(rows) = doc.get(rows_key).and_then(Value::as_array) {
                for row in rows {
                    if let Some(digest) = row.get("digest").and_then(Value::as_str) {
                        h.write(digest.as_bytes());
                        found = true;
                    }
                }
            }
        }
    }
    if found {
        format!("`{:016x}`", h.finish())
    } else {
        "-".to_string()
    }
}

fn check(flag: bool) -> &'static str {
    if flag {
        "yes"
    } else {
        "-"
    }
}

/// Registry entries in dashboard order: grouped by kind (paper material
/// first), then by id.
fn ordered_registry() -> Vec<&'static ExperimentInfo> {
    let rank = |kind: ExperimentKind| match kind {
        ExperimentKind::PaperFigure => 0,
        ExperimentKind::PaperTable => 1,
        ExperimentKind::Replication => 2,
        ExperimentKind::Extension => 3,
        ExperimentKind::Perf => 4,
        ExperimentKind::Tooling => 5,
    };
    let mut entries: Vec<&'static ExperimentInfo> = registry::ALL.to_vec();
    entries.sort_by_key(|e| (rank(e.kind), e.id));
    entries
}

/// Extracts the perf-trajectory candidate rows from the repo-root
/// `BENCH_hotpath.json`: one row per section holding a `strategies`
/// array (`baseline`, `post_index`, and whatever later PRs add).
fn hotpath_rows(root: &Path) -> Vec<Value> {
    let Some(Value::Object(pairs)) = load_json(&root.join("BENCH_hotpath.json")) else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    for (entry, section) in &pairs {
        let Some(strategies) = section.get("strategies").and_then(Value::as_array) else {
            continue;
        };
        let mut h = Fnv::new();
        for s in strategies {
            if let Some(d) = s.get("digest").and_then(Value::as_str) {
                h.write(d.as_bytes());
            }
        }
        let mut b = ObjectBuilder::new()
            .set("bench", "perf_hotpath")
            .set("entry", entry.as_str());
        for key in ["total_wall_ms", "quantile_churn_ms"] {
            if let Some(v) = section.get(key).and_then(Value::as_f64) {
                b = b.set(key, v);
            }
        }
        rows.push(b.set("digest", format!("{:016x}", h.finish())).build());
    }
    rows
}

/// Extracts the perf-trajectory candidate rows from the repo-root
/// `BENCH_fleet.json`: one row per `queues` entry.
fn fleet_rows(root: &Path) -> Vec<Value> {
    let Some(doc) = load_json(&root.join("BENCH_fleet.json")) else {
        return Vec::new();
    };
    let Some(queues) = doc.get("queues").and_then(Value::as_array) else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    for q in queues {
        let Some(queue) = q.get("queue").and_then(Value::as_str) else {
            continue;
        };
        let mut b = ObjectBuilder::new()
            .set("bench", "perf_fleet")
            .set("entry", queue);
        for key in ["wall_ms", "events", "instances"] {
            if let Some(v) = q.get(key).and_then(Value::as_f64) {
                b = b.set(key, v);
            }
        }
        if let Some(d) = q.get("digest").and_then(Value::as_str) {
            b = b.set("digest", d);
        }
        rows.push(b.build());
    }
    rows
}

/// The cumulative trajectory document: the existing
/// `docs/alignment/PERF_TRAJECTORY.json` rows plus any candidate row
/// from the committed `BENCH_*.json` files not already recorded.
/// Appending is idempotent, so re-rendering never churns the file.
pub fn updated_trajectory(root: &Path) -> Value {
    let mut rows: Vec<Value> = load_json(&root.join(DASHBOARD_DIR).join("PERF_TRAJECTORY.json"))
        .and_then(|doc| doc.get("rows").and_then(Value::as_array).cloned())
        .unwrap_or_default();
    for candidate in hotpath_rows(root).into_iter().chain(fleet_rows(root)) {
        if !rows.contains(&candidate) {
            rows.push(candidate);
        }
    }
    ObjectBuilder::new()
        .set(
            "meta",
            ObjectBuilder::new()
                .set("schema_version", SCHEMA_VERSION as f64)
                .set("bench", "render_dashboard")
                .build(),
        )
        .set("rows", Value::Array(rows))
        .build()
}

/// Renders one trajectory row as a markdown table line.
fn trajectory_line(row: &Value) -> String {
    let s = |key: &str| {
        row.get(key)
            .and_then(Value::as_str)
            .unwrap_or("-")
            .to_string()
    };
    let ms = |key: &str| {
        row.get(key)
            .and_then(Value::as_f64)
            .map_or("-".to_string(), |v| format!("{v:.1}"))
    };
    let n = |key: &str| {
        row.get(key)
            .and_then(Value::as_f64)
            .map_or("-".to_string(), |v| format!("{v:.0}"))
    };
    format!(
        "| {} | {} | {} | {} | {} | `{}` |",
        s("bench"),
        s("entry"),
        if row.get("total_wall_ms").is_some() {
            ms("total_wall_ms")
        } else {
            ms("wall_ms")
        },
        ms("quantile_churn_ms"),
        n("events"),
        s("digest"),
    )
}

/// Renders `STATUS.md` from the registry, the working tree, and the
/// already-merged trajectory document. Pure function of its inputs — no
/// clocks, no environment — so rendering twice is byte-identical.
pub fn render_status(root: &Path, trajectory: &Value) -> String {
    let mut out = String::new();
    out.push_str("# Paper-parity & perf-trajectory dashboard\n\n");
    out.push_str(
        "<!-- GENERATED FILE: do not edit. Regenerate with\n     \
         `cargo run -p hcloud-bench --bin render_dashboard` (or `hcloud-cli dashboard`).\n     \
         CI regenerates this and fails on drift. -->\n\n",
    );

    out.push_str("## Coverage matrix\n\n");
    out.push_str(
        "| experiment | paper ref | kind | artifacts | golden | trace | audit | faults | CI job | digest |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|\n");
    for info in ordered_registry() {
        let golden = match info.golden {
            Some(path) => {
                if root.join(path).is_file() {
                    "yes"
                } else {
                    "MISSING"
                }
            }
            None => "-",
        };
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            info.id,
            info.paper_ref,
            info.kind.name(),
            artifact_cell(root, info),
            golden,
            check(info.trace_covered),
            check(info.audit_covered),
            check(info.fault_covered),
            info.ci_job,
            digest_cell(root, info),
        );
    }
    out.push_str(
        "\nColumns: **artifacts** — `results/*.json` files stamped by this experiment at \
         the current schema version (stale = present but unstamped or mis-attributed); \
         **golden** — committed CI golden; **trace/audit/faults** — CI exercises the binary \
         under `HCLOUD_TRACE=full` / `HCLOUD_AUDIT=strict` / an active fault plan; \
         **digest** — FNV-1a over the artifact's result digests (perf benches only).\n\n",
    );

    out.push_str("## Claims under test\n\n");
    for info in ordered_registry() {
        let _ = writeln!(out, "- `{}` — {}", info.id, info.claim);
    }
    out.push('\n');

    out.push_str("## Perf trajectory\n\n");
    out.push_str(
        "Cumulative wall-clock/digest record from the committed `BENCH_hotpath.json` and \
         `BENCH_fleet.json` (see `PERF_TRAJECTORY.json` next to this file; wall-clock \
         numbers are machine-dependent, digests are not).\n\n",
    );
    out.push_str("| bench | entry | wall ms | quantile churn ms | events | digest |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    if let Some(rows) = trajectory.get("rows").and_then(Value::as_array) {
        for row in rows {
            out.push_str(&trajectory_line(row));
            out.push('\n');
        }
    }
    out
}

/// Renders and writes `docs/alignment/STATUS.md` +
/// `PERF_TRAJECTORY.json` under `root`, reporting through
/// [`crate::artifacts`]. Returns whether both writes succeeded.
pub fn write_dashboard(root: &Path) -> bool {
    let started = Instant::now();
    let dir = root.join(DASHBOARD_DIR);
    if let Err(e) = fs::create_dir_all(&dir) {
        artifacts::artifact_failure(format!("create {}", dir.display()), e);
        artifacts::add_report_span(started.elapsed());
        return false;
    }
    let trajectory = updated_trajectory(root);
    let status = render_status(root, &trajectory);
    let mut ok = true;
    for (name, body) in [
        ("PERF_TRAJECTORY.json", trajectory.to_pretty() + "\n"),
        ("STATUS.md", status),
    ] {
        let path = dir.join(name);
        match fs::write(&path, body) {
            Ok(()) => artifacts::artifact_written(&path),
            Err(e) => {
                artifacts::artifact_failure(format!("write {}", path.display()), e);
                ok = false;
            }
        }
    }
    artifacts::add_report_span(started.elapsed());
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/bench sits two levels under the repo root")
    }

    #[test]
    fn rendering_twice_is_byte_identical() {
        let root = repo_root();
        let traj_a = updated_trajectory(root);
        let traj_b = updated_trajectory(root);
        assert_eq!(traj_a.to_pretty(), traj_b.to_pretty());
        let a = render_status(root, &traj_a);
        let b = render_status(root, &traj_b);
        assert_eq!(a, b, "STATUS.md rendering must be deterministic");
    }

    #[test]
    fn trajectory_merge_is_idempotent_and_carries_both_benches() {
        let root = repo_root();
        let merged = updated_trajectory(root);
        let rows = merged.get("rows").and_then(Value::as_array).expect("rows");
        assert!(
            rows.iter()
                .any(|r| r.get("bench").and_then(Value::as_str) == Some("perf_hotpath")),
            "hotpath rows present"
        );
        assert!(
            rows.iter()
                .any(|r| r.get("bench").and_then(Value::as_str) == Some("perf_fleet")),
            "fleet rows present"
        );
        // Merging candidates into an already-merged document adds nothing.
        let mut again = rows.clone();
        for candidate in hotpath_rows(root).into_iter().chain(fleet_rows(root)) {
            assert!(
                again.contains(&candidate),
                "candidate row missing from merged doc: {candidate:?}"
            );
            if !again.contains(&candidate) {
                again.push(candidate);
            }
        }
        assert_eq!(again.len(), rows.len());
    }

    #[test]
    fn status_lists_every_registered_experiment() {
        let root = repo_root();
        let status = render_status(root, &updated_trajectory(root));
        for info in registry::ALL {
            assert!(
                status.contains(&format!("`{}`", info.id)),
                "{} missing from STATUS.md",
                info.id
            );
        }
        assert!(status.contains("## Perf trajectory"));
        assert!(status.contains("GENERATED FILE"));
    }

    #[test]
    fn freshness_distinguishes_missing_from_stale() {
        let root = repo_root();
        // A registered experiment with a nonexistent stem is missing.
        let info = registry::find("replication").expect("registered");
        assert_eq!(
            artifact_freshness(root, info, "definitely_not_an_artifact"),
            Freshness::Missing
        );
        // Goldens exist but are stamped by no one: judged stale if they
        // were claimed as results artifacts (they never are; this guards
        // the judgement logic itself via the fast-mode golden's shape).
        let doc = load_json(&root.join("crates/bench/goldens/BENCH_fleet_fast.json"))
            .expect("golden parses");
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("perf_fleet"));
    }
}
