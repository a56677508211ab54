//! Text tables, ASCII plots and JSON export for the experiments.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

use hcloud_json::Value;

use crate::artifacts;

/// The `meta` stamp written into every `write_json` artifact: schema
/// version and the producing experiment's registry id. Exactly one line,
/// stable key order.
fn meta_stamp(bench: Option<&str>) -> String {
    match bench {
        Some(id) => format!(
            "{{\"schema_version\": {}, \"bench\": \"{id}\"}}",
            artifacts::SCHEMA_VERSION
        ),
        None => format!(
            "{{\"schema_version\": {}, \"bench\": null}}",
            artifacts::SCHEMA_VERSION
        ),
    }
}

/// A simple aligned text table.
///
/// ```
/// use hcloud_bench::Table;
/// let mut t = Table::new(vec!["strategy", "cost"]);
/// t.row(vec!["SR".into(), "1.00".into()]);
/// t.row(vec!["HM".into(), "0.54".into()]);
/// let s = t.to_string();
/// assert!(s.contains("strategy"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let write_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
            for i in 0..cols {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:>width$}", cells[i], width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Renders a numeric series as a unicode sparkline.
///
/// ```
/// use hcloud_bench::sparkline;
/// let s = sparkline(&[0.0, 0.5, 1.0]);
/// assert_eq!(s.chars().count(), 3);
/// ```
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Renders one heat-map row: utilization values in `[0, 1]` as shaded
/// cells (the Figures 19–20 look).
pub fn heatmap_row(values: &[f64]) -> String {
    const SHADES: [char; 5] = [' ', '░', '▒', '▓', '█'];
    values
        .iter()
        .map(|&v| {
            let idx = (v.clamp(0.0, 1.0) * 4.0).round() as usize;
            SHADES[idx.min(4)]
        })
        .collect()
}

/// Writes `(x, series...)` data as JSON under `results/<name>.json`,
/// stamped with the producing experiment `bench` (experiments write
/// through [`crate::Harness::write_json`], which supplies it).
pub(crate) fn write_json(
    bench: Option<&str>,
    name: &str,
    headers: &[&str],
    rows: &[Vec<f64>],
) -> bool {
    let mut body = String::from("{\n");
    let _ = writeln!(body, "  \"meta\": {},", meta_stamp(bench));
    let _ = writeln!(
        body,
        "  \"columns\": [{}],",
        headers
            .iter()
            .map(|h| format!("\"{h}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    body.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let cells = row
            .iter()
            .map(|v| {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(", ");
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(body, "    [{cells}]{comma}");
    }
    body.push_str("  ]\n}\n");
    write_artifact(name, &body)
}

/// Writes a JSON document as `results/<name>.json`, pretty-printed (the
/// perf and extension experiments' own document shape).
pub(crate) fn write_document(name: &str, doc: &Value) -> bool {
    write_artifact(name, &(doc.to_pretty() + "\n"))
}

/// Writes `body` to `results/<name>.json`, creating the directory if
/// needed. Returns whether the write succeeded; failures are reported
/// through [`crate::artifacts`] with the OS error and latch a nonzero
/// process exit while the figure still prints to stdout.
fn write_artifact(name: &str, body: &str) -> bool {
    let started = Instant::now();
    let dir = Path::new("results");
    let path = dir.join(format!("{name}.json"));
    let ok = match fs::create_dir_all(dir).and_then(|()| fs::write(&path, body)) {
        Ok(()) => {
            artifacts::artifact_written(&path);
            true
        }
        Err(e) => {
            artifacts::artifact_failure(format!("write {}", path.display()), e);
            false
        }
    };
    artifacts::add_report_span(started.elapsed());
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["a", "longer"]);
        t.row(vec!["x".into(), "1".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("longer"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn sparkline_spans_range() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s, "▁█");
        assert_eq!(sparkline(&[]), "");
        // Constant series does not panic.
        assert_eq!(sparkline(&[3.0, 3.0]).chars().count(), 2);
    }

    #[test]
    fn heatmap_row_shades() {
        let s = heatmap_row(&[0.0, 0.5, 1.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], ' ');
        assert_eq!(chars[2], '█');
    }
}
