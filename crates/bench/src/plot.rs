//! Static SVG renderings of the paper's figures.
//!
//! Charts follow a fixed visual contract:
//!
//! * **Color by entity, fixed order, never cycled**: each provisioning
//!   strategy owns one categorical slot (SR blue, OdF aqua, OdM yellow,
//!   HF green, HM violet) in every figure. The palette (both modes) was
//!   machine-validated for lightness band, chroma floor, adjacent-pair
//!   CVD separation and surface contrast; the light-mode aqua/yellow
//!   slots sit below 3:1 contrast, so every chart ships direct end
//!   labels and a legend, and the underlying numbers live in the
//!   adjacent `results/*.json` table files.
//! * **Marks**: 2 px lines with round joins, ≥8 px markers wearing a 2 px
//!   surface ring, bars ≤24 px with 4 px rounded data ends and square
//!   baselines, 2 px surface gaps between touching marks, 1 px solid
//!   one-step-off-surface gridlines.
//! * **Text wears text tokens**, never the series color; identity comes
//!   from a colored key beside the label.
//! * Each figure renders twice — a light and a **selected** dark variant
//!   (dark steps of the same hues, validated against the dark surface).
//! * Markers carry `<title>` elements, so browsers show native value
//!   tooltips.

use std::fmt::Write as _;

/// One visual theme (light or dark), with validated palette steps.
#[derive(Debug, Clone, Copy)]
pub struct Theme {
    /// Chart surface color.
    pub surface: &'static str,
    /// Primary ink.
    pub text_primary: &'static str,
    /// Secondary ink (axis labels, legends).
    pub text_secondary: &'static str,
    /// One-step-off-surface gridline gray.
    pub grid: &'static str,
    /// The categorical series palette, in fixed slot order.
    pub series: [&'static str; 5],
    /// File-name suffix.
    pub suffix: &'static str,
}

/// The validated light theme.
pub const LIGHT: Theme = Theme {
    surface: "#fcfcfb",
    text_primary: "#0b0b0b",
    text_secondary: "#52514e",
    grid: "#e9e8e4",
    series: ["#2a78d6", "#1baf7a", "#eda100", "#008300", "#4a3aa7"],
    suffix: "light",
};

/// The validated dark theme (selected steps, not a flip).
pub const DARK: Theme = Theme {
    surface: "#1a1a19",
    text_primary: "#ffffff",
    text_secondary: "#c3c2b7",
    grid: "#2c2c2a",
    series: ["#3987e5", "#199e70", "#c98500", "#008300", "#9085e9"],
    suffix: "dark",
};

const WIDTH: f64 = 760.0;
const HEIGHT: f64 = 440.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 110.0; // room for direct end labels
const MARGIN_T: f64 = 64.0;
const MARGIN_B: f64 = 56.0;

/// One named series of `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend/end-label name.
    pub name: String,
    /// Data points, ascending x.
    pub points: Vec<(f64, f64)>,
}

/// A multi-series line chart.
#[derive(Debug, Clone)]
pub struct LineChart {
    /// Chart title (names the single series when there is only one).
    pub title: String,
    /// X-axis caption.
    pub x_label: String,
    /// Y-axis caption.
    pub y_label: String,
    /// The series, in fixed slot order.
    pub series: Vec<Series>,
    /// Optional y-axis cap: series exceeding it are clipped at the plot
    /// edge (the paper caps Figure 12's axis the same way). `None`
    /// auto-scales to the data.
    pub y_max: Option<f64>,
}

/// Rounds a raw tick step to a clean 1/2/5×10ⁿ value.
fn nice_step(span: f64) -> f64 {
    if span <= 0.0 {
        return 1.0;
    }
    let raw = span / 5.0;
    let mag = 10f64.powf(raw.log10().floor());
    let norm = raw / mag;
    let snapped = if norm <= 1.0 {
        1.0
    } else if norm <= 2.0 {
        2.0
    } else if norm <= 5.0 {
        5.0
    } else {
        10.0
    };
    snapped * mag
}

fn fmt_tick(v: f64) -> String {
    if v.abs() >= 1000.0 {
        let thousands = v / 1000.0;
        if (thousands - thousands.round()).abs() < 1e-9 {
            format!("{:.0}k", thousands)
        } else {
            format!("{thousands:.1}k")
        }
    } else if v.fract().abs() < 1e-9 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

struct Frame {
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
}

impl Frame {
    fn x(&self, v: f64) -> f64 {
        let span = (self.x1 - self.x0).max(1e-12);
        MARGIN_L + (v - self.x0) / span * (WIDTH - MARGIN_L - MARGIN_R)
    }
    fn y(&self, v: f64) -> f64 {
        let span = (self.y1 - self.y0).max(1e-12);
        HEIGHT - MARGIN_B - (v - self.y0) / span * (HEIGHT - MARGIN_T - MARGIN_B)
    }
}

fn chart_header(out: &mut String, title: &str, theme: &Theme) {
    let _ = write!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="system-ui, sans-serif">"#
    );
    let _ = write!(
        out,
        r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="{}"/>"#,
        theme.surface
    );
    let _ = write!(
        out,
        r#"<text x="{MARGIN_L}" y="26" font-size="15" font-weight="600" fill="{}">{}</text>"#,
        theme.text_primary,
        esc(title)
    );
}

fn legend(out: &mut String, names: &[&str], theme: &Theme) {
    // One legend row under the title; identity from the swatch, text in ink.
    let mut x = MARGIN_L;
    for (i, name) in names.iter().enumerate() {
        let color = theme.series[i % theme.series.len()];
        let _ = write!(
            out,
            r#"<circle cx="{:.1}" cy="42" r="4.5" fill="{color}" stroke="{}" stroke-width="2"/>"#,
            x + 4.0,
            theme.surface
        );
        let _ = write!(
            out,
            r#"<text x="{:.1}" y="46" font-size="12" fill="{}">{}</text>"#,
            x + 13.0,
            theme.text_secondary,
            esc(name)
        );
        x += 13.0 + 8.0 * name.len() as f64 + 22.0;
    }
}

fn axes(out: &mut String, frame: &Frame, x_label: &str, y_label: &str, theme: &Theme) {
    // Y gridlines + ticks at clean numbers.
    let step = nice_step(frame.y1 - frame.y0);
    let mut v = (frame.y0 / step).ceil() * step;
    while v <= frame.y1 + 1e-9 {
        let y = frame.y(v);
        let _ = write!(
            out,
            r#"<line x1="{MARGIN_L}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="{}" stroke-width="1"/>"#,
            WIDTH - MARGIN_R,
            theme.grid
        );
        let _ = write!(
            out,
            r#"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="end" fill="{}" font-variant-numeric="tabular-nums">{}</text>"#,
            MARGIN_L - 8.0,
            y + 4.0,
            theme.text_secondary,
            fmt_tick(v)
        );
        v += step;
    }
    // Axis captions.
    let _ = write!(
        out,
        r#"<text x="{:.1}" y="{:.1}" font-size="12" text-anchor="middle" fill="{}">{}</text>"#,
        (MARGIN_L + WIDTH - MARGIN_R) / 2.0,
        HEIGHT - 14.0,
        theme.text_secondary,
        esc(x_label)
    );
    let _ = write!(
        out,
        r#"<text x="18" y="{:.1}" font-size="12" text-anchor="middle" fill="{}" transform="rotate(-90 18 {:.1})">{}</text>"#,
        (MARGIN_T + HEIGHT - MARGIN_B) / 2.0,
        theme.text_secondary,
        (MARGIN_T + HEIGHT - MARGIN_B) / 2.0,
        esc(y_label)
    );
}

impl LineChart {
    /// Renders the chart as a standalone SVG document.
    pub fn render_svg(&self, theme: &Theme) -> String {
        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.1))
            .collect();
        let (x0, x1) = bounds(&xs);
        let (mut y0, y1) = bounds(&ys);
        y0 = y0.min(0.0);
        let y1 = match self.y_max {
            Some(cap) => cap,
            None => y1 * 1.05,
        };
        let frame = Frame { x0, x1, y0, y1 };

        let mut out = String::new();
        chart_header(&mut out, &self.title, theme);
        // Clip series marks to the plot area so capped-axis outliers exit
        // the frame instead of invading the margins.
        let _ = write!(
            out,
            r#"<clipPath id="plot"><rect x="{MARGIN_L}" y="{MARGIN_T}" width="{:.1}" height="{:.1}"/></clipPath>"#,
            WIDTH - MARGIN_L - MARGIN_R,
            HEIGHT - MARGIN_T - MARGIN_B
        );
        if self.series.len() >= 2 {
            let names: Vec<&str> = self.series.iter().map(|s| s.name.as_str()).collect();
            legend(&mut out, &names, theme);
        }
        axes(&mut out, &frame, &self.x_label, &self.y_label, theme);

        // X ticks at clean values.
        let step = nice_step(x1 - x0);
        let mut v = (x0 / step).ceil() * step;
        while v <= x1 + 1e-9 {
            let _ = write!(
                out,
                r#"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="middle" fill="{}" font-variant-numeric="tabular-nums">{}</text>"#,
                frame.x(v),
                HEIGHT - MARGIN_B + 18.0,
                theme.text_secondary,
                fmt_tick(v)
            );
            v += step;
        }

        out.push_str(r#"<g clip-path="url(#plot)">"#);
        for (i, series) in self.series.iter().enumerate() {
            let color = theme.series[i % theme.series.len()];
            let mut d = String::new();
            for (k, &(x, y)) in series.points.iter().enumerate() {
                let _ = write!(
                    d,
                    "{}{:.1} {:.1}",
                    if k == 0 { "M" } else { " L" },
                    frame.x(x),
                    frame.y(y)
                );
            }
            let _ = write!(
                out,
                r#"<path d="{d}" fill="none" stroke="{color}" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>"#
            );
            // Markers with a surface ring and native tooltips.
            for &(x, y) in &series.points {
                let _ = write!(
                    out,
                    r#"<circle cx="{:.1}" cy="{:.1}" r="4" fill="{color}" stroke="{}" stroke-width="2"><title>{}: {} at {}</title></circle>"#,
                    frame.x(x),
                    frame.y(y),
                    theme.surface,
                    esc(&series.name),
                    fmt_tick(y),
                    fmt_tick(x)
                );
            }
        }
        out.push_str("</g>");

        // Direct end labels, de-collided: labels keep >= 13px vertical
        // separation; a moved label gets a hairline leader back to its
        // line end (never stacked detached text).
        let mut ends: Vec<(usize, f64, f64)> = self
            .series
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.points
                    .last()
                    .filter(|&&(_, y)| y <= frame.y1 && y >= frame.y0)
                    .map(|&(x, y)| (i, frame.x(x), frame.y(y)))
            })
            .collect();
        ends.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite label y"));
        let mut placed: Vec<f64> = Vec::new();
        for &(_, _, y) in &ends {
            let min_y = placed.last().map_or(f64::MIN, |&p| p + 13.0);
            placed.push(y.max(min_y));
        }
        for ((i, x, y), label_y) in ends.into_iter().zip(placed) {
            let color = theme.series[i % theme.series.len()];
            if (label_y - y).abs() > 2.0 {
                let _ = write!(
                    out,
                    r#"<line x1="{:.1}" y1="{y:.1}" x2="{:.1}" y2="{label_y:.1}" stroke="{color}" stroke-width="1"/>"#,
                    x + 5.0,
                    x + 9.0
                );
            }
            let _ = write!(
                out,
                r#"<text x="{:.1}" y="{:.1}" font-size="11" fill="{}">{}</text>"#,
                x + 11.0,
                label_y + 4.0,
                theme.text_primary,
                esc(&self.series[i].name)
            );
        }
        out.push_str("</svg>");
        out
    }
}

/// A five-number summary for one box of a box chart.
#[derive(Debug, Clone, Copy)]
pub struct BoxStats {
    /// Lower whisker (p5).
    pub p5: f64,
    /// Box bottom (p25).
    pub p25: f64,
    /// The mean line the paper draws.
    pub mean: f64,
    /// Box top (p75).
    pub p75: f64,
    /// Upper whisker (p95).
    pub p95: f64,
}

/// One x-axis group (e.g. a scenario) with one box per series.
#[derive(Debug, Clone)]
pub struct BoxGroup {
    /// Group caption.
    pub label: String,
    /// `(series index, stats)` — series index selects the palette slot.
    pub boxes: Vec<(usize, BoxStats)>,
}

/// A grouped box chart (the paper's Figures 4 and 10).
#[derive(Debug, Clone)]
pub struct BoxChart {
    /// Chart title.
    pub title: String,
    /// Y-axis caption.
    pub y_label: String,
    /// Series names by palette slot (for the legend).
    pub series_names: Vec<String>,
    /// The groups, left to right.
    pub groups: Vec<BoxGroup>,
}

fn bounds(values: &[f64]) -> (f64, f64) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if lo.is_finite() && hi.is_finite() {
        (lo, hi)
    } else {
        (0.0, 1.0)
    }
}

impl BoxChart {
    /// Renders the chart as a standalone SVG document.
    pub fn render_svg(&self, theme: &Theme) -> String {
        let ys: Vec<f64> = self
            .groups
            .iter()
            .flat_map(|g| g.boxes.iter().flat_map(|(_, b)| [b.p5, b.p95]))
            .collect();
        let (mut y0, y1) = bounds(&ys);
        y0 = y0.min(0.0);
        let frame = Frame {
            x0: 0.0,
            x1: 1.0,
            y0,
            y1: y1 * 1.05,
        };

        let mut out = String::new();
        chart_header(&mut out, &self.title, theme);
        let names: Vec<&str> = self.series_names.iter().map(String::as_str).collect();
        if names.len() >= 2 {
            legend(&mut out, &names, theme);
        }
        axes(&mut out, &frame, "", &self.y_label, theme);

        let plot_w = WIDTH - MARGIN_L - MARGIN_R;
        let group_w = plot_w / self.groups.len() as f64;
        for (gi, group) in self.groups.iter().enumerate() {
            let gx = MARGIN_L + group_w * (gi as f64 + 0.5);
            let _ = write!(
                out,
                r#"<text x="{gx:.1}" y="{:.1}" font-size="12" text-anchor="middle" fill="{}">{}</text>"#,
                HEIGHT - MARGIN_B + 18.0,
                theme.text_secondary,
                esc(&group.label)
            );
            let n = group.boxes.len() as f64;
            // ≤24px boxes with ≥2px surface gaps between neighbours.
            let box_w = (group_w * 0.8 / n - 2.0).clamp(6.0, 24.0);
            let pitch = box_w + 4.0;
            let start = gx - pitch * (n - 1.0) / 2.0;
            for (k, (slot, b)) in group.boxes.iter().enumerate() {
                let color = theme.series[slot % theme.series.len()];
                let cx = start + pitch * k as f64;
                // Whiskers.
                let _ = write!(
                    out,
                    r#"<line x1="{cx:.1}" y1="{:.1}" x2="{cx:.1}" y2="{:.1}" stroke="{color}" stroke-width="2" stroke-linecap="round"/>"#,
                    frame.y(b.p5),
                    frame.y(b.p95)
                );
                // Box (rounded 4px data ends).
                let top = frame.y(b.p75);
                let bottom = frame.y(b.p25);
                let _ = write!(
                    out,
                    r#"<rect x="{:.1}" y="{top:.1}" width="{box_w:.1}" height="{:.1}" rx="4" fill="{color}"><title>{} / {}: p25 {} · mean {} · p75 {}</title></rect>"#,
                    cx - box_w / 2.0,
                    (bottom - top).max(2.0),
                    esc(&group.label),
                    esc(&self.series_names[*slot]),
                    fmt_tick(b.p25),
                    fmt_tick(b.mean),
                    fmt_tick(b.p75)
                );
                // Mean line in the surface color across the box.
                let _ = write!(
                    out,
                    r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="{}" stroke-width="2"/>"#,
                    cx - box_w / 2.0,
                    frame.y(b.mean),
                    cx + box_w / 2.0,
                    frame.y(b.mean),
                    theme.surface
                );
            }
        }
        out.push_str("</svg>");
        out
    }
}

/// Writes a chart under `results/figures/<name>_<mode>.svg` for both
/// themes. Returns whether every write succeeded; failures are reported
/// through [`crate::artifacts`] and latch a nonzero `hcloud-bench` exit
/// while the figure still prints to stdout.
pub fn save_both(name: &str, render: impl Fn(&Theme) -> String) -> bool {
    let started = std::time::Instant::now();
    let dir = std::path::Path::new("results/figures");
    if let Err(e) = std::fs::create_dir_all(dir) {
        crate::artifacts::artifact_failure(format!("create {}", dir.display()), e);
        crate::artifacts::add_report_span(started.elapsed());
        return false;
    }
    let mut ok = true;
    for theme in [&LIGHT, &DARK] {
        let path = dir.join(format!("{name}_{}.svg", theme.suffix));
        match std::fs::write(&path, render(theme)) {
            Err(e) => {
                crate::artifacts::artifact_failure(format!("write {}", path.display()), e);
                ok = false;
            }
            Ok(()) => crate::artifacts::artifact_written(&path),
        }
    }
    crate::artifacts::add_report_span(started.elapsed());
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_chart() -> LineChart {
        LineChart {
            title: "test".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            y_max: None,
            series: vec![
                Series {
                    name: "SR".into(),
                    points: vec![(0.0, 1.0), (1.0, 2.0), (2.0, 1.5)],
                },
                Series {
                    name: "HM".into(),
                    points: vec![(0.0, 0.5), (1.0, 0.7), (2.0, 2.5)],
                },
            ],
        }
    }

    #[test]
    fn line_chart_is_valid_svg_with_marks_and_legend() {
        for theme in [&LIGHT, &DARK] {
            let svg = line_chart().render_svg(theme);
            assert!(svg.starts_with("<svg"));
            assert!(svg.ends_with("</svg>"));
            assert!(svg.contains("stroke-width=\"2\""), "2px lines required");
            assert!(
                svg.matches("<circle").count() >= 6,
                "markers on every point"
            );
            assert!(svg.contains("<title>"), "native tooltips required");
            // Legend present for >= 2 series.
            assert!(svg.contains(">SR</text>") && svg.contains(">HM</text>"));
            // Surface ring on markers.
            assert!(svg.contains(&format!("stroke=\"{}\"", theme.surface)));
        }
    }

    #[test]
    fn single_series_has_no_legend_row() {
        let mut c = line_chart();
        c.series.truncate(1);
        let svg = c.render_svg(&LIGHT);
        // The name appears once as the direct end label, not again as legend.
        assert_eq!(svg.matches(">SR</text>").count(), 1);
    }

    #[test]
    fn box_chart_draws_boxes_with_gaps() {
        let chart = BoxChart {
            title: "boxes".into(),
            y_label: "minutes".into(),
            series_names: vec!["SR".into(), "OdF".into()],
            groups: vec![BoxGroup {
                label: "Static".into(),
                boxes: vec![
                    (
                        0,
                        BoxStats {
                            p5: 1.0,
                            p25: 2.0,
                            mean: 3.0,
                            p75: 4.0,
                            p95: 5.0,
                        },
                    ),
                    (
                        1,
                        BoxStats {
                            p5: 2.0,
                            p25: 3.0,
                            mean: 4.0,
                            p75: 5.0,
                            p95: 6.0,
                        },
                    ),
                ],
            }],
        };
        let svg = chart.render_svg(&LIGHT);
        assert_eq!(svg.matches("<rect x=").count(), 2);
        assert!(svg.contains("rx=\"4\""), "4px rounded data ends");
        assert!(svg.contains("Static"));
    }

    #[test]
    fn ticks_are_clean_numbers() {
        assert_eq!(nice_step(10.0), 2.0);
        assert_eq!(nice_step(97.0), 20.0);
        assert_eq!(nice_step(0.9), 0.2);
        assert_eq!(fmt_tick(2000.0), "2k");
        assert_eq!(fmt_tick(2.0), "2");
        assert_eq!(fmt_tick(0.25), "0.25");
    }

    #[test]
    fn capped_axis_clips_but_keeps_other_labels() {
        let mut c = line_chart();
        c.series[1].points = vec![(0.0, 100.0), (2.0, 100.0)]; // outlier
        c.y_max = Some(3.0);
        let svg = c.render_svg(&LIGHT);
        assert!(svg.contains("clipPath"));
        // The outlier's end label is suppressed; the in-range one stays.
        assert_eq!(svg.matches(">HM</text>").count(), 1, "legend only");
        assert_eq!(svg.matches(">SR</text>").count(), 2, "legend + end label");
    }

    #[test]
    fn colliding_end_labels_get_leader_lines() {
        let c = LineChart {
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            y_max: None,
            series: vec![
                Series {
                    name: "A".into(),
                    points: vec![(0.0, 1.00), (1.0, 1.00)],
                },
                Series {
                    name: "B".into(),
                    points: vec![(0.0, 1.01), (1.0, 1.01)],
                },
                Series {
                    name: "C".into(),
                    points: vec![(0.0, 1.02), (1.0, 1.02)],
                },
            ],
        };
        let svg = c.render_svg(&LIGHT);
        // At least one label was moved and connected by a 1px leader.
        assert!(svg.contains(r#"stroke-width="1"/>"#));
        for name in ["A", "B", "C"] {
            assert!(svg.contains(&format!(">{name}</text>")));
        }
    }

    #[test]
    fn text_is_escaped() {
        let mut c = line_chart();
        c.title = "a < b & c".into();
        let svg = c.render_svg(&LIGHT);
        assert!(svg.contains("a &lt; b &amp; c"));
    }
}
