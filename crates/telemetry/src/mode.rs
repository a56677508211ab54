//! The `HCLOUD_TRACE` switch.

use std::fmt;

/// How much telemetry a process should produce.
///
/// Parsed from `HCLOUD_TRACE` with the same contract as the other
/// `HCLOUD_*` knobs: unset means [`TraceMode::Off`], malformed values are a
/// hard error (callers exit 2) rather than a silently ignored typo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceMode {
    /// No telemetry at all — byte-identical output to the pre-telemetry
    /// code paths.
    #[default]
    Off,
    /// Per-phase profiling spans and registry summaries on stderr; no
    /// per-event recording.
    Summary,
    /// Everything in `Summary`, plus per-run structured event traces
    /// flight-recorded to `results/traces/*.jsonl`.
    Full,
}

impl TraceMode {
    /// Parse an optional `HCLOUD_TRACE` value; `None` means unset.
    pub fn parse(raw: Option<&str>) -> Result<TraceMode, String> {
        match raw {
            None => Ok(TraceMode::Off),
            Some(s) => match s {
                "off" => Ok(TraceMode::Off),
                "summary" => Ok(TraceMode::Summary),
                "full" => Ok(TraceMode::Full),
                other => Err(format!(
                    "invalid HCLOUD_TRACE {other:?}: expected \"off\", \"summary\" or \"full\""
                )),
            },
        }
    }

    /// True when per-event recording (the flight recorder) is on.
    pub fn records_events(self) -> bool {
        self == TraceMode::Full
    }

    /// True when profiling spans should be reported (summary or full).
    pub fn reports_spans(self) -> bool {
        self >= TraceMode::Summary
    }
}

impl fmt::Display for TraceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceMode::Off => "off",
            TraceMode::Summary => "summary",
            TraceMode::Full => "full",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_defaults_to_off() {
        assert_eq!(TraceMode::parse(None), Ok(TraceMode::Off));
        assert_eq!(TraceMode::default(), TraceMode::Off);
    }

    #[test]
    fn parses_all_levels() {
        assert_eq!(TraceMode::parse(Some("off")), Ok(TraceMode::Off));
        assert_eq!(TraceMode::parse(Some("summary")), Ok(TraceMode::Summary));
        assert_eq!(TraceMode::parse(Some("full")), Ok(TraceMode::Full));
    }

    #[test]
    fn rejects_garbage_loudly() {
        let err = TraceMode::parse(Some("verbose")).unwrap_err();
        assert!(err.contains("HCLOUD_TRACE"), "error names the knob: {err}");
        assert!(err.contains("verbose"), "error echoes the value: {err}");
    }

    #[test]
    fn levels_are_ordered() {
        assert!(TraceMode::Full.records_events());
        assert!(!TraceMode::Summary.records_events());
        assert!(TraceMode::Summary.reports_spans());
        assert!(TraceMode::Full.reports_spans());
        assert!(!TraceMode::Off.reports_spans());
    }
}
