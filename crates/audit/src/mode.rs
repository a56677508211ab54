//! The `HCLOUD_AUDIT` switch.

use std::fmt;

/// How aggressively a run checks its conservation ledgers.
///
/// Parsed from `HCLOUD_AUDIT` with the same contract as the other
/// `HCLOUD_*` knobs: unset means [`AuditMode::Off`], malformed values are a
/// hard error (callers exit 2) rather than a silently ignored typo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditMode {
    /// No auditing at all — every ledger hook reduces to one predictable
    /// branch and run artifacts are byte-identical to an unaudited run.
    #[default]
    Off,
    /// Ledgers accumulate during the run; conservation identities are
    /// checked once, at end of run.
    Final,
    /// Everything in `Final`, plus violations abort the run at the event
    /// that caused them (the offending sim time is in the error).
    Strict,
}

impl AuditMode {
    /// Parse an optional `HCLOUD_AUDIT` value; `None` means unset.
    pub fn parse(raw: Option<&str>) -> Result<AuditMode, String> {
        match raw {
            None => Ok(AuditMode::Off),
            Some(s) => match s {
                "off" => Ok(AuditMode::Off),
                "final" => Ok(AuditMode::Final),
                "strict" => Ok(AuditMode::Strict),
                other => Err(format!(
                    "invalid HCLOUD_AUDIT {other:?}: expected \"off\", \"final\" or \"strict\""
                )),
            },
        }
    }

    /// True when ledgers are maintained at all (final or strict).
    pub fn is_enabled(self) -> bool {
        self != AuditMode::Off
    }

    /// True when violations should abort at the offending event.
    pub fn is_strict(self) -> bool {
        self == AuditMode::Strict
    }
}

impl fmt::Display for AuditMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditMode::Off => "off",
            AuditMode::Final => "final",
            AuditMode::Strict => "strict",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_defaults_to_off() {
        assert_eq!(AuditMode::parse(None), Ok(AuditMode::Off));
        assert_eq!(AuditMode::default(), AuditMode::Off);
    }

    #[test]
    fn parses_all_levels() {
        assert_eq!(AuditMode::parse(Some("off")), Ok(AuditMode::Off));
        assert_eq!(AuditMode::parse(Some("final")), Ok(AuditMode::Final));
        assert_eq!(AuditMode::parse(Some("strict")), Ok(AuditMode::Strict));
    }

    #[test]
    fn rejects_garbage_loudly() {
        let err = AuditMode::parse(Some("paranoid")).unwrap_err();
        assert!(err.contains("HCLOUD_AUDIT"), "error names the knob: {err}");
        assert!(err.contains("paranoid"), "error echoes the value: {err}");
    }

    #[test]
    fn levels_are_ordered() {
        assert!(!AuditMode::Off.is_enabled());
        assert!(AuditMode::Final.is_enabled());
        assert!(AuditMode::Strict.is_enabled());
        assert!(AuditMode::Strict.is_strict());
        assert!(!AuditMode::Final.is_strict());
    }
}
