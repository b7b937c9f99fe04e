//! Error types.
//!
//! The unified failure taxonomy for the workspace. Every layer defines its
//! errors here or (for layers above `types`, e.g. the simulation engine)
//! wraps these in its own enum with `From` conversions, so that a sweep
//! cell's failure can always be reported as one typed value rather than a
//! stringly panic payload:
//!
//! - [`ConfigError`] — a machine/workload configuration is inconsistent.
//! - [`ParseError`] — malformed input to one of the hand-rolled readers
//!   (canonical stats JSON, the sweep run journal).
//! - [`JournalError`] — a run-journal record is structurally valid JSON but
//!   semantically unusable (missing field, unknown outcome), or journal I/O
//!   failed. Carries an optional [`ParseError`] source.

use std::error::Error;
use std::fmt;

/// A machine or workload configuration was internally inconsistent.
///
/// # Example
/// ```
/// use mcgpu_types::MachineConfig;
///
/// let mut cfg = MachineConfig::paper_baseline();
/// cfg.page_size = 64; // smaller than the 128 B line
/// let err = cfg.validate().unwrap_err();
/// assert!(err.to_string().contains("page size"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Create an error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl Error for ConfigError {}

/// Malformed input to one of the hand-rolled readers (canonical stats
/// JSON, journal records).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    /// Create an error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl Error for ParseError {}

/// A run-journal record or file could not be used.
///
/// Wraps the underlying [`ParseError`] when the record failed structural
/// parsing; plain I/O and semantic problems carry only a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    message: String,
    source: Option<ParseError>,
}

impl JournalError {
    /// Create an error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        JournalError {
            message: message.into(),
            source: None,
        }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal error: {}", self.message)?;
        if let Some(src) = &self.source {
            write!(f, ": {src}")?;
        }
        Ok(())
    }
}

impl Error for JournalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.source.as_ref().map(|e| e as _)
    }
}

impl From<ParseError> for JournalError {
    fn from(source: ParseError) -> Self {
        JournalError {
            message: "malformed record".into(),
            source: Some(source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = ConfigError::new("boom");
        assert_eq!(e.to_string(), "invalid configuration: boom");
    }

    #[test]
    fn is_send_sync_error() {
        fn takes_err<E: Error + Send + Sync + 'static>(_: E) {}
        takes_err(ConfigError::new("x"));
        takes_err(ParseError::new("x"));
        takes_err(JournalError::new("x"));
    }

    #[test]
    fn journal_error_chains_parse_source() {
        let e = JournalError::from(ParseError::new("bad byte"));
        assert!(e.to_string().contains("bad byte"));
        assert!(e.source().is_some());
    }
}
