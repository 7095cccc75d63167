//! Error type for the side-channel analyses.

use std::fmt;

use ipmark_core::CoreError;
use ipmark_traces::{StatsError, TraceError};

/// Error raised by the side-channel analyses.
#[derive(Debug)]
pub enum AttackError {
    /// A statistic could not be computed.
    Stats(StatsError),
    /// Trace handling failed.
    Trace(TraceError),
    /// The verification core failed.
    Core(CoreError),
    /// Inconsistent attack configuration.
    Config(String),
    /// An internal invariant was violated — indicates a bug in this crate,
    /// not bad input. Surfaced as a typed error instead of a panic so
    /// library callers stay in control.
    Invariant(&'static str),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Stats(e) => write!(f, "statistics error: {e}"),
            AttackError::Trace(e) => write!(f, "trace error: {e}"),
            AttackError::Core(e) => write!(f, "core error: {e}"),
            AttackError::Config(msg) => write!(f, "invalid attack configuration: {msg}"),
            AttackError::Invariant(what) => {
                write!(f, "internal invariant violated (bug): {what}")
            }
        }
    }
}

impl std::error::Error for AttackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttackError::Stats(e) => Some(e),
            AttackError::Trace(e) => Some(e),
            AttackError::Core(e) => Some(e),
            AttackError::Config(_) | AttackError::Invariant(_) => None,
        }
    }
}

impl From<StatsError> for AttackError {
    fn from(e: StatsError) -> Self {
        AttackError::Stats(e)
    }
}

impl From<TraceError> for AttackError {
    fn from(e: TraceError) -> Self {
        AttackError::Trace(e)
    }
}

impl From<CoreError> for AttackError {
    fn from(e: CoreError) -> Self {
        AttackError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let errors: Vec<AttackError> = vec![
            AttackError::Stats(StatsError::ZeroVariance),
            AttackError::Trace(TraceError::EmptySet),
            AttackError::Core(CoreError::NotEnoughCandidates { provided: 0 }),
            AttackError::Config("x".into()),
            AttackError::Invariant("y"),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
