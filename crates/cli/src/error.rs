//! CLI error type.

use std::fmt;

/// Error surfaced to the command-line user.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself is malformed.
    Usage(String),
    /// A file could not be read or written.
    Io(std::io::Error),
    /// The underlying library rejected the request.
    Library(Box<dyn std::error::Error + Send + Sync>),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Library(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io(e) => Some(e),
            CliError::Library(e) => Some(e.as_ref()),
            CliError::Usage(_) => None,
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

macro_rules! from_library {
    ($($ty:ty),*) => {
        $(impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError::Library(Box::new(e))
            }
        })*
    };
}

from_library!(
    ipmark_core::CoreError,
    ipmark_power::PowerError,
    ipmark_traces::TraceError,
    ipmark_traces::IoError,
    ipmark_netlist::NetlistError,
    ipmark_attacks::AttackError
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        use std::error::Error;
        let u = CliError::Usage("bad".into());
        assert!(u.to_string().contains("bad"));
        assert!(u.source().is_none());
        let io: CliError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.source().is_some());
        let lib: CliError = ipmark_core::CoreError::NotEnoughCandidates { provided: 1 }.into();
        assert!(!lib.to_string().is_empty());
    }
}
