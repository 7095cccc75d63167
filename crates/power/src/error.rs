//! Error type for power simulation.

use std::fmt;

use ipmark_netlist::NetlistError;
use ipmark_traces::TraceError;

/// Error raised by the leakage model, device models and trace acquisition.
#[derive(Debug)]
pub enum PowerError {
    /// The underlying netlist simulation failed.
    Netlist(NetlistError),
    /// A trace container operation failed.
    Trace(TraceError),
    /// A model or chain was configured inconsistently.
    Config(String),
    /// A leakage model does not match the circuit it is applied to.
    ModelShapeMismatch {
        /// Components the model has weights for.
        model_components: usize,
        /// Components the circuit actually has.
        circuit_components: usize,
    },
    /// A measurement buffer does not match the clean waveform's length.
    LengthMismatch {
        /// Samples in the clean waveform.
        expected: usize,
        /// Samples in the caller's buffer.
        provided: usize,
    },
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerError::Netlist(e) => write!(f, "netlist error: {e}"),
            PowerError::Trace(e) => write!(f, "trace error: {e}"),
            PowerError::Config(msg) => write!(f, "invalid power-model configuration: {msg}"),
            PowerError::ModelShapeMismatch {
                model_components,
                circuit_components,
            } => write!(
                f,
                "leakage model covers {model_components} components but the circuit has {circuit_components}"
            ),
            PowerError::LengthMismatch { expected, provided } => write!(
                f,
                "measurement buffer holds {provided} samples but the waveform has {expected}"
            ),
        }
    }
}

impl std::error::Error for PowerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PowerError::Netlist(e) => Some(e),
            PowerError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for PowerError {
    fn from(e: NetlistError) -> Self {
        PowerError::Netlist(e)
    }
}

impl From<TraceError> for PowerError {
    fn from(e: TraceError) -> Self {
        PowerError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let errors: Vec<PowerError> = vec![
            PowerError::Netlist(NetlistError::UnknownComponent { id: 0 }),
            PowerError::Trace(TraceError::EmptySet),
            PowerError::Config("x".into()),
            PowerError::ModelShapeMismatch {
                model_components: 1,
                circuit_components: 2,
            },
            PowerError::LengthMismatch {
                expected: 4,
                provided: 3,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn sources_propagate() {
        use std::error::Error;
        assert!(PowerError::Trace(TraceError::EmptySet).source().is_some());
        assert!(PowerError::Config("x".into()).source().is_none());
    }
}
