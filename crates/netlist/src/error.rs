//! Error type for netlist construction and simulation.

use std::fmt;

use crate::bits::BitsError;

/// Error raised while building or simulating a [`Circuit`](crate::Circuit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A bit-vector operation failed (width mismatch, out-of-range index…).
    Bits(BitsError),
    /// A component id does not refer to a component of the circuit.
    UnknownComponent {
        /// Offending component index.
        id: usize,
    },
    /// A port index is out of range for the component.
    UnknownPort {
        /// Component the port was looked up on.
        component: String,
        /// Offending port index.
        port: usize,
        /// Number of ports of that direction on the component.
        available: usize,
    },
    /// An input port was left unconnected at build time.
    UnconnectedInput {
        /// Component with the dangling input.
        component: String,
        /// Port index left unconnected.
        port: usize,
    },
    /// A connection joins ports of different widths.
    ConnectionWidthMismatch {
        /// Source description (component and port).
        source: String,
        /// Destination component name.
        dest: String,
        /// Destination port index.
        port: usize,
        /// Width offered by the source.
        source_width: u16,
        /// Width expected by the destination port.
        dest_width: u16,
    },
    /// The combinational part of the circuit contains a cycle.
    CombinationalLoop {
        /// Names of the components on the unresolvable cycle.
        involved: Vec<String>,
    },
    /// A component received an unexpected number of input values.
    ArityMismatch {
        /// Component name.
        component: String,
        /// Number of values provided.
        provided: usize,
        /// Number of values expected.
        expected: usize,
    },
    /// A memory component was built from an invalid table.
    InvalidMemory {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// An internal invariant was violated — indicates a bug, surfaced as a
    /// typed error instead of a panic (panic-freedom contract).
    Invariant {
        /// The invariant that failed to hold.
        what: &'static str,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Bits(e) => write!(f, "bit-vector error: {e}"),
            NetlistError::UnknownComponent { id } => write!(f, "unknown component id {id}"),
            NetlistError::UnknownPort {
                component,
                port,
                available,
            } => write!(
                f,
                "component `{component}` has no port {port} (has {available})"
            ),
            NetlistError::UnconnectedInput { component, port } => {
                write!(f, "input port {port} of `{component}` is unconnected")
            }
            NetlistError::ConnectionWidthMismatch {
                source,
                dest,
                port,
                source_width,
                dest_width,
            } => write!(
                f,
                "width mismatch connecting {source} ({source_width} bits) to `{dest}` port {port} ({dest_width} bits)"
            ),
            NetlistError::CombinationalLoop { involved } => {
                write!(f, "combinational loop through: {}", involved.join(", "))
            }
            NetlistError::ArityMismatch {
                component,
                provided,
                expected,
            } => write!(
                f,
                "component `{component}` expected {expected} inputs, got {provided}"
            ),
            NetlistError::InvalidMemory { reason } => write!(f, "invalid memory: {reason}"),
            NetlistError::Invariant { what } => {
                write!(f, "internal invariant violated (bug): {what}")
            }
        }
    }
}

impl std::error::Error for NetlistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetlistError::Bits(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BitsError> for NetlistError {
    fn from(e: BitsError) -> Self {
        NetlistError::Bits(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let errors: Vec<NetlistError> = vec![
            BitsError::InvalidWidth { width: 0 }.into(),
            NetlistError::UnknownComponent { id: 3 },
            NetlistError::UnknownPort {
                component: "x".into(),
                port: 1,
                available: 0,
            },
            NetlistError::UnconnectedInput {
                component: "x".into(),
                port: 0,
            },
            NetlistError::ConnectionWidthMismatch {
                source: "a.0".into(),
                dest: "b".into(),
                port: 0,
                source_width: 4,
                dest_width: 8,
            },
            NetlistError::CombinationalLoop {
                involved: vec!["a".into(), "b".into()],
            },
            NetlistError::ArityMismatch {
                component: "x".into(),
                provided: 1,
                expected: 2,
            },
            NetlistError::InvalidMemory {
                reason: "empty".into(),
            },
            NetlistError::Invariant { what: "broken" },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn source_is_set_for_bits_errors() {
        use std::error::Error;
        let e: NetlistError = BitsError::InvalidWidth { width: 0 }.into();
        assert!(e.source().is_some());
        assert!(NetlistError::UnknownComponent { id: 0 }.source().is_none());
    }
}
