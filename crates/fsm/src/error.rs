//! Error type for FSM construction and analysis.

use std::fmt;

/// Error raised by the FSM toolkit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsmError {
    /// A state index is out of range.
    UnknownState {
        /// Offending state index.
        state: usize,
        /// Number of states in the machine.
        available: usize,
    },
    /// An input symbol is out of range.
    UnknownInput {
        /// Offending input symbol.
        input: usize,
        /// Size of the input alphabet.
        available: usize,
    },
    /// An output value does not fit the declared output width.
    OutputTooWide {
        /// Offending output value.
        output: u64,
        /// Declared output width in bits.
        width: u16,
    },
    /// The machine under construction has an undefined transition.
    IncompleteTransition {
        /// State with the missing transition.
        state: usize,
        /// Input symbol with no transition defined.
        input: usize,
    },
    /// A machine needs at least one state and one input symbol.
    EmptyMachine,
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsmError::UnknownState { state, available } => {
                write!(f, "unknown state {state} (machine has {available})")
            }
            FsmError::UnknownInput { input, available } => {
                write!(
                    f,
                    "unknown input symbol {input} (alphabet size {available})"
                )
            }
            FsmError::OutputTooWide { output, width } => {
                write!(f, "output {output:#x} does not fit in {width} bits")
            }
            FsmError::IncompleteTransition { state, input } => {
                write!(f, "state {state} has no transition on input {input}")
            }
            FsmError::EmptyMachine => write!(f, "machine needs at least one state and one input"),
        }
    }
}

impl std::error::Error for FsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let errors = vec![
            FsmError::UnknownState {
                state: 9,
                available: 4,
            },
            FsmError::UnknownInput {
                input: 3,
                available: 2,
            },
            FsmError::OutputTooWide {
                output: 256,
                width: 8,
            },
            FsmError::IncompleteTransition { state: 0, input: 1 },
            FsmError::EmptyMachine,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
