//! Explicit Mealy machines over small alphabets.
//!
//! The FSM-watermarking literature the paper builds on (Torunoglu–Charbon
//! \[12\], graph-based schemes \[9\]\[13\]) operates on the state-transition
//! graph of a Mealy machine: transitions carry outputs, and watermarks are
//! planted in unspecified transitions. [`Fsm`] is a *complete* machine
//! (every (state, input) pair defined).

use serde::{Deserialize, Serialize};

use crate::error::FsmError;

/// A complete deterministic Mealy machine.
///
/// States and input symbols are dense indices (`0..num_states`,
/// `0..num_inputs`); outputs are `output_width`-bit words attached to
/// transitions.
///
/// # Examples
///
/// ```
/// use ipmark_fsm::FsmBuilder;
///
/// # fn main() -> Result<(), ipmark_fsm::FsmError> {
/// // A 2-state toggler that reports the state it leaves.
/// let mut b = FsmBuilder::new(2, 1, 1)?;
/// b.transition(0, 0, 1, 0)?;
/// b.transition(1, 0, 0, 1)?;
/// let fsm = b.build()?;
/// let (next, out) = fsm.step(0, 0)?;
/// assert_eq!((next, out), (1, 0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fsm {
    num_states: usize,
    num_inputs: usize,
    output_width: u16,
    initial: usize,
    /// Flattened `[state * num_inputs + input]` next-state table.
    transitions: Vec<usize>,
    /// Flattened `[state * num_inputs + input]` output table.
    outputs: Vec<u64>,
}

impl Fsm {
    pub(crate) fn from_tables(
        num_states: usize,
        num_inputs: usize,
        output_width: u16,
        initial: usize,
        transitions: Vec<usize>,
        outputs: Vec<u64>,
    ) -> Self {
        Self {
            num_states,
            num_inputs,
            output_width,
            initial,
            transitions,
            outputs,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Input alphabet size.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Output width in bits.
    pub fn output_width(&self) -> u16 {
        self.output_width
    }

    /// The reset state.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// One transition: returns `(next_state, output)`.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::UnknownState`] / [`FsmError::UnknownInput`] for
    /// out-of-range arguments.
    pub fn step(&self, state: usize, input: usize) -> Result<(usize, u64), FsmError> {
        self.check(state, input)?;
        let idx = state * self.num_inputs + input;
        Ok((self.transitions[idx], self.outputs[idx]))
    }

    /// Runs the machine from reset over an input word, collecting outputs.
    ///
    /// # Errors
    ///
    /// Propagates symbol-range errors.
    pub fn run(&self, inputs: &[usize]) -> Result<Vec<u64>, FsmError> {
        let mut state = self.initial;
        let mut out = Vec::with_capacity(inputs.len());
        for &i in inputs {
            let (next, o) = self.step(state, i)?;
            out.push(o);
            state = next;
        }
        Ok(out)
    }

    fn check(&self, state: usize, input: usize) -> Result<(), FsmError> {
        if state >= self.num_states {
            return Err(FsmError::UnknownState {
                state,
                available: self.num_states,
            });
        }
        if input >= self.num_inputs {
            return Err(FsmError::UnknownInput {
                input,
                available: self.num_inputs,
            });
        }
        Ok(())
    }

    /// An `n`-bit binary up-counter as an input-free (single-symbol) Mealy
    /// machine whose output is the current state value — the explicit-FSM
    /// twin of the netlist `BinaryCounter`.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::EmptyMachine`] for `bits = 0` and
    /// [`FsmError::OutputTooWide`] for `bits > 16` (table size safety cap).
    pub fn binary_counter(bits: u16) -> Result<Self, FsmError> {
        if bits == 0 {
            return Err(FsmError::EmptyMachine);
        }
        if bits > 16 {
            return Err(FsmError::OutputTooWide {
                output: 1 << 16,
                width: bits,
            });
        }
        let n = 1usize << bits;
        let transitions: Vec<usize> = (0..n).map(|s| (s + 1) % n).collect();
        let outputs: Vec<u64> = (0..n as u64).collect();
        Ok(Self::from_tables(n, 1, bits, 0, transitions, outputs))
    }
}

/// Builder for [`Fsm`], validating completeness at
/// [`FsmBuilder::build`] time.
#[derive(Debug, Clone)]
pub struct FsmBuilder {
    num_states: usize,
    num_inputs: usize,
    output_width: u16,
    initial: usize,
    transitions: Vec<Option<(usize, u64)>>,
}

impl FsmBuilder {
    /// Starts a machine with the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::EmptyMachine`] for zero states/inputs and
    /// [`FsmError::OutputTooWide`] for a zero or >64-bit output width.
    pub fn new(num_states: usize, num_inputs: usize, output_width: u16) -> Result<Self, FsmError> {
        if num_states == 0 || num_inputs == 0 {
            return Err(FsmError::EmptyMachine);
        }
        if output_width == 0 || output_width > 64 {
            return Err(FsmError::OutputTooWide {
                output: 0,
                width: output_width,
            });
        }
        Ok(Self {
            num_states,
            num_inputs,
            output_width,
            initial: 0,
            transitions: vec![None; num_states * num_inputs],
        })
    }

    /// Sets the reset state.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::UnknownState`] for an out-of-range state.
    pub fn initial(&mut self, state: usize) -> Result<&mut Self, FsmError> {
        if state >= self.num_states {
            return Err(FsmError::UnknownState {
                state,
                available: self.num_states,
            });
        }
        self.initial = state;
        Ok(self)
    }

    /// Defines the transition `(state, input) → (next, output)`.
    ///
    /// # Errors
    ///
    /// Returns range errors for bad indices and
    /// [`FsmError::OutputTooWide`] when `output` exceeds the output width.
    pub fn transition(
        &mut self,
        state: usize,
        input: usize,
        next: usize,
        output: u64,
    ) -> Result<&mut Self, FsmError> {
        if state >= self.num_states {
            return Err(FsmError::UnknownState {
                state,
                available: self.num_states,
            });
        }
        if next >= self.num_states {
            return Err(FsmError::UnknownState {
                state: next,
                available: self.num_states,
            });
        }
        if input >= self.num_inputs {
            return Err(FsmError::UnknownInput {
                input,
                available: self.num_inputs,
            });
        }
        if self.output_width < 64 && output >> self.output_width != 0 {
            return Err(FsmError::OutputTooWide {
                output,
                width: self.output_width,
            });
        }
        self.transitions[state * self.num_inputs + input] = Some((next, output));
        Ok(self)
    }

    /// Finalizes the machine.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::IncompleteTransition`] for the first undefined
    /// (state, input) pair.
    pub fn build(&self) -> Result<Fsm, FsmError> {
        let mut transitions = Vec::with_capacity(self.transitions.len());
        let mut outputs = Vec::with_capacity(self.transitions.len());
        for (idx, t) in self.transitions.iter().enumerate() {
            match t {
                Some((next, out)) => {
                    transitions.push(*next);
                    outputs.push(*out);
                }
                None => {
                    return Err(FsmError::IncompleteTransition {
                        state: idx / self.num_inputs,
                        input: idx % self.num_inputs,
                    });
                }
            }
        }
        Ok(Fsm::from_tables(
            self.num_states,
            self.num_inputs,
            self.output_width,
            self.initial,
            transitions,
            outputs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_shape() {
        assert!(FsmBuilder::new(0, 1, 1).is_err());
        assert!(FsmBuilder::new(1, 0, 1).is_err());
        assert!(FsmBuilder::new(1, 1, 0).is_err());
        assert!(FsmBuilder::new(1, 1, 65).is_err());
    }

    #[test]
    fn builder_validates_transitions() {
        let mut b = FsmBuilder::new(2, 2, 4).unwrap();
        assert!(b.transition(2, 0, 0, 0).is_err());
        assert!(b.transition(0, 2, 0, 0).is_err());
        assert!(b.transition(0, 0, 2, 0).is_err());
        assert!(b.transition(0, 0, 1, 16).is_err());
        assert!(b.transition(0, 0, 1, 15).is_ok());
        assert!(b.initial(5).is_err());
    }

    #[test]
    fn build_rejects_incomplete_machines() {
        let mut b = FsmBuilder::new(2, 1, 1).unwrap();
        b.transition(0, 0, 1, 0).unwrap();
        match b.build() {
            Err(FsmError::IncompleteTransition { state: 1, input: 0 }) => {}
            other => panic!("expected incomplete-transition error, got {other:?}"),
        }
    }

    #[test]
    fn run_produces_mealy_outputs() {
        let mut b = FsmBuilder::new(2, 2, 2).unwrap();
        b.transition(0, 0, 0, 0).unwrap();
        b.transition(0, 1, 1, 1).unwrap();
        b.transition(1, 0, 1, 2).unwrap();
        b.transition(1, 1, 0, 3).unwrap();
        let fsm = b.build().unwrap();
        let outs = fsm.run(&[1, 0, 1, 1]).unwrap();
        assert_eq!(outs, vec![1, 2, 3, 1]);
    }

    #[test]
    fn run_rejects_bad_symbols() {
        let fsm = Fsm::binary_counter(2).unwrap();
        assert!(fsm.run(&[1]).is_err());
        assert!(fsm.step(4, 0).is_err());
    }

    #[test]
    fn binary_counter_fsm_counts() {
        let fsm = Fsm::binary_counter(3).unwrap();
        assert_eq!(fsm.num_states(), 8);
        let outs = fsm.run(&[0; 10]).unwrap();
        assert_eq!(outs, vec![0, 1, 2, 3, 4, 5, 6, 7, 0, 1]);
    }

    #[test]
    fn counter_constructors_validate() {
        assert!(Fsm::binary_counter(0).is_err());
        assert!(Fsm::binary_counter(17).is_err());
        assert!(Fsm::binary_counter(16).is_ok());
    }
}
