//! Running an explicit [`Fsm`] inside an `ipmark-netlist` circuit.
//!
//! [`FsmComponent`] wraps a Mealy machine as a sequential netlist component
//! so that *any* watermarked FSM — not just the built-in counters — can be
//! measured through the power-simulation pipeline and verified with the
//! correlation process.
//!
//! Port shape:
//!
//! * input 0 — the input symbol (`ceil(log2(num_inputs))` bits, or 1 bit
//!   for single-symbol machines);
//! * output 0 — the current state code;
//! * output 1 — the output of the *previous* transition (registered, so the
//!   component stays a Moore machine from the scheduler's point of view).

use ipmark_netlist::codes::gray_encode;
use ipmark_netlist::{BitVec, Component, NetlistError};
use serde::{Deserialize, Serialize};

use crate::error::FsmError;
use crate::machine::Fsm;

fn bits_for(n: usize) -> u16 {
    debug_assert!(n >= 1);
    let mut w = 0u16;
    while (1usize << w) < n {
        w += 1;
    }
    w.max(1)
}

/// How the synthesized state register encodes the abstract state index.
///
/// The encoding decides the register's switching-activity profile — the
/// very signal the watermark verification consumes. Binary encoding
/// toggles ≈ 2 bits per counted step, Gray exactly one, one-hot exactly
/// two (one bit falls, one rises) but with a much wider register. Synthesis
/// tools pick between exactly these options, so the power simulation
/// should too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum StateEncoding {
    /// Natural binary state codes (the default of most synthesizers).
    #[default]
    Binary,
    /// Reflected-Gray state codes (minimal toggling between adjacent
    /// indices).
    Gray,
    /// One-hot codes: one flip-flop per state (typical for FPGA flows).
    OneHot,
}

impl StateEncoding {
    /// Register width needed for `num_states` states.
    pub fn width(&self, num_states: usize) -> u16 {
        match self {
            StateEncoding::Binary | StateEncoding::Gray => bits_for(num_states),
            StateEncoding::OneHot => num_states as u16,
        }
    }

    /// The register contents for abstract state `index`.
    pub fn encode(&self, index: usize) -> u64 {
        match self {
            StateEncoding::Binary => index as u64,
            StateEncoding::Gray => gray_encode(index as u64),
            StateEncoding::OneHot => 1u64 << index,
        }
    }
}

/// An [`Fsm`] as a sequential netlist component.
#[derive(Debug, Clone)]
pub struct FsmComponent {
    fsm: Fsm,
    input_width: u16,
    state_width: u16,
    encoding: StateEncoding,
    state: usize,
    last_output: u64,
}

impl FsmComponent {
    /// Wraps a machine with binary state encoding.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::EmptyMachine`] if the machine's state count
    /// cannot be encoded in 64 bits (cannot occur for machines built by
    /// this crate).
    pub fn new(fsm: Fsm) -> Result<Self, FsmError> {
        Self::with_encoding(fsm, StateEncoding::Binary)
    }

    /// Wraps a machine with an explicit state-register encoding.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::EmptyMachine`] for a stateless machine and
    /// [`FsmError::OutputTooWide`] when a one-hot register would exceed
    /// 64 bits.
    pub fn with_encoding(fsm: Fsm, encoding: StateEncoding) -> Result<Self, FsmError> {
        if fsm.num_states() == 0 {
            return Err(FsmError::EmptyMachine);
        }
        if encoding == StateEncoding::OneHot && fsm.num_states() > 64 {
            return Err(FsmError::OutputTooWide {
                output: fsm.num_states() as u64,
                width: 64,
            });
        }
        let input_width = bits_for(fsm.num_inputs());
        let state_width = encoding.width(fsm.num_states());
        Ok(Self {
            state: fsm.initial(),
            last_output: 0,
            input_width,
            state_width,
            encoding,
            fsm,
        })
    }

    /// The wrapped machine.
    pub fn fsm(&self) -> &Fsm {
        &self.fsm
    }
}

impl Component for FsmComponent {
    fn type_name(&self) -> &'static str {
        "fsm"
    }

    fn input_widths(&self) -> Vec<u16> {
        vec![self.input_width]
    }

    fn output_widths(&self) -> Vec<u16> {
        vec![self.state_width, self.fsm.output_width()]
    }

    fn eval(&self, inputs: &[BitVec], outputs: &mut Vec<BitVec>) -> Result<(), NetlistError> {
        if inputs.len() != 1 {
            return Err(NetlistError::ArityMismatch {
                component: "fsm".to_owned(),
                provided: inputs.len(),
                expected: 1,
            });
        }
        outputs.push(BitVec::truncated(
            self.encoding.encode(self.state),
            self.state_width,
        ));
        outputs.push(BitVec::truncated(self.last_output, self.fsm.output_width()));
        Ok(())
    }

    fn clock(&mut self, inputs: &[BitVec]) -> Result<(), NetlistError> {
        if inputs.len() != 1 {
            return Err(NetlistError::ArityMismatch {
                component: "fsm".to_owned(),
                provided: inputs.len(),
                expected: 1,
            });
        }
        let symbol = (inputs[0].value() as usize) % self.fsm.num_inputs();
        let (next, out) =
            self.fsm
                .step(self.state, symbol)
                .map_err(|_| NetlistError::Invariant {
                    what: "FSM state and input symbol are in range by construction",
                })?;
        self.state = next;
        self.last_output = out;
        Ok(())
    }

    fn state(&self) -> Option<BitVec> {
        // The registered *state* word only. The Mealy output register is
        // exposed on port 1, so its toggles are already charged through
        // the circuit's output_hd accounting — including it here would
        // double-count it, and would silently truncate whenever
        // state_width + output_width exceeded 64 (one-hot machines).
        Some(BitVec::truncated(
            self.encoding.encode(self.state),
            self.state_width,
        ))
    }

    fn is_sequential(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.state = self.fsm.initial();
        self.last_output = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::FsmBuilder;
    use ipmark_netlist::codes::gray_encode;
    use ipmark_netlist::comb::Constant;
    use ipmark_netlist::CircuitBuilder;

    /// An input-free `bits`-bit counter whose transition out of state `s`
    /// outputs `gray_encode(s)`, so its outputs differ from its states.
    fn gray_counter(bits: u16) -> Fsm {
        let n = 1usize << bits;
        let mut b = FsmBuilder::new(n, 1, bits).unwrap();
        for s in 0..n {
            b.transition(s, 0, (s + 1) % n, gray_encode(s as u64))
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn bits_for_sizes() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
    }

    #[test]
    fn component_shape() {
        let c = FsmComponent::new(Fsm::binary_counter(4).unwrap()).unwrap();
        assert_eq!(c.input_widths(), vec![1]);
        assert_eq!(c.output_widths(), vec![4, 4]);
        assert!(c.is_sequential());
        assert_eq!(c.type_name(), "fsm");
    }

    #[test]
    fn simulation_matches_direct_run() {
        let fsm = gray_counter(4);
        let expected = fsm.run(&[0; 20]).unwrap();

        let mut b = CircuitBuilder::new();
        let zero = b.add("zero", Constant::new(BitVec::zero(1)));
        let comp = b.add("machine", FsmComponent::new(fsm).unwrap());
        b.connect_ports(zero, 0, comp, 0).unwrap();
        b.expose(comp, 1, "out").unwrap();
        let mut circuit = b.build().unwrap();

        // Output port 1 is the registered previous-transition output, so it
        // lags the direct run by one cycle.
        let mut outs = Vec::new();
        for _ in 0..21 {
            outs.push(circuit.step().unwrap().outputs[0].value());
        }
        assert_eq!(outs[0], 0, "reset value before any transition");
        assert_eq!(&outs[1..], &expected[..]);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut c = FsmComponent::new(Fsm::binary_counter(3).unwrap()).unwrap();
        c.clock(&[BitVec::zero(1)]).unwrap();
        c.clock(&[BitVec::zero(1)]).unwrap();
        assert_eq!(c.state, 2);
        c.reset();
        assert_eq!(c.state, 0);
    }

    #[test]
    fn activity_state_is_the_state_register_only() {
        let mut c = FsmComponent::new(Fsm::binary_counter(3).unwrap()).unwrap();
        let before = c.state().unwrap();
        assert_eq!(
            before.width(),
            3,
            "no output-register bits in the state word"
        );
        c.clock(&[BitVec::zero(1)]).unwrap();
        let after = c.state().unwrap();
        // state 0 -> 1: exactly one toggle; the output register's toggles
        // are charged via output_hd on port 1 instead.
        assert_eq!(before.hamming_distance(&after).unwrap(), 1);
    }

    #[test]
    fn arity_is_checked() {
        let c = FsmComponent::new(Fsm::binary_counter(3).unwrap()).unwrap();
        let mut out = Vec::new();
        assert!(c.eval(&[], &mut out).is_err());
        let mut c2 = c.clone();
        assert!(c2.clock(&[]).is_err());
    }

    #[test]
    fn encodings_have_expected_widths() {
        let fsm = Fsm::binary_counter(4).unwrap(); // 16 states
        for (encoding, width) in [
            (StateEncoding::Binary, 4u16),
            (StateEncoding::Gray, 4),
            (StateEncoding::OneHot, 16),
        ] {
            let c = FsmComponent::with_encoding(fsm.clone(), encoding).unwrap();
            assert_eq!(c.encoding, encoding);
            assert_eq!(c.output_widths()[0], width);
        }
        assert_eq!(StateEncoding::default(), StateEncoding::Binary);
        assert_eq!(StateEncoding::Gray.encode(3), 2);
        assert_eq!(StateEncoding::OneHot.encode(3), 8);
    }

    #[test]
    fn encodings_have_expected_toggle_counts() {
        let fsm = Fsm::binary_counter(4).unwrap();
        let count_state_toggles = |encoding: StateEncoding| -> u32 {
            let mut c = FsmComponent::with_encoding(fsm.clone(), encoding).unwrap();
            let mut toggles = 0;
            let mut prev = c.state().unwrap();
            for _ in 0..16 {
                c.clock(&[BitVec::zero(1)]).unwrap();
                let cur = c.state().unwrap();
                toggles += prev.hamming_distance(&cur).unwrap();
                prev = cur;
            }
            toggles
        };
        assert_eq!(count_state_toggles(StateEncoding::Gray), 16);
        assert_eq!(count_state_toggles(StateEncoding::OneHot), 32);
        assert_eq!(count_state_toggles(StateEncoding::Binary), 30);
    }

    #[test]
    fn one_hot_rejects_too_many_states() {
        use rand::SeedableRng;
        let config = crate::generate::RandomFsmConfig {
            num_states: 65,
            num_inputs: 1,
            output_width: 4,
            connected: false,
        };
        let fsm =
            crate::generate::random_fsm(&config, &mut rand_chacha::ChaCha8Rng::seed_from_u64(0))
                .unwrap();
        assert!(FsmComponent::with_encoding(fsm.clone(), StateEncoding::OneHot).is_err());
        assert!(FsmComponent::with_encoding(fsm, StateEncoding::Binary).is_ok());
    }

    #[test]
    fn encoding_does_not_change_io_behaviour() {
        let fsm = gray_counter(3);
        let run = |encoding: StateEncoding| -> Vec<u64> {
            let mut c = FsmComponent::with_encoding(fsm.clone(), encoding).unwrap();
            let mut outs = Vec::new();
            for _ in 0..12 {
                let mut o = Vec::new();
                c.eval(&[BitVec::zero(1)], &mut o).unwrap();
                outs.push(o[1].value());
                c.clock(&[BitVec::zero(1)]).unwrap();
            }
            outs
        };
        assert_eq!(run(StateEncoding::Binary), run(StateEncoding::Gray));
        assert_eq!(run(StateEncoding::Binary), run(StateEncoding::OneHot));
    }
}
