//! Structural analysis of FSMs: periodicity.
//!
//! The paper leans on a structural fact about its FSMs: they are *cyclic*
//! with a known periodicity ("it is possible to know exactly the
//! periodicity of the designed FSM"), and verification needs a state
//! sequence longer than that period. [`periodicity`] computes the
//! (tail, period) decomposition.

use std::collections::HashMap;

use crate::error::FsmError;
use crate::machine::Fsm;

/// The eventual cycle of the machine under a fixed input symbol:
/// returns `(tail_length, period)` where the state trajectory is
/// `tail` transient states followed by a cycle of length `period`.
///
/// For the paper's counters the tail is 0 and the period is `2^n`.
///
/// # Errors
///
/// Returns [`FsmError::UnknownInput`] for an out-of-range symbol.
pub fn periodicity(fsm: &Fsm, input: usize) -> Result<(usize, usize), FsmError> {
    if input >= fsm.num_inputs() {
        return Err(FsmError::UnknownInput {
            input,
            available: fsm.num_inputs(),
        });
    }
    let mut first_visit: HashMap<usize, usize> = HashMap::new();
    let mut state = fsm.initial();
    let mut t = 0usize;
    loop {
        if let Some(&t0) = first_visit.get(&state) {
            return Ok((t0, t - t0));
        }
        first_visit.insert(state, t);
        state = fsm.step(state, input)?.0;
        t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::FsmBuilder;

    #[test]
    fn counter_periodicity_is_full_period_with_no_tail() {
        let fsm = Fsm::binary_counter(6).unwrap();
        assert_eq!(periodicity(&fsm, 0).unwrap(), (0, 64));
    }

    #[test]
    fn tail_detected_for_transient_prefix() {
        // 0 -> 1 -> 2 -> 1 (tail 1, period 2).
        let mut b = FsmBuilder::new(3, 1, 1).unwrap();
        b.transition(0, 0, 1, 0).unwrap();
        b.transition(1, 0, 2, 0).unwrap();
        b.transition(2, 0, 1, 0).unwrap();
        let fsm = b.build().unwrap();
        assert_eq!(periodicity(&fsm, 0).unwrap(), (1, 2));
        assert!(periodicity(&fsm, 3).is_err());
    }
}
