//! Sequential components: registers and the binary and Gray counters.
//!
//! All sequential components are Moore-style: outputs depend only on the
//! registered state, never combinationally on the inputs, so the circuit
//! scheduler may break dependency cycles at them.

use crate::bits::BitVec;
use crate::codes::gray_encode;
use crate::component::{check_arity, Component};
use crate::error::NetlistError;

/// A bank of D flip-flops: `q` follows `d` one clock later.
///
/// Port shape: input `d` (width bits), output `q` (width bits).
///
/// # Examples
///
/// ```
/// use ipmark_netlist::{seq::Register, BitVec, Component};
///
/// let mut r = Register::new(BitVec::zero(8));
/// r.clock(&[BitVec::from(0x42u8)]).unwrap();
/// let mut out = Vec::new();
/// r.eval(&[BitVec::from(0u8)], &mut out).unwrap();
/// assert_eq!(out[0].value(), 0x42);
/// ```
#[derive(Debug, Clone)]
pub struct Register {
    init: BitVec,
    state: BitVec,
}

impl Register {
    /// Creates a register with power-on value `init`.
    pub fn new(init: BitVec) -> Self {
        Self { init, state: init }
    }
}

impl Component for Register {
    fn type_name(&self) -> &'static str {
        "register"
    }

    fn input_widths(&self) -> Vec<u16> {
        vec![self.init.width()]
    }

    fn output_widths(&self) -> Vec<u16> {
        vec![self.init.width()]
    }

    fn eval(&self, inputs: &[BitVec], outputs: &mut Vec<BitVec>) -> Result<(), NetlistError> {
        check_arity(self.type_name(), inputs, 1)?;
        outputs.push(self.state);
        Ok(())
    }

    fn clock(&mut self, inputs: &[BitVec]) -> Result<(), NetlistError> {
        check_arity(self.type_name(), inputs, 1)?;
        if inputs[0].width() != self.init.width() {
            return Err(crate::bits::BitsError::WidthMismatch {
                left: inputs[0].width(),
                right: self.init.width(),
            }
            .into());
        }
        self.state = inputs[0];
        Ok(())
    }

    fn state(&self) -> Option<BitVec> {
        Some(self.state)
    }

    fn is_sequential(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.state = self.init;
    }
}

/// A free-running binary up-counter (the FSM of the paper's `IP_A`).
///
/// No inputs; output is the current count. The state register holds the
/// natural binary encoding, so the average number of bits toggled per cycle
/// approaches 2 for large widths (1 + 1/2 + 1/4 + …).
#[derive(Debug, Clone)]
pub struct BinaryCounter {
    width: u16,
    init: u64,
    count: u64,
}

impl BinaryCounter {
    /// Creates a `width`-bit binary counter starting at `init`.
    ///
    /// # Errors
    ///
    /// Returns a bit-vector error when `init` does not fit in `width` bits.
    pub fn new(width: u16, init: u64) -> Result<Self, NetlistError> {
        BitVec::new(init, width)?;
        Ok(Self {
            width,
            init,
            count: init,
        })
    }

    /// The current count.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Component for BinaryCounter {
    fn type_name(&self) -> &'static str {
        "binary-counter"
    }

    fn input_widths(&self) -> Vec<u16> {
        Vec::new()
    }

    fn output_widths(&self) -> Vec<u16> {
        vec![self.width]
    }

    fn eval(&self, inputs: &[BitVec], outputs: &mut Vec<BitVec>) -> Result<(), NetlistError> {
        check_arity(self.type_name(), inputs, 0)?;
        outputs.push(BitVec::truncated(self.count, self.width));
        Ok(())
    }

    fn clock(&mut self, inputs: &[BitVec]) -> Result<(), NetlistError> {
        check_arity(self.type_name(), inputs, 0)?;
        self.count = BitVec::truncated(self.count, self.width)
            .wrapping_incr()
            .value();
        Ok(())
    }

    fn state(&self) -> Option<BitVec> {
        Some(BitVec::truncated(self.count, self.width))
    }

    fn is_sequential(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.count = self.init;
    }
}

/// A free-running Gray-code up-counter (the FSM of the paper's `IP_B`…`IP_D`).
///
/// The state register holds the Gray encoding, so exactly one bit toggles per
/// cycle — the flattest possible switching activity, which is why the paper
/// treats it as a worst case for power-based verification.
#[derive(Debug, Clone)]
pub struct GrayCounter {
    width: u16,
    init: u64,
    count: u64,
}

impl GrayCounter {
    /// Creates a `width`-bit Gray counter whose underlying sequence position
    /// starts at `init` (the registered value is `gray_encode(init)`).
    ///
    /// # Errors
    ///
    /// Returns a bit-vector error when `init` does not fit in `width` bits.
    pub fn new(width: u16, init: u64) -> Result<Self, NetlistError> {
        BitVec::new(init, width)?;
        Ok(Self {
            width,
            init,
            count: init,
        })
    }

    /// The current position in the counting sequence (binary, not Gray).
    pub fn position(&self) -> u64 {
        self.count
    }

    /// The registered Gray-coded value.
    pub fn gray(&self) -> u64 {
        gray_encode(self.count) & BitVec::ones(self.width).value()
    }
}

impl Component for GrayCounter {
    fn type_name(&self) -> &'static str {
        "gray-counter"
    }

    fn input_widths(&self) -> Vec<u16> {
        Vec::new()
    }

    fn output_widths(&self) -> Vec<u16> {
        vec![self.width]
    }

    fn eval(&self, inputs: &[BitVec], outputs: &mut Vec<BitVec>) -> Result<(), NetlistError> {
        check_arity(self.type_name(), inputs, 0)?;
        outputs.push(BitVec::truncated(self.gray(), self.width));
        Ok(())
    }

    fn clock(&mut self, inputs: &[BitVec]) -> Result<(), NetlistError> {
        check_arity(self.type_name(), inputs, 0)?;
        self.count = BitVec::truncated(self.count, self.width)
            .wrapping_incr()
            .value();
        Ok(())
    }

    fn state(&self) -> Option<BitVec> {
        Some(BitVec::truncated(self.gray(), self.width))
    }

    fn is_sequential(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.count = self.init;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_delays_by_one_cycle() {
        let mut r = Register::new(BitVec::zero(8));
        let mut out = Vec::new();
        r.eval(&[BitVec::from(0xaau8)], &mut out).unwrap();
        assert_eq!(out[0].value(), 0); // still power-on value
        r.clock(&[BitVec::from(0xaau8)]).unwrap();
        out.clear();
        r.eval(&[BitVec::from(0x55u8)], &mut out).unwrap();
        assert_eq!(out[0].value(), 0xaa);
    }

    #[test]
    fn register_reset_restores_init() {
        let mut r = Register::new(BitVec::from(0x11u8));
        r.clock(&[BitVec::from(0x22u8)]).unwrap();
        assert_eq!(r.state.value(), 0x22);
        r.reset();
        assert_eq!(r.state.value(), 0x11);
    }

    #[test]
    fn register_rejects_width_mismatch_on_clock() {
        let mut r = Register::new(BitVec::zero(8));
        assert!(r.clock(&[BitVec::zero(4)]).is_err());
    }

    #[test]
    fn binary_counter_counts_and_wraps() {
        let mut c = BinaryCounter::new(4, 14).unwrap();
        c.clock(&[]).unwrap();
        assert_eq!(c.count(), 15);
        c.clock(&[]).unwrap();
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn binary_counter_rejects_bad_init() {
        assert!(BinaryCounter::new(4, 16).is_err());
    }

    #[test]
    fn binary_counter_average_toggles_near_two() {
        let mut c = BinaryCounter::new(8, 0).unwrap();
        let mut total = 0u32;
        let mut prev = c.state().unwrap();
        for _ in 0..256 {
            c.clock(&[]).unwrap();
            let cur = c.state().unwrap();
            total += prev.hamming_distance(&cur).unwrap();
            prev = cur;
        }
        // Sum of toggles over a full period of an n-bit binary counter is
        // 2^n + 2^(n-1) + ... + 2 = 2^(n+1) - 2 = 510 for n = 8.
        assert_eq!(total, 510);
    }

    #[test]
    fn gray_counter_toggles_exactly_one_bit_per_cycle() {
        let mut c = GrayCounter::new(8, 0).unwrap();
        let mut prev = c.state().unwrap();
        for _ in 0..512 {
            c.clock(&[]).unwrap();
            let cur = c.state().unwrap();
            assert_eq!(prev.hamming_distance(&cur).unwrap(), 1);
            prev = cur;
        }
    }

    #[test]
    fn gray_counter_visits_all_states() {
        let mut c = GrayCounter::new(4, 0).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            seen.insert(c.state().unwrap().value());
            c.clock(&[]).unwrap();
        }
        assert_eq!(seen.len(), 16);
        assert_eq!(c.state().unwrap().value(), gray_encode(0));
    }
}
