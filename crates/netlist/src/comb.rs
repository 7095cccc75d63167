//! Combinational components: constants, the key XOR and concatenation.

use crate::bits::BitVec;
use crate::component::{check_arity, Component};
use crate::error::NetlistError;

/// A constant source driving a fixed value.
///
/// # Examples
///
/// ```
/// use ipmark_netlist::{comb::Constant, BitVec, Component};
///
/// let c = Constant::new(BitVec::truncated(0xab, 8));
/// let mut out = Vec::new();
/// c.eval(&[], &mut out).unwrap();
/// assert_eq!(out[0].value(), 0xab);
/// ```
#[derive(Debug, Clone)]
pub struct Constant {
    value: BitVec,
}

impl Constant {
    /// Creates a constant driver for `value`.
    pub fn new(value: BitVec) -> Self {
        Self { value }
    }

    /// The driven value.
    pub fn value(&self) -> BitVec {
        self.value
    }
}

impl Component for Constant {
    fn type_name(&self) -> &'static str {
        "constant"
    }

    fn input_widths(&self) -> Vec<u16> {
        Vec::new()
    }

    fn output_widths(&self) -> Vec<u16> {
        vec![self.value.width()]
    }

    fn eval(&self, inputs: &[BitVec], outputs: &mut Vec<BitVec>) -> Result<(), NetlistError> {
        check_arity(self.type_name(), inputs, 0)?;
        outputs.push(self.value);
        Ok(())
    }
}

/// Bitwise XOR of two equal-width inputs. This is the gate that mixes the
/// watermark key into the FSM state in the leakage component.
#[derive(Debug, Clone)]
pub struct Xor2 {
    width: u16,
}

impl Xor2 {
    /// Creates a gate operating on two `width`-bit inputs.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds
    /// [`MAX_WIDTH`](crate::bits::MAX_WIDTH); widths are design-time
    /// constants.
    pub fn new(width: u16) -> Self {
        // Reuse BitVec's width validation.
        let _ = BitVec::zero(width);
        Self { width }
    }

    /// Operand width in bits.
    pub fn width(&self) -> u16 {
        self.width
    }
}

impl Component for Xor2 {
    fn type_name(&self) -> &'static str {
        "xor"
    }

    fn input_widths(&self) -> Vec<u16> {
        vec![self.width, self.width]
    }

    fn output_widths(&self) -> Vec<u16> {
        vec![self.width]
    }

    fn eval(&self, inputs: &[BitVec], outputs: &mut Vec<BitVec>) -> Result<(), NetlistError> {
        check_arity(self.type_name(), inputs, 2)?;
        outputs.push(inputs[0].xor(&inputs[1])?);
        Ok(())
    }
}

/// Concatenates two inputs; port 0 supplies the high bits.
#[derive(Debug, Clone)]
pub struct Concat2 {
    high_width: u16,
    low_width: u16,
}

impl Concat2 {
    /// Creates a concatenation of a `high_width`-bit and a `low_width`-bit
    /// input.
    ///
    /// # Errors
    ///
    /// Returns a bit-vector error when the combined width exceeds
    /// [`MAX_WIDTH`](crate::bits::MAX_WIDTH).
    pub fn new(high_width: u16, low_width: u16) -> Result<Self, NetlistError> {
        BitVec::zero(high_width).concat(&BitVec::zero(low_width))?;
        Ok(Self {
            high_width,
            low_width,
        })
    }
}

impl Component for Concat2 {
    fn type_name(&self) -> &'static str {
        "concat"
    }

    fn input_widths(&self) -> Vec<u16> {
        vec![self.high_width, self.low_width]
    }

    fn output_widths(&self) -> Vec<u16> {
        vec![self.high_width + self.low_width]
    }

    fn eval(&self, inputs: &[BitVec], outputs: &mut Vec<BitVec>) -> Result<(), NetlistError> {
        check_arity(self.type_name(), inputs, 2)?;
        outputs.push(inputs[0].concat(&inputs[1])?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval1(c: &dyn Component, inputs: &[BitVec]) -> BitVec {
        let mut out = Vec::new();
        c.eval(inputs, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        out[0]
    }

    #[test]
    fn constant_drives_its_value() {
        let c = Constant::new(BitVec::truncated(0x5a, 8));
        assert_eq!(eval1(&c, &[]).value(), 0x5a);
        assert!(c.input_widths().is_empty());
        assert!(!c.is_sequential());
    }

    #[test]
    fn xor_gate() {
        let g = Xor2::new(8);
        let out = eval1(&g, &[BitVec::from(0xf0u8), BitVec::from(0x0fu8)]);
        assert_eq!(out.value(), 0xff);
    }

    #[test]
    fn gates_reject_wrong_arity() {
        let g = Xor2::new(4);
        let mut out = Vec::new();
        assert!(matches!(
            g.eval(&[BitVec::zero(4)], &mut out),
            Err(NetlistError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn gates_reject_width_mismatch() {
        let g = Xor2::new(4);
        let mut out = Vec::new();
        assert!(g
            .eval(&[BitVec::zero(4), BitVec::zero(8)], &mut out)
            .is_err());
    }

    #[test]
    fn concat_joins_high_low() {
        let c = Concat2::new(4, 4).unwrap();
        let out = eval1(&c, &[BitVec::truncated(0xa, 4), BitVec::truncated(0xb, 4)]);
        assert_eq!(out.value(), 0xab);
        assert_eq!(out.width(), 8);
        assert!(Concat2::new(40, 30).is_err());
    }
}
