//! Fixed-width bit vectors used as signal values on netlist ports.
//!
//! A [`BitVec`] is a little word: at most 64 bits wide, value stored in a
//! `u64`, with the width carried alongside so that arithmetic wraps at the
//! declared width and widths can be checked when signals are connected.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Maximum supported signal width in bits.
pub const MAX_WIDTH: u16 = 64;

/// A fixed-width bit vector (1..=64 bits).
///
/// `BitVec` is the value type travelling on netlist ports. All operations
/// that combine two `BitVec`s require equal widths and return
/// [`BitsError::WidthMismatch`] otherwise; arithmetic wraps modulo `2^width`.
///
/// # Examples
///
/// ```
/// use ipmark_netlist::BitVec;
///
/// # fn main() -> Result<(), ipmark_netlist::BitsError> {
/// let a = BitVec::new(0b1010, 4)?;
/// let b = BitVec::new(0b0110, 4)?;
/// assert_eq!(a.xor(&b)?.value(), 0b1100);
/// assert_eq!(a.hamming_distance(&b)?, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct BitVec {
    value: u64,
    width: u16,
}

impl Deserialize for BitVec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::de::Error> {
        #[derive(Deserialize)]
        struct Raw {
            value: u64,
            width: u16,
        }
        let raw = Raw::from_value(value)?;
        BitVec::new(raw.value, raw.width).map_err(serde::de::Error::custom)
    }
}

/// Error raised by [`BitVec`] constructors and binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitsError {
    /// The requested width is zero or exceeds [`MAX_WIDTH`].
    InvalidWidth {
        /// Requested width.
        width: u16,
    },
    /// The value does not fit in the requested width.
    ValueTooWide {
        /// Offending value.
        value: u64,
        /// Declared width.
        width: u16,
    },
    /// A binary operation combined vectors of unequal widths.
    WidthMismatch {
        /// Width of the left operand.
        left: u16,
        /// Width of the right operand.
        right: u16,
    },
}

impl fmt::Display for BitsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BitsError::InvalidWidth { width } => {
                write!(
                    f,
                    "invalid bit-vector width {width} (must be 1..={MAX_WIDTH})"
                )
            }
            BitsError::ValueTooWide { value, width } => {
                write!(f, "value {value:#x} does not fit in {width} bits")
            }
            BitsError::WidthMismatch { left, right } => {
                write!(f, "bit-vector width mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for BitsError {}

/// Mask with the low `width` bits set.
#[inline]
fn mask(width: u16) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl BitVec {
    /// Creates a bit vector with the given value and width.
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::InvalidWidth`] if `width` is zero or greater than
    /// [`MAX_WIDTH`], and [`BitsError::ValueTooWide`] if `value` has bits set
    /// above `width`.
    pub fn new(value: u64, width: u16) -> Result<Self, BitsError> {
        if width == 0 || width > MAX_WIDTH {
            return Err(BitsError::InvalidWidth { width });
        }
        if value & !mask(width) != 0 {
            return Err(BitsError::ValueTooWide { value, width });
        }
        Ok(Self { value, width })
    }

    /// Creates a bit vector, truncating `value` to the low `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than [`MAX_WIDTH`]; widths are
    /// design-time constants, so this indicates a construction bug rather
    /// than a data error.
    pub fn truncated(value: u64, width: u16) -> Self {
        assert!(
            width > 0 && width <= MAX_WIDTH,
            "invalid bit-vector width {width}"
        );
        Self {
            value: value & mask(width),
            width,
        }
    }

    /// The all-zero vector of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than [`MAX_WIDTH`].
    pub fn zero(width: u16) -> Self {
        Self::truncated(0, width)
    }

    /// The all-ones vector of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than [`MAX_WIDTH`].
    pub fn ones(width: u16) -> Self {
        Self::truncated(u64::MAX, width)
    }

    /// Underlying integer value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Width in bits.
    #[inline]
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Number of set bits (Hamming weight).
    #[inline]
    pub fn hamming_weight(&self) -> u32 {
        self.value.count_ones()
    }

    /// Number of differing bits between `self` and `other`.
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::WidthMismatch`] if the widths differ.
    pub fn hamming_distance(&self, other: &Self) -> Result<u32, BitsError> {
        self.check_width(other)?;
        Ok((self.value ^ other.value).count_ones())
    }

    /// Bitwise XOR.
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::WidthMismatch`] if the widths differ.
    pub fn xor(&self, other: &Self) -> Result<Self, BitsError> {
        self.check_width(other)?;
        Ok(Self {
            value: self.value ^ other.value,
            width: self.width,
        })
    }

    /// Wrapping increment modulo `2^width`.
    pub fn wrapping_incr(&self) -> Self {
        Self {
            value: self.value.wrapping_add(1) & mask(self.width),
            width: self.width,
        }
    }

    /// Concatenates `self` (high bits) with `low` (low bits).
    ///
    /// # Errors
    ///
    /// Returns [`BitsError::InvalidWidth`] if the combined width exceeds
    /// [`MAX_WIDTH`].
    pub fn concat(&self, low: &Self) -> Result<Self, BitsError> {
        let width = self.width + low.width;
        if width > MAX_WIDTH {
            return Err(BitsError::InvalidWidth { width });
        }
        Ok(Self {
            value: (self.value << low.width) | low.value,
            width,
        })
    }

    #[inline]
    fn check_width(&self, other: &Self) -> Result<(), BitsError> {
        if self.width != other.width {
            Err(BitsError::WidthMismatch {
                left: self.width,
                right: other.width,
            })
        } else {
            Ok(())
        }
    }
}

impl Default for BitVec {
    /// A single zero bit.
    fn default() -> Self {
        Self::zero(1)
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:0width$b}", self.value, width = self.width as usize)
    }
}

impl fmt::Binary for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.value, f)
    }
}

impl fmt::LowerHex for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.value, f)
    }
}

impl fmt::UpperHex for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.value, f)
    }
}

impl fmt::Octal for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.value, f)
    }
}

impl From<bool> for BitVec {
    fn from(b: bool) -> Self {
        Self::truncated(u64::from(b), 1)
    }
}

impl From<u8> for BitVec {
    fn from(v: u8) -> Self {
        Self::truncated(u64::from(v), 8)
    }
}

impl From<u16> for BitVec {
    fn from(v: u16) -> Self {
        Self::truncated(u64::from(v), 16)
    }
}

impl From<u32> for BitVec {
    fn from(v: u32) -> Self {
        Self::truncated(u64::from(v), 32)
    }
}

impl From<u64> for BitVec {
    fn from(v: u64) -> Self {
        Self::truncated(v, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_width() {
        assert_eq!(BitVec::new(0, 0), Err(BitsError::InvalidWidth { width: 0 }));
    }

    #[test]
    fn new_rejects_overwide_width() {
        assert_eq!(
            BitVec::new(0, 65),
            Err(BitsError::InvalidWidth { width: 65 })
        );
    }

    #[test]
    fn new_rejects_too_wide_value() {
        assert_eq!(
            BitVec::new(0x1ff, 8),
            Err(BitsError::ValueTooWide {
                value: 0x1ff,
                width: 8
            })
        );
    }

    #[test]
    fn new_accepts_full_width_value() {
        let v = BitVec::new(u64::MAX, 64).unwrap();
        assert_eq!(v.value(), u64::MAX);
        assert_eq!(v.width(), 64);
    }

    #[test]
    fn truncated_masks_high_bits() {
        let v = BitVec::truncated(0x1ff, 8);
        assert_eq!(v.value(), 0xff);
    }

    #[test]
    fn hamming_weight_counts_ones() {
        assert_eq!(BitVec::new(0b1011, 4).unwrap().hamming_weight(), 3);
        assert_eq!(BitVec::zero(8).hamming_weight(), 0);
        assert_eq!(BitVec::ones(8).hamming_weight(), 8);
    }

    #[test]
    fn hamming_distance_is_xor_weight() {
        let a = BitVec::new(0b1100, 4).unwrap();
        let b = BitVec::new(0b1010, 4).unwrap();
        assert_eq!(a.hamming_distance(&b).unwrap(), 2);
        assert_eq!(a.hamming_distance(&a).unwrap(), 0);
    }

    #[test]
    fn binary_ops_require_equal_widths() {
        let a = BitVec::zero(4);
        let b = BitVec::zero(8);
        assert!(matches!(
            a.xor(&b),
            Err(BitsError::WidthMismatch { left: 4, right: 8 })
        ));
        assert!(a.hamming_distance(&b).is_err());
    }

    #[test]
    fn wrapping_incr_wraps_at_width() {
        let a = BitVec::new(0xff, 8).unwrap();
        assert_eq!(a.wrapping_incr().value(), 0);
    }

    #[test]
    fn concat_places_high_above_low() {
        let hi = BitVec::new(0b101, 3).unwrap();
        let lo = BitVec::new(0b0011, 4).unwrap();
        let joined = hi.concat(&lo).unwrap();
        assert_eq!(joined.width(), 7);
        assert_eq!(joined.value(), 0b101_0011);
    }

    #[test]
    fn concat_rejects_overflow() {
        let a = BitVec::zero(40);
        let b = BitVec::zero(30);
        assert!(matches!(a.concat(&b), Err(BitsError::InvalidWidth { .. })));
    }

    #[test]
    fn display_pads_to_width() {
        let v = BitVec::new(0b101, 8).unwrap();
        assert_eq!(v.to_string(), "00000101");
    }

    #[test]
    fn from_primitives() {
        assert_eq!(BitVec::from(0xabu8).width(), 8);
        assert_eq!(BitVec::from(true).value(), 1);
        assert_eq!(BitVec::from(0xffffu16).value(), 0xffff);
        assert_eq!(BitVec::from(1u32).width(), 32);
        assert_eq!(BitVec::from(1u64).width(), 64);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            BitsError::InvalidWidth { width: 0 },
            BitsError::ValueTooWide { value: 9, width: 3 },
            BitsError::WidthMismatch { left: 1, right: 2 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
