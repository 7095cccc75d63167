//! Watermark keys.

use std::fmt;

use serde::{Deserialize, Serialize};

/// An 8-bit watermark key `Kw`, XOR-mixed with the FSM state before the
/// S-Box lookup (Fig. 3 of the paper).
///
/// Two IPs with the *same* FSM but *different* keys produce uncorrelated
/// S-Box-output sequences, which is how the key "reduces the risk of
/// collision between different IPs with the same FSM" (§I).
///
/// # Examples
///
/// ```
/// use ipmark_core::WatermarkKey;
///
/// let kw = WatermarkKey::new(0xa7);
/// assert_eq!(kw.value(), 0xa7);
/// assert_eq!(kw.to_string(), "Kw(0xa7)");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct WatermarkKey(u8);

impl WatermarkKey {
    /// Wraps a key byte.
    pub fn new(value: u8) -> Self {
        Self(value)
    }

    /// `const` constructor for compile-time key constants.
    pub const fn from_const(value: u8) -> Self {
        Self(value)
    }

    /// The key byte.
    pub fn value(&self) -> u8 {
        self.0
    }

    /// Mixes the key into an FSM state byte (the XOR stage of the leakage
    /// component).
    pub fn mix(&self, state: u8) -> u8 {
        state ^ self.0
    }
}

impl fmt::Display for WatermarkKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kw({:#04x})", self.0)
    }
}

impl From<u8> for WatermarkKey {
    fn from(v: u8) -> Self {
        Self(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_self_inverse() {
        let kw = WatermarkKey::new(0x3c);
        for s in 0..=255u8 {
            assert_eq!(kw.mix(kw.mix(s)), s);
        }
    }

    #[test]
    fn display_and_conversion() {
        let kw: WatermarkKey = 0xffu8.into();
        assert_eq!(kw.to_string(), "Kw(0xff)");
        assert_eq!(WatermarkKey::default().value(), 0);
    }
}
