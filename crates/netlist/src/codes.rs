//! Binary → Gray code conversion.
//!
//! Gray code is the reflected binary code in which successive values differ
//! in exactly one bit — the property that makes an 8-bit Gray counter the
//! paper's minimal-leakage (worst-case) FSM.

/// Encodes a binary value as its reflected Gray code.
///
/// # Examples
///
/// ```
/// use ipmark_netlist::codes::gray_encode;
///
/// assert_eq!(gray_encode(0), 0);
/// assert_eq!(gray_encode(1), 1);
/// assert_eq!(gray_encode(2), 3);
/// assert_eq!(gray_encode(3), 2);
/// ```
#[inline]
pub fn gray_encode(n: u64) -> u64 {
    n ^ (n >> 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_permutes_the_full_u16_range() {
        let mut seen = vec![false; 1 << 16];
        for n in 0..=u16::MAX as u64 {
            let g = gray_encode(n) as usize;
            assert!(!seen[g], "n = {n}");
            seen[g] = true;
        }
    }

    #[test]
    fn successive_codes_differ_in_one_bit() {
        for n in 0..4096u64 {
            let d = gray_encode(n) ^ gray_encode(n + 1);
            assert_eq!(d.count_ones(), 1, "n = {n}");
        }
    }

    #[test]
    fn wraparound_differs_in_one_bit_for_power_of_two_period() {
        // An 8-bit Gray counter also toggles exactly one bit on wraparound
        // 255 -> 0, which is what keeps its switching activity perfectly flat.
        let last = gray_encode(255) & 0xff;
        let first = gray_encode(0) & 0xff;
        assert_eq!((last ^ first).count_ones(), 1);
    }

    #[test]
    fn known_values() {
        let expected = [0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100];
        for (n, e) in expected.iter().enumerate() {
            assert_eq!(gray_encode(n as u64), *e);
        }
    }
}
