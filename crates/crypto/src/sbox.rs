//! The AES substitution box.
//!
//! The paper's side-channel leakage component stores the AES S-Box in memory
//! (2⁸ entries) and routes the key-mixed FSM state through it: substitution
//! tables are "strongly non-linear functions" (§IV.A), which is what makes
//! the power signature key-dependent and collision-resistant.
//!
//! The table here is *constructed* at compile time from the algebraic
//! definition — multiplicative inverse in GF(2⁸) followed by the affine map —
//! and checked in the test suite against the FIPS-197 Figure 7 table,
//! written out there as a 256-byte literal.

use crate::gf256;

/// The affine constant of the AES S-Box ({63}).
pub const AFFINE_CONST: u8 = 0x63;

/// Applies the AES affine transformation to `x`:
/// `b'_i = b_i ⊕ b_{(i+4)%8} ⊕ b_{(i+5)%8} ⊕ b_{(i+6)%8} ⊕ b_{(i+7)%8} ⊕ c_i`.
#[inline]
pub fn affine(x: u8) -> u8 {
    let mut out = 0u8;
    for i in 0..8 {
        let bit = ((x >> i) & 1)
            ^ ((x >> ((i + 4) % 8)) & 1)
            ^ ((x >> ((i + 5) % 8)) & 1)
            ^ ((x >> ((i + 6) % 8)) & 1)
            ^ ((x >> ((i + 7) % 8)) & 1)
            ^ ((AFFINE_CONST >> i) & 1);
        out |= bit << i;
    }
    out
}

/// Computes one S-Box entry from the algebraic definition.
#[inline]
pub fn sbox_entry(x: u8) -> u8 {
    affine(gf256::inv(x))
}

const fn build_sbox() -> [u8; 256] {
    // const-compatible reimplementation of inv + affine.
    const fn cmul(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 == 1 {
                acc ^= a;
            }
            let carry = a & 0x80 != 0;
            a <<= 1;
            if carry {
                a ^= 0x1b;
            }
            b >>= 1;
        }
        acc
    }
    const fn cinv(a: u8) -> u8 {
        if a == 0 {
            return 0;
        }
        // a^254 by square-and-multiply.
        let mut base = a;
        let mut e = 254u32;
        let mut acc = 1u8;
        while e != 0 {
            if e & 1 == 1 {
                acc = cmul(acc, base);
            }
            base = cmul(base, base);
            e >>= 1;
        }
        acc
    }
    const fn caffine(x: u8) -> u8 {
        let mut out = 0u8;
        let mut i = 0;
        while i < 8 {
            let bit = ((x >> i) & 1)
                ^ ((x >> ((i + 4) % 8)) & 1)
                ^ ((x >> ((i + 5) % 8)) & 1)
                ^ ((x >> ((i + 6) % 8)) & 1)
                ^ ((x >> ((i + 7) % 8)) & 1)
                ^ ((0x63u8 >> i) & 1);
            out |= bit << i;
            i += 1;
        }
        out
    }
    let mut table = [0u8; 256];
    let mut x = 0usize;
    while x < 256 {
        table[x] = caffine(cinv(x as u8));
        x += 1;
    }
    table
}

/// The AES S-Box, derived at compile time from the algebraic definition.
pub const AES_SBOX: [u8; 256] = build_sbox();

/// Forward substitution: `SBox[x]`.
#[inline]
pub fn sub_byte(x: u8) -> u8 {
    AES_SBOX[x as usize]
}

/// The S-Box as a `Vec<u64>` table, the format the netlist memory
/// components consume.
///
/// # Examples
///
/// ```
/// use ipmark_crypto::sbox::{sbox_table_u64, AES_SBOX};
///
/// let t = sbox_table_u64();
/// assert_eq!(t.len(), 256);
/// assert_eq!(t[0x53], AES_SBOX[0x53] as u64);
/// ```
pub fn sbox_table_u64() -> Vec<u64> {
    AES_SBOX.iter().map(|&b| u64::from(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Figure 7, transcribed row by row (row = high nibble,
    /// column = low nibble). It shares no code with `build_sbox`, so it
    /// checks the algebra rather than restating it.
    #[rustfmt::skip]
    const FIPS197_FIGURE7: [u8; 256] = [
        0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
        0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
        0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
        0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
        0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
        0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
        0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
        0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
        0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
        0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
        0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
        0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
        0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
        0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
        0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
        0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
    ];

    #[test]
    fn sbox_matches_the_fips197_figure7_table() {
        assert_eq!(AES_SBOX, FIPS197_FIGURE7);
        for x in 0..=255u8 {
            assert_eq!(sub_byte(x), FIPS197_FIGURE7[x as usize], "x = {x:#04x}");
        }
    }

    #[test]
    fn const_table_matches_runtime_definition() {
        for x in 0..=255u8 {
            assert_eq!(AES_SBOX[x as usize], sbox_entry(x), "x = {x:#x}");
        }
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for x in 0..=255u8 {
            let y = sub_byte(x);
            assert!(!seen[y as usize], "duplicate output {y:#x}");
            seen[y as usize] = true;
        }
    }

    #[test]
    fn sbox_has_no_fixed_points() {
        for x in 0..=255u8 {
            assert_ne!(sub_byte(x), x);
            // Also no "anti-fixed" points:
            assert_ne!(sub_byte(x), !x);
        }
    }

    #[test]
    fn sbox_nonlinearity_differs_from_any_affine_map() {
        // If SBox were affine, SBox(x) ^ SBox(y) ^ SBox(x^y) ^ SBox(0) = 0
        // for all x, y. Count violations — a strongly non-linear map violates
        // this almost everywhere.
        let mut violations = 0u32;
        let s0 = sub_byte(0);
        for x in 0..=255u8 {
            for y in 0..=255u8 {
                if sub_byte(x) ^ sub_byte(y) ^ sub_byte(x ^ y) ^ s0 != 0 {
                    violations += 1;
                }
            }
        }
        assert!(violations > 60_000, "violations = {violations}");
    }

    #[test]
    fn avalanche_mean_output_distance_near_half() {
        // Flipping one input bit flips ~4 output bits on average.
        let mut total = 0u32;
        let mut count = 0u32;
        for x in 0..=255u8 {
            for bit in 0..8 {
                let d = (sub_byte(x) ^ sub_byte(x ^ (1 << bit))).count_ones();
                total += d;
                count += 1;
            }
        }
        let mean = f64::from(total) / f64::from(count);
        assert!((3.5..=4.5).contains(&mean), "mean avalanche = {mean}");
    }

    #[test]
    fn u64_table_matches() {
        let t = sbox_table_u64();
        for (i, &w) in t.iter().enumerate() {
            assert_eq!(w, u64::from(AES_SBOX[i]));
        }
    }
}
