//! Arithmetic in GF(2⁸) with the AES reduction polynomial
//! x⁸ + x⁴ + x³ + x + 1 (0x11b).
//!
//! Used to construct the AES S-Box from first principles (multiplicative
//! inverse followed by an affine map) so the lookup table shipped in
//! [`crate::sbox`] is *derived*, not transcribed.

/// The AES irreducible polynomial, minus the x⁸ term (used during reduction).
pub const AES_POLY: u8 = 0x1b;

/// Adds two field elements (XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two elements of GF(2⁸) modulo the AES polynomial.
///
/// # Examples
///
/// ```
/// use ipmark_crypto::gf256::mul;
///
/// // {53} · {CA} = {01} — the classic FIPS-197 example.
/// assert_eq!(mul(0x53, 0xca), 0x01);
/// ```
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    let mut a = a;
    let mut b = b;
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 == 1 {
            acc ^= a;
        }
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= AES_POLY;
        }
        b >>= 1;
    }
    acc
}

/// Raises `a` to the power `e` by square-and-multiply.
pub fn pow(a: u8, mut e: u32) -> u8 {
    let mut base = a;
    let mut acc = 1u8;
    while e != 0 {
        if e & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        e >>= 1;
    }
    acc
}

/// Multiplicative inverse in GF(2⁸); by convention `inv(0) = 0` (as the AES
/// S-Box requires).
///
/// Uses Fermat's little theorem for the group of order 255:
/// `a⁻¹ = a^254`.
///
/// # Examples
///
/// ```
/// use ipmark_crypto::gf256::{inv, mul};
///
/// assert_eq!(inv(0), 0);
/// for a in 1..=255u8 {
///     assert_eq!(mul(a, inv(a)), 1);
/// }
/// ```
#[inline]
pub fn inv(a: u8) -> u8 {
    if a == 0 {
        0
    } else {
        pow(a, 254)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn mul_commutative() {
        for a in (0..=255u8).step_by(7) {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul(b, a));
            }
        }
    }

    #[test]
    fn mul_associative_spot_checks() {
        for &(a, b, c) in &[(0x57, 0x83, 0x13), (0x02, 0x03, 0x04), (0xff, 0xfe, 0xfd)] {
            assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        }
    }

    #[test]
    fn mul_distributes_over_add() {
        for a in (0..=255u8).step_by(11) {
            for b in (0..=255u8).step_by(5) {
                let c = 0x39;
                assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
            }
        }
    }

    #[test]
    fn fips_197_multiplication_example() {
        // FIPS-197 §4.2: {57} · {83} = {c1}
        assert_eq!(mul(0x57, 0x83), 0xc1);
        // {57} · {13} = {fe}
        assert_eq!(mul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            let i = inv(a);
            assert_ne!(i, 0);
            assert_eq!(mul(a, i), 1, "a = {a:#x}");
        }
    }

    #[test]
    fn inverse_is_involution() {
        for a in 0..=255u8 {
            assert_eq!(inv(inv(a)), a);
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = 0x37;
        let mut acc = 1u8;
        for e in 0..20u32 {
            assert_eq!(pow(a, e), acc);
            acc = mul(acc, a);
        }
    }

    #[test]
    fn generator_three_has_full_order() {
        // {03} generates the multiplicative group of GF(2^8).
        let mut seen = std::collections::HashSet::new();
        let mut v = 1u8;
        for _ in 0..255 {
            assert!(seen.insert(v));
            v = mul(v, 3);
        }
        assert_eq!(v, 1);
        assert_eq!(seen.len(), 255);
    }
}
