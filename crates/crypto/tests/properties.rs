//! Property-based tests for GF(2⁸) and the S-Box.

use ipmark_crypto::gf256::{add, inv, mul, pow};
use ipmark_crypto::sbox::sub_byte;
use proptest::prelude::*;

proptest! {
    #[test]
    fn gf_mul_commutative(a: u8, b: u8) {
        prop_assert_eq!(mul(a, b), mul(b, a));
    }

    #[test]
    fn gf_mul_associative(a: u8, b: u8, c: u8) {
        prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
    }

    #[test]
    fn gf_distributive(a: u8, b: u8, c: u8) {
        prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
    }

    #[test]
    fn gf_inverse_cancels(a in 1u8..=255) {
        prop_assert_eq!(mul(a, inv(a)), 1);
    }

    #[test]
    fn gf_pow_additive_in_exponent(a in 1u8..=255, e1 in 0u32..300, e2 in 0u32..300) {
        prop_assert_eq!(mul(pow(a, e1), pow(a, e2)), pow(a, e1 + e2));
    }

    #[test]
    fn sbox_injective(x: u8, y: u8) {
        prop_assume!(x != y);
        prop_assert_ne!(sub_byte(x), sub_byte(y));
    }
}
