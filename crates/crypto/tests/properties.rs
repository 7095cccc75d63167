//! Property-based tests for the S-Box.

use ipmark_crypto::sbox::sub_byte;
use proptest::prelude::*;

proptest! {
    #[test]
    fn sbox_injective(x: u8, y: u8) {
        prop_assume!(x != y);
        prop_assert_ne!(sub_byte(x), sub_byte(y));
    }
}
