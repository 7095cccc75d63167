//! Property-based tests for the netlist substrate.

use ipmark_netlist::codes::{gray_decode, gray_encode};
use ipmark_netlist::comb::{Constant, Xor2};
use ipmark_netlist::seq::{BinaryCounter, GrayCounter, Register};
use ipmark_netlist::{BitVec, CircuitBuilder, Component};
use proptest::prelude::*;

fn bitvec_pair_same_width() -> impl Strategy<Value = (BitVec, BitVec)> {
    (1u16..=64).prop_flat_map(|w| {
        let max = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        ((0..=max), (0..=max))
            .prop_map(move |(a, b)| (BitVec::new(a, w).unwrap(), BitVec::new(b, w).unwrap()))
    })
}

proptest! {
    #[test]
    fn hamming_distance_is_symmetric((a, b) in bitvec_pair_same_width()) {
        prop_assert_eq!(
            a.hamming_distance(&b).unwrap(),
            b.hamming_distance(&a).unwrap()
        );
    }

    #[test]
    fn hamming_distance_triangle((a, b) in bitvec_pair_same_width(), c in 0u64..=u64::MAX) {
        let c = BitVec::truncated(c, a.width());
        let ab = a.hamming_distance(&b).unwrap();
        let bc = b.hamming_distance(&c).unwrap();
        let ac = a.hamming_distance(&c).unwrap();
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn xor_distance_equals_weight((a, b) in bitvec_pair_same_width()) {
        prop_assert_eq!(
            a.hamming_distance(&b).unwrap(),
            a.xor(&b).unwrap().hamming_weight()
        );
    }

    #[test]
    fn concat_places_high_above_low((a, b) in bitvec_pair_same_width()) {
        prop_assume!(a.width() <= 32);
        let joined = a.concat(&b).unwrap();
        prop_assert_eq!(joined.width(), a.width() + b.width());
        prop_assert_eq!(joined.value(), (a.value() << b.width()) | b.value());
    }

    #[test]
    fn gray_round_trip(n in 0u64..=u32::MAX as u64) {
        prop_assert_eq!(gray_decode(gray_encode(n)), n);
    }

    #[test]
    fn gray_adjacent_values_one_bit_apart(n in 0u64..u32::MAX as u64) {
        let d = gray_encode(n) ^ gray_encode(n + 1);
        prop_assert_eq!(d.count_ones(), 1);
    }

    #[test]
    fn binary_counter_sequence_matches_arithmetic(
        width in 2u16..=16,
        init in 0u64..256,
        steps in 1usize..64,
    ) {
        prop_assume!(init < (1 << width));
        let mut c = BinaryCounter::new(width, init).unwrap();
        for s in 1..=steps {
            c.clock(&[]).unwrap();
            let expected = (init + s as u64) % (1 << width);
            prop_assert_eq!(c.count(), expected);
        }
    }

    #[test]
    fn gray_counter_state_is_encoded_position(
        width in 2u16..=16,
        steps in 1usize..64,
    ) {
        let mut c = GrayCounter::new(width, 0).unwrap();
        for s in 1..=steps {
            c.clock(&[]).unwrap();
            let pos = s as u64 % (1 << width);
            prop_assert_eq!(c.state().unwrap().value(), gray_encode(pos) & ((1 << width) - 1));
        }
    }

    #[test]
    fn circuit_simulation_is_deterministic_after_reset(
        width in 2u16..=12,
        key in 0u64..256,
        cycles in 1usize..40,
    ) {
        prop_assume!(key < (1 << width));
        let mut b = CircuitBuilder::new();
        let cnt = b.add("cnt", BinaryCounter::new(width, 0).unwrap());
        let k = b.add("k", Constant::new(BitVec::new(key, width).unwrap()));
        let x = b.add("x", Xor2::new(width));
        let r = b.add("r", Register::new(BitVec::zero(width)));
        b.connect_ports(cnt, 0, x, 0).unwrap();
        b.connect_ports(k, 0, x, 1).unwrap();
        b.connect_ports(x, 0, r, 0).unwrap();
        b.expose(r, 0, "q").unwrap();
        let mut circuit = b.build().unwrap();

        let run1: Vec<_> = (0..cycles).map(|_| circuit.step().unwrap().activity).collect();
        circuit.reset();
        let run2: Vec<_> = (0..cycles).map(|_| circuit.step().unwrap().activity).collect();
        prop_assert_eq!(run1, run2);
    }

    #[test]
    fn registered_xor_matches_direct_computation(
        key in 0u64..256,
        cycles in 2usize..64,
    ) {
        let mut b = CircuitBuilder::new();
        let cnt = b.add("cnt", BinaryCounter::new(8, 0).unwrap());
        let k = b.add("k", Constant::new(BitVec::truncated(key, 8)));
        let x = b.add("x", Xor2::new(8));
        let r = b.add("r", Register::new(BitVec::zero(8)));
        b.connect_ports(cnt, 0, x, 0).unwrap();
        b.connect_ports(k, 0, x, 1).unwrap();
        b.connect_ports(x, 0, r, 0).unwrap();
        b.expose(r, 0, "q").unwrap();
        let mut circuit = b.build().unwrap();
        for c in 0..cycles {
            let out = circuit.step().unwrap().outputs[0].value();
            let expected = if c == 0 { 0 } else { ((c as u64 - 1) ^ key) & 0xff };
            prop_assert_eq!(out, expected, "cycle {}", c);
        }
    }
}
