//! Property-based tests for the FSM toolkit.

use ipmark_fsm::analysis::periodicity;
use ipmark_fsm::generate::{random_fsm, RandomFsmConfig};
use ipmark_fsm::Fsm;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_config() -> impl Strategy<Value = RandomFsmConfig> {
    (2usize..20, 1usize..4, 1u16..12).prop_map(|(s, i, w)| RandomFsmConfig {
        num_states: s,
        num_inputs: i,
        output_width: w,
        connected: true,
    })
}

proptest! {
    #[test]
    fn periodicity_tail_and_period_are_consistent(config in arb_config(), seed: u64) {
        let fsm = random_fsm(&config, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let (tail, period) = periodicity(&fsm, 0).unwrap();
        prop_assert!(period >= 1);
        prop_assert!(tail + period <= fsm.num_states());
        // After the tail, the trajectory repeats with the given period.
        let mut traj = vec![fsm.initial()];
        for _ in 0..tail + period {
            let last = traj[traj.len() - 1];
            traj.push(fsm.step(last, 0).unwrap().0);
        }
        prop_assert_eq!(traj[tail], traj[tail + period]);
    }

    #[test]
    fn counters_have_full_period(bits in 2u16..10) {
        let fsm = Fsm::binary_counter(bits).unwrap();
        prop_assert_eq!(periodicity(&fsm, 0).unwrap(), (0, 1usize << bits));
    }
}
