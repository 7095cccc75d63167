//! Random machine generation — workload material for tests, fuzzing and
//! benchmarks beyond the paper's two counters.

use rand::Rng;

use crate::error::FsmError;
use crate::machine::{Fsm, FsmBuilder};

/// Configuration for random machine generation.
#[derive(Debug, Clone, Copy)]
pub struct RandomFsmConfig {
    /// Number of states.
    pub num_states: usize,
    /// Input alphabet size.
    pub num_inputs: usize,
    /// Output width in bits.
    pub output_width: u16,
    /// Whether to force every state reachable from the initial state by
    /// threading a random spanning path through the machine first.
    pub connected: bool,
}

impl Default for RandomFsmConfig {
    fn default() -> Self {
        Self {
            num_states: 16,
            num_inputs: 2,
            output_width: 8,
            connected: true,
        }
    }
}

/// Generates a random complete Mealy machine.
///
/// With `connected = true` every state is reachable from state 0 (a random
/// spanning chain is planted before the remaining transitions are filled
/// uniformly).
///
/// # Errors
///
/// Returns shape errors from the underlying builder.
pub fn random_fsm<R: Rng + ?Sized>(config: &RandomFsmConfig, rng: &mut R) -> Result<Fsm, FsmError> {
    let mut b = FsmBuilder::new(config.num_states, config.num_inputs, config.output_width)?;
    let out_mask = if config.output_width >= 64 {
        u64::MAX
    } else {
        (1u64 << config.output_width) - 1
    };

    let mut defined = vec![vec![false; config.num_inputs]; config.num_states];
    if config.connected {
        // Spanning chain: a random permutation visited in order, each hop on
        // a random input symbol.
        let mut order: Vec<usize> = (1..config.num_states).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut from = 0usize;
        for &to in &order {
            let input = rng.gen_range(0..config.num_inputs);
            b.transition(from, input, to, rng.gen::<u64>() & out_mask)?;
            defined[from][input] = true;
            from = to;
        }
    }
    for (state, row) in defined.iter().enumerate() {
        for (input, &is_defined) in row.iter().enumerate() {
            if !is_defined {
                b.transition(
                    state,
                    input,
                    rng.gen_range(0..config.num_states),
                    rng.gen::<u64>() & out_mask,
                )?;
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// States reachable from the reset state, in BFS order.
    fn reachable_states(fsm: &Fsm) -> Vec<usize> {
        let mut seen = vec![false; fsm.num_states()];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        seen[fsm.initial()] = true;
        queue.push_back(fsm.initial());
        while let Some(s) = queue.pop_front() {
            order.push(s);
            for i in 0..fsm.num_inputs() {
                let (next, _) = fsm.step(s, i).unwrap();
                if !seen[next] {
                    seen[next] = true;
                    queue.push_back(next);
                }
            }
        }
        order
    }

    #[test]
    fn reachability_finds_connected_part() {
        // 3 states, state 2 unreachable.
        let mut b = crate::machine::FsmBuilder::new(3, 1, 1).unwrap();
        b.transition(0, 0, 1, 0).unwrap();
        b.transition(1, 0, 0, 1).unwrap();
        b.transition(2, 0, 0, 1).unwrap();
        assert_eq!(reachable_states(&b.build().unwrap()), vec![0, 1]);
    }

    #[test]
    fn generated_machine_has_requested_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let config = RandomFsmConfig {
            num_states: 24,
            num_inputs: 3,
            output_width: 6,
            connected: true,
        };
        let fsm = random_fsm(&config, &mut rng).unwrap();
        assert_eq!(fsm.num_states(), 24);
        assert_eq!(fsm.num_inputs(), 3);
        assert_eq!(fsm.output_width(), 6);
        // All outputs within width.
        for s in 0..24 {
            for i in 0..3 {
                assert!(fsm.step(s, i).unwrap().1 < 64);
            }
        }
    }

    #[test]
    fn connected_machines_are_fully_reachable() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for seed in 0..20u64 {
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            let fsm = random_fsm(&RandomFsmConfig::default(), &mut r).unwrap();
            assert_eq!(
                reachable_states(&fsm).len(),
                fsm.num_states(),
                "seed {seed}"
            );
        }
        let _ = &mut rng;
    }

    proptest::proptest! {
        #[test]
        fn connected_random_machines_are_fully_reachable(
            (num_states, num_inputs, output_width) in (2usize..20, 1usize..4, 1u16..12),
            seed: u64,
        ) {
            let config = RandomFsmConfig { num_states, num_inputs, output_width, connected: true };
            let fsm = random_fsm(&config, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
            proptest::prop_assert_eq!(reachable_states(&fsm).len(), fsm.num_states());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = RandomFsmConfig::default();
        let a = random_fsm(&config, &mut ChaCha8Rng::seed_from_u64(7)).unwrap();
        let b = random_fsm(&config, &mut ChaCha8Rng::seed_from_u64(7)).unwrap();
        let c = random_fsm(&config, &mut ChaCha8Rng::seed_from_u64(8)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let bad = RandomFsmConfig {
            num_states: 0,
            ..RandomFsmConfig::default()
        };
        assert!(random_fsm(&bad, &mut rng).is_err());
    }
}
