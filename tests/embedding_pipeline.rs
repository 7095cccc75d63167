//! Cross-crate pipeline: a *custom* FSM (not one of the paper's counters)
//! watermarked with the leakage-component scheme and verified through the
//! full power pipeline, using the `ipmark-fsm` netlist adapter.

use ipmark::core::{correlation_process, CorrelationParams, Distinguisher, LowerVariance};
use ipmark::crypto::sbox::sbox_table_u64;
use ipmark::fsm::{Fsm, FsmComponent};
use ipmark::netlist::comb::{Constant, Xor2};
use ipmark::netlist::memory::SyncRom;
use ipmark::netlist::{BitVec, Circuit, CircuitBuilder};
use ipmark::power::{
    ComponentWeights, DeviceModel, ProcessVariation, SimulatedAcquisition, WeightedComponentModel,
};
use ipmark::prelude::default_chain;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A small custom controller: a 5-state machine cycling with a twist.
fn custom_fsm() -> Fsm {
    let mut b = ipmark::fsm::FsmBuilder::new(5, 1, 8).expect("shape");
    let hops = [
        (0, 2, 0x1d),
        (1, 3, 0x44),
        (2, 4, 0x9a),
        (3, 0, 0x07),
        (4, 1, 0xe3),
    ];
    for (s, next, out) in hops {
        b.transition(s, 0, next, out).expect("transition");
    }
    b.build().expect("complete")
}

/// A richer 41-state controller whose output sequence exercises the whole
/// S-Box address space (period 41 — long enough for informative traces).
fn bigger_fsm() -> Fsm {
    let n = 41;
    let mut b = ipmark::fsm::FsmBuilder::new(n, 1, 8).expect("shape");
    for s in 0..n {
        let out = ((s * 37 + 11) % 256) as u64;
        b.transition(s, 0, (s + 1) % n, out).expect("transition");
    }
    b.build().expect("complete")
}

/// Watermark an FSM exactly like Fig. 3: its output feeds
/// XOR(Kw) → S-Box RAM → H.
fn watermarked_fsm_circuit(machine: Fsm, key: u8) -> Circuit {
    let mut b = CircuitBuilder::new();
    let zero = b.add("in", Constant::new(BitVec::zero(1)));
    let fsm = b.add("fsm", FsmComponent::new(machine).expect("machine"));
    let kw = b.add("kw", Constant::new(BitVec::truncated(u64::from(key), 8)));
    let xor = b.add("mix", Xor2::new(8));
    let sbox = b.add("sbox", SyncRom::new(sbox_table_u64(), 8, 0).expect("table"));
    b.connect_ports(zero, 0, fsm, 0).expect("wire");
    b.connect_ports(fsm, 1, xor, 0).expect("wire");
    b.connect_ports(kw, 0, xor, 1).expect("wire");
    b.connect_ports(xor, 0, sbox, 0).expect("wire");
    b.expose(sbox, 0, "h").expect("output");
    b.build().expect("valid netlist")
}

fn nominal_model() -> WeightedComponentModel {
    // Components: [in, fsm, kw, mix, sbox].
    WeightedComponentModel::new(
        5.0,
        vec![
            ComponentWeights::default(),
            // The FSM contributes both its state register (state_hd) and its
            // registered Mealy output on port 1 (via output_hd).
            ComponentWeights {
                state_hd: 0.8,
                output_hd: 0.5,
                ..ComponentWeights::default()
            },
            ComponentWeights::default(),
            ComponentWeights {
                output_hd: 0.3,
                ..ComponentWeights::default()
            },
            ComponentWeights {
                state_hd: 1.0,
                state_hw: 0.2,
                ..ComponentWeights::default()
            },
        ],
    )
}

fn watermarked_custom_circuit(key: u8) -> Circuit {
    watermarked_fsm_circuit(custom_fsm(), key)
}

fn acquisition(key: u8, die_seed: u64, n: usize) -> SimulatedAcquisition {
    let mut circuit = watermarked_fsm_circuit(bigger_fsm(), key);
    let device = DeviceModel::sample(
        format!("custom-{key:#x}@{die_seed}"),
        &nominal_model(),
        &ProcessVariation::typical(),
        die_seed,
    )
    .expect("device");
    let chain = default_chain().expect("built-in");
    // Three full periods of the 41-state machine.
    SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 123, n, die_seed * 7 + 1)
        .expect("campaign")
}

#[test]
fn custom_fsm_watermark_verifies_through_the_power_pipeline() {
    let params = CorrelationParams {
        n1: 100,
        n2: 3_000,
        k: 15,
        m: 20,
    };
    let refd = acquisition(0x5a, 1, params.n1);
    let genuine = acquisition(0x5a, 2, params.n2);
    let rekeyed = acquisition(0xc4, 3, params.n2);

    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let c_match = correlation_process(&refd, &genuine, &params, &mut rng).expect("process");
    let c_other = correlation_process(&refd, &rekeyed, &params, &mut rng).expect("process");

    assert!(c_match.mean() > c_other.mean());
    assert!(c_match.variance() < c_other.variance());
    let decision = LowerVariance
        .decide(&[c_match, c_other])
        .expect("two candidates");
    assert_eq!(decision.best, 0);
}

#[test]
fn custom_circuit_h_sequence_is_key_dependent_and_deterministic() {
    let mut c1 = watermarked_custom_circuit(0x5a);
    let mut c2 = watermarked_custom_circuit(0x5a);
    let mut c3 = watermarked_custom_circuit(0xc4);
    let seq = |c: &mut Circuit| -> Vec<u64> {
        (0..30)
            .map(|_| c.step().unwrap().outputs[0].value())
            .collect()
    };
    let s1 = seq(&mut c1);
    let s2 = seq(&mut c2);
    let s3 = seq(&mut c3);
    assert_eq!(s1, s2, "same key must give identical H sequences");
    assert_ne!(s1, s3, "different keys must give different H sequences");
}

#[test]
fn adapter_activity_feeds_the_power_model() {
    let mut circuit = watermarked_custom_circuit(0x11);
    let records = circuit.run_free(50).expect("simulation");
    // After warm-up, the FSM + S-Box register must toggle every cycle.
    let active = records[5..].iter().all(|r| r.total_state_hd() > 0);
    assert!(active, "watermarked circuit must show switching activity");
}
