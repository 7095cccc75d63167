//! Reproducibility guarantees: every stochastic stage of the pipeline is
//! seed-deterministic, so published experiment outputs can be regenerated
//! bit-for-bit.

use ipmark::core::matrix::{ExperimentConfig, IdentificationMatrix};
use ipmark::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_config(seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::reduced().expect("built-in");
    c.cycles = 64;
    c.params = CorrelationParams {
        n1: 30,
        n2: 400,
        k: 10,
        m: 5,
    };
    c.seed = seed;
    c
}

#[test]
fn whole_campaign_is_bit_reproducible() {
    let ips = vec![ip_a(), ip_c()];
    let m1 = IdentificationMatrix::run(&ips, &ips, &small_config(42)).expect("campaign");
    let m2 = IdentificationMatrix::run(&ips, &ips, &small_config(42)).expect("campaign");
    assert_eq!(m1, m2);
}

#[test]
fn different_master_seeds_give_different_campaigns() {
    let ips = vec![ip_a(), ip_c()];
    let m1 = IdentificationMatrix::run(&ips, &ips, &small_config(42)).expect("campaign");
    let m2 = IdentificationMatrix::run(&ips, &ips, &small_config(43)).expect("campaign");
    assert_ne!(m1, m2);
}

#[test]
fn fabrication_and_acquisition_are_deterministic() {
    let chain = default_chain().expect("built-in");
    let make = || {
        let mut die =
            FabricatedDevice::fabricate(&ip_d(), &ProcessVariation::typical(), 9).expect("die");
        die.acquisition(&chain, 32, 5, 77).expect("campaign")
    };
    let a = make();
    let b = make();
    for i in 0..5 {
        assert_eq!(
            a.trace(i).expect("in range"),
            b.trace(i).expect("in range"),
            "trace {i} differs between identical campaigns"
        );
    }
}

#[test]
fn correlation_process_depends_only_on_rng_stream() {
    let chain = default_chain().expect("built-in");
    let mut refd_die =
        FabricatedDevice::fabricate(&ip_b(), &ProcessVariation::typical(), 1).expect("die");
    let mut dut_die =
        FabricatedDevice::fabricate(&ip_b(), &ProcessVariation::typical(), 2).expect("die");
    let refd = refd_die.acquisition(&chain, 64, 40, 5).expect("campaign");
    let dut = dut_die.acquisition(&chain, 64, 400, 6).expect("campaign");
    let params = CorrelationParams {
        n1: 40,
        n2: 400,
        k: 10,
        m: 5,
    };
    let c1 = correlation_process(&refd, &dut, &params, &mut ChaCha8Rng::seed_from_u64(3))
        .expect("process");
    let c2 = correlation_process(&refd, &dut, &params, &mut ChaCha8Rng::seed_from_u64(3))
        .expect("process");
    let c3 = correlation_process(&refd, &dut, &params, &mut ChaCha8Rng::seed_from_u64(4))
        .expect("process");
    assert_eq!(c1, c2);
    assert_ne!(c1.coefficients(), c3.coefficients());
}

#[test]
fn trace_serialization_round_trips_campaign_output() {
    // Measured traces survive the binary format bit-exactly, so campaigns
    // can be archived and replayed.
    let chain = default_chain().expect("built-in");
    let mut die =
        FabricatedDevice::fabricate(&ip_a(), &ProcessVariation::typical(), 4).expect("die");
    let acq = die.acquisition(&chain, 16, 8, 12).expect("campaign");
    let block = acq.acquire_block().expect("materialize");
    let mut buf = Vec::new();
    ipmark::traces::io::write_block(&block, &mut buf).expect("write");
    let back = ipmark::traces::io::read_block(block.device(), buf.as_slice()).expect("read");
    assert_eq!(block, back);
    // Legacy IPMKTRC1 archives carry the same payload under the v1 magic.
    buf[..8].copy_from_slice(ipmark::traces::io::BINARY_MAGIC);
    let from_v1 = ipmark::traces::io::read_block_any(block.device(), buf.as_slice()).expect("v1");
    assert_eq!(block, from_v1);
}
