//! CPA consumes a contiguous [`TraceBlock`] arena through the same generic
//! [`TraceSource`] plumbing as the on-demand [`SimulatedAcquisition`] it
//! was materialized from — and produces bit-identical scores either way.
//! Materializing a campaign must never move a single bit of an attack
//! result.
//!
//! [`TraceSource`]: ipmark_traces::TraceSource

use ipmark_attacks::cpa::recover_key;
use ipmark_core::ip::{default_chain, FabricatedDevice, IpSpec, SAMPLES_PER_CYCLE};
use ipmark_core::{CounterKind, Substitution, WatermarkKey};
use ipmark_power::{ProcessVariation, SimulatedAcquisition};
use ipmark_traces::TraceBlock;

fn campaign(spec: &IpSpec, cycles: usize, n: usize, die_seed: u64) -> SimulatedAcquisition {
    let chain = default_chain().unwrap();
    let mut die =
        FabricatedDevice::fabricate(spec, &ProcessVariation::typical(), die_seed).unwrap();
    die.acquisition(&chain, cycles, n, 7).unwrap()
}

#[test]
fn cpa_over_a_block_is_bitwise_equal_to_cpa_on_demand() {
    let kw = WatermarkKey::new(0x5b);
    let spec = IpSpec::watermarked("target", CounterKind::Gray, kw);
    let acq = campaign(&spec, 256, 120, 3);
    let block: TraceBlock = acq.acquire_block().unwrap();

    let cpa = |source: &dyn ipmark_traces::TraceSource| {
        recover_key(
            source,
            120,
            SAMPLES_PER_CYCLE,
            CounterKind::Gray,
            Substitution::AesSbox,
            Some(kw),
        )
        .unwrap()
    };
    let from_block = cpa(&block);
    let on_demand = cpa(&acq);

    assert_eq!(from_block.best_key, on_demand.best_key);
    assert_eq!(from_block.true_key_rank, on_demand.true_key_rank);
    for (a, b) in from_block.scores.iter().zip(&on_demand.scores) {
        assert_eq!(a.to_bits(), b.to_bits(), "CPA guess scores diverged");
    }
    assert_eq!(from_block.best_key, kw);
}
