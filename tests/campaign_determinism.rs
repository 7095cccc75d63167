//! Determinism and failure-mode contract of the X10 campaign engine
//! (DESIGN.md §12): per-cell seed derivation is injective over the grid,
//! campaign output is bit-stable across thread counts and shard orderings,
//! the zero-drift/zero-jitter scenario is bit-identical to the unmodified
//! pipeline, and every misconfiguration surfaces as a typed error — never
//! a panic.

use std::collections::BTreeSet;

use ipmark::attacks::{AdversaryModel, AttackError, DutBuild};
use ipmark::core::campaign::{cell_seed, CampaignConfig, CellSeeds, ScenarioGrid};
use ipmark::core::ip::{chain_with_noise, ip_b, DEFAULT_NOISE_SIGMA};
use ipmark::core::{CoreError, CorrelationParams, DistinguisherKind};
use ipmark::power::{DeviceModel, ProcessVariation, SimulatedAcquisition, ThermalDrift};
use ipmark::traces::TraceSource;
use ipmark_bench::campaign::{Campaign, CampaignError, Pool, ScenarioSource};
use proptest::prelude::*;

/// A cheap 8-cell campaign (2 corners × 2 drift slopes × 2 jitter windows)
/// sized so the invariance tests stay fast in debug builds.
fn small_campaign() -> Campaign {
    Campaign::new(
        ip_b(),
        ScenarioGrid {
            corners: vec![ProcessVariation::none(), ProcessVariation::typical()],
            noise_sigmas: vec![DEFAULT_NOISE_SIGMA],
            drift_slopes: vec![0.0, 0.1],
            jitters: vec![0, 1],
            adversaries: vec![AdversaryModel::Honest],
            replicas: 1,
        },
        CampaignConfig {
            params: CorrelationParams {
                n1: 12,
                n2: 60,
                k: 4,
                m: 3,
            },
            cycles: 32,
            master_seed: 7,
        },
    )
}

// ---------------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------------

#[test]
fn cell_seed_is_injective_over_a_fleet_sized_grid() {
    for master in [0, 2014, u64::MAX] {
        let seeds: BTreeSet<u64> = (0..8192).map(|i| cell_seed(master, i)).collect();
        assert_eq!(seeds.len(), 8192, "collision under master seed {master}");
    }
}

#[test]
fn role_streams_are_distinct_within_and_across_cells() {
    let a = CellSeeds::derive(2014, 0);
    let b = CellSeeds::derive(2014, 1);
    let mut all: Vec<u64> = a.as_array().into_iter().chain(b.as_array()).collect();
    let unique: BTreeSet<u64> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "role stream collision");
    all.sort_unstable();
}

proptest! {
    /// Distinct cell indices under the same master seed never share a cell
    /// seed, and derivation is a pure function of `(master, index)`.
    #[test]
    fn cell_seeds_injective_and_stable(
        master in any::<u64>(),
        i in 0u64..1_000_000,
        j in 0u64..1_000_000,
    ) {
        prop_assert_eq!(cell_seed(master, i), cell_seed(master, i));
        prop_assert_eq!(
            CellSeeds::derive(master, i).as_array(),
            CellSeeds::derive(master, i).as_array()
        );
        if i != j {
            prop_assert_ne!(cell_seed(master, i), cell_seed(master, j));
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-count and shard-order invariance
// ---------------------------------------------------------------------------

#[test]
fn campaign_reports_are_bit_identical_across_thread_counts() {
    let campaign = small_campaign();
    let serial = campaign.run(&Pool::with_threads(1)).expect("serial run");
    for threads in [2, 5] {
        let sharded = campaign
            .run(&Pool::with_threads(threads))
            .expect("sharded run");
        assert_eq!(
            serial, sharded,
            "campaign diverged at {threads} worker threads"
        );
    }
}

#[test]
fn cells_rerun_in_reverse_order_match_the_sharded_report() {
    let campaign = small_campaign();
    let report = campaign.run(&Pool::from_env()).expect("campaign run");
    let cells = campaign.grid().cells().expect("cells");
    for coord in cells.iter().rev() {
        let outcome = campaign
            .run_cell(coord, &Pool::with_threads(1))
            .expect("cell rerun");
        let via_report = &report.outcomes()[coord.index as usize];
        assert_eq!(
            outcome, *via_report,
            "cell {} drifted when re-run out of order",
            coord.index
        );
    }
}

// ---------------------------------------------------------------------------
// Zero-scenario bit identity (satellite 4)
// ---------------------------------------------------------------------------

#[test]
fn zero_drift_zero_jitter_scenario_is_the_raw_acquisition() {
    let ip = ip_b();
    let build = DutBuild::genuine(&ip).expect("genuine build");
    let mut circuit = build.spec().circuit().expect("circuit");
    let device = DeviceModel::sample(
        "bitident@die",
        &build.nominal_model().expect("model"),
        &ProcessVariation::typical(),
        41,
    )
    .expect("device");
    let chain = chain_with_noise(DEFAULT_NOISE_SIGMA).expect("chain");
    let raw = SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 48, 20, 97)
        .expect("acquisition");

    let wrapped = ScenarioSource::new(
        raw.clone(),
        ThermalDrift::new(0.0).expect("zero drift"),
        0xdead_beef, // the jitter seed must be irrelevant at window 0
        0,
    );
    assert_eq!(wrapped.num_traces(), raw.num_traces());
    assert_eq!(wrapped.trace_len(), raw.trace_len());

    let len = raw.trace_len();
    let mut expected = vec![0.0; len];
    let mut got = vec![0.0; len];
    for index in 0..raw.num_traces() {
        raw.trace_into(index, &mut expected).expect("raw trace");
        wrapped.trace_into(index, &mut got).expect("scenario trace");
        for (sample, (e, g)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(
                e.to_bits(),
                g.to_bits(),
                "trace {index} sample {sample} not bit-identical"
            );
        }

        let mut acc_raw = vec![0.25; len];
        let mut acc_wrapped = vec![0.25; len];
        raw.accumulate(index, &mut acc_raw).expect("raw accumulate");
        wrapped
            .accumulate(index, &mut acc_wrapped)
            .expect("scenario accumulate");
        for (e, g) in acc_raw.iter().zip(&acc_wrapped) {
            assert_eq!(e.to_bits(), g.to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// Failure modes (satellite 3): typed errors, never panics
// ---------------------------------------------------------------------------

fn expect_invalid_params(result: Result<(), CampaignError>, what: &str) {
    match result {
        Err(CampaignError::Core(CoreError::InvalidParams { .. })) => {}
        other => panic!("{what}: expected InvalidParams, got {other:?}"),
    }
}

#[test]
fn empty_grid_axes_are_typed_errors() {
    for wipe in [0usize, 1, 2, 3, 4, 5] {
        let mut campaign = small_campaign();
        let grid = campaign.grid_mut();
        match wipe {
            0 => grid.corners.clear(),
            1 => grid.noise_sigmas.clear(),
            2 => grid.drift_slopes.clear(),
            3 => grid.jitters.clear(),
            4 => grid.adversaries.clear(),
            _ => grid.replicas = 0,
        }
        expect_invalid_params(campaign.validate(), "wiped axis");
        assert!(campaign.grid().is_empty());
    }
}

#[test]
fn undersized_averaging_groups_are_rejected_not_panicked() {
    let mut campaign = small_campaign();
    campaign.config_mut().params.m = 1;
    expect_invalid_params(campaign.validate(), "m = 1");
    let err = campaign
        .run(&Pool::with_threads(1))
        .expect_err("run must refuse m = 1");
    assert!(err.to_string().contains("m ≥ 2"), "got: {err}");
}

#[test]
fn zero_cycles_and_bad_axis_values_are_rejected() {
    let mut campaign = small_campaign();
    campaign.config_mut().cycles = 0;
    expect_invalid_params(campaign.validate(), "cycles = 0");

    let mut campaign = small_campaign();
    campaign.grid_mut().noise_sigmas = vec![-1.0];
    expect_invalid_params(campaign.validate(), "negative sigma");

    let mut campaign = small_campaign();
    campaign.grid_mut().drift_slopes = vec![-1.0];
    expect_invalid_params(campaign.validate(), "slope ≤ -1");

    let mut campaign = small_campaign();
    campaign.grid_mut().adversaries = vec![AdversaryModel::GuessedKey { bits_known: 9 }];
    match campaign.validate() {
        Err(CampaignError::Attack(AttackError::Config(_))) => {}
        other => panic!("expected adversary config error, got {other:?}"),
    }
}

#[test]
fn single_cell_campaign_runs_and_aggregates() {
    let mut campaign = small_campaign();
    {
        let grid = campaign.grid_mut();
        grid.corners.truncate(1);
        grid.drift_slopes.truncate(1);
        grid.jitters.truncate(1);
    }
    assert_eq!(campaign.grid().len(), 1);
    let report = campaign.run(&Pool::from_env()).expect("single-cell run");
    assert_eq!(report.outcomes().len(), 1);
    let roc = report
        .adversary_roc(0, DistinguisherKind::Mean)
        .expect("one positive and one negative score");
    assert!(roc.auc().is_finite());
}

/// `bits_known = |Kw|` means the adversary *has* the key: the forged-key
/// negative device is the genuine device, so the distinguishers see two
/// exchangeable fleets and the AUC collapses toward chance.
#[test]
fn fully_guessed_key_drives_auc_to_chance() {
    let campaign = Campaign::new(
        ip_b(),
        ScenarioGrid {
            corners: vec![ProcessVariation::typical()],
            noise_sigmas: vec![DEFAULT_NOISE_SIGMA / 2.0],
            drift_slopes: vec![0.0],
            jitters: vec![0],
            adversaries: vec![
                AdversaryModel::Honest,
                AdversaryModel::GuessedKey { bits_known: 8 },
            ],
            replicas: 12,
        },
        CampaignConfig {
            params: CorrelationParams {
                n1: 16,
                n2: 80,
                k: 4,
                m: 4,
            },
            cycles: 32,
            master_seed: 99,
        },
    );
    let report = campaign.run(&Pool::from_env()).expect("campaign run");
    let honest = report
        .adversary_roc(0, DistinguisherKind::Mean)
        .expect("honest roc")
        .auc();
    let omniscient = report
        .adversary_roc(1, DistinguisherKind::Mean)
        .expect("guessed-key roc")
        .auc();
    assert!(
        (0.1..=0.9).contains(&omniscient),
        "bits_known = 8 should collapse to chance, got AUC {omniscient:.3}"
    );
    assert!(
        honest > omniscient,
        "honest ({honest:.3}) must beat the key-holding forger ({omniscient:.3})"
    );
}
