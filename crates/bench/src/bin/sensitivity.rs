//! Extension **X2**: sensitivity of the verification to measurement noise
//! and to CMOS process variation.
//!
//! The paper claims insensitivity to process variation (its RefD and DUT
//! boards are different FPGAs). This experiment sweeps both the per-sample
//! noise σ and the process-variation corner, and reports when
//! identification starts to fail — locating the scheme's operating
//! envelope rather than a single data point.

use ipmark_bench::quick_mode;
use ipmark_core::matrix::{ExperimentConfig, IdentificationMatrix};
use ipmark_core::verify::CorrelationParams;
use ipmark_core::{ip, reference_ips, LowerVariance};
use ipmark_power::device::ProcessVariation;

fn variation_scaled(factor: f64) -> ProcessVariation {
    let t = ProcessVariation::typical();
    ProcessVariation {
        gain_sigma: t.gain_sigma * factor,
        offset_sigma: t.offset_sigma * factor,
        weight_sigma: t.weight_sigma * factor,
        fingerprint_sigma: t.fingerprint_sigma * factor,
    }
}

fn run_point(sigma: f64, var_factor: f64, quick: bool) -> (bool, f64) {
    let ips = reference_ips();
    let mut config = ExperimentConfig::paper().expect("built-in");
    config.chain = ip::chain_with_noise(sigma).expect("valid chain");
    config.variation = variation_scaled(var_factor);
    if quick {
        config.cycles = 128;
        config.params = CorrelationParams {
            n1: 60,
            n2: 1000,
            k: 10,
            m: 10,
        };
    }
    let matrix = IdentificationMatrix::run(&ips, &ips, &config).expect("campaign");
    let decisions = matrix.decide(&LowerVariance).expect("panel");
    let all_correct = decisions.iter().enumerate().all(|(i, d)| d.best == i);
    let min_dv = matrix
        .delta_vs()
        .expect("≥ 2 DUTs")
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    (all_correct, min_dv)
}

fn main() {
    let quick = quick_mode();
    let sigmas: &[f64] = if quick {
        &[3.5, 7.0, 14.0]
    } else {
        &[1.75, 3.5, 7.0, 14.0, 28.0, 56.0]
    };
    let factors: &[f64] = if quick {
        &[0.0, 1.0, 4.0]
    } else {
        &[0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    };

    println!("# X2a: noise sweep (process variation at the typical corner)");
    println!("noise_sigma,all_correct,min_delta_v_percent");
    for &sigma in sigmas {
        let (ok, dv) = run_point(sigma, 1.0, quick);
        println!("{sigma},{ok},{dv:.2}");
    }

    println!();
    println!(
        "# X2b: process-variation sweep (noise at the default sigma {})",
        ip::DEFAULT_NOISE_SIGMA
    );
    println!("variation_factor,all_correct,min_delta_v_percent");
    for &f in factors {
        let (ok, dv) = run_point(ip::DEFAULT_NOISE_SIGMA, f, quick);
        println!("{f},{ok},{dv:.2}");
    }

    println!();
    println!("# expectation per the paper: identification survives the typical");
    println!("# CMOS-variation corner (factor 1.0) with margin; only extreme");
    println!("# noise or variation degrades the confidence distance.");
}
