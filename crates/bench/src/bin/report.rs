//! One-shot reproduction report: runs the complete paper campaign
//! (Figure 4 + Tables I/II + Figure 5 analytics) plus the headline
//! extension checks, validates every shape requirement of EXPERIMENTS.md
//! programmatically, and writes both a human summary (stdout) and a JSON
//! results file (`ipmark-report.json`, or `--out <path>` as argv\[1\]).
//!
//! Exit code is non-zero if any shape requirement fails, so this binary
//! doubles as the repository's reproduction gate.

// Benchmark binary: measuring wall-clock time is the whole point here.
// The disallowed-methods rule protects numeric kernels, not timing code.
#![allow(clippy::disallowed_methods)]

use std::process::ExitCode;

use ipmark_bench::{campaign_config, run_reference_matrix};
use ipmark_core::params::{choose_m, f_limit, p_zeta};
use ipmark_core::report::VerificationReport;
use ipmark_core::{HigherMean, LowerVariance};

/// The paper's Table II Δv range over its four rows, in percent.
const PAPER_DV_BAND: (f64, f64) = (44.9, 99.2);

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ipmark-report.json".to_owned());
    let config = campaign_config().expect("built-in configuration");
    println!(
        "reproduction campaign: n1 = {}, n2 = {}, k = {}, m = {}, {} cycles/trace, seed {}",
        config.params.n1,
        config.params.n2,
        config.params.k,
        config.params.m,
        config.cycles,
        config.seed
    );
    let t0 = std::time::Instant::now();
    let matrix = run_reference_matrix().expect("campaign");
    println!("campaign completed in {:?}\n", t0.elapsed());

    let mut failures: Vec<String> = Vec::new();
    let mut check = |name: &str, ok: bool, detail: String| {
        println!("[{}] {name}: {detail}", if ok { "ok" } else { "FAIL" });
        if !ok {
            failures.push(format!("{name}: {detail}"));
        }
    };

    // --- Shape requirements (EXPERIMENTS.md). ---
    let mean_decisions = matrix.decide(&HigherMean).expect("panel");
    let var_decisions = matrix.decide(&LowerVariance).expect("panel");
    check(
        "variance verdicts all correct",
        var_decisions.iter().enumerate().all(|(i, d)| d.best == i),
        format!(
            "{:?}",
            var_decisions.iter().map(|d| d.best + 1).collect::<Vec<_>>()
        ),
    );
    check(
        "mean verdicts all correct",
        mean_decisions.iter().enumerate().all(|(i, d)| d.best == i),
        format!(
            "{:?}",
            mean_decisions
                .iter()
                .map(|d| d.best + 1)
                .collect::<Vec<_>>()
        ),
    );

    let means = matrix.means();
    let variances = matrix.variances();
    let matched_ok = (0..4).all(|i| {
        (0..4).all(|j| i == j || (means[i][i] > means[i][j] && variances[i][i] < variances[i][j]))
    });
    check(
        "matched cell is row max (mean) and row min (variance)",
        matched_ok,
        String::new(),
    );

    let delta_vs = matrix.delta_vs().expect("rows");
    let delta_means = matrix.delta_means().expect("rows");
    let min_dv = delta_vs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_dmean = delta_means
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    check(
        "variance dominates mean as a distinguisher",
        min_dv > max_dmean,
        format!("min Δv = {min_dv:.1}% vs max Δmean = {max_dmean:.1}%"),
    );
    check(
        "Δv > 30 % on every row",
        delta_vs.iter().all(|&d| d > 30.0),
        format!("{delta_vs:?}"),
    );
    // Not gated: one seed keeps every row inside the paper's band only
    // about two times in three (EXPERIMENTS.md, Table II).
    for (row, &dv) in ('A'..).zip(&delta_vs) {
        let place = if (PAPER_DV_BAND.0..=PAPER_DV_BAND.1).contains(&dv) {
            "inside"
        } else {
            "outside"
        };
        println!(
            "[info] IP_{row} Δv {dv:.1} % is {place} the paper's {}–{} % band",
            PAPER_DV_BAND.0, PAPER_DV_BAND.1
        );
    }
    println!(
        "[info] band rate over master seeds 2014–2413: 264/400 keep every row inside \
         (95 % Wilson 61.2–70.5 %, EXPERIMENTS.md Table II)"
    );
    check(
        "matched means near the paper's 0.94",
        (0..4).all(|i| means[i][i] > 0.85),
        format!(
            "{:?}",
            (0..4)
                .map(|i| (means[i][i] * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        ),
    );

    // --- Figure 5 analytics (exact). ---
    let p = p_zeta(10.0, 20).expect("valid");
    check(
        "P(zeta) at alpha=10, m=20 equals the paper's 0.0045",
        (p - 0.0045).abs() < 5e-5,
        format!("{p:.5}"),
    );
    let m_star = choose_m(10.0, 0.05).expect("reachable");
    check(
        "Figure 5 m* threshold",
        (17..=18).contains(&m_star),
        format!("m* = {m_star}"),
    );

    // --- Persist the full evidence. ---
    let reports = VerificationReport::from_matrix(&matrix, config.params).expect("panel reports");
    let json = serde_json::json!({
        "paper": "Marchand, Bossuet, Jung — IP Watermark Verification Based on Power Consumption Analysis (SOCC 2014)",
        "campaign": {
            "n1": config.params.n1,
            "n2": config.params.n2,
            "k": config.params.k,
            "m": config.params.m,
            "cycles": config.cycles,
            "seed": config.seed,
        },
        "table1_means": means,
        "table1_delta_mean_percent": delta_means,
        "table2_variances": variances,
        "table2_delta_v_percent": delta_vs,
        "fig5": {
            "p_zeta_alpha10_m20": p,
            "limit_alpha10": f_limit(10.0).expect("valid"),
            "m_star_5_percent": m_star,
        },
        "verification_reports": reports,
        "shape_failures": failures,
    });
    match std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&json).expect("finite data"),
    ) {
        Ok(()) => println!("\nwrote full evidence to {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if failures.is_empty() {
        println!("reproduction gate: all shape requirements hold");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "reproduction gate: {} requirement(s) FAILED",
            failures.len()
        );
        ExitCode::FAILURE
    }
}
