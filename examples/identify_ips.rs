//! The paper's §IV experiment end-to-end: four reference IPs
//! (IP_A…IP_D), four DUT boards carrying the same IPs on different dies,
//! and the full identification matrix with both distinguishers.
//!
//! This is Figure 4 + Tables I and II at example scale (use
//! `crates/bench --bin fig4/table1/table2` for the full campaign).
//!
//! Run with: `cargo run --release --example identify_ips`

use ipmark::core::matrix::{ExperimentConfig, IdentificationMatrix};
use ipmark::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ExperimentConfig::paper()?;
    // Example scale: an order of magnitude fewer traces than the paper.
    config.params = CorrelationParams {
        n1: 100,
        n2: 2_000,
        k: 20,
        m: 10,
    };

    let ips = reference_ips();
    println!(
        "running {}x{} identification campaign...",
        ips.len(),
        ips.len()
    );
    let matrix = IdentificationMatrix::run(&ips, &ips, &config)?;

    println!("\nmeans of the correlation sets (Table I analogue):");
    print_table(&matrix, &matrix.means(), false);
    println!("\nvariances of the correlation sets (Table II analogue):");
    print_table(&matrix, &matrix.variances(), true);

    println!("\nverdicts:");
    let mean_decisions = matrix.decide(&HigherMean)?;
    let var_decisions = matrix.decide(&LowerVariance)?;
    for (i, refd) in matrix.refd_names().iter().enumerate() {
        println!(
            "  {refd}: higher-mean -> DUT#{} (Δ {:.1}%), lower-variance -> DUT#{} (Δ {:.1}%)",
            mean_decisions[i].best + 1,
            mean_decisions[i].confidence_percent,
            var_decisions[i].best + 1,
            var_decisions[i].confidence_percent
        );
    }
    let correct = (0..var_decisions.len())
        .filter(|&i| var_decisions[i].best == i)
        .count();
    println!(
        "\nlower-variance verdicts: {correct}/{} correct",
        var_decisions.len()
    );

    println!("\nthe paper's claim is a rate: at its scale (n1 = 400, n2 = 10 000,");
    println!("k = 50, m = 20) the variance distinguisher identifies all four IPs in");
    println!("390 of 400 seeded panels (EXPERIMENTS.md Table II). At this reduced");
    println!("scale a single seed can miss; `--bin report` gates the paper scale.");
    Ok(())
}

fn print_table(matrix: &IdentificationMatrix, cells: &[Vec<f64>], scientific: bool) {
    print!("{:<8}", "");
    for j in 1..=matrix.dut_names().len() {
        print!("{:>12}", format!("DUT#{j}"));
    }
    println!();
    for (i, row) in cells.iter().enumerate() {
        print!("{:<8}", matrix.refd_names()[i]);
        for v in row {
            if scientific {
                print!("{v:>12.3e}");
            } else {
                print!("{v:>12.3}");
            }
        }
        println!();
    }
}
