//! The full identification experiment of §IV: every reference device
//! against every device under test.
//!
//! The paper fabricates four RefD boards (IP_A…IP_D) and four DUT boards
//! (DUT#1…DUT#4 carrying the same IPs), measures `n1 = 400` traces per
//! RefD and `n2 = 10 000` per DUT, and computes the 16 correlation sets
//! `C_{X,y,k,m}` shown in Figure 4. [`IdentificationMatrix::run`]
//! reproduces that campaign end-to-end on the simulated substrate.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use ipmark_power::chain::MeasurementChain;
use ipmark_power::device::ProcessVariation;
use ipmark_power::SimulatedAcquisition;

use crate::distinguisher::{delta_mean, delta_v, Decision, Distinguisher};
use crate::error::CoreError;
use crate::ip::{default_chain, FabricatedDevice, IpSpec, DEFAULT_CYCLES};
use crate::pipeline::Plan;
use crate::verify::{CorrelationParams, CorrelationSet};

/// Everything that defines one verification campaign.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Correlation-process parameters `(n1, n2, k, m)`.
    pub params: CorrelationParams,
    /// Clock cycles captured per trace (must exceed the FSM period for
    /// unambiguous verification).
    pub cycles: usize,
    /// Process-variation corner the dies are drawn from.
    pub variation: ProcessVariation,
    /// The oscilloscope model.
    pub chain: MeasurementChain,
    /// Master seed: dies, campaigns and selections all derive from it.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's full campaign: `n1 = 400`, `n2 = 10 000`, `k = 50`,
    /// `m = 20`, 256-cycle traces.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants.
    pub fn paper() -> Result<Self, CoreError> {
        Ok(Self {
            params: CorrelationParams::paper(),
            cycles: DEFAULT_CYCLES,
            variation: ProcessVariation::typical(),
            chain: default_chain()?,
            seed: 2014,
        })
    }

    /// A reduced campaign for fast tests: same α, an order of magnitude
    /// fewer traces, full-period captures.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants.
    pub fn reduced() -> Result<Self, CoreError> {
        Ok(Self {
            params: CorrelationParams::reduced(),
            cycles: DEFAULT_CYCLES,
            variation: ProcessVariation::typical(),
            chain: default_chain()?,
            seed: 2014,
        })
    }
}

/// The 16 (or R×D) correlation sets of one campaign, plus the derived
/// tables of the paper's §V.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdentificationMatrix {
    refd_names: Vec<String>,
    dut_names: Vec<String>,
    sets: Vec<Vec<CorrelationSet>>,
}

impl IdentificationMatrix {
    /// Runs the campaign: fabricate one die per reference IP and one die
    /// per DUT IP (distinct dies, as in the paper's eight FPGAs), measure
    /// `n1` / `n2` traces, and compute every `C_{X,y,k,m}`.
    ///
    /// The acquisitions, the R×D cells and the k-averaging inside each cell
    /// fan out across threads (worker count from `RAYON_NUM_THREADS`, else
    /// the machine). Every die, campaign and cell derives its own seed from
    /// `config.seed`, so the matrix is bit-identical to
    /// [`IdentificationMatrix::run_seq`] for every thread count.
    ///
    /// # Errors
    ///
    /// Propagates fabrication, acquisition and correlation errors.
    pub fn run(
        refd_specs: &[IpSpec],
        dut_specs: &[IpSpec],
        config: &ExperimentConfig,
    ) -> Result<Self, CoreError> {
        Self::run_with_pool(
            refd_specs,
            dut_specs,
            config,
            &ipmark_parallel::Pool::from_env(),
        )
    }

    /// [`IdentificationMatrix::run`] on a one-worker pool: every fan-out,
    /// including the k-averaging inside each cell, runs as a plain loop on
    /// the calling thread.
    ///
    /// # Errors
    ///
    /// Same as [`IdentificationMatrix::run`].
    pub fn run_seq(
        refd_specs: &[IpSpec],
        dut_specs: &[IpSpec],
        config: &ExperimentConfig,
    ) -> Result<Self, CoreError> {
        Self::run_with_pool(
            refd_specs,
            dut_specs,
            config,
            &ipmark_parallel::Pool::with_threads(1),
        )
    }

    /// [`IdentificationMatrix::run`] with an explicit worker pool, for
    /// callers (and tests) that must not depend on `RAYON_NUM_THREADS`.
    ///
    /// The pool governs the acquisition and cell fan-out and the
    /// k-averaging inside each cell. With at least as many cells as
    /// workers, the cell fan-out is saturated and each cell's k-averaging
    /// runs inline on the cell's thread, so the matrix is one flat fan-out
    /// over cells (DESIGN.md §7). Every stage is thread-count invariant by
    /// construction.
    /// This is the one campaign body: [`IdentificationMatrix::run`] and
    /// [`IdentificationMatrix::run_seq`] only choose its pool.
    ///
    /// # Errors
    ///
    /// Same as [`IdentificationMatrix::run`].
    pub fn run_with_pool(
        refd_specs: &[IpSpec],
        dut_specs: &[IpSpec],
        config: &ExperimentConfig,
        pool: &ipmark_parallel::Pool,
    ) -> Result<Self, CoreError> {
        Self::validate_panels(refd_specs, dut_specs, config)?;

        // Fabricate and measure the DUT boards once; the same boards serve
        // every reference row (as in the paper).
        let dut_acqs: Vec<SimulatedAcquisition> = pool.try_map_indexed(dut_specs.len(), |j| {
            Self::dut_acquisition(&dut_specs[j], j, config)
        })?;
        let refd_acqs: Vec<SimulatedAcquisition> = pool.try_map_indexed(refd_specs.len(), |i| {
            Self::refd_acquisition(&refd_specs[i], i, config)
        })?;

        let duts = dut_specs.len();
        let cells = pool.try_map_indexed(refd_specs.len() * duts, |idx| {
            let (i, j) = (idx / duts, idx % duts);
            let mut rng = Self::cell_rng(config, i, j, duts);
            let mut plan = Plan::correlation(&config.params, &mut rng)?;
            plan.execute(&refd_acqs[i], &dut_acqs[j], pool)
        })?;
        let mut cells = cells.into_iter();
        let sets: Vec<Vec<CorrelationSet>> = (0..refd_specs.len())
            .map(|_| cells.by_ref().take(duts).collect())
            .collect();

        Ok(Self {
            refd_names: refd_specs.iter().map(|s| s.name().to_owned()).collect(),
            dut_names: dut_specs.iter().map(|s| s.name().to_owned()).collect(),
            sets,
        })
    }

    fn validate_panels(
        refd_specs: &[IpSpec],
        dut_specs: &[IpSpec],
        config: &ExperimentConfig,
    ) -> Result<(), CoreError> {
        config.params.validate()?;
        if refd_specs.is_empty() || dut_specs.is_empty() {
            return Err(CoreError::InvalidParams {
                reason: "need at least one reference and one DUT".into(),
            });
        }
        Ok(())
    }

    fn dut_acquisition(
        spec: &IpSpec,
        j: usize,
        config: &ExperimentConfig,
    ) -> Result<SimulatedAcquisition, CoreError> {
        let die_seed = config.seed.wrapping_mul(1009).wrapping_add(100 + j as u64);
        let mut die = FabricatedDevice::fabricate(spec, &config.variation, die_seed)?;
        let campaign_seed = config
            .seed
            .wrapping_mul(31)
            .wrapping_add(j as u64)
            .wrapping_add(0x00D0_7000);
        die.acquisition(
            &config.chain,
            config.cycles,
            config.params.n2,
            campaign_seed,
        )
    }

    fn refd_acquisition(
        spec: &IpSpec,
        i: usize,
        config: &ExperimentConfig,
    ) -> Result<SimulatedAcquisition, CoreError> {
        let die_seed = config.seed.wrapping_mul(1009).wrapping_add(i as u64);
        let mut die = FabricatedDevice::fabricate(spec, &config.variation, die_seed)?;
        let campaign_seed = config.seed.wrapping_mul(37).wrapping_add(i as u64);
        die.acquisition(
            &config.chain,
            config.cycles,
            config.params.n1,
            campaign_seed,
        )
    }

    fn cell_rng(config: &ExperimentConfig, i: usize, j: usize, duts: usize) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(
            config
                .seed
                .wrapping_mul(7919)
                .wrapping_add((i * duts + j) as u64),
        )
    }

    /// Reference-device names (row labels).
    pub fn refd_names(&self) -> &[String] {
        &self.refd_names
    }

    /// DUT names (column labels).
    pub fn dut_names(&self) -> &[String] {
        &self.dut_names
    }

    /// The correlation set for (reference row, DUT column).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for out-of-range indices.
    pub fn set(&self, refd: usize, dut: usize) -> Result<&CorrelationSet, CoreError> {
        self.sets
            .get(refd)
            .and_then(|row| row.get(dut))
            .ok_or_else(|| CoreError::InvalidParams {
                reason: format!("matrix index ({refd}, {dut}) out of range"),
            })
    }

    /// All correlation sets, row-major.
    pub fn sets(&self) -> &[Vec<CorrelationSet>] {
        &self.sets
    }

    /// Table I: the mean of every correlation set.
    pub fn means(&self) -> Vec<Vec<f64>> {
        self.sets
            .iter()
            .map(|row| row.iter().map(CorrelationSet::mean).collect())
            .collect()
    }

    /// Table II: the variance of every correlation set.
    pub fn variances(&self) -> Vec<Vec<f64>> {
        self.sets
            .iter()
            .map(|row| row.iter().map(CorrelationSet::variance).collect())
            .collect()
    }

    /// Table I right column: `Δmean` per reference row.
    ///
    /// # Errors
    ///
    /// Returns a statistics error with fewer than two DUTs.
    pub fn delta_means(&self) -> Result<Vec<f64>, CoreError> {
        self.means().iter().map(|row| delta_mean(row)).collect()
    }

    /// Table II right column: `Δv` per reference row.
    ///
    /// # Errors
    ///
    /// Returns a statistics error with fewer than two DUTs.
    pub fn delta_vs(&self) -> Result<Vec<f64>, CoreError> {
        self.variances().iter().map(|row| delta_v(row)).collect()
    }

    /// Runs a distinguisher over every reference row, returning one
    /// [`Decision`] per row.
    ///
    /// # Errors
    ///
    /// Propagates the distinguisher's candidate-count requirements.
    pub fn decide<D: Distinguisher + ?Sized>(
        &self,
        distinguisher: &D,
    ) -> Result<Vec<Decision>, CoreError> {
        self.sets
            .iter()
            .map(|row| distinguisher.decide(row))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distinguisher::{HigherMean, LowerVariance};
    use crate::ip::{ip_a, ip_b};
    use ipmark_traces::stats::wilson_interval;

    fn tiny_config() -> ExperimentConfig {
        let mut c = ExperimentConfig::reduced().unwrap();
        c.cycles = 128;
        c.params = CorrelationParams {
            n1: 45,
            n2: 1_800,
            k: 15,
            m: 12,
        };
        c
    }

    #[test]
    fn run_rejects_empty_panels() {
        let config = tiny_config();
        assert!(IdentificationMatrix::run(&[], &[ip_a()], &config).is_err());
        assert!(IdentificationMatrix::run(&[ip_a()], &[], &config).is_err());
    }

    #[test]
    fn matrix_shape_and_labels() {
        let config = tiny_config();
        let m = IdentificationMatrix::run(&[ip_a(), ip_b()], &[ip_a(), ip_b()], &config).unwrap();
        assert_eq!(m.refd_names(), &["IP_A", "IP_B"]);
        assert_eq!(m.dut_names(), &["IP_A", "IP_B"]);
        assert_eq!(m.sets().len(), 2);
        assert_eq!(m.sets()[0].len(), 2);
        assert_eq!(m.set(0, 1).unwrap().len(), 12);
        assert!(m.set(2, 0).is_err());
        assert_eq!(m.means().len(), 2);
        assert_eq!(m.variances()[1].len(), 2);
    }

    #[test]
    fn two_ip_matrix_identifies_correctly() {
        let mut config = tiny_config();
        let m = IdentificationMatrix::run(&[ip_a(), ip_b()], &[ip_a(), ip_b()], &config).unwrap();
        let dm = m.decide(&HigherMean).unwrap();
        assert_eq!(dm[0].best, 0, "IP_A must match DUT carrying IP_A");
        assert_eq!(dm[1].best, 1, "IP_B must match DUT carrying IP_B");
        assert_eq!(m.delta_means().unwrap().len(), 2);
        assert!(m.delta_vs().unwrap().iter().all(|&d| d > 0.0));
        // At k = 15 one realization's variance verdicts are all right only
        // about three times in four, so they are checked as a rate: over
        // 64 master seeds, clearly more often than not.
        let seeds = 64;
        let all_correct = (0..seeds)
            .filter(|&seed| {
                config.seed = seed;
                let m = IdentificationMatrix::run(&[ip_a(), ip_b()], &[ip_a(), ip_b()], &config)
                    .unwrap();
                let decisions = m.decide(&LowerVariance).unwrap();
                decisions.iter().enumerate().all(|(i, d)| d.best == i)
            })
            .count() as u64;
        assert!(
            wilson_interval(all_correct, seeds, 1.96).unwrap().0 > 0.5,
            "variance verdicts all correct in {all_correct}/{seeds} realizations"
        );
    }

    #[test]
    fn run_matches_sequential_reference() {
        let config = tiny_config();
        let par = IdentificationMatrix::run(&[ip_a()], &[ip_a(), ip_b()], &config).unwrap();
        let seq = IdentificationMatrix::run_seq(&[ip_a()], &[ip_a(), ip_b()], &config).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn run_is_deterministic_in_the_seed() {
        let config = tiny_config();
        let m1 = IdentificationMatrix::run(&[ip_a()], &[ip_a(), ip_b()], &config).unwrap();
        let m2 = IdentificationMatrix::run(&[ip_a()], &[ip_a(), ip_b()], &config).unwrap();
        assert_eq!(m1, m2);
        let mut other = tiny_config();
        other.seed = 9999;
        let m3 = IdentificationMatrix::run(&[ip_a()], &[ip_a(), ip_b()], &other).unwrap();
        assert_ne!(m1, m3);
    }
}
