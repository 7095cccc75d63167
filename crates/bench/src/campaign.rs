//! Fleet-scale campaign engine (extension **X10**).
//!
//! A campaign expands a declarative [`ScenarioGrid`] — process corner ×
//! noise σ × temperature-drift slope × trigger-jitter window × adversary
//! model × replica — into independent cells, runs the paper's correlation
//! computation process in every cell (genuine-class DUT and
//! adversary-class DUT against a per-cell reference device), and
//! aggregates the per-cell verdict statistics into ROC curves per
//! distinguisher.
//!
//! ## Determinism
//!
//! Every cell derives its RNG streams from the master seed by
//! clone-and-offset ([`ipmark_core::campaign::cell_seed`], DESIGN.md §12):
//! the streams depend only on `(master seed, cell index)`, so a campaign's
//! output is bit-identical whether the cells run sequentially, sharded over
//! any [`Pool`] thread count, or in any order.
//!
//! ## Scenario models
//!
//! * process corner — [`ProcessVariation`] sampled per die seed;
//! * noise σ — the calibrated default chain with the σ swept;
//! * temperature drift — [`ThermalDrift`] gain ramp applied to each DUT
//!   trace (the *reference* bench is assumed temperature-controlled);
//! * trigger jitter — per-trace [`shift_in_place`] by a bounded offset
//!   drawn from [`jitter_offset`];
//! * adversary — [`AdversaryModel`] chooses what the positive- and
//!   negative-class DUTs actually are (honest clone, forged key, masked
//!   leakage).

use std::cell::RefCell;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ipmark_attacks::roc::RocCurve;
use ipmark_attacks::{AdversaryModel, AttackError, DutBuild};
use ipmark_core::campaign::{CampaignConfig, CellCoord, CellOutcome, CellSeeds, ScenarioGrid};
use ipmark_core::ip::{chain_with_noise, ip_b, IpSpec, DEFAULT_NOISE_SIGMA};
use ipmark_core::verify::CorrelationParams;
use ipmark_core::{CoreError, DistinguisherKind, Plan};
use ipmark_power::chain::MeasurementChain;
use ipmark_power::device::{DeviceModel, ProcessVariation};
use ipmark_power::{SimulatedAcquisition, ThermalDrift};
use ipmark_traces::align::{jitter_offset, shift_in_place};
use ipmark_traces::{TraceError, TraceSource};

pub use ipmark_parallel::Pool;

/// Error raised by the campaign engine.
#[derive(Debug)]
pub enum CampaignError {
    /// The verification pipeline failed (also wraps power/trace errors).
    Core(CoreError),
    /// An adversary model or ROC aggregation failed.
    Attack(AttackError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Core(e) => write!(f, "campaign pipeline error: {e}"),
            CampaignError::Attack(e) => write!(f, "campaign adversary error: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Core(e) => Some(e),
            CampaignError::Attack(e) => Some(e),
        }
    }
}

impl From<CoreError> for CampaignError {
    fn from(e: CoreError) -> Self {
        CampaignError::Core(e)
    }
}

impl From<AttackError> for CampaignError {
    fn from(e: AttackError) -> Self {
        CampaignError::Attack(e)
    }
}

impl From<ipmark_power::PowerError> for CampaignError {
    fn from(e: ipmark_power::PowerError) -> Self {
        CampaignError::Core(CoreError::Power(e))
    }
}

impl From<TraceError> for CampaignError {
    fn from(e: TraceError) -> Self {
        CampaignError::Core(CoreError::Trace(e))
    }
}

/// A [`TraceSource`] decorating a [`SimulatedAcquisition`] with the cell's
/// environmental scenario: every regenerated trace gets the thermal-drift
/// gain ramp applied, then a per-trace trigger-jitter shift.
///
/// With a zero-slope drift and a zero jitter window both decorations are
/// exact no-ops, so the source is bit-identical to the raw acquisition —
/// the unmodified pipeline is a special case, not a separate code path.
#[derive(Debug, Clone)]
pub struct ScenarioSource {
    inner: SimulatedAcquisition,
    drift: ThermalDrift,
    jitter_seed: u64,
    max_jitter: usize,
}

impl ScenarioSource {
    /// Decorates `inner` with the given drift and jitter scenario.
    pub fn new(
        inner: SimulatedAcquisition,
        drift: ThermalDrift,
        jitter_seed: u64,
        max_jitter: usize,
    ) -> Self {
        Self {
            inner,
            drift,
            jitter_seed,
            max_jitter,
        }
    }

    /// Regenerates scenario trace `index` into `out`.
    ///
    /// # Errors
    ///
    /// Propagates acquisition errors (bad index, wrong buffer length).
    pub fn trace_into(&self, index: usize, out: &mut [f64]) -> Result<(), TraceError> {
        self.inner.trace_into(index, out)?;
        self.drift.apply_in_place(out);
        let shift = jitter_offset(self.jitter_seed, index as u64, self.max_jitter);
        shift_in_place(out, shift);
        Ok(())
    }
}

impl TraceSource for ScenarioSource {
    fn num_traces(&self) -> usize {
        self.inner.num_traces()
    }

    fn trace_len(&self) -> usize {
        self.inner.trace_len()
    }

    fn accumulate(&self, index: usize, acc: &mut [f64]) -> Result<(), TraceError> {
        if acc.len() != self.trace_len() {
            return Err(TraceError::LengthMismatch {
                expected: self.trace_len(),
                provided: acc.len(),
            });
        }
        // Drift and jitter act on the whole trace, so it is materialized
        // first, into this thread's reused row.
        SCRATCH_ROW.with(|row| {
            let mut row = row.borrow_mut();
            row.resize(acc.len(), 0.0);
            self.trace_into(index, &mut row)?;
            ipmark_traces::kernels::accumulate(acc, &row);
            Ok(())
        })
    }
}

thread_local! {
    /// One scratch trace row per thread for [`ScenarioSource::accumulate`],
    /// which runs on pool workers behind `&self`: each worker reuses its
    /// row across the traces it accumulates instead of allocating one per
    /// trace.
    static SCRATCH_ROW: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// A declarative verification campaign: one genuine IP, a scenario grid,
/// and the per-cell correlation parameters.
#[derive(Debug, Clone)]
pub struct Campaign {
    ip: IpSpec,
    grid: ScenarioGrid<AdversaryModel>,
    config: CampaignConfig,
}

impl Campaign {
    /// Assembles a campaign from its parts (validated by
    /// [`Campaign::validate`] / [`Campaign::run`]).
    pub fn new(ip: IpSpec, grid: ScenarioGrid<AdversaryModel>, config: CampaignConfig) -> Self {
        Self { ip, grid, config }
    }

    /// The reduced 8-cell campaign pinned by the tier-2 golden fixture and
    /// the CI smoke step: 2 corners × 2 noise σ × {honest, guessed-key/4}.
    pub fn reduced() -> Self {
        Self {
            ip: ip_b(),
            grid: ScenarioGrid {
                corners: vec![ProcessVariation::none(), ProcessVariation::typical()],
                noise_sigmas: vec![DEFAULT_NOISE_SIGMA, DEFAULT_NOISE_SIGMA / 2.0],
                drift_slopes: vec![0.0],
                jitters: vec![0],
                adversaries: vec![
                    AdversaryModel::Honest,
                    AdversaryModel::GuessedKey { bits_known: 4 },
                ],
                replicas: 1,
            },
            config: CampaignConfig {
                params: CorrelationParams {
                    n1: 40,
                    n2: 400,
                    k: 8,
                    m: 5,
                },
                cycles: 64,
                master_seed: 2014,
            },
        }
    }

    /// The full fleet campaign of EXPERIMENTS.md X10: 3 corners × 4 noise σ
    /// × 3 drift slopes × 3 jitter windows × 10 adversaries × 4 replicas
    /// = 4320 cells.
    pub fn full() -> Self {
        let wide = ProcessVariation {
            gain_sigma: 0.08,
            offset_sigma: 0.05,
            weight_sigma: 0.05,
            fingerprint_sigma: 0.8,
        };
        Self {
            ip: ip_b(),
            grid: ScenarioGrid {
                corners: vec![ProcessVariation::none(), ProcessVariation::typical(), wide],
                noise_sigmas: vec![3.5, DEFAULT_NOISE_SIGMA, 14.0, 28.0],
                drift_slopes: vec![0.0, 0.05, 0.15],
                jitters: vec![0, 1, 2],
                adversaries: vec![
                    AdversaryModel::Honest,
                    AdversaryModel::GuessedKey { bits_known: 0 },
                    AdversaryModel::GuessedKey { bits_known: 2 },
                    AdversaryModel::GuessedKey { bits_known: 4 },
                    AdversaryModel::GuessedKey { bits_known: 6 },
                    AdversaryModel::GuessedKey { bits_known: 8 },
                    AdversaryModel::MaskedLeakage { suppression: 0.25 },
                    AdversaryModel::MaskedLeakage { suppression: 0.5 },
                    AdversaryModel::MaskedLeakage { suppression: 0.75 },
                    AdversaryModel::MaskedLeakage { suppression: 1.0 },
                ],
                replicas: 4,
            },
            config: CampaignConfig {
                params: CorrelationParams {
                    n1: 60,
                    n2: 1000,
                    k: 10,
                    m: 10,
                },
                cycles: 128,
                master_seed: 2014,
            },
        }
    }

    /// The genuine IP under campaign.
    pub fn ip(&self) -> &IpSpec {
        &self.ip
    }

    /// The scenario grid.
    pub fn grid(&self) -> &ScenarioGrid<AdversaryModel> {
        &self.grid
    }

    /// Mutable access to the grid, for tests and custom sweeps. The next
    /// [`Campaign::validate`] / [`Campaign::run`] re-checks every axis.
    pub fn grid_mut(&mut self) -> &mut ScenarioGrid<AdversaryModel> {
        &mut self.grid
    }

    /// The per-cell configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Mutable access to the configuration, re-validated on the next run.
    pub fn config_mut(&mut self) -> &mut CampaignConfig {
        &mut self.config
    }

    /// Validates the configuration, the grid axes and every adversary.
    ///
    /// # Errors
    ///
    /// Returns the first violation as a typed error (never panics): an
    /// empty grid, `m < 2`, zero cycles, or invalid adversary parameters.
    pub fn validate(&self) -> Result<(), CampaignError> {
        self.config.validate()?;
        self.grid.validate()?;
        for adversary in &self.grid.adversaries {
            adversary.validate()?;
        }
        // Surface an unmarked genuine IP at validation time instead of
        // deep inside the first cell.
        AdversaryModel::Honest.positive_build(&self.ip)?;
        Ok(())
    }

    /// Runs every cell of the grid, sharded over `pool`, and aggregates the
    /// outcomes. Each cell's k-averaging runs on the same `pool`; once the
    /// grid has a cell for every worker it runs inline on the cell's
    /// thread (DESIGN.md §7). The result is bit-identical for every thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns validation errors up front and propagates the
    /// lowest-indexed cell failure.
    pub fn run(&self, pool: &Pool) -> Result<CampaignReport, CampaignError> {
        self.validate()?;
        let cells = self.grid.cells()?;
        let outcomes = pool.try_map_indexed(cells.len(), |i| self.run_cell(&cells[i], pool))?;
        Ok(CampaignReport {
            adversary_labels: self
                .grid
                .adversaries
                .iter()
                .map(AdversaryModel::label)
                .collect(),
            noise_sigmas: self.grid.noise_sigmas.clone(),
            outcomes,
        })
    }

    /// Runs one cell: fabricates the reference die and both DUT dies under
    /// the cell's corner, measures them through the cell's chain (the DUTs
    /// additionally through the drift/jitter scenario), and scores both
    /// correlation processes, k-averaging on `pool`. Called from a
    /// saturated [`Campaign::run`] fan-out, that k-averaging runs inline on
    /// the cell's thread; called on its own, it fans out over `pool`.
    ///
    /// Public so determinism tests can re-run cells in arbitrary orders.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn run_cell(&self, coord: &CellCoord, pool: &Pool) -> Result<CellOutcome, CampaignError> {
        let seeds = CellSeeds::derive(self.config.master_seed, coord.index);
        let corner = &self.grid.corners[coord.corner];
        let sigma = self.grid.noise_sigmas[coord.noise];
        let slope = self.grid.drift_slopes[coord.drift];
        let max_jitter = self.grid.jitters[coord.jitter];
        let adversary = &self.grid.adversaries[coord.adversary];

        let chain = chain_with_noise(sigma)?;
        let drift = ThermalDrift::new(slope)?;
        let params = &self.config.params;

        // The reference bench is controlled: genuine marked die, no drift,
        // no jitter.
        let refd_build = DutBuild::genuine(&self.ip)?;
        let refd = self.acquisition(
            &refd_build,
            corner,
            &chain,
            params.n1,
            seeds.refd_die,
            seeds.refd_campaign,
        )?;

        let positive = ScenarioSource::new(
            self.acquisition(
                &adversary.positive_build(&self.ip)?,
                corner,
                &chain,
                params.n2,
                seeds.positive_die,
                seeds.positive_campaign,
            )?,
            drift,
            seeds.positive_jitter,
            max_jitter,
        );
        let negative = ScenarioSource::new(
            self.acquisition(
                &adversary.negative_build(&self.ip)?,
                corner,
                &chain,
                params.n2,
                seeds.negative_die,
                seeds.negative_campaign,
            )?,
            drift,
            seeds.negative_jitter,
            max_jitter,
        );

        // Both scenario legs run as explicit operator-graph plans on the
        // caller's pool — same stages, same draw order, same bits as the
        // legacy `correlation_process` entry point.
        let mut pos_rng = ChaCha8Rng::seed_from_u64(seeds.positive_selection);
        let mut pos_plan = Plan::correlation(params, &mut pos_rng)?;
        let pos = pos_plan.execute(&refd, &positive, pool)?;
        let mut neg_rng = ChaCha8Rng::seed_from_u64(seeds.negative_selection);
        let mut neg_plan = Plan::correlation(params, &mut neg_rng)?;
        let neg = neg_plan.execute(&refd, &negative, pool)?;

        Ok(CellOutcome {
            coord: *coord,
            positive_mean: pos.mean(),
            positive_variance: pos.variance(),
            negative_mean: neg.mean(),
            negative_variance: neg.variance(),
        })
    }

    /// Fabricates one die of `build` under `corner` and prepares its
    /// measurement campaign.
    fn acquisition(
        &self,
        build: &DutBuild,
        corner: &ProcessVariation,
        chain: &MeasurementChain,
        num_traces: usize,
        die_seed: u64,
        campaign_seed: u64,
    ) -> Result<SimulatedAcquisition, CampaignError> {
        let spec = build.spec();
        let mut circuit = spec.circuit()?;
        let device = DeviceModel::sample(
            format!("{}@die{die_seed}", spec.name()),
            &build.nominal_model()?,
            corner,
            die_seed,
        )?;
        Ok(SimulatedAcquisition::prepare(
            &mut circuit,
            &device,
            chain,
            self.config.cycles,
            num_traces,
            campaign_seed,
        )?)
    }
}

/// The aggregated result of a campaign run: every cell outcome plus the
/// axis labels needed to slice them.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    adversary_labels: Vec<String>,
    noise_sigmas: Vec<f64>,
    outcomes: Vec<CellOutcome>,
}

impl CampaignReport {
    /// Every cell outcome, in linear grid order.
    pub fn outcomes(&self) -> &[CellOutcome] {
        &self.outcomes
    }

    /// The grid's adversary labels, indexed like `coord.adversary`.
    pub fn adversary_labels(&self) -> &[String] {
        &self.adversary_labels
    }

    /// The grid's noise σ axis, indexed like `coord.noise`.
    pub fn noise_sigmas(&self) -> &[f64] {
        &self.noise_sigmas
    }

    /// The positive- and negative-class scores of every cell matching
    /// `filter`, under the given distinguisher.
    pub fn scores_where<F>(&self, kind: DistinguisherKind, filter: F) -> (Vec<f64>, Vec<f64>)
    where
        F: Fn(&CellCoord) -> bool,
    {
        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        for outcome in &self.outcomes {
            if filter(&outcome.coord) {
                positives.push(outcome.score(kind, true));
                negatives.push(outcome.score(kind, false));
            }
        }
        (positives, negatives)
    }

    /// The ROC curve over every cell matching `filter`.
    ///
    /// # Errors
    ///
    /// Returns an error when the filter matches no cells.
    pub fn roc_where<F>(
        &self,
        kind: DistinguisherKind,
        filter: F,
    ) -> Result<RocCurve, CampaignError>
    where
        F: Fn(&CellCoord) -> bool,
    {
        let (positives, negatives) = self.scores_where(kind, filter);
        Ok(RocCurve::from_scores(&positives, &negatives)?)
    }

    /// The ROC curve of one adversary over all of its cells.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range adversary index.
    pub fn adversary_roc(
        &self,
        adversary: usize,
        kind: DistinguisherKind,
    ) -> Result<RocCurve, CampaignError> {
        self.roc_where(kind, |c| c.adversary == adversary)
    }

    /// `(label, mean-distinguisher ROC, variance-distinguisher ROC)` for
    /// every adversary of the grid.
    ///
    /// # Errors
    ///
    /// Propagates ROC construction errors.
    pub fn adversary_rocs(&self) -> Result<Vec<(String, RocCurve, RocCurve)>, CampaignError> {
        self.adversary_labels
            .iter()
            .enumerate()
            .map(|(i, label)| {
                Ok((
                    label.clone(),
                    self.adversary_roc(i, DistinguisherKind::Mean)?,
                    self.adversary_roc(i, DistinguisherKind::Variance)?,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_campaign_validates_and_has_eight_cells() {
        let c = Campaign::reduced();
        c.validate().unwrap();
        assert_eq!(c.grid().len(), 8);
    }

    #[test]
    fn full_campaign_validates_and_exceeds_thousand_cells() {
        let c = Campaign::full();
        c.validate().unwrap();
        assert!(c.grid().len() >= 1000, "{} cells", c.grid().len());
        // The regression gates slice out the clean bench at the paper's
        // noise; that slice must hold enough replicas for a meaningful AUC.
        assert!(c.grid().corners.len() * c.grid().replicas >= 10);
    }

    #[test]
    fn chain_with_default_sigma_matches_default_chain() {
        let swept = chain_with_noise(DEFAULT_NOISE_SIGMA).unwrap();
        let default = ipmark_core::default_chain().unwrap();
        assert_eq!(swept, default);
    }

    #[test]
    fn scenario_accumulate_equals_trace_into_plus_kernel_accumulate() {
        let campaign = Campaign::reduced();
        let chain = chain_with_noise(DEFAULT_NOISE_SIGMA).unwrap();
        let inner = campaign
            .acquisition(
                &DutBuild::genuine(&campaign.ip).unwrap(),
                &ProcessVariation::typical(),
                &chain,
                12,
                3,
                4,
            )
            .unwrap();
        let source = ScenarioSource::new(inner, ThermalDrift::new(0.15).unwrap(), 5, 2);
        let len = source.trace_len();
        // Four k-average rows of three traces each.
        let groups = 4;
        let rows_by = |pool: ipmark_parallel::Pool| {
            pool.map_indexed(groups, |g| {
                let mut acc = vec![0.0; len];
                for index in 3 * g..3 * g + 3 {
                    source.accumulate(index, &mut acc).unwrap();
                }
                acc.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
            })
        };
        let want: Vec<Vec<u64>> = (0..groups)
            .map(|g| {
                let mut acc = vec![0.0; len];
                let mut trace = vec![0.0; len];
                for index in 3 * g..3 * g + 3 {
                    source.trace_into(index, &mut trace).unwrap();
                    ipmark_traces::kernels::accumulate(&mut acc, &trace);
                }
                acc.iter().map(|x| x.to_bits()).collect()
            })
            .collect();
        for threads in [1, 2] {
            let got = rows_by(ipmark_parallel::Pool::with_threads(threads));
            assert_eq!(got, want, "{threads} thread(s)");
        }
        let mut short = vec![0.0; len - 1];
        assert!(matches!(
            source.accumulate(0, &mut short),
            Err(TraceError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn invalid_campaigns_surface_typed_errors() {
        let mut empty = Campaign::reduced();
        empty.grid.adversaries.clear();
        assert!(matches!(
            empty.validate(),
            Err(CampaignError::Core(CoreError::InvalidParams { .. }))
        ));
        let mut small_m = Campaign::reduced();
        small_m.config.params.m = 1;
        assert!(matches!(
            small_m.validate(),
            Err(CampaignError::Core(CoreError::InvalidParams { .. }))
        ));
        let mut bad_adv = Campaign::reduced();
        bad_adv.grid.adversaries = vec![AdversaryModel::GuessedKey { bits_known: 99 }];
        assert!(matches!(
            bad_adv.validate(),
            Err(CampaignError::Attack(AttackError::Config(_)))
        ));
    }
}
