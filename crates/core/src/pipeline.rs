//! The one operator graph behind every verification path.
//!
//! The paper's §III correlation computation process is a fixed dataflow —
//! **acquire → k-average → correlate → decide** — that this crate used to
//! re-plumb by hand at five call sites (batch verify, streaming sessions,
//! counterfeit screening, the identification matrix, CPA scoring) plus the
//! campaign engine. This module states the flow once, as typed stages wired
//! into a [`Plan`]:
//!
//! * [`AcquireStage`] — draws the index selections `U_X(k)` up front, in
//!   the exact RNG order every legacy path consumed them: one reference
//!   selection from `0..n1`, then `m` DUT selections from `0..n2`.
//!   Averaging never touches the RNG, so pre-drawing is invisible
//!   (DESIGN.md §9).
//! * [`KAverageStage`] — explicit preallocated stage buffers: the 1 ×
//!   `trace_len` reference average and the `m` × `trace_len`
//!   [`TraceBlock`] arena of DUT averages, filled row-by-row through
//!   [`mean_of_indices_into`] (zero per-row allocation).
//! * [`CorrelateStage`] — the centered [`PearsonRef`] kernel producing the
//!   `m` coefficients, one fused sweep per row, bit-identical to per-pair
//!   [`pearson`](ipmark_traces::stats::pearson) calls (DESIGN.md §11).
//! * [`DecideStage`] — wraps the coefficients into the validated
//!   [`CorrelationSet`] the distinguishers consume.
//!
//! Every data-parallel stage runs on an [`ipmark_parallel::Pool`], the one
//! executor: it collects results in index order with the lowest-index
//! error winning, and at one worker it runs the plain index-ordered loop
//! on the calling thread. So every thread count produces bit-identical
//! output (DESIGN.md §7/§11). [`AcquireStage::draw`] is the one place
//! selections are drawn: the streaming twin, [`ResumablePlan`], opens
//! through it too, holds the same stages in incremental form and is
//! chunk-size invariant (DESIGN.md §9).
//!
//! The legacy entry points ([`correlation_process`](crate::correlation_process),
//! [`VerificationSession`](crate::session::VerificationSession),
//! [`CounterfeitScreen`](crate::screen::CounterfeitScreen),
//! [`IdentificationMatrix`](crate::matrix::IdentificationMatrix)) remain as
//! thin shims over this module; the tier-2 golden suites pin the shims
//! bit-exactly against the fixtures recorded before the refactor.

use rand::Rng;

use ipmark_parallel::Pool;
use ipmark_traces::average::{mean_of_indices_into, mean_of_indices_into_sum, StreamingKAverager};
use ipmark_traces::select::uniform_distinct_indices;
use ipmark_traces::stats::{PearsonRef, PrefixStats};
use ipmark_traces::{StatsError, TraceBlock, TraceError, TraceSource};

use crate::error::CoreError;
use crate::verify::{validate_sources, CorrelationParams, CorrelationSet};

/// The pool the legacy entry points run on, sized from
/// `RAYON_NUM_THREADS` / available parallelism ([`Pool::from_env`]).
pub fn default_backend() -> Pool {
    Pool::from_env()
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// Stage 1 — acquisition of the random index selections `U_X(k)`.
///
/// All randomness of a [`Plan`] lives here, drawn at construction: first
/// **one** reference selection of `k` indices from `0..n1`, then `m` DUT
/// selections of `k` indices from `0..n2`, each in ascending order. This is
/// the exact RNG consumption order of the batch, sequential and streaming
/// legacy paths, which is what keeps a plan bit-identical to all of them
/// from the same seed.
#[derive(Debug, Clone)]
pub struct AcquireStage {
    params: CorrelationParams,
    refd_selection: Vec<usize>,
    dut_selections: Vec<Vec<usize>>,
}

impl AcquireStage {
    /// Draws the selections for `params` from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] when `params` violate §V.B.
    pub fn draw<R: Rng + ?Sized>(
        params: &CorrelationParams,
        rng: &mut R,
    ) -> Result<Self, CoreError> {
        params.validate()?;
        let refd_selection = uniform_distinct_indices(params.n1, params.k, rng)
            .map_err(TraceError::from)
            .map_err(CoreError::Trace)?;
        let dut_selections = (0..params.m)
            .map(|_| uniform_distinct_indices(params.n2, params.k, rng).map_err(TraceError::from))
            .collect::<Result<Vec<_>, TraceError>>()
            .map_err(CoreError::Trace)?;
        Ok(Self {
            params: *params,
            refd_selection,
            dut_selections,
        })
    }

    /// The parameters the selections were drawn for.
    pub fn params(&self) -> &CorrelationParams {
        &self.params
    }

    /// The reference selection (`k` ascending indices into `0..n1`).
    pub fn refd_selection(&self) -> &[usize] {
        &self.refd_selection
    }

    /// The `m` DUT selections (`k` ascending indices into `0..n2` each).
    pub fn dut_selections(&self) -> &[Vec<usize>] {
        &self.dut_selections
    }
}

/// Stage 2 — the preallocated k-averaging buffers.
///
/// Holds the 1 × `trace_len` reference average and the `m` × `trace_len`
/// DUT arena. Filling a buffer zeroes it, accumulates the selected traces
/// lowest-index-first and scales by `1/k` — the canonical
/// [`mean_of_indices_into`] sequence, identical at every thread count.
///
/// The fused [`KAverageStage::fill`] additionally carries each DUT row's
/// sample sum out of the scaling sweep ([`mean_of_indices_into_sum`]), so
/// the downstream correlation never has to re-sweep the arena to recompute
/// row means. The sums are bit-identical to `kernels::sum` over the filled
/// rows (the fused `scale_sum` kernel preserves the canonical blocked
/// reduction — DESIGN.md §16).
#[derive(Debug, Clone)]
pub struct KAverageStage {
    a_refd: Vec<f64>,
    a_duts: TraceBlock,
    /// Per-row sample sums of `a_duts`, captured by the fused fill; empty
    /// after the staged [`KAverageStage::fill_seq`].
    dut_sums: Vec<f64>,
}

impl KAverageStage {
    /// Allocates buffers for `m` DUT averages of `trace_len` samples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Trace`] for a zero `trace_len` or an arena size
    /// that overflows.
    pub fn allocate(m: usize, trace_len: usize) -> Result<Self, CoreError> {
        Ok(Self {
            a_refd: vec![0.0; trace_len],
            a_duts: TraceBlock::zeros("", m, trace_len).map_err(CoreError::Trace)?,
            dut_sums: Vec::with_capacity(m),
        })
    }

    /// The buffers' trace length.
    pub fn trace_len(&self) -> usize {
        self.a_duts.trace_len()
    }

    /// The filled reference average `A_RefD`.
    pub fn reference(&self) -> &[f64] {
        &self.a_refd
    }

    /// The filled `m` DUT averages `A_{DUT,m}`, row `i` = average `i`.
    pub fn duts(&self) -> &TraceBlock {
        &self.a_duts
    }

    /// Per-row sample sums captured by the fused [`KAverageStage::fill`]
    /// (empty after [`KAverageStage::fill_seq`], which is the staged
    /// oracle). Entry `i` is bit-identical to `kernels::sum` over row `i`.
    pub fn dut_sums(&self) -> &[f64] {
        &self.dut_sums
    }

    /// Fills the reference buffer on the calling thread while the `m` DUT
    /// rows fan out over `pool`, then the caller joins the DUT rows
    /// ([`Pool::try_fill_rows_map_with_lead`]). The DUT rows use the fused
    /// scale-and-sum sweep: each row's sample sum
    /// falls out of the `1/k` scaling pass and is stored for
    /// [`KAverageStage::dut_sums`], saving the correlation stage one full
    /// arena sweep. Row contents are bit-identical to the staged
    /// [`KAverageStage::fill_seq`].
    ///
    /// # Errors
    ///
    /// Propagates trace errors from the sources: a reference error wins,
    /// and when several DUT rows fail, the lowest row's error wins (the
    /// pool's determinism contract).
    pub fn fill<SR, SD>(
        &mut self,
        refd: &SR,
        dut: &SD,
        acquire: &AcquireStage,
        pool: &Pool,
    ) -> Result<(), CoreError>
    where
        SR: TraceSource + ?Sized,
        SD: TraceSource + Sync + ?Sized,
    {
        self.dut_sums.clear();
        let a_refd = &mut self.a_refd;
        let trace_len = self.a_duts.trace_len();
        let selections = &acquire.dut_selections;
        let sums = pool
            .try_fill_rows_map_with_lead(
                self.a_duts.samples_mut(),
                trace_len,
                || mean_of_indices_into(refd, &acquire.refd_selection, a_refd),
                |i, row| {
                    let selection = selections.get(i).ok_or(TraceError::IndexOutOfRange {
                        index: i,
                        available: selections.len(),
                    })?;
                    mean_of_indices_into_sum(dut, selection, row)
                },
            )
            .map_err(CoreError::Trace)?;
        self.dut_sums = sums;
        Ok(())
    }

    /// [`KAverageStage::fill`] specialized to an in-place sequential loop,
    /// for DUT sources that are not [`Sync`]. Performs the identical
    /// floating-point operation sequence (one [`mean_of_indices_into`] per
    /// row, rows in index order), so the output is bit-identical to
    /// [`KAverageStage::fill`] on any pool.
    ///
    /// # Errors
    ///
    /// Same as [`KAverageStage::fill`].
    pub fn fill_seq<SR, SD>(
        &mut self,
        refd: &SR,
        dut: &SD,
        acquire: &AcquireStage,
    ) -> Result<(), CoreError>
    where
        SR: TraceSource + ?Sized,
        SD: TraceSource + ?Sized,
    {
        self.dut_sums.clear();
        mean_of_indices_into(refd, &acquire.refd_selection, &mut self.a_refd)
            .map_err(CoreError::Trace)?;
        let trace_len = self.a_duts.trace_len();
        if trace_len == 0 {
            return Ok(());
        }
        for (i, row) in self
            .a_duts
            .samples_mut()
            .chunks_exact_mut(trace_len)
            .enumerate()
        {
            let selection = acquire.dut_selections.get(i).ok_or(CoreError::Trace(
                TraceError::IndexOutOfRange {
                    index: i,
                    available: acquire.dut_selections.len(),
                },
            ))?;
            mean_of_indices_into(dut, selection, row).map_err(CoreError::Trace)?;
        }
        Ok(())
    }
}

/// Stage 3 — the centered Pearson kernel.
///
/// Centers and normalizes the reference once; every correlation against it
/// is then a single fused sweep per row, bit-identical to a per-pair
/// [`pearson`](ipmark_traces::stats::pearson) call (DESIGN.md §11), which
/// is why one stage serves the fused, sequential-reference and streaming
/// paths alike.
#[derive(Debug, Clone)]
pub struct CorrelateStage {
    kernel: PearsonRef,
}

impl CorrelateStage {
    /// Centers `reference` into a reusable kernel.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] for a flat (zero-variance) or too-short
    /// reference.
    pub fn center(reference: &[f64]) -> Result<Self, CoreError> {
        Ok(Self {
            kernel: PearsonRef::new(reference).map_err(CoreError::Stats)?,
        })
    }

    /// Like [`CorrelateStage::center`], but maps a flat reference to
    /// `None` instead of an error — the convention CPA scoring uses, where
    /// a constant profile means "no information", not failure.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] for every error other than
    /// [`StatsError::ZeroVariance`].
    pub fn try_center(reference: &[f64]) -> Result<Option<Self>, CoreError> {
        match PearsonRef::new(reference) {
            Ok(kernel) => Ok(Some(Self { kernel })),
            Err(StatsError::ZeroVariance) => Ok(None),
            Err(e) => Err(CoreError::Stats(e)),
        }
    }

    /// The fused kernel.
    pub fn kernel(&self) -> &PearsonRef {
        &self.kernel
    }

    /// Correlates the reference against every row of `block`, first
    /// (lowest-index) row error winning.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] when a row is flat or of mismatched
    /// length.
    pub fn rows(&self, block: &TraceBlock) -> Result<Vec<f64>, CoreError> {
        block
            .rows()
            .map(|row| {
                self.kernel
                    .correlate(row.samples())
                    .map_err(CoreError::Stats)
            })
            .collect()
    }

    /// Like [`CorrelateStage::rows`], but consumes precomputed per-row
    /// sample sums carried out of the fused k-average fill
    /// ([`KAverageStage::dut_sums`]), skipping a sum sweep per row.
    /// Bit-identical to [`CorrelateStage::rows`] whenever `sums[i]` equals
    /// the canonical `kernels::sum` over row `i` — which the fused
    /// `scale_sum` kernel guarantees (DESIGN.md §16). Rows past the end of
    /// `sums` take a fresh sum.
    ///
    /// # Errors
    ///
    /// Same as [`CorrelateStage::rows`].
    pub fn rows_with_sums(&self, block: &TraceBlock, sums: &[f64]) -> Result<Vec<f64>, CoreError> {
        block
            .rows()
            .enumerate()
            .map(|(i, row)| {
                match sums.get(i) {
                    Some(&sum) => self.kernel.correlate_with_sum(row.samples(), sum),
                    None => self.kernel.correlate(row.samples()),
                }
                .map_err(CoreError::Stats)
            })
            .collect()
    }

    /// Correlates the reference against each slice, scoring flat rows as
    /// `0.0` (the CPA convention: a constant hypothesis carries no
    /// evidence) and propagating every other error, first (lowest-index)
    /// one winning.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stats`] for non-`ZeroVariance` statistic
    /// errors.
    pub fn many_or_zero<'a, I>(&self, rows: I) -> Result<Vec<f64>, CoreError>
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        rows.into_iter()
            .map(|y| match self.kernel.correlate(y) {
                Ok(c) => Ok(c),
                Err(StatsError::ZeroVariance) => Ok(0.0),
                Err(e) => Err(CoreError::Stats(e)),
            })
            .collect()
    }
}

/// Stage 4 — the decision boundary of the graph.
///
/// Wraps the `m` coefficients into the validated [`CorrelationSet`]
/// (non-empty, all finite) whose `mean`/`variance` feed the §V.A
/// distinguishers downstream.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecideStage;

impl DecideStage {
    /// Validates and seals the coefficient set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for an empty or non-finite
    /// coefficient vector.
    pub fn finish(&self, coefficients: Vec<f64>) -> Result<CorrelationSet, CoreError> {
        CorrelationSet::new(coefficients)
    }
}

// ---------------------------------------------------------------------------
// The batch plan
// ---------------------------------------------------------------------------

/// One batch run of the §III correlation computation process, as an
/// explicit operator graph: selections drawn up front ([`AcquireStage`]),
/// preallocated buffers ([`KAverageStage`], lazily sized on first
/// execution), and the correlate/decide tail.
///
/// A plan is built from parameters and an RNG only — no trace data — and
/// then executed against sources on a [`Pool`]. Executing the same plan
/// twice against the same sources is idempotent and bit-identical at every
/// thread count.
///
/// # Examples
///
/// ```
/// use ipmark_core::pipeline::{default_backend, Plan};
/// use ipmark_parallel::Pool;
/// use ipmark_core::CorrelationParams;
/// use ipmark_traces::TraceBlock;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ipmark_core::CoreError> {
/// let make = |seed: u64| -> TraceBlock {
///     let mut block = TraceBlock::new(format!("dev{seed}"));
///     for t in 0..100 {
///         let noise = ((t as f64 + seed as f64) * 13.37).sin() * 0.1;
///         let row: Vec<f64> = (0..64).map(|i| (i as f64 * 0.7).sin() + noise).collect();
///         block.push_row(&row).unwrap();
///     }
///     block
/// };
/// let (refd, dut) = (make(1), make(2));
/// let params = CorrelationParams { n1: 100, n2: 100, k: 10, m: 5 };
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut plan = Plan::correlation(&params, &mut rng)?;
/// let pooled = plan.execute(&refd, &dut, &default_backend())?;
/// let one_worker = plan.execute(&refd, &dut, &Pool::with_threads(1))?;
/// assert_eq!(pooled, one_worker); // every thread count is bit-identical
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Plan {
    acquire: AcquireStage,
    buffers: Option<KAverageStage>,
}

impl Plan {
    /// Builds the plan for one correlation process: validates `params` and
    /// draws all selections from `rng` (the only RNG consumption the plan
    /// will ever perform).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] when `params` violate §V.B.
    pub fn correlation<R: Rng + ?Sized>(
        params: &CorrelationParams,
        rng: &mut R,
    ) -> Result<Self, CoreError> {
        Ok(Self {
            acquire: AcquireStage::draw(params, rng)?,
            buffers: None,
        })
    }

    /// The plan's parameters.
    pub fn params(&self) -> &CorrelationParams {
        &self.acquire.params
    }

    /// The acquisition stage (the drawn selections).
    pub fn acquire(&self) -> &AcquireStage {
        &self.acquire
    }

    /// The drawn selections and the k-average buffers, (re)allocating the
    /// buffers on first use or when `trace_len` changed.
    fn stages(
        &mut self,
        trace_len: usize,
    ) -> Result<(&AcquireStage, &mut KAverageStage), CoreError> {
        let Self { acquire, buffers } = self;
        let stage = match buffers.take() {
            Some(b) if b.trace_len() == trace_len => b,
            _ => KAverageStage::allocate(acquire.params.m, trace_len)?,
        };
        Ok((acquire, buffers.insert(stage)))
    }

    /// Runs the graph end to end on `pool`: validate sources, fill the
    /// k-average buffers, correlate, decide.
    ///
    /// # Errors
    ///
    /// Exactly the legacy [`correlation_process`](crate::correlation_process)
    /// error surface: [`CoreError::InvalidParams`] for undersized or
    /// mismatched sources, [`CoreError::Trace`] from averaging and
    /// [`CoreError::Stats`] from correlation (lowest-index row error
    /// winning).
    pub fn execute<SR, SD>(
        &mut self,
        refd: &SR,
        dut: &SD,
        pool: &Pool,
    ) -> Result<CorrelationSet, CoreError>
    where
        SR: TraceSource + ?Sized,
        SD: TraceSource + Sync + ?Sized,
    {
        validate_sources(refd, dut, &self.acquire.params)?;
        let (acquire, stage) = self.stages(refd.trace_len())?;
        stage.fill(refd, dut, acquire, pool)?;
        let correlate = CorrelateStage::center(stage.reference())?;
        // Fused path: the per-row sums captured by the fill replace the
        // correlation's sum sweep. `execute_seq` keeps the staged
        // two-sweep sequence as the reference.
        let coefficients = correlate.rows_with_sums(stage.duts(), stage.dut_sums())?;
        DecideStage.finish(coefficients)
    }

    /// Runs the graph with an in-place sequential k-average loop and the
    /// staged (unfused) correlation, for DUT sources that are not [`Sync`]
    /// and as the reference the fused [`Plan::execute`] is tested against.
    /// Bit-identical to [`Plan::execute`] on any pool.
    ///
    /// # Errors
    ///
    /// Same as [`Plan::execute`].
    pub fn execute_seq<SR, SD>(&mut self, refd: &SR, dut: &SD) -> Result<CorrelationSet, CoreError>
    where
        SR: TraceSource + ?Sized,
        SD: TraceSource + ?Sized,
    {
        validate_sources(refd, dut, &self.acquire.params)?;
        let (acquire, stage) = self.stages(refd.trace_len())?;
        stage.fill_seq(refd, dut, acquire)?;
        let correlate = CorrelateStage::center(stage.reference())?;
        let coefficients = correlate.rows(stage.duts())?;
        DecideStage.finish(coefficients)
    }

    /// Renders the stage graph — stages, buffer shapes, the pool's worker
    /// count and the kernels — for `ipmark plan --explain` and debugging.
    pub fn explain(&self, trace_len: usize, pool: &Pool) -> String {
        explain_graph(&self.acquire.params, trace_len, pool.threads(), false)
    }
}

/// Renders the stage graph of a correlation plan without constructing one —
/// shared by [`Plan::explain`] and the CLI's streaming (session) variant,
/// which has no batch plan to call it on.
pub fn explain_graph(
    params: &CorrelationParams,
    trace_len: usize,
    threads: usize,
    streaming: bool,
) -> String {
    let CorrelationParams { n1, n2, k, m } = *params;
    let kib = |rows: usize| (rows * trace_len * 8) as f64 / 1024.0;
    let mut out = String::new();
    out.push_str("Plan: acquire -> k-average -> correlate -> decide\n");
    out.push_str(&format!(
        "  AcquireStage    1 reference selection of k={k} from n1={n1}, then m={m} DUT selections of k={k} from n2={n2} (ascending, drawn up front)\n",
    ));
    if streaming {
        out.push_str(&format!(
            "  KAverageStage   streaming: m x trace_len partial-sum arena {m}x{trace_len} f64 ({:.1} KiB) per candidate, DUT traces ingested in index order (budget n2={n2})\n",
            kib(m),
        ));
    } else {
        out.push_str(&format!(
            "  KAverageStage   buffers: a_refd 1x{trace_len} f64 ({:.1} KiB) + a_duts {m}x{trace_len} f64 ({:.1} KiB), filled via mean_of_indices_into\n",
            kib(1),
            kib(m),
        ));
    }
    out.push_str(&format!(
        "  CorrelateStage  PearsonRef centered over {trace_len} samples -> {m} coefficients (one fused sweep per row)\n",
    ));
    out.push_str(
        "  DecideStage     CorrelationSet { mean, variance } -> distinguisher (higher mean / lower variance)\n",
    );
    out.push_str(&format!(
        "  backend: Pool({threads} threads); kernels: {}\n",
        ipmark_traces::kernels::isa_name(),
    ));
    out
}

// ---------------------------------------------------------------------------
// The resumable (streaming) plan
// ---------------------------------------------------------------------------

/// The incremental twin of [`Plan`]: the same acquire → k-average →
/// correlate stages, resumable across chunked DUT delivery.
///
/// Construction draws every selection with [`AcquireStage::draw`] — the
/// same draw, in the same RNG order, as [`Plan::correlation`] — fuses
/// `A_RefD` into a [`CorrelateStage`], and hands the `m` DUT selections to
/// a [`StreamingKAverager`].
/// Each ingested chunk advances the partial sums; slots that complete are
/// finished as the batch path finishes an average, correlated with
/// [`PearsonRef::correlate`] and committed to the contiguous finished
/// prefix, whose running statistics are bit-identical to the batch
/// statistics over the same coefficients, for every chunk partition
/// (DESIGN.md §9).
///
/// The decision layer on top (rounds, early stopping) lives in
/// [`VerificationSession`](crate::session::VerificationSession), which holds
/// one `ResumablePlan` per candidate.
#[derive(Debug, Clone)]
pub struct ResumablePlan {
    correlate: CorrelateStage,
    averager: StreamingKAverager,
    /// Coefficient per slot, filled as slots complete (out of order).
    coefficients: Vec<Option<f64>>,
    /// Length of the contiguous finished prefix of `coefficients`.
    prefix: usize,
    stats: PrefixStats,
    /// `(mean, population variance)` after each prefix length; entry
    /// `r - 1` is bit-identical to the batch statistics over the first
    /// `r` coefficients.
    snapshots: Vec<(f64, f64)>,
}

impl ResumablePlan {
    /// Opens a resumable plan: validates `params` against the reference
    /// source, draws the selections ([`AcquireStage::draw`]), k-averages
    /// the reference over its selection and sets up the `m` streaming DUT
    /// averages.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for invalid parameters or a
    /// reference source smaller than `n1`, and propagates trace/statistics
    /// errors (e.g. a zero-variance reference).
    pub fn new<S, R>(refd: &S, params: &CorrelationParams, rng: &mut R) -> Result<Self, CoreError>
    where
        S: TraceSource + ?Sized,
        R: Rng + ?Sized,
    {
        params.validate()?;
        if refd.num_traces() < params.n1 {
            return Err(CoreError::InvalidParams {
                reason: format!(
                    "reference source holds {} traces, n1 = {}",
                    refd.num_traces(),
                    params.n1
                ),
            });
        }
        let acquire = AcquireStage::draw(params, rng)?;
        let mut a_refd = vec![0.0; refd.trace_len()];
        mean_of_indices_into(refd, acquire.refd_selection(), &mut a_refd)
            .map_err(CoreError::Trace)?;
        let correlate = CorrelateStage::center(&a_refd)?;
        let averager = StreamingKAverager::new(
            params.n2,
            refd.trace_len(),
            acquire.dut_selections().to_vec(),
        )
        .map_err(CoreError::Trace)?;
        Ok(Self {
            correlate,
            averager,
            coefficients: vec![None; params.m],
            prefix: 0,
            stats: PrefixStats::new(),
            snapshots: Vec::with_capacity(params.m),
        })
    }

    /// Ingests the next chunk of the DUT stream (traces arrive in campaign
    /// index order), updates every coefficient the chunk completes, and
    /// advances the contiguous finished prefix.
    ///
    /// A malformed chunk is rejected atomically: the whole chunk is
    /// validated before any sample touches a partial sum, so on a
    /// [`CoreError::Trace`] error nothing was consumed and the caller may
    /// re-supply a corrected chunk for the same indices. A
    /// [`CoreError::Stats`] error comes after the chunk was consumed: a
    /// finished average could not be correlated, none of the chunk's
    /// coefficients is committed, and the contiguous prefix stops there
    /// for good.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Trace`] for malformed chunks
    /// ([`TraceError::EmptyChunk`], [`TraceError::LengthMismatch`],
    /// [`TraceError::NonFiniteSample`], and [`TraceError::IndexOutOfRange`]
    /// for a chunk that runs past the DUT population) and
    /// [`CoreError::Stats`] when a completed average cannot be correlated.
    pub fn ingest(&mut self, chunk: &TraceBlock) -> Result<(), CoreError> {
        // The averager checks every row of the chunk (length, finiteness)
        // before any sample touches a partial sum, then finishes each
        // completing slot as `mean_of_indices_into` does (accumulate, then
        // the 1/k scale). A finished slot's average lives as a borrowed
        // row of the averager's preallocated output arena.
        let finished = self
            .averager
            .ingest_chunk(chunk)
            .map_err(CoreError::Trace)?;
        let coefficients = finished
            .iter()
            .map(|&slot| {
                let average = self
                    .averager
                    .average(slot)
                    .ok_or(CoreError::Invariant("finished slot holds an average"))?;
                self.correlate
                    .kernel()
                    .correlate(average)
                    .map_err(CoreError::Stats)
            })
            .collect::<Result<Vec<f64>, CoreError>>()?;
        self.commit(&finished, coefficients)
    }

    /// Writes the chunk's freshly correlated coefficients into their slots
    /// and advances the contiguous finished prefix.
    fn commit(&mut self, slots: &[usize], coefficients: Vec<f64>) -> Result<(), CoreError> {
        for (&slot, coefficient) in slots.iter().zip(coefficients) {
            let cell = self
                .coefficients
                .get_mut(slot)
                .ok_or(CoreError::Invariant("finished slot within m"))?;
            *cell = Some(coefficient);
        }
        // Push the prefix forward in slot order so the running statistics
        // see coefficients exactly as the batch statistics would.
        while let Some(Some(c)) = self.coefficients.get(self.prefix).copied() {
            self.stats.push(c);
            self.snapshots
                .push((self.stats.mean(), self.stats.variance_population()));
            self.prefix += 1;
        }
        Ok(())
    }

    /// The finished coefficient for `slot`, if complete.
    pub fn coefficient(&self, slot: usize) -> Option<f64> {
        self.coefficients.get(slot).copied().flatten()
    }

    /// Length of the contiguous finished-coefficient prefix.
    pub fn completed_prefix(&self) -> usize {
        self.prefix
    }

    /// `(mean, population variance)` over the first `round` coefficients,
    /// once the prefix covers them.
    pub fn snapshot(&self, round: usize) -> Option<(f64, f64)> {
        round
            .checked_sub(1)
            .and_then(|i| self.snapshots.get(i))
            .copied()
    }

    /// Traces ingested so far.
    pub fn ingested(&self) -> usize {
        self.averager.ingested()
    }

    /// The per-plan trace budget (`n2`).
    pub fn population(&self) -> usize {
        self.averager.population()
    }

    /// Minimum number of stream traces needed to finish the first `slots`
    /// coefficients — exact, because selections are fixed at construction.
    pub fn traces_required_for_slots(&self, slots: usize) -> usize {
        self.averager.traces_required_for_slots(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmark_traces::streaming::ChunkedSource;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn noisy_set(device: &str, n: usize, seed: u64) -> TraceBlock {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut set = TraceBlock::new(device);
        for _ in 0..n {
            let samples: Vec<f64> = (0..96)
                .map(|i| {
                    (i as f64 * 0.31).sin() + ipmark_power::device::gaussian(&mut rng, 0.0, 0.4)
                })
                .collect();
            set.push_row(&samples).unwrap();
        }
        set
    }

    fn params() -> CorrelationParams {
        CorrelationParams {
            n1: 50,
            n2: 240,
            k: 12,
            m: 8,
        }
    }

    #[test]
    fn one_worker_pool_matches_default_backend_bitwise() {
        let refd = noisy_set("r", 50, 1);
        let dut = noisy_set("d", 240, 2);
        let p = params();
        for seed in 0..4u64 {
            let mut plan_a = Plan::correlation(&p, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
            let mut plan_b = Plan::correlation(&p, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
            let a = plan_a.execute(&refd, &dut, &default_backend()).unwrap();
            let b = plan_b.execute(&refd, &dut, &Pool::with_threads(1)).unwrap();
            let bits = |s: &CorrelationSet| -> Vec<u64> {
                s.coefficients().iter().map(|c| c.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&b), "seed {seed}");
            // Re-executing the same plan reuses its buffers and reproduces
            // the result exactly.
            let again = plan_a.execute(&refd, &dut, &Pool::with_threads(1)).unwrap();
            assert_eq!(bits(&a), bits(&again));
            // The non-Sync sequential specialization is the same graph.
            let seq = plan_b.execute_seq(&refd, &dut).unwrap();
            assert_eq!(bits(&a), bits(&seq));
        }
    }

    #[test]
    fn pool_is_thread_count_invariant() {
        let refd = noisy_set("r", 50, 1);
        let dut = noisy_set("d", 240, 2);
        let p = params();
        let reference = {
            let mut plan = Plan::correlation(&p, &mut ChaCha8Rng::seed_from_u64(3)).unwrap();
            plan.execute(&refd, &dut, &Pool::with_threads(1)).unwrap()
        };
        for threads in [1usize, 2, 3, 8] {
            let mut plan = Plan::correlation(&p, &mut ChaCha8Rng::seed_from_u64(3)).unwrap();
            let got = plan
                .execute(&refd, &dut, &Pool::with_threads(threads))
                .unwrap();
            assert_eq!(
                got.coefficients()
                    .iter()
                    .map(|c| c.to_bits())
                    .collect::<Vec<_>>(),
                reference
                    .coefficients()
                    .iter()
                    .map(|c| c.to_bits())
                    .collect::<Vec<_>>(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn resumable_plan_matches_batch_plan_for_every_chunk_size() {
        // `ingest` finishes and correlates each slot as it completes;
        // `execute_seq` is the staged batch reference.
        let refd = noisy_set("r", 50, 1);
        let dut = noisy_set("d", 240, 2);
        let p = params();
        let batch = {
            let mut plan = Plan::correlation(&p, &mut ChaCha8Rng::seed_from_u64(7)).unwrap();
            plan.execute_seq(&refd, &dut).unwrap()
        };
        for chunk in [1usize, 7, 53, 240] {
            let mut rp = ResumablePlan::new(&refd, &p, &mut ChaCha8Rng::seed_from_u64(7)).unwrap();
            let mut chunks = ChunkedSource::with_limit(&dut, chunk, p.n2).unwrap();
            while let Some(traces) = chunks.next_chunk().unwrap() {
                rp.ingest(&traces).unwrap();
            }
            assert_eq!(rp.completed_prefix(), p.m, "chunk {chunk}");
            for (slot, &expected) in batch.coefficients().iter().enumerate() {
                assert_eq!(
                    rp.coefficient(slot).unwrap().to_bits(),
                    expected.to_bits(),
                    "chunk {chunk}, slot {slot}"
                );
            }
            let (mean, variance) = rp.snapshot(p.m).unwrap();
            assert_eq!(mean.to_bits(), batch.mean().to_bits(), "chunk {chunk}");
            assert_eq!(variance.to_bits(), batch.variance().to_bits());
        }
    }

    #[test]
    fn fused_execute_matches_staged_execute_seq_bitwise() {
        // `execute` runs the fused scale-and-sum fill + sum-reusing
        // correlation; `execute_seq` is the staged two-sweep oracle.
        let refd = noisy_set("r", 50, 1);
        let dut = noisy_set("d", 240, 2);
        let p = params();
        let mut plan_a = Plan::correlation(&p, &mut ChaCha8Rng::seed_from_u64(11)).unwrap();
        let mut plan_b = Plan::correlation(&p, &mut ChaCha8Rng::seed_from_u64(11)).unwrap();
        let fused = plan_a.execute(&refd, &dut, &Pool::with_threads(1)).unwrap();
        let staged = plan_b.execute_seq(&refd, &dut).unwrap();
        assert_eq!(
            fused
                .coefficients()
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>(),
            staged
                .coefficients()
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>(),
        );
        // The fused fill's carried sums are bit-identical to a fresh
        // canonical sum over each filled row.
        let stage = plan_a.buffers.as_ref().unwrap();
        assert_eq!(stage.dut_sums().len(), p.m);
        for (i, row) in stage.duts().rows().enumerate() {
            assert_eq!(
                stage.dut_sums()[i].to_bits(),
                ipmark_traces::kernels::sum(row.samples()).to_bits(),
                "row {i}"
            );
        }
    }

    #[test]
    fn plan_validates_sources_like_the_legacy_entry_point() {
        let refd = noisy_set("r", 10, 1);
        let dut = noisy_set("d", 240, 2);
        let p = params(); // n1 = 50 > 10 available
        let mut plan = Plan::correlation(&p, &mut ChaCha8Rng::seed_from_u64(0)).unwrap();
        assert!(matches!(
            plan.execute(&dut, &refd, &Pool::with_threads(1)),
            Err(CoreError::InvalidParams { .. })
        ));
        assert!(matches!(
            plan.execute(&refd, &dut, &Pool::with_threads(1)),
            Err(CoreError::InvalidParams { .. })
        ));
    }

    #[test]
    fn explain_names_every_stage_and_the_backend() {
        let p = params();
        let plan = Plan::correlation(&p, &mut ChaCha8Rng::seed_from_u64(0)).unwrap();
        let text = plan.explain(96, &Pool::with_threads(3));
        for needle in [
            "AcquireStage",
            "KAverageStage",
            "CorrelateStage",
            "DecideStage",
            "Pool(3 threads)",
            "kernels:",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        let streaming = explain_graph(&p, 96, 1, true);
        assert!(streaming.contains("streaming"), "{streaming}");
    }

    #[test]
    fn correlate_stage_loops_keep_the_row_error_contract() {
        // The row error a stage call fails with.
        fn err(r: Result<Vec<f64>, CoreError>) -> StatsError {
            match r {
                Err(CoreError::Stats(e)) => e,
                other => panic!("expected a row error, got {other:?}"),
            }
        }
        let reference = noisy_set("r", 1, 21).row(0).unwrap().samples().to_vec();
        let n = reference.len();
        let stage = CorrelateStage::center(&reference).unwrap();
        let good = noisy_set("d", 8, 22);
        let mut rows: Vec<Vec<f64>> = good.rows().map(|r| r.samples().to_vec()).collect();
        rows[2].truncate(n - 1);
        rows[5] = vec![0.5; n];
        let sums: Vec<f64> = rows
            .iter()
            .map(|y| ipmark_traces::kernels::sum(y))
            .collect();
        let short = StatsError::LengthMismatch {
            left: n,
            right: n - 1,
        };

        // The short row at index 2 wins over the flat row at index 5 in
        // `many_or_zero` ...
        assert_eq!(
            err(stage.many_or_zero(rows.iter().map(Vec::as_slice))),
            short
        );
        // ... which scores the flat row as 0.0 once the short row is gone.
        rows[2] = good.row(2).unwrap().samples().to_vec();
        let scored = stage.many_or_zero(rows.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(scored[5].to_bits(), 0.0f64.to_bits());

        // A block's rows share one length, so its short row is a short
        // block: the length error wins over the flat row there too, with
        // full, partial and no carried sums alike.
        let flat = TraceBlock::from_data("d", n, rows.concat()).unwrap();
        assert_eq!(err(stage.rows(&flat)), StatsError::ZeroVariance);
        let cut: Vec<f64> = rows.iter().flat_map(|y| y[..n - 1].to_vec()).collect();
        let short_block = TraceBlock::from_data("d", n - 1, cut).unwrap();
        assert_eq!(err(stage.rows(&short_block)), short);
        for k in [sums.len(), 3, 0] {
            assert_eq!(
                err(stage.rows_with_sums(&flat, &sums[..k])),
                StatsError::ZeroVariance,
                "{k} sums"
            );
            assert_eq!(
                err(stage.rows_with_sums(&short_block, &sums[..k])),
                short,
                "{k} sums"
            );
        }

        // Rows past a short `sums` slice take a fresh sum: same bits as
        // `rows`, which sums every row itself.
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let want = bits(stage.rows(&good).unwrap());
        let good_sums: Vec<f64> = good
            .rows()
            .map(|r| ipmark_traces::kernels::sum(r.samples()))
            .collect();
        for k in [good_sums.len(), 3, 0] {
            let got = stage.rows_with_sums(&good, &good_sums[..k]).unwrap();
            assert_eq!(bits(got), want, "{k} sums");
        }
        let all_scored = stage
            .many_or_zero(good.rows().map(|r| r.samples()))
            .unwrap();
        assert_eq!(bits(all_scored), want);
    }
}
