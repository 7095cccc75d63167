//! Streaming verification sessions.
//!
//! The batch pipeline ([`correlation_process`](crate::correlation_process))
//! assumes all `n2` DUT traces are on disk before verification starts. A
//! real acquisition hands traces over a few at a time, and most of a
//! campaign is wasted when the watermark is obvious early. This module
//! turns the correlation computation process of §III into an incremental
//! state machine:
//!
//! * [`VerificationSession`] holds, per candidate, the `k`-averaged
//!   reference `A_RefD` (as a fused
//!   [`PearsonRef`](ipmark_traces::stats::PearsonRef) kernel) and a
//!   [`StreamingKAverager`](ipmark_traces::average::StreamingKAverager)
//!   over the `n2` DUT stream. Memory is
//!   `O(candidates × m × trace_len)` — the `n2`-trace campaign is never
//!   materialized.
//! * After each ingested chunk the session re-evaluates the decision on
//!   the *contiguous prefix* of finished coefficients, in rounds
//!   `r = 2, …, m`. Round `r` uses exactly the first `r` coefficients,
//!   bit-identical to what the batch pipeline would produce from the same
//!   seed (DESIGN.md §9).
//! * An optional [`EarlyStopRule`] ends the session once the same winner
//!   has held with enough confidence for `stability` consecutive rounds;
//!   round `m` always forces a decision. Because rounds — not chunks —
//!   drive the evaluation, the verdict is invariant to chunk size and to
//!   thread count.
//!
//! ## Example
//!
//! ```
//! use ipmark_core::session::{EarlyStopRule, SessionOptions, SessionStatus, VerificationSession};
//! use ipmark_core::CorrelationParams;
//! use ipmark_traces::streaming::ChunkedSource;
//! use ipmark_traces::TraceBlock;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), ipmark_core::CoreError> {
//! let wave = |i: usize, phase: f64| ((i as f64) * 0.3 + phase).sin();
//! let make = |phase: f64, n: usize, seed: u64| -> TraceBlock {
//!     let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
//!     let mut block = TraceBlock::new("dev");
//!     for _ in 0..n {
//!         // Per-sample noise: a per-trace constant offset would be
//!         // removed exactly by Pearson centering, leaving the variance
//!         // distinguisher nothing but rounding noise to decide on.
//!         let samples: Vec<f64> = (0..64)
//!             .map(|i| wave(i, phase) + ipmark_power::device::gaussian(&mut rng, 0.0, 0.3))
//!             .collect();
//!         block.push_row(&samples).unwrap();
//!     }
//!     block
//! };
//! let refd = make(0.0, 60, 1);
//! let duts = [make(0.0, 200, 2), make(1.6, 200, 3)]; // candidate 0 matches
//! let params = CorrelationParams { n1: 60, n2: 200, k: 10, m: 8 };
//! let options = SessionOptions::new(params)
//!     .with_early_stop(EarlyStopRule { stability: 3, min_confidence_percent: 50.0 });
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let mut session = VerificationSession::new(&refd, 2, options, &mut rng)?;
//! // Each DUT streams as contiguous `TraceBlock` chunks — one arena
//! // allocation per chunk, no per-trace clones.
//! let mut streams: Vec<ChunkedSource<'_, TraceBlock>> = duts
//!     .iter()
//!     .map(|dut| ChunkedSource::new(dut, 16))
//!     .collect::<Result<_, _>>()?;
//! 'outer: while !session.is_decided() {
//!     for (candidate, stream) in streams.iter_mut().enumerate() {
//!         let Some(chunk) = stream.next_chunk()? else { break 'outer };
//!         if let SessionStatus::Decided(v) = session.ingest_chunk(candidate, &chunk)? {
//!             assert_eq!(v.best, 0);
//!             break 'outer;
//!         }
//!     }
//! }
//! assert!(session.verdict().is_some());
//! # Ok(())
//! # }
//! ```

use rand::Rng;

use ipmark_traces::{StatsError, TraceBlock, TraceError, TraceSource};

use crate::distinguisher::DistinguisherKind;
use crate::error::{CoreError, SessionError};
use crate::pipeline::ResumablePlan;
use crate::verify::CorrelationParams;

/// Early-stop policy: decide once the same candidate has won with at least
/// `min_confidence_percent` confidence for `stability` consecutive rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStopRule {
    /// Consecutive confident rounds with an unchanged winner required
    /// before deciding early. Must be at least 1.
    pub stability: usize,
    /// Minimum confidence distance (`Δmean` or `Δv`, in percent) a round
    /// must reach to count toward the streak. Must be finite and ≥ 0.
    pub min_confidence_percent: f64,
}

impl EarlyStopRule {
    /// Checks the rule's own constraints.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for `stability == 0` or a
    /// non-finite/negative confidence threshold.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.stability == 0 {
            return Err(CoreError::InvalidParams {
                reason: "early-stop stability must be at least 1 round".into(),
            });
        }
        if !self.min_confidence_percent.is_finite() || self.min_confidence_percent < 0.0 {
            return Err(CoreError::InvalidParams {
                reason: format!(
                    "early-stop confidence threshold must be a finite percentage ≥ 0, got {}",
                    self.min_confidence_percent
                ),
            });
        }
        Ok(())
    }
}

/// Configuration of a [`VerificationSession`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionOptions {
    /// The §III correlation parameters `(n1, n2, k, m)`.
    pub params: CorrelationParams,
    /// Which statistic decides (the paper's §V.A distinguishers).
    pub distinguisher: DistinguisherKind,
    /// Optional early-stop policy; without one the session always consumes
    /// the full prefix up to round `m`.
    pub early_stop: Option<EarlyStopRule>,
}

impl SessionOptions {
    /// Options with the paper's better distinguisher (lower variance) and
    /// no early stop.
    pub fn new(params: CorrelationParams) -> Self {
        Self {
            params,
            distinguisher: DistinguisherKind::default(),
            early_stop: None,
        }
    }

    /// Replaces the distinguisher.
    pub fn with_distinguisher(mut self, distinguisher: DistinguisherKind) -> Self {
        self.distinguisher = distinguisher;
        self
    }

    /// Installs an early-stop rule.
    pub fn with_early_stop(mut self, rule: EarlyStopRule) -> Self {
        self.early_stop = Some(rule);
        self
    }

    /// Checks parameters, the session's own `m ≥ 2` requirement and the
    /// early-stop rule.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] on any violated constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.params.validate()?;
        if self.params.m < 2 {
            return Err(CoreError::InvalidParams {
                reason: format!(
                    "streaming session needs m ≥ 2 (a single coefficient has zero variance \
                     and admits no stable-prefix decision), got m = {}",
                    self.params.m
                ),
            });
        }
        if let Some(rule) = &self.early_stop {
            rule.validate()?;
        }
        Ok(())
    }
}

/// The decision a session reached.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Index of the winning candidate.
    pub best: usize,
    /// Confidence distance of the deciding round (`Δmean` or `Δv`, %).
    pub confidence_percent: f64,
    /// Per-candidate decision statistic of the deciding round.
    pub scores: Vec<f64>,
    /// The round (= coefficients per candidate) that decided.
    pub rounds_used: usize,
    /// Per-candidate minimum number of stream traces needed to finish the
    /// first `rounds_used` coefficients. Selections are fixed at session
    /// construction, so this is exact and chunk-size invariant (actual
    /// ingestion may overshoot by up to one chunk).
    pub traces_required: Vec<usize>,
    /// Whether the early-stop rule fired before round `m`.
    pub early_stopped: bool,
}

/// What the caller should do after a chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionStatus {
    /// Keep streaming: at least `traces_needed_hint` more traces (on the
    /// candidate furthest behind) are needed before the next round can be
    /// evaluated.
    Continue {
        /// Exact shortfall in traces until the next evaluation round, for
        /// the candidate that needs the most.
        traces_needed_hint: usize,
    },
    /// The session reached a verdict; further chunks are rejected.
    Decided(Verdict),
}

/// Incremental implementation of the §III correlation computation process
/// plus a §V.A decision, over chunked DUT trace delivery.
///
/// The per-candidate incremental state — reference kernel, streaming
/// k-averager, contiguous coefficient prefix and its running statistics —
/// is a [`ResumablePlan`] (the streaming form of the operator graph in
/// [`crate::pipeline`]); the session adds the round/early-stop decision
/// state machine on top.
///
/// Bit-identity contract: at any point, a candidate's finished coefficient
/// prefix — and the decision statistics derived from it — are bitwise equal
/// to what [`correlation_process`](crate::correlation_process) /
/// [`Plan::execute_seq`](crate::pipeline::Plan::execute_seq)
/// produce from clones of the same seeded RNG, regardless of chunk size or
/// thread count (see DESIGN.md §9 and `tests/streaming_equivalence.rs`).
///
/// The session fails closed: once a finished average cannot be correlated
/// (a flat, dead-device average, say), every later
/// [`ingest_chunk`](Self::ingest_chunk) and [`finalize`](Self::finalize)
/// returns that error and changes nothing.
#[derive(Debug, Clone)]
pub struct VerificationSession {
    options: SessionOptions,
    candidates: Vec<ResumablePlan>,
    /// The first correlation error, which ended the session.
    failed: Option<StatsError>,
    /// Next round to evaluate (rounds run `2..=m`).
    next_round: usize,
    streak_winner: Option<usize>,
    streak: usize,
    verdict: Option<Verdict>,
}

impl VerificationSession {
    /// Opens a session: draws per-candidate reference and DUT selections
    /// from `rng` with the batch pipeline's own [`AcquireStage::draw`]
    /// (one reference selection then `m` DUT selections per candidate,
    /// candidates in index order), and fuses each `A_RefD` into a Pearson
    /// kernel.
    ///
    /// [`AcquireStage::draw`]: crate::pipeline::AcquireStage::draw
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParams`] for invalid options or a
    /// reference source smaller than `n1`,
    /// [`CoreError::NotEnoughCandidates`] for fewer than two candidates,
    /// and propagates trace/statistics errors (e.g. a zero-variance
    /// reference).
    pub fn new<S, R>(
        refd: &S,
        candidates: usize,
        options: SessionOptions,
        rng: &mut R,
    ) -> Result<Self, CoreError>
    where
        S: TraceSource + ?Sized,
        R: Rng + ?Sized,
    {
        options.validate()?;
        if candidates < 2 {
            return Err(CoreError::NotEnoughCandidates {
                provided: candidates,
            });
        }
        let params = options.params;
        let mut cands = Vec::with_capacity(candidates);
        for _ in 0..candidates {
            // One resumable plan per candidate, drawn in index order — the
            // exact RNG consumption order of the batch pipeline. The first
            // plan checks the reference holds `n1` traces before any draw.
            cands.push(ResumablePlan::new(refd, &params, rng)?);
        }
        Ok(Self {
            options,
            candidates: cands,
            failed: None,
            next_round: 2,
            streak_winner: None,
            streak: 0,
            verdict: None,
        })
    }

    /// Ingests the next chunk of `candidate`'s DUT stream (traces arrive in
    /// campaign index order), updates every finished coefficient, and
    /// evaluates any rounds the new contiguous prefixes unlock.
    ///
    /// The chunk is a contiguous [`TraceBlock`], such as the one a
    /// [`ChunkedSource`](ipmark_traces::streaming::ChunkedSource) delivers
    /// from any [`TraceSource`], a stored corpus file included.
    ///
    /// Malformed chunks are rejected atomically: the whole chunk is
    /// validated before any sample touches a partial sum, so on such an
    /// error nothing was consumed and the caller may re-supply a corrected
    /// chunk for the same indices. A finished average that cannot be
    /// correlated ends the session instead: its chunk was consumed, and
    /// this and every later call, on any candidate, returns the same
    /// [`CoreError::Stats`] and changes nothing.
    ///
    /// Each slot a chunk completes is finished as the batch path finishes
    /// an average (accumulate, then the `1/k` scale), so its coefficient is
    /// bit-identical to the batch coefficient (DESIGN.md §9).
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::AlreadyDecided`] /
    /// [`SessionError::UnknownCandidate`] / [`SessionError::TooManyTraces`]
    /// (wrapped in [`CoreError::Session`]) for state-machine misuse,
    /// [`CoreError::Trace`] for malformed chunks
    /// ([`TraceError::EmptyChunk`], [`TraceError::LengthMismatch`],
    /// [`TraceError::NonFiniteSample`]), and [`CoreError::Stats`] once a
    /// finished average could not be correlated (e.g.
    /// [`StatsError::ZeroVariance`] for a flat average).
    pub fn ingest_chunk(
        &mut self,
        candidate: usize,
        chunk: &TraceBlock,
    ) -> Result<SessionStatus, CoreError> {
        if let Some(e) = self.failed {
            return Err(CoreError::Stats(e));
        }
        if self.verdict.is_some() {
            return Err(SessionError::AlreadyDecided.into());
        }
        let total = self.candidates.len();
        let cand = self
            .candidates
            .get_mut(candidate)
            .ok_or(SessionError::UnknownCandidate {
                candidate,
                candidates: total,
            })?;
        let chunk_len = chunk.len();
        if chunk_len == 0 {
            return Err(CoreError::Trace(TraceError::EmptyChunk));
        }
        let budget = cand.population();
        if cand.ingested() + chunk_len > budget {
            return Err(SessionError::TooManyTraces { candidate, budget }.into());
        }
        // Validation, ingestion, correlation and prefix advance are
        // the resumable plan's job (see `crate::pipeline::ResumablePlan`);
        // the session only layers the budget/round state machine on top.
        // A correlation error comes after the chunk was consumed, so it
        // ends the session.
        if let Err(e) = cand.ingest(chunk) {
            if let CoreError::Stats(stats) = e {
                self.failed = Some(stats);
            }
            return Err(e);
        }

        self.evaluate_rounds()?;
        Ok(self.status())
    }

    /// The session's current status without ingesting anything.
    pub fn status(&self) -> SessionStatus {
        if let Some(v) = &self.verdict {
            return SessionStatus::Decided(v.clone());
        }
        let next = self.next_round.min(self.options.params.m);
        let traces_needed_hint = self
            .candidates
            .iter()
            .map(|c| {
                c.traces_required_for_slots(next)
                    .saturating_sub(c.ingested())
            })
            .max()
            .unwrap_or(0);
        SessionStatus::Continue { traces_needed_hint }
    }

    /// Forces a decision on the currently shared coefficient prefix, for
    /// callers whose stream ended before the session decided. Idempotent
    /// once decided.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotEnoughCoefficients`] when some candidate has
    /// fewer than two finished coefficients in its contiguous prefix, and
    /// the [`CoreError::Stats`] that ended the session once a finished
    /// average could not be correlated.
    pub fn finalize(&mut self) -> Result<Verdict, CoreError> {
        if let Some(e) = self.failed {
            return Err(CoreError::Stats(e));
        }
        if let Some(v) = &self.verdict {
            return Ok(v.clone());
        }
        let (laggard, prefix) = self
            .candidates
            .iter()
            .map(ResumablePlan::completed_prefix)
            .enumerate()
            .min_by_key(|&(_, p)| p)
            .ok_or(CoreError::Invariant(
                "session holds at least two candidates",
            ))?;
        if prefix < 2 {
            return Err(CoreError::NotEnoughCoefficients {
                candidate: laggard,
                provided: prefix,
            });
        }
        let verdict = self.decide_round(prefix, prefix < self.options.params.m)?;
        self.verdict = Some(verdict.clone());
        Ok(verdict)
    }

    /// The verdict, once reached.
    pub fn verdict(&self) -> Option<&Verdict> {
        self.verdict.as_ref()
    }

    /// Whether the session reached a verdict.
    pub fn is_decided(&self) -> bool {
        self.verdict.is_some()
    }

    /// A candidate's finished coefficient for `slot`, if complete.
    pub fn coefficient(&self, candidate: usize, slot: usize) -> Option<f64> {
        self.candidates
            .get(candidate)
            .and_then(|c| c.coefficient(slot))
    }

    /// Length of a candidate's contiguous finished-coefficient prefix.
    pub fn completed_prefix(&self, candidate: usize) -> usize {
        self.candidates
            .get(candidate)
            .map_or(0, ResumablePlan::completed_prefix)
    }

    /// Traces ingested so far for a candidate.
    pub fn traces_ingested(&self, candidate: usize) -> usize {
        self.candidates
            .get(candidate)
            .map_or(0, ResumablePlan::ingested)
    }

    /// Evaluates every round the shared prefix allows, in increasing round
    /// order — this is what makes the verdict chunk-size invariant: the
    /// same rounds see the same statistics no matter how ingestion was
    /// partitioned.
    fn evaluate_rounds(&mut self) -> Result<(), CoreError> {
        let m = self.options.params.m;
        let shared_prefix = self
            .candidates
            .iter()
            .map(|c| c.completed_prefix())
            .min()
            .unwrap_or(0);
        while self.verdict.is_none() && self.next_round <= shared_prefix.min(m) {
            let round = self.next_round;
            let decision = self.round_decision(round)?;
            if let Some(rule) = &self.options.early_stop {
                if decision.confidence_percent >= rule.min_confidence_percent {
                    if self.streak_winner == Some(decision.best) {
                        self.streak += 1;
                    } else {
                        self.streak_winner = Some(decision.best);
                        self.streak = 1;
                    }
                } else {
                    self.streak_winner = None;
                    self.streak = 0;
                }
                if self.streak >= rule.stability {
                    self.verdict = Some(self.decide_round(round, round < m)?);
                }
            }
            if self.verdict.is_none() && round == m {
                self.verdict = Some(self.decide_round(round, false)?);
            }
            self.next_round = round + 1;
        }
        Ok(())
    }

    /// The distinguisher decision over the first `round` coefficients.
    fn round_decision(&self, round: usize) -> Result<crate::Decision, CoreError> {
        let scores = self
            .candidates
            .iter()
            .map(|c| {
                c.snapshot(round)
                    .map(|(mean, variance)| match self.options.distinguisher {
                        DistinguisherKind::Mean => mean,
                        DistinguisherKind::Variance => variance,
                    })
                    .ok_or(CoreError::Invariant("round beyond a candidate's prefix"))
            })
            .collect::<Result<Vec<f64>, CoreError>>()?;
        self.options.distinguisher.decide_scores(scores)
    }

    fn decide_round(&self, round: usize, early_stopped: bool) -> Result<Verdict, CoreError> {
        let decision = self.round_decision(round)?;
        Ok(Verdict {
            best: decision.best,
            confidence_percent: decision.confidence_percent,
            scores: decision.scores,
            rounds_used: round,
            traces_required: self
                .candidates
                .iter()
                .map(|c| c.traces_required_for_slots(round))
                .collect(),
            early_stopped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distinguisher::Distinguisher;
    use crate::pipeline::Plan;
    use crate::verify::correlation_process;
    use ipmark_traces::streaming::ChunkedSource;
    use ipmark_traces::TraceBlock;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn noisy_set(device: &str, phase: f64, n: usize, seed: u64) -> TraceBlock {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut set = TraceBlock::new(device);
        for _ in 0..n {
            let samples: Vec<f64> = (0..96)
                .map(|i| {
                    (i as f64 * 0.31 + phase).sin()
                        + ipmark_power::device::gaussian(&mut rng, 0.0, 0.4)
                })
                .collect();
            set.push_row(&samples).unwrap();
        }
        set
    }

    /// Rows `0..n` of `block` as a chunk of their own.
    fn head(block: &TraceBlock, n: usize) -> TraceBlock {
        let len = block.trace_len();
        TraceBlock::from_data("chunk", len, block.samples()[..n * len].to_vec()).unwrap()
    }

    fn params() -> CorrelationParams {
        CorrelationParams {
            n1: 50,
            n2: 240,
            k: 12,
            m: 8,
        }
    }

    /// Streams `duts` into `session` in `chunk` sized `TraceBlock` pieces,
    /// candidate by candidate per wave, until a verdict or stream end.
    fn drive(
        session: &mut VerificationSession,
        duts: &[&TraceBlock],
        chunk: usize,
        n2: usize,
    ) -> Option<Verdict> {
        let mut streams: Vec<ChunkedSource<'_, TraceBlock>> = duts
            .iter()
            .map(|dut| ChunkedSource::with_limit(*dut, chunk, n2).unwrap())
            .collect();
        loop {
            let mut progressed = false;
            for (candidate, stream) in streams.iter_mut().enumerate() {
                let Some(block) = stream.next_chunk().unwrap() else {
                    continue;
                };
                progressed = true;
                match session.ingest_chunk(candidate, &block) {
                    Ok(SessionStatus::Decided(v)) => return Some(v),
                    Ok(SessionStatus::Continue { .. }) => {}
                    Err(e) => panic!("ingest failed: {e}"),
                }
            }
            if !progressed {
                return None;
            }
        }
    }

    #[test]
    fn full_session_matches_batch_bitwise() {
        let refd = noisy_set("r", 0.0, 50, 1);
        let duts = [
            noisy_set("d0", 1.3, 240, 2),
            noisy_set("d1", 0.0, 240, 3),
            noisy_set("d2", 2.2, 240, 4),
        ];
        let p = params();
        for chunk in [1usize, 7, 64, 240] {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let mut session =
                VerificationSession::new(&refd, 3, SessionOptions::new(p), &mut rng).unwrap();
            let verdict = drive(&mut session, &[&duts[0], &duts[1], &duts[2]], chunk, p.n2)
                .expect("no early stop: the m-th round must decide");

            // Batch reference: the CLI's sequential candidate loop.
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let sets: Vec<_> = duts
                .iter()
                .map(|d| correlation_process(&refd, d, &p, &mut rng).unwrap())
                .collect();
            for (candidate, set) in sets.iter().enumerate() {
                for (slot, &expected) in set.coefficients().iter().enumerate() {
                    let got = session.coefficient(candidate, slot).unwrap();
                    assert_eq!(
                        got.to_bits(),
                        expected.to_bits(),
                        "chunk {chunk}, candidate {candidate}, slot {slot}"
                    );
                }
            }
            let batch = crate::LowerVariance.decide(&sets).unwrap();
            assert_eq!(verdict.best, batch.best, "chunk {chunk}");
            assert_eq!(
                verdict.confidence_percent.to_bits(),
                batch.confidence_percent.to_bits()
            );
            assert_eq!(verdict.rounds_used, p.m);
            assert!(!verdict.early_stopped);
            assert_eq!(verdict.best, 1);
        }
    }

    #[test]
    fn session_matches_sequential_reference_too() {
        let refd = noisy_set("r", 0.0, 50, 1);
        let duts = [noisy_set("d0", 0.0, 240, 2), noisy_set("d1", 0.9, 240, 3)];
        let p = params();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut session =
            VerificationSession::new(&refd, 2, SessionOptions::new(p), &mut rng).unwrap();
        drive(&mut session, &[&duts[0], &duts[1]], 23, p.n2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for (candidate, dut) in duts.iter().enumerate() {
            let set = Plan::correlation(&p, &mut rng)
                .unwrap()
                .execute_seq(&refd, dut)
                .unwrap();
            for (slot, &expected) in set.coefficients().iter().enumerate() {
                assert_eq!(
                    session.coefficient(candidate, slot).unwrap().to_bits(),
                    expected.to_bits()
                );
            }
        }
    }

    /// Opening a session draws exactly what one `Plan::correlation` per
    /// candidate draws: from clones of one RNG, both leave it in the same
    /// state.
    #[test]
    fn session_consumes_rng_like_batch_plans() {
        use rand::RngCore as _;
        let refd = noisy_set("r", 0.0, 50, 1);
        let p = params();
        let mut batch = ChaCha8Rng::seed_from_u64(8);
        let mut streaming = batch.clone();
        for _ in 0..3 {
            Plan::correlation(&p, &mut batch).unwrap();
        }
        VerificationSession::new(&refd, 3, SessionOptions::new(p), &mut streaming).unwrap();
        assert_eq!(batch.next_u64(), streaming.next_u64());
    }

    #[test]
    fn early_stop_decides_before_the_full_campaign() {
        let refd = noisy_set("r", 0.0, 50, 1);
        let duts = [noisy_set("d0", 0.0, 240, 2), noisy_set("d1", 1.4, 240, 3)];
        let p = params();
        let options = SessionOptions::new(p).with_early_stop(EarlyStopRule {
            stability: 2,
            min_confidence_percent: 10.0,
        });
        let mut verdicts = Vec::new();
        for chunk in [1usize, 13, 60] {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let mut session = VerificationSession::new(&refd, 2, options, &mut rng).unwrap();
            let verdict = drive(&mut session, &[&duts[0], &duts[1]], chunk, p.n2)
                .expect("matched DUT should trigger the early stop");
            assert!(verdict.early_stopped);
            assert!(verdict.rounds_used < p.m);
            assert_eq!(verdict.best, 0);
            assert!(verdict.traces_required.iter().all(|&t| t <= p.n2));
            verdicts.push(verdict);
        }
        // Chunk-size invariance: identical verdict, rounds and (exact)
        // trace requirements for every delivery granularity.
        assert_eq!(verdicts[0], verdicts[1]);
        assert_eq!(verdicts[0], verdicts[2]);
    }

    #[test]
    fn state_machine_misuse_is_typed() {
        let refd = noisy_set("r", 0.0, 50, 1);
        let dut = noisy_set("d0", 0.0, 240, 2);
        let p = params();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut session =
            VerificationSession::new(&refd, 2, SessionOptions::new(p), &mut rng).unwrap();

        let chunk = head(&dut, 4);
        assert!(matches!(
            session.ingest_chunk(5, &chunk),
            Err(CoreError::Session(SessionError::UnknownCandidate {
                candidate: 5,
                candidates: 2
            }))
        ));
        assert!(matches!(
            session.ingest_chunk(0, &TraceBlock::new("empty")),
            Err(CoreError::Trace(TraceError::EmptyChunk))
        ));

        // Oversized delivery: budget is n2 per candidate.
        session.ingest_chunk(0, &dut).unwrap();
        assert!(matches!(
            session.ingest_chunk(0, &chunk),
            Err(CoreError::Session(SessionError::TooManyTraces {
                candidate: 0,
                budget: 240
            }))
        ));

        // Malformed chunks are rejected atomically: nothing consumed.
        let before = session.traces_ingested(1);
        let bad = TraceBlock::from_data("bad", 2, [1.0, f64::NAN].repeat(4)).unwrap();
        assert!(matches!(
            session.ingest_chunk(1, &bad),
            Err(CoreError::Trace(TraceError::LengthMismatch { .. }))
        ));
        let mut nan = chunk.clone();
        nan.row_mut(1).unwrap().fill(f64::NAN);
        assert!(matches!(
            session.ingest_chunk(1, &nan),
            Err(CoreError::Trace(TraceError::NonFiniteSample {
                trace_index: 1,
                sample_index: 0
            }))
        ));
        assert_eq!(session.traces_ingested(1), before);
        // The clean chunk for the same indices still goes through.
        session.ingest_chunk(1, &chunk).unwrap();
        assert_eq!(session.traces_ingested(1), before + 4);
    }

    #[test]
    fn ingest_after_verdict_is_rejected() {
        let refd = noisy_set("r", 0.0, 50, 1);
        let duts = [noisy_set("d0", 0.0, 240, 2), noisy_set("d1", 1.4, 240, 3)];
        let p = params();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut session =
            VerificationSession::new(&refd, 2, SessionOptions::new(p), &mut rng).unwrap();
        drive(&mut session, &[&duts[0], &duts[1]], 240, p.n2).unwrap();
        assert!(session.is_decided());
        let chunk = head(&duts[0], 1);
        assert!(matches!(
            session.ingest_chunk(0, &chunk),
            Err(CoreError::Session(SessionError::AlreadyDecided))
        ));
    }

    #[test]
    fn finalize_needs_two_coefficients_per_candidate() {
        let refd = noisy_set("r", 0.0, 50, 1);
        let dut = noisy_set("d0", 0.0, 240, 2);
        let p = params();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut session =
            VerificationSession::new(&refd, 2, SessionOptions::new(p), &mut rng).unwrap();
        // Candidate 1 never receives a trace: prefix 0 → typed error.
        session.ingest_chunk(0, &dut).unwrap();
        assert!(matches!(
            session.finalize(),
            Err(CoreError::NotEnoughCoefficients {
                candidate: 1,
                provided: 0
            })
        ));
    }

    #[test]
    fn finalize_on_a_partial_stream_decides_from_the_shared_prefix() {
        let refd = noisy_set("r", 0.0, 50, 1);
        let duts = [noisy_set("d0", 0.0, 240, 2), noisy_set("d1", 1.4, 240, 3)];
        // A small k spreads slot-completion times far apart, so partial
        // prefixes are wide states rather than a burst near index n2.
        let p = CorrelationParams {
            n1: 50,
            n2: 240,
            k: 3,
            m: 8,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut session =
            VerificationSession::new(&refd, 2, SessionOptions::new(p), &mut rng).unwrap();
        // Deliver the campaign one trace at a time and stop as soon as
        // both candidates have at least 4 finished coefficients — a
        // partial stream that ends before round m.
        let mut next = 0;
        while session.completed_prefix(0) < 4 || session.completed_prefix(1) < 4 {
            for (candidate, dut) in duts.iter().enumerate() {
                let row = dut.row(next).unwrap().samples().to_vec();
                let chunk = TraceBlock::from_data("chunk", row.len(), row).unwrap();
                session.ingest_chunk(candidate, &chunk).unwrap();
            }
            next += 1;
        }
        assert!(!session.is_decided());
        let verdict = session.finalize().unwrap();
        assert!(verdict.rounds_used >= 4);
        assert!(verdict.early_stopped);
        assert_eq!(verdict.best, 0);
        // Idempotent.
        assert_eq!(session.finalize().unwrap(), verdict);
    }

    #[test]
    fn construction_rejects_degenerate_configurations() {
        let refd = noisy_set("r", 0.0, 50, 1);
        let p = params();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(matches!(
            VerificationSession::new(&refd, 1, SessionOptions::new(p), &mut rng),
            Err(CoreError::NotEnoughCandidates { provided: 1 })
        ));
        let m1 = CorrelationParams {
            n1: 50,
            n2: 240,
            k: 12,
            m: 1,
        };
        assert!(matches!(
            VerificationSession::new(&refd, 2, SessionOptions::new(m1), &mut rng),
            Err(CoreError::InvalidParams { .. })
        ));
        let big_n1 = CorrelationParams { n1: 51, ..p };
        assert!(matches!(
            VerificationSession::new(&refd, 2, SessionOptions::new(big_n1), &mut rng),
            Err(CoreError::InvalidParams { .. })
        ));
        assert!(EarlyStopRule {
            stability: 0,
            min_confidence_percent: 50.0
        }
        .validate()
        .is_err());
        assert!(EarlyStopRule {
            stability: 1,
            min_confidence_percent: f64::NAN
        }
        .validate()
        .is_err());
    }

    #[test]
    fn continue_hint_is_an_exact_shortfall() {
        let refd = noisy_set("r", 0.0, 50, 1);
        let duts = [noisy_set("d0", 0.0, 240, 2), noisy_set("d1", 1.4, 240, 3)];
        let p = params();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut session =
            VerificationSession::new(&refd, 2, SessionOptions::new(p), &mut rng).unwrap();
        let SessionStatus::Continue { traces_needed_hint } = session.status() else {
            panic!("fresh session cannot be decided");
        };
        // Feeding exactly the hinted number of traces to every candidate
        // must unlock round 2 (prefix ≥ 2 everywhere).
        for (candidate, dut) in duts.iter().enumerate() {
            session
                .ingest_chunk(candidate, &head(dut, traces_needed_hint))
                .unwrap();
        }
        assert!(session.completed_prefix(0) >= 2);
        assert!(session.completed_prefix(1) >= 2);
        assert!(session.next_round > 2, "round 2 must have been evaluated");
    }
}
