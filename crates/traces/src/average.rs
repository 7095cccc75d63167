//! k-averaged traces — the paper's `A_device = mean(U_T(k))` operation.
//!
//! Averaging `k` randomly chosen traces suppresses measurement noise by
//! `√k` while preserving the deterministic switching-activity waveform,
//! which is what makes the subsequent Pearson correlation informative.

use rand::Rng;

use crate::block::TraceBlock;
use crate::error::{SelectError, TraceError};
use crate::kernels;
use crate::select::uniform_distinct_indices;
use crate::trace::{Trace, TraceSource};

/// Averages the traces at the given indices of `source` into a
/// caller-provided buffer (typically one row of a preallocated
/// [`TraceBlock`]), performing no heap allocation.
///
/// The buffer is zeroed first, the selected traces are accumulated
/// lowest-index-first, and the sum is scaled by `1/len` — the exact
/// floating-point operation sequence of [`mean_of_indices`], which is a
/// thin allocating wrapper around this function.
///
/// # Errors
///
/// Returns [`TraceError::EmptySet`] for an empty index list,
/// [`TraceError::LengthMismatch`] when `out` is not `source.trace_len()`
/// samples, and propagates out-of-range indices.
pub fn mean_of_indices_into<S: TraceSource + ?Sized>(
    source: &S,
    indices: &[usize],
    out: &mut [f64],
) -> Result<(), TraceError> {
    if indices.is_empty() {
        return Err(TraceError::EmptySet);
    }
    if out.len() != source.trace_len() {
        return Err(TraceError::LengthMismatch {
            expected: source.trace_len(),
            provided: out.len(),
        });
    }
    out.fill(0.0);
    source.accumulate_indices(indices, out)?;
    kernels::scale(out, 1.0 / indices.len() as f64);
    Ok(())
}

/// [`mean_of_indices_into`] that also returns the blocked sum of the
/// finished average — the batch path's fused fill (DESIGN.md §16).
///
/// The final `1/len` scale and the row sum the correlation stage needs for
/// its mean are fused into one [`kernels::scale_sum`] sweep, where the
/// staged path (`scale` here, `sum` again inside the correlate stage)
/// sweeps the row twice. The buffer contents are bit-identical to
/// [`mean_of_indices_into`] and the returned sum is bit-identical to
/// [`kernels::sum`] over them.
///
/// # Errors
///
/// As for [`mean_of_indices_into`].
pub fn mean_of_indices_into_sum<S: TraceSource + ?Sized>(
    source: &S,
    indices: &[usize],
    out: &mut [f64],
) -> Result<f64, TraceError> {
    if indices.is_empty() {
        return Err(TraceError::EmptySet);
    }
    if out.len() != source.trace_len() {
        return Err(TraceError::LengthMismatch {
            expected: source.trace_len(),
            provided: out.len(),
        });
    }
    out.fill(0.0);
    source.accumulate_indices(indices, out)?;
    Ok(kernels::scale_sum(out, 1.0 / indices.len() as f64))
}

/// Averages the traces at the given indices of `source`.
///
/// # Errors
///
/// Returns [`TraceError::EmptySet`] for an empty index list and propagates
/// out-of-range indices.
pub fn mean_of_indices<S: TraceSource + ?Sized>(
    source: &S,
    indices: &[usize],
) -> Result<Trace, TraceError> {
    let mut acc = vec![0.0; source.trace_len()];
    mean_of_indices_into(source, indices, &mut acc)?;
    Ok(Trace::from_samples(acc))
}

/// Computes one `k`-averaged trace: `mean(U_T(k))`.
///
/// # Errors
///
/// Returns a selection error when `k` is zero or exceeds the number of
/// traces in the source.
pub fn k_average<S: TraceSource + ?Sized, R: Rng + ?Sized>(
    source: &S,
    k: usize,
    rng: &mut R,
) -> Result<Trace, TraceError> {
    let indices = uniform_distinct_indices(source.num_traces(), k, rng)?;
    mean_of_indices(source, &indices)
}

/// Builds the `m` `k`-averaged traces of one device from a stream of traces
/// arriving in index order, without materializing the backing population.
///
/// The caller draws the `m` index selections (in the verification pipeline,
/// `AcquireStage::draw` in `ipmark-core`, the one place selections are
/// drawn) and hands them over at construction; the averager itself never
/// touches an RNG. Each selection must be strictly ascending — the order
/// [`uniform_distinct_indices`] returns — so the batch path, which
/// accumulates each average lowest-index-first, adds the selected traces in
/// precisely the order the stream delivers them. Each arriving trace is
/// added into every partial average that selected it (`acc[j] += s[j]`,
/// the same element-wise addition [`mean_of_indices`] performs), and a
/// slot that receives its last selected trace is finalized by the same
/// `× 1/k` scaling ([`kernels::accumulate`] then [`kernels::scale`], the
/// sequence of [`mean_of_indices_into`]). The finished averages are
/// therefore **bit-identical** to [`mean_of_indices`] over the same
/// selections, while memory stays at `O(m × trace_len)` instead of
/// `O(n2 × trace_len)`.
///
/// The `m` partial sums live in **one preallocated [`TraceBlock`]** (row
/// `i` = slot `i`), allocated once at construction: ingestion performs no
/// per-trace or per-slot heap allocation, and a finished average is read
/// as a borrowed row via [`StreamingKAverager::average`].
///
/// Slots complete out of slot order (slot completion is governed by each
/// selection's *largest* index); [`StreamingKAverager::ingest_chunk`]
/// reports which slots finished so the caller can maintain
/// contiguous-prefix semantics.
#[derive(Debug, Clone)]
pub struct StreamingKAverager {
    /// Ascending index selection per slot, drawn up front.
    selections: Vec<Vec<usize>>,
    /// Next unmatched position in each slot's selection; a slot whose
    /// cursor reached the selection's end holds its finished average.
    cursors: Vec<usize>,
    /// The preallocated `m × trace_len` output arena: partial sums while a
    /// slot accumulates, the finished average once it completes.
    slots: TraceBlock,
    trace_len: usize,
    population: usize,
    next_index: usize,
}

impl StreamingKAverager {
    /// Sets up one slot per selection over a population of `population`
    /// traces of `trace_len` samples each.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyTrace`] for `trace_len == 0`,
    /// [`TraceError::EmptySet`] for no selections,
    /// [`SelectError::EmptySelection`] for an empty selection,
    /// [`SelectError::NotAscending`] for a selection that is not strictly
    /// ascending (both wrapped in [`TraceError::Select`]), and
    /// [`TraceError::IndexOutOfRange`] for an index at or past
    /// `population`.
    pub fn new(
        population: usize,
        trace_len: usize,
        selections: Vec<Vec<usize>>,
    ) -> Result<Self, TraceError> {
        if trace_len == 0 {
            return Err(TraceError::EmptyTrace);
        }
        if selections.is_empty() {
            return Err(TraceError::EmptySet);
        }
        for selection in &selections {
            let Some(&last) = selection.last() else {
                return Err(SelectError::EmptySelection.into());
            };
            if let Some(position) = selection.windows(2).position(|w| w[0] >= w[1]) {
                return Err(SelectError::NotAscending {
                    position: position + 1,
                }
                .into());
            }
            if last >= population {
                return Err(TraceError::IndexOutOfRange {
                    index: last,
                    available: population,
                });
            }
        }
        let m = selections.len();
        let slots = TraceBlock::zeros("", m, trace_len)?;
        Ok(Self {
            selections,
            cursors: vec![0; m],
            slots,
            trace_len,
            population,
            next_index: 0,
        })
    }

    /// Ingests the next `chunk.len()` traces of the stream (from index
    /// [`Self::ingested`] on) and returns the index of every slot the chunk
    /// completed, in completion order; the finished averages are readable
    /// through [`StreamingKAverager::average`]. A live trace is a one-row
    /// chunk.
    ///
    /// A slot completed by a trace is finalized as [`mean_of_indices`]
    /// finishes an average: [`kernels::accumulate`] of its last trace, then
    /// [`kernels::scale`] by `1/k`. The finished average is therefore
    /// bit-identical to [`mean_of_indices`] over the slot's selection, for
    /// every partition of the stream into chunks.
    ///
    /// The chunk is atomic: every row is checked before any row touches a
    /// partial sum, so on error nothing was consumed and the caller may
    /// re-supply a corrected chunk for the same indices. Each sample is
    /// scanned for finiteness exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyChunk`] for a chunk with no rows, the
    /// first row's [`TraceError::LengthMismatch`] or
    /// [`TraceError::NonFiniteSample`] (with its stream index as
    /// `trace_index`), and [`TraceError::IndexOutOfRange`] when the chunk
    /// runs past the population.
    pub fn ingest_chunk(&mut self, chunk: &TraceBlock) -> Result<Vec<usize>, TraceError> {
        if chunk.is_empty() {
            return Err(TraceError::EmptyChunk);
        }
        for (offset, row) in chunk.rows().enumerate() {
            self.check_row(self.next_index + offset, row.samples())?;
        }
        if chunk.len() > self.population - self.next_index {
            return Err(TraceError::IndexOutOfRange {
                index: self.population,
                available: self.population,
            });
        }
        let mut finished = Vec::new();
        for row in chunk.rows() {
            self.ingest_row(row.samples(), &mut finished);
        }
        Ok(finished)
    }

    /// Rejects a trace of the wrong length or with a NaN/infinite sample;
    /// `index` is its stream index, reported in the error.
    fn check_row(&self, index: usize, samples: &[f64]) -> Result<(), TraceError> {
        if samples.len() != self.trace_len {
            return Err(TraceError::LengthMismatch {
                expected: self.trace_len,
                provided: samples.len(),
            });
        }
        // One branch-free pass decides, and the position is searched only
        // in a row that fails it. An early-exit scan alone runs at a speed
        // that depends on where the build places it in the binary: unrelated
        // code growth elsewhere has slowed the session's ingest by a fifth
        // or more.
        if !all_finite(samples) {
            if let Some(sample_index) = samples.iter().position(|s| !s.is_finite()) {
                return Err(TraceError::NonFiniteSample {
                    trace_index: index,
                    sample_index,
                });
            }
        }
        Ok(())
    }

    /// Adds a checked trace (stream index [`Self::ingested`], below the
    /// population) into every slot that selected it, finalizing and
    /// reporting into `finished` each slot it completes.
    fn ingest_row(&mut self, samples: &[f64], finished: &mut Vec<usize>) {
        let index = self.next_index;
        let slots = self
            .selections
            .iter()
            .zip(&mut self.cursors)
            .zip(self.slots.samples_mut().chunks_exact_mut(self.trace_len));
        for (slot_idx, ((selection, cursor), acc)) in slots.enumerate() {
            if selection.get(*cursor) != Some(&index) {
                continue;
            }
            *cursor += 1;
            kernels::accumulate(acc, samples);
            if *cursor == selection.len() {
                kernels::scale(acc, 1.0 / selection.len() as f64);
                finished.push(slot_idx);
            }
        }
        self.next_index += 1;
    }

    /// The finished `k`-average of `slot` — a borrowed row of the output
    /// arena — or `None` while the slot is still accumulating (its row
    /// holds an unscaled partial sum) or out of range.
    pub fn average(&self, slot: usize) -> Option<&[f64]> {
        if *self.cursors.get(slot)? < self.selections.get(slot)?.len() {
            return None;
        }
        self.slots.row(slot).ok().map(|row| row.samples())
    }

    /// Number of traces ingested so far (= the index of the next trace).
    pub fn ingested(&self) -> usize {
        self.next_index
    }

    /// Size of the backing population (`n2`).
    pub fn population(&self) -> usize {
        self.population
    }

    /// How many stream traces must be ingested before the first `slots`
    /// slots are all complete (0 for `slots == 0`; `slots` saturates at
    /// `m`). Selections are fixed at construction, so this is an exact
    /// prediction, not an estimate.
    pub fn traces_required_for_slots(&self, slots: usize) -> usize {
        self.selections
            .iter()
            .take(slots)
            .filter_map(|sel| sel.last().map(|&last| last + 1))
            .max()
            .unwrap_or(0)
    }
}

/// Whether no sample of `samples` is NaN or infinite, in one branch-free
/// integer pass over eight `u64` lanes. Masking a sample's bits to its
/// exponent field and adding one exponent step carries into bit 63 exactly
/// when that field is all ones, which is what `!is_finite` means; the
/// lanes OR those words together.
fn all_finite(samples: &[f64]) -> bool {
    const EXPONENT: u64 = 0x7ff0_0000_0000_0000;
    const STEP: u64 = 0x0010_0000_0000_0000;
    let flag = |s: &f64| (s.to_bits() & EXPONENT) + STEP;
    let mut lanes = [0u64; 8];
    let (words, rest) = samples.as_chunks::<8>();
    for word in words {
        for (lane, s) in lanes.iter_mut().zip(word) {
            *lane |= flag(s);
        }
    }
    for (lane, s) in lanes.iter_mut().zip(rest) {
        *lane |= flag(s);
    }
    lanes.iter().fold(0, |any, lane| any | lane) >> 63 == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn block_of(vals: &[&[f64]]) -> TraceBlock {
        let mut block = TraceBlock::new("d");
        for v in vals {
            block.push_row(v).unwrap();
        }
        block
    }

    #[test]
    fn mean_of_indices_averages() {
        let set = block_of(&[&[1.0, 2.0], &[3.0, 6.0], &[5.0, 10.0]]);
        let avg = mean_of_indices(&set, &[0, 2]).unwrap();
        assert_eq!(avg.samples(), &[3.0, 6.0]);
    }

    #[test]
    fn mean_of_indices_rejects_empty_and_bad_index() {
        let set = block_of(&[&[1.0]]);
        assert!(matches!(
            mean_of_indices(&set, &[]),
            Err(TraceError::EmptySet)
        ));
        assert!(mean_of_indices(&set, &[3]).is_err());
    }

    #[test]
    fn k_average_of_full_set_is_grand_mean() {
        let set = block_of(&[&[0.0, 4.0], &[2.0, 0.0], &[4.0, 2.0]]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let avg = k_average(&set, 3, &mut rng).unwrap();
        assert_eq!(avg.samples(), &[2.0, 2.0]);
    }

    #[test]
    fn k_average_rejects_k_larger_than_set() {
        let set = block_of(&[&[1.0], &[2.0]]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(k_average(&set, 3, &mut rng).is_err());
        assert!(k_average(&set, 0, &mut rng).is_err());
    }

    fn noisy_test_set(n: usize, len: usize, seed: u64) -> TraceBlock {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut set = TraceBlock::new("stream");
        use rand::Rng as _;
        for _ in 0..n {
            let row: Vec<f64> = (0..len)
                .map(|i| (i as f64 * 0.31).sin() + rng.gen_range(-0.5..0.5))
                .collect();
            set.push_row(&row).unwrap();
        }
        set
    }

    /// Bits of every slot's finished average, `None` for an unfinished slot.
    fn average_bits(s: &StreamingKAverager, m: usize) -> Vec<Option<Vec<u64>>> {
        (0..m)
            .map(|slot| {
                s.average(slot)
                    .map(|avg| avg.iter().map(|x| x.to_bits()).collect())
            })
            .collect()
    }

    /// `m` selections of `k` from `0..population`, drawn in order from one
    /// seeded RNG — the draw `m` successive [`k_average`] calls make.
    fn drawn(population: usize, k: usize, m: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..m)
            .map(|_| uniform_distinct_indices(population, k, &mut rng).unwrap())
            .collect()
    }

    #[test]
    fn streaming_averager_is_bitwise_equal_to_batch() {
        // The batch reference is m interleaved draw-then-average
        // `k_average` calls on one RNG: no pre-drawn selections.
        let set = noisy_test_set(120, 16, 5);
        for seed in 0..4u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let batch: Vec<Trace> = (0..7)
                .map(|_| k_average(&set, 9, &mut rng).unwrap())
                .collect();
            let mut streamer =
                StreamingKAverager::new(set.len(), 16, drawn(set.len(), 9, 7, seed)).unwrap();
            let mut streamed: Vec<Option<Vec<f64>>> = vec![None; 7];
            for trace in set.rows() {
                for slot in streamer
                    .ingest_chunk(&block_of(&[trace.samples()]))
                    .unwrap()
                {
                    assert!(streamed[slot].is_none(), "slot {slot} completed twice");
                    let avg = streamer.average(slot).expect("slot just finished");
                    streamed[slot] = Some(avg.to_vec());
                }
            }
            for (slot, avg) in streamed.iter().enumerate() {
                let got = avg.as_ref().expect("every slot completes");
                let got_bits: Vec<u64> = got.iter().map(|s| s.to_bits()).collect();
                let want_bits: Vec<u64> =
                    batch[slot].samples().iter().map(|s| s.to_bits()).collect();
                assert_eq!(got_bits, want_bits, "seed {seed}, slot {slot}");
                assert_eq!(streamer.average(slot), Some(got.as_slice()));
            }
        }
    }

    #[test]
    fn mean_of_indices_into_validates_the_buffer() {
        let set = block_of(&[&[1.0, 2.0], &[3.0, 6.0]]);
        let mut bad = vec![0.0; 3];
        assert!(matches!(
            mean_of_indices_into(&set, &[0], &mut bad),
            Err(TraceError::LengthMismatch {
                expected: 2,
                provided: 3
            })
        ));
        let mut out = vec![9.0; 2];
        mean_of_indices_into(&set, &[0, 1], &mut out).unwrap();
        assert_eq!(out, vec![2.0, 4.0]);
        assert!(matches!(
            mean_of_indices_into(&set, &[], &mut out),
            Err(TraceError::EmptySet)
        ));
    }

    #[test]
    fn streaming_averager_rejects_bad_input_without_consuming() {
        let mut s = StreamingKAverager::new(10, 3, drawn(10, 2, 2, 3)).unwrap();
        assert!(matches!(
            s.ingest_chunk(&block_of(&[&[1.0, 2.0]])),
            Err(TraceError::LengthMismatch {
                expected: 3,
                provided: 2
            })
        ));
        assert!(matches!(
            s.ingest_chunk(&block_of(&[&[1.0, f64::NAN, 2.0]])),
            Err(TraceError::NonFiniteSample {
                trace_index: 0,
                sample_index: 1
            })
        ));
        // Rejections did not advance the stream: a corrected trace for the
        // same index is accepted.
        assert_eq!(s.ingested(), 0);
        for i in 0..10 {
            s.ingest_chunk(&block_of(&[&[i as f64, 1.0, 2.0]])).unwrap();
        }
        assert!(average_bits(&s, 2).iter().all(Option::is_some));
        assert!(matches!(
            s.ingest_chunk(&block_of(&[&[0.0, 0.0, 0.0]])),
            Err(TraceError::IndexOutOfRange {
                index: 10,
                available: 10
            })
        ));
    }

    #[test]
    fn chunk_ingest_equals_row_ingest() {
        // One-row chunks (a live stream) against one whole-set chunk, with
        // a ragged partition in between: the same slots finish in the same
        // order, with the same bits.
        let set = noisy_test_set(60, 8, 2);
        let fresh = StreamingKAverager::new(60, 8, drawn(60, 5, 4, 1)).unwrap();
        let run = |rows_per_chunk: usize| {
            let mut s = fresh.clone();
            let mut finished = Vec::new();
            for rows in set.samples().chunks(rows_per_chunk * 8) {
                let chunk = TraceBlock::from_data("chunk", 8, rows.to_vec()).unwrap();
                finished.extend(s.ingest_chunk(&chunk).unwrap());
            }
            (finished, average_bits(&s, 4))
        };
        let (by_row, row_bits) = run(1);
        assert_eq!(by_row.len(), 4);
        assert!(row_bits.iter().all(Option::is_some));
        for rows_per_chunk in [7, 60] {
            assert_eq!(run(rows_per_chunk), (by_row.clone(), row_bits.clone()));
        }
    }

    #[test]
    fn chunk_ingest_rejects_the_whole_chunk_without_consuming() {
        let mut s = StreamingKAverager::new(10, 3, drawn(10, 2, 2, 3)).unwrap();
        assert!(matches!(
            s.ingest_chunk(&TraceBlock::new("empty")),
            Err(TraceError::EmptyChunk)
        ));
        // A bad second row rejects the clean first row with it.
        assert!(matches!(
            s.ingest_chunk(&block_of(&[&[0.0, 1.0, 2.0], &[1.0, f64::NAN, 2.0]])),
            Err(TraceError::NonFiniteSample {
                trace_index: 1,
                sample_index: 1
            })
        ));
        assert!(matches!(
            s.ingest_chunk(&block_of(&[&[0.0, 1.0], &[1.0, 2.0]])),
            Err(TraceError::LengthMismatch {
                expected: 3,
                provided: 2
            })
        ));
        assert_eq!(s.ingested(), 0);
        let nine: Vec<f64> = (0..9).flat_map(|i| [f64::from(i), 1.0, 2.0]).collect();
        s.ingest_chunk(&TraceBlock::from_data("nine", 3, nine.clone()).unwrap())
            .unwrap();
        // A chunk that runs past the population is rejected whole.
        let two = block_of(&[&[9.0, 1.0, 2.0], &[10.0, 1.0, 2.0]]);
        assert!(matches!(
            s.ingest_chunk(&two),
            Err(TraceError::IndexOutOfRange {
                index: 10,
                available: 10
            })
        ));
        assert_eq!(s.ingested(), 9);
        s.ingest_chunk(&block_of(&[&[9.0, 1.0, 2.0]])).unwrap();
        // The rejected chunks touched no partial sum: the averages match a
        // stream that never saw them.
        let mut clean = StreamingKAverager::new(10, 3, drawn(10, 2, 2, 3)).unwrap();
        let ten = [nine, vec![9.0, 1.0, 2.0]].concat();
        clean
            .ingest_chunk(&TraceBlock::from_data("ten", 3, ten).unwrap())
            .unwrap();
        assert!(average_bits(&s, 2).iter().all(Option::is_some));
        assert_eq!(average_bits(&s, 2), average_bits(&clean, 2));
    }

    #[test]
    fn streaming_averager_rejects_degenerate_construction() {
        assert!(matches!(
            StreamingKAverager::new(10, 0, drawn(10, 2, 2, 0)),
            Err(TraceError::EmptyTrace)
        ));
        assert!(matches!(
            StreamingKAverager::new(10, 3, Vec::new()),
            Err(TraceError::EmptySet)
        ));
    }

    #[test]
    fn streaming_averager_rejects_an_empty_selection() {
        assert!(matches!(
            StreamingKAverager::new(10, 3, vec![vec![1, 4], Vec::new()]),
            Err(TraceError::Select(SelectError::EmptySelection))
        ));
    }

    #[test]
    fn streaming_averager_rejects_a_selection_that_is_not_strictly_ascending() {
        for selection in [vec![3, 2], vec![0, 5, 5], vec![1, 2, 7, 4]] {
            let position = selection.windows(2).position(|w| w[0] >= w[1]).unwrap() + 1;
            assert!(
                matches!(
                    StreamingKAverager::new(10, 3, vec![vec![0, 1], selection.clone()]),
                    Err(TraceError::Select(SelectError::NotAscending { position: p })) if p == position
                ),
                "{selection:?}"
            );
        }
    }

    #[test]
    fn streaming_averager_rejects_an_index_past_the_population() {
        assert!(matches!(
            StreamingKAverager::new(10, 3, vec![vec![0, 9], vec![2, 10]]),
            Err(TraceError::IndexOutOfRange {
                index: 10,
                available: 10
            })
        ));
        // The last index of the population is in range.
        assert!(StreamingKAverager::new(10, 3, vec![vec![9]]).is_ok());
    }

    #[test]
    fn traces_required_predicts_completion_exactly() {
        let mut s = StreamingKAverager::new(40, 2, drawn(40, 6, 5, 21)).unwrap();
        let required: Vec<usize> = (0..=5).map(|r| s.traces_required_for_slots(r)).collect();
        assert_eq!(required[0], 0);
        assert!(required.windows(2).all(|w| w[0] <= w[1]));
        // Feed the stream; after exactly required[r] traces the first r
        // slots must all be complete (and not one trace earlier).
        let mut done = [false; 5];
        for i in 0..40 {
            let trace = block_of(&[&[i as f64, 2.0 * i as f64 + 1.0]]);
            for slot in s.ingest_chunk(&trace).unwrap() {
                done[slot] = true;
            }
            let fed = i + 1;
            for r in 1..=5 {
                let prefix_done = done[..r].iter().all(|&d| d);
                assert_eq!(
                    prefix_done,
                    fed >= required[r],
                    "prefix {r} after {fed} traces"
                );
            }
        }
        assert!(average_bits(&s, 5).iter().all(Option::is_some));
        assert_eq!(s.average(5), None);
        assert_eq!(s.population(), 40);
    }

    #[test]
    fn averaging_reduces_noise_spread() {
        // 200 noisy constant traces; the 50-average must be much closer to
        // the true mean than a single trace is on average.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        use rand::Rng as _;
        let mut set = TraceBlock::new("noisy");
        for _ in 0..200 {
            let v: f64 = rng.gen_range(-1.0..1.0);
            set.push_row(&[5.0 + v]).unwrap();
        }
        let avg = k_average(&set, 50, &mut rng).unwrap();
        assert!((avg.samples()[0] - 5.0).abs() < 0.2);
    }
}
