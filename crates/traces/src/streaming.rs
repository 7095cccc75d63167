//! Chunked trace delivery for streaming verification.
//!
//! A verification service does not receive `n2 = 10 000` DUT traces at
//! once — the oscilloscope hands them over a few at a time. ChunkedSource
//! adapts any [`TraceSource`] into that delivery shape: fixed-size
//! contiguous [`TraceBlock`] chunks, in index order, so a
//! [`StreamingKAverager`](crate::average::StreamingKAverager)-backed
//! session can consume the campaign incrementally and stop acquiring as
//! soon as its decision is confident.

use crate::block::TraceBlock;
use crate::error::TraceError;
use crate::trace::TraceSource;

/// Reads a [`TraceSource`] as a sequence of fixed-size chunks.
///
/// The final chunk may be shorter; after it, [`ChunkedSource::next_chunk`]
/// returns `Ok(None)`. Trace order is the source's index order — the order
/// the batch path's ascending selections consume, which is what keeps
/// streaming bit-identical to batch (DESIGN.md §9).
///
/// # Examples
///
/// ```
/// use ipmark_traces::streaming::ChunkedSource;
/// use ipmark_traces::TraceBlock;
///
/// # fn main() -> Result<(), ipmark_traces::TraceError> {
/// let mut block = TraceBlock::new("dut");
/// for i in 0..10 {
///     block.push_row(&[i as f64, 1.0])?;
/// }
/// let mut chunks = ChunkedSource::new(&block, 4)?;
/// let sizes: Vec<usize> = std::iter::from_fn(|| chunks.next_chunk().transpose())
///     .map(|c| c.map(|traces| traces.len()))
///     .collect::<Result<_, _>>()?;
/// assert_eq!(sizes, [4, 4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ChunkedSource<'a, S: TraceSource + ?Sized> {
    source: &'a S,
    chunk_size: usize,
    next: usize,
    limit: usize,
}

impl<'a, S: TraceSource + ?Sized> ChunkedSource<'a, S> {
    /// Chunks the whole source.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyChunk`] for a zero chunk size.
    pub fn new(source: &'a S, chunk_size: usize) -> Result<Self, TraceError> {
        Self::with_limit(source, chunk_size, source.num_traces())
    }

    /// Chunks only the first `limit` traces of the source (the `n2` bound
    /// of the correlation process).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyChunk`] for a zero chunk size and
    /// [`TraceError::IndexOutOfRange`] when `limit` exceeds the source.
    pub fn with_limit(source: &'a S, chunk_size: usize, limit: usize) -> Result<Self, TraceError> {
        if chunk_size == 0 {
            return Err(TraceError::EmptyChunk);
        }
        if limit > source.num_traces() {
            return Err(TraceError::IndexOutOfRange {
                index: limit,
                available: source.num_traces(),
            });
        }
        Ok(Self {
            source,
            chunk_size,
            next: 0,
            limit,
        })
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Samples per trace.
    pub fn trace_len(&self) -> usize {
        self.source.trace_len()
    }

    /// Traces not yet delivered.
    pub fn remaining(&self) -> usize {
        self.limit - self.next
    }

    /// Index of the next trace to be delivered.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Delivers the next chunk as one contiguous [`TraceBlock`] (row `i` =
    /// source trace `position() + i`), or `Ok(None)` once the limit is
    /// reached.
    ///
    /// The chunk is a single arena allocation; each row is zeroed and then
    /// accumulated from the source — the same element-wise zero-then-add
    /// sequence a per-trace materialization performs. Every sample arrives
    /// as `+0.0 + s`, which is `s` bit for bit except for a stored `-0.0`:
    /// it arrives as `+0.0`. The two compare equal, and a k-average, a sum
    /// that starts from `+0.0`, gives the same bits for either.
    ///
    /// # Errors
    ///
    /// Propagates the source's per-trace errors; a failed chunk is not
    /// consumed (the position only advances on success).
    pub fn next_chunk(&mut self) -> Result<Option<TraceBlock>, TraceError> {
        if self.next >= self.limit {
            return Ok(None);
        }
        let end = (self.next + self.chunk_size).min(self.limit);
        let mut chunk = TraceBlock::zeros("", end - self.next, self.source.trace_len())?;
        for (offset, mut row) in chunk.rows_mut().enumerate() {
            self.source
                .accumulate(self.next + offset, row.samples_mut())?;
        }
        self.next = end;
        Ok(Some(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_of(n: usize) -> TraceBlock {
        let mut block = TraceBlock::new("d");
        for i in 0..n {
            block.push_row(&[i as f64, 10.0 + i as f64]).unwrap();
        }
        block
    }

    #[test]
    fn chunks_cover_the_source_in_order() {
        let set = block_of(10);
        let mut chunks = ChunkedSource::new(&set, 3).unwrap();
        assert_eq!(chunks.chunk_size(), 3);
        assert_eq!(chunks.trace_len(), 2);
        let mut seen: Vec<Vec<f64>> = Vec::new();
        while let Some(chunk) = chunks.next_chunk().unwrap() {
            seen.extend(chunk.rows().map(|r| r.samples().to_vec()));
        }
        assert_eq!(seen.len(), 10);
        for (i, t) in seen.iter().enumerate() {
            assert_eq!(t.as_slice(), &[i as f64, 10.0 + i as f64]);
        }
        assert!(chunks.next_chunk().unwrap().is_none());
        assert_eq!(chunks.remaining(), 0);
    }

    #[test]
    fn a_stored_negative_zero_arrives_as_positive_zero() {
        let mut block = TraceBlock::new("d");
        block.push_row(&[-0.0, 1.0]).unwrap();
        let chunk = ChunkedSource::new(&block, 1)
            .unwrap()
            .next_chunk()
            .unwrap()
            .unwrap();
        let bits: Vec<u64> = chunk.samples().iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, [0.0f64.to_bits(), 1.0f64.to_bits()]);
    }

    #[test]
    fn limit_bounds_delivery() {
        let set = block_of(10);
        let mut chunks = ChunkedSource::with_limit(&set, 4, 6).unwrap();
        assert_eq!(chunks.remaining(), 6);
        assert_eq!(chunks.next_chunk().unwrap().unwrap().len(), 4);
        assert_eq!(chunks.position(), 4);
        assert_eq!(chunks.next_chunk().unwrap().unwrap().len(), 2);
        assert!(chunks.next_chunk().unwrap().is_none());
    }

    #[test]
    fn rejects_zero_chunk_and_oversized_limit() {
        let set = block_of(3);
        assert!(matches!(
            ChunkedSource::new(&set, 0),
            Err(TraceError::EmptyChunk)
        ));
        assert!(matches!(
            ChunkedSource::with_limit(&set, 2, 4),
            Err(TraceError::IndexOutOfRange {
                index: 4,
                available: 3
            })
        ));
    }
}
