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
    /// The chunk is a single arena allocation that
    /// [`TraceSource::append_rows`] fills: each row is the source's samples
    /// bit for bit, a stored `-0.0` included.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyTrace`] for a zero-length source and
    /// [`TraceError::DimensionOverflow`] when the chunk's sample count
    /// cannot be represented, and propagates the source's per-trace errors;
    /// a failed chunk is not consumed (the position only advances on
    /// success).
    pub fn next_chunk(&mut self) -> Result<Option<TraceBlock>, TraceError> {
        if self.next >= self.limit {
            return Ok(None);
        }
        let end = (self.next + self.chunk_size).min(self.limit);
        let (count, trace_len) = (end - self.next, self.source.trace_len());
        if trace_len == 0 {
            return Err(TraceError::EmptyTrace);
        }
        let total = count
            .checked_mul(trace_len)
            .ok_or(TraceError::DimensionOverflow { count, trace_len })?;
        let mut data = Vec::with_capacity(total);
        self.source.append_rows(self.next, count, &mut data)?;
        let chunk = TraceBlock::from_data("", trace_len, data)?;
        self.next = end;
        Ok(Some(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SPECIAL_ROWS;

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

    fn bits(samples: &[f64]) -> Vec<u64> {
        samples.iter().map(|s| s.to_bits()).collect()
    }

    fn streamed_bits<S: TraceSource + ?Sized>(source: &S, chunk_size: usize) -> Vec<u64> {
        let mut chunks = ChunkedSource::new(source, chunk_size).unwrap();
        let mut out = Vec::new();
        while let Some(chunk) = chunks.next_chunk().unwrap() {
            out.extend(bits(chunk.samples()));
        }
        out
    }

    #[test]
    fn a_stored_negative_zero_arrives_bit_for_bit() {
        let block = TraceBlock::from_data("d", 4, SPECIAL_ROWS.to_vec()).unwrap();
        for chunk_size in [1, 2, 5] {
            assert_eq!(
                streamed_bits(&block, chunk_size),
                bits(block.samples()),
                "TraceBlock, chunks of {chunk_size}"
            );
        }

        let path = std::env::temp_dir().join(format!(
            "ipmark-streaming-negative-zero-{}.trc2",
            std::process::id()
        ));
        let mut buf = Vec::new();
        crate::io::write_block(&block, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let stored = crate::mmap::read_block_mapped("d", &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for chunk_size in [1, 2, 5] {
            assert_eq!(
                streamed_bits(&stored, chunk_size),
                bits(block.samples()),
                "stored IPMKTRC2, chunks of {chunk_size}"
            );
        }
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
