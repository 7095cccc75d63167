//! Contiguous row-major trace storage — the campaign arena.
//!
//! A measurement campaign is `count` traces of `trace_len` samples each.
//! [`TraceBlock`] stores the whole campaign in **one** row-major `Vec<f64>`
//! (`count × trace_len` samples), so the hot paths — acquisition,
//! k-averaging, the fused Pearson kernel — walk cache-friendly contiguous
//! memory and perform no per-trace heap allocation. Row `i` occupies
//! `data[i * trace_len .. (i + 1) * trace_len]`.
//!
//! Rows are exposed as borrowed views ([`TraceView`] / [`TraceViewMut`]):
//! thin wrappers over `&[f64]` / `&mut [f64]` that never copy samples.
//! [`TraceBlock`] is the only owned multi-trace container; the owned
//! single-row [`Trace`](crate::Trace) remains for one-off rows such as a
//! k-average.
//!
//! Row-major order is what makes the arena compatible with the determinism
//! contract (DESIGN.md §7/§9/§10): selections are ascending, so averaging
//! reads rows lowest-index-first — a forward sweep over the arena — and the
//! floating-point operation sequence is identical to the per-trace layout.

use crate::error::TraceError;
use crate::kernels;
use crate::trace::{check_rows, TraceSource};

/// A contiguous row-major arena of `count` equal-length traces.
///
/// # Examples
///
/// ```
/// use ipmark_traces::TraceBlock;
///
/// # fn main() -> Result<(), ipmark_traces::TraceError> {
/// let mut block = TraceBlock::zeros("dut", 3, 4)?;
/// block.row_mut(1)?.copy_from_slice(&[1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(block.len(), 3);
/// assert_eq!(block.row(1)?.samples(), &[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(block.row(0)?.samples(), &[0.0; 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBlock {
    /// Free-form label of the device the traces were measured on.
    device: String,
    trace_len: usize,
    count: usize,
    /// Row-major samples: `count * trace_len` values.
    data: Vec<f64>,
}

impl TraceBlock {
    /// An empty block labelled with a device name; the trace length is
    /// fixed by the first pushed row.
    pub fn new(device: impl Into<String>) -> Self {
        Self {
            device: device.into(),
            trace_len: 0,
            count: 0,
            data: Vec::new(),
        }
    }

    /// A zero-initialized arena of `count` rows of `trace_len` samples —
    /// the preallocated campaign store the hot paths write into.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyTrace`] for `trace_len == 0` (a block
    /// never holds zero-sample rows; use [`TraceBlock::new`] for an empty
    /// block whose length is fixed by the first pushed row) and
    /// [`TraceError::DimensionOverflow`] when `count × trace_len` cannot
    /// be represented.
    pub fn zeros(
        device: impl Into<String>,
        count: usize,
        trace_len: usize,
    ) -> Result<Self, TraceError> {
        if trace_len == 0 {
            return Err(TraceError::EmptyTrace);
        }
        let total = count
            .checked_mul(trace_len)
            .ok_or(TraceError::DimensionOverflow { count, trace_len })?;
        Ok(Self {
            device: device.into(),
            trace_len,
            count,
            data: crate::mmap::zeroed_arena(total),
        })
    }

    /// Wraps an existing row-major sample vector (`data.len()` must be a
    /// multiple of `trace_len`) — the zero-copy path a binary campaign
    /// file loads through.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyTrace`] for `trace_len == 0` (rows are
    /// never zero-sample; use [`TraceBlock::new`] for an empty block) and
    /// [`TraceError::LengthMismatch`] for a trailing partial row (the
    /// reported `provided` value is the number of leftover samples).
    pub fn from_data(
        device: impl Into<String>,
        trace_len: usize,
        data: Vec<f64>,
    ) -> Result<Self, TraceError> {
        if trace_len == 0 {
            return Err(TraceError::EmptyTrace);
        }
        if !data.len().is_multiple_of(trace_len) {
            return Err(TraceError::LengthMismatch {
                expected: trace_len,
                provided: data.len() % trace_len,
            });
        }
        let count = data.len() / trace_len;
        Ok(Self {
            device: device.into(),
            trace_len,
            count,
            data,
        })
    }

    /// Appends one row, copying its samples to the end of the arena.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyTrace`] for an empty row and
    /// [`TraceError::LengthMismatch`] when its length differs from the rows
    /// already in the block.
    pub fn push_row(&mut self, samples: &[f64]) -> Result<(), TraceError> {
        if samples.is_empty() {
            return Err(TraceError::EmptyTrace);
        }
        if self.trace_len == 0 {
            // Deferred-length block (`TraceBlock::new`): the first row
            // fixes the length.
            self.trace_len = samples.len();
        } else if samples.len() != self.trace_len {
            return Err(TraceError::LengthMismatch {
                expected: self.trace_len,
                provided: samples.len(),
            });
        }
        self.data.extend_from_slice(samples);
        self.count += 1;
        Ok(())
    }

    /// Number of traces (rows).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the block holds no traces.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Samples per trace (0 for an empty block).
    pub fn trace_len(&self) -> usize {
        self.trace_len
    }

    /// Device label.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// The whole row-major arena: `len() * trace_len()` samples.
    pub fn samples(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the whole arena — the surface parallel acquisition
    /// splits into per-worker row ranges.
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::IndexOutOfRange`] when `index >= len()`.
    pub fn row(&self, index: usize) -> Result<TraceView<'_>, TraceError> {
        let start = self.row_start(index)?;
        Ok(TraceView {
            samples: &self.data[start..start + self.trace_len],
        })
    }

    /// Mutably borrows row `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::IndexOutOfRange`] when `index >= len()`.
    pub fn row_mut(&mut self, index: usize) -> Result<TraceViewMut<'_>, TraceError> {
        let start = self.row_start(index)?;
        Ok(TraceViewMut {
            samples: &mut self.data[start..start + self.trace_len],
        })
    }

    fn row_start(&self, index: usize) -> Result<usize, TraceError> {
        if index >= self.count {
            return Err(TraceError::IndexOutOfRange {
                index,
                available: self.count,
            });
        }
        // count * trace_len == data.len() is a construction invariant, so
        // this multiplication cannot overflow.
        Ok(index * self.trace_len)
    }

    /// Iterates over the rows as borrowed views.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            data: &self.data,
            trace_len: self.trace_len,
            remaining: self.count,
        }
    }

    /// Iterates over the rows as mutable views.
    pub fn rows_mut(&mut self) -> RowsMut<'_> {
        RowsMut {
            data: &mut self.data,
            trace_len: self.trace_len,
            remaining: self.count,
        }
    }
}

impl TraceSource for TraceBlock {
    fn num_traces(&self) -> usize {
        self.count
    }

    fn trace_len(&self) -> usize {
        self.trace_len
    }

    fn accumulate(&self, index: usize, acc: &mut [f64]) -> Result<(), TraceError> {
        let row = self.row(index)?;
        let samples = row.samples();
        if acc.len() != samples.len() {
            return Err(TraceError::LengthMismatch {
                expected: samples.len(),
                provided: acc.len(),
            });
        }
        kernels::accumulate(acc, samples);
        Ok(())
    }

    /// One range check, then one copy of the rows' contiguous samples.
    fn append_rows(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), TraceError> {
        check_rows(start, count, self.count)?;
        if count > 0 {
            let len = self.trace_len;
            out.extend_from_slice(&self.data[start * len..(start + count) * len]);
        }
        Ok(())
    }
}

/// A borrowed row of a [`TraceBlock`]: `trace_len` contiguous samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceView<'a> {
    samples: &'a [f64],
}

impl<'a> TraceView<'a> {
    /// Borrows the samples for the lifetime of the *block*, not the view.
    pub fn samples(&self) -> &'a [f64] {
        self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the view has zero samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

impl AsRef<[f64]> for TraceView<'_> {
    fn as_ref(&self) -> &[f64] {
        self.samples
    }
}

/// A mutably borrowed row of a [`TraceBlock`].
#[derive(Debug, PartialEq)]
pub struct TraceViewMut<'a> {
    samples: &'a mut [f64],
}

impl TraceViewMut<'_> {
    /// Borrows the samples.
    pub fn samples(&self) -> &[f64] {
        self.samples
    }

    /// Mutably borrows the samples.
    pub fn samples_mut(&mut self) -> &mut [f64] {
        self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the view has zero samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Overwrites the row.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] when `samples` has the wrong
    /// length.
    pub fn copy_from_slice(&mut self, samples: &[f64]) -> Result<(), TraceError> {
        if samples.len() != self.samples.len() {
            return Err(TraceError::LengthMismatch {
                expected: self.samples.len(),
                provided: samples.len(),
            });
        }
        self.samples.copy_from_slice(samples);
        Ok(())
    }

    /// Sets every sample to `value`.
    pub fn fill(&mut self, value: f64) {
        self.samples.fill(value);
    }
}

/// Iterator over the rows of a [`TraceBlock`].
///
/// Counts rows explicitly rather than delegating to `ChunksExact`, so a
/// default-constructed block (`trace_len == 0`, no rows) iterates as empty
/// instead of requiring a chunk-size workaround.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    data: &'a [f64],
    trace_len: usize,
    remaining: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = TraceView<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let (samples, rest) = self.data.split_at(self.trace_len);
        self.data = rest;
        self.remaining -= 1;
        Some(TraceView { samples })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// Iterator over the mutable rows of a [`TraceBlock`].
#[derive(Debug)]
pub struct RowsMut<'a> {
    data: &'a mut [f64],
    trace_len: usize,
    remaining: usize,
}

impl<'a> Iterator for RowsMut<'a> {
    type Item = TraceViewMut<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let data = std::mem::take(&mut self.data);
        let (samples, rest) = data.split_at_mut(self.trace_len);
        self.data = rest;
        self.remaining -= 1;
        Some(TraceViewMut { samples })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowsMut<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_123() -> TraceBlock {
        TraceBlock::from_data("d", 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn zeros_allocates_validated_dims() {
        let b = TraceBlock::zeros("d", 3, 4).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.trace_len(), 4);
        assert_eq!(b.device(), "d");
        assert_eq!(b.samples(), &[0.0; 12]);
        assert!(!b.is_empty());
        assert!(matches!(
            TraceBlock::zeros("d", 1, 0),
            Err(TraceError::EmptyTrace)
        ));
        assert!(matches!(
            TraceBlock::zeros("d", usize::MAX, 2),
            Err(TraceError::DimensionOverflow { .. })
        ));
        // Zero rows are fine; the declared trace length is kept so a later
        // writer can rely on it.
        let empty = TraceBlock::zeros("d", 0, 7).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.trace_len(), 7);
    }

    #[test]
    fn from_data_validates_row_boundary() {
        let b = block_123();
        assert_eq!(b.len(), 3);
        assert_eq!(b.trace_len(), 2);
        assert!(matches!(
            TraceBlock::from_data("d", 2, vec![1.0, 2.0, 3.0]),
            Err(TraceError::LengthMismatch {
                expected: 2,
                provided: 1
            })
        ));
        assert!(matches!(
            TraceBlock::from_data("d", 0, vec![1.0]),
            Err(TraceError::EmptyTrace)
        ));
        // Zero-sample rows are rejected at construction even without data;
        // `TraceBlock::new` is the way to build an empty block.
        assert!(matches!(
            TraceBlock::from_data("d", 0, vec![]),
            Err(TraceError::EmptyTrace)
        ));
    }

    #[test]
    fn degenerate_blocks_iterate_as_empty() {
        // Deferred-length block: no rows, trace_len still unset.
        let mut deferred = TraceBlock::new("d");
        assert_eq!(deferred.trace_len(), 0);
        assert_eq!(deferred.rows().len(), 0);
        assert!(deferred.rows().next().is_none());
        assert!(deferred.rows_mut().next().is_none());
        // Zero-row block with a declared length: still yields no rows.
        let mut empty = TraceBlock::zeros("d", 0, 7).unwrap();
        assert_eq!(empty.rows().len(), 0);
        assert!(empty.rows().next().is_none());
        assert!(empty.rows_mut().next().is_none());
        let empty2 = TraceBlock::from_data("d", 3, vec![]).unwrap();
        assert!(empty2.is_empty());
        assert_eq!(empty2.trace_len(), 3);
        assert!(empty2.rows().next().is_none());
        // The declared length still gates pushes.
        assert!(matches!(
            empty.push_row(&[1.0]),
            Err(TraceError::LengthMismatch {
                expected: 7,
                provided: 1
            })
        ));
        empty.push_row(&[0.0; 7]).unwrap();
        assert_eq!(empty.rows().len(), 1);
    }

    #[test]
    fn push_row_grows_the_arena() {
        let mut b = TraceBlock::new("d");
        assert!(matches!(b.push_row(&[]), Err(TraceError::EmptyTrace)));
        b.push_row(&[1.0, 2.0]).unwrap();
        assert!(matches!(
            b.push_row(&[1.0]),
            Err(TraceError::LengthMismatch {
                expected: 2,
                provided: 1
            })
        ));
        b.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.samples(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn row_access_and_bounds() {
        let mut b = block_123();
        assert_eq!(b.row(1).unwrap().samples(), &[3.0, 4.0]);
        assert!(matches!(
            b.row(3),
            Err(TraceError::IndexOutOfRange {
                index: 3,
                available: 3
            })
        ));
        let mut row = b.row_mut(2).unwrap();
        assert_eq!(row.len(), 2);
        assert!(!row.is_empty());
        row.samples_mut()[0] = -5.0;
        row.fill(9.0);
        assert!(matches!(
            row.copy_from_slice(&[1.0]),
            Err(TraceError::LengthMismatch { .. })
        ));
        row.copy_from_slice(&[7.0, 8.0]).unwrap();
        assert_eq!(b.row(2).unwrap().samples(), &[7.0, 8.0]);
        assert!(b.row_mut(3).is_err());
    }

    #[test]
    fn rows_iterate_in_order() {
        let b = block_123();
        let rows: Vec<&[f64]> = b.rows().map(|r| r.samples()).collect();
        assert_eq!(rows, [&[1.0, 2.0][..], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(b.rows().len(), 3);
        let mut b = b;
        for mut row in b.rows_mut() {
            row.samples_mut()[0] *= 10.0;
        }
        assert_eq!(b.samples(), &[10.0, 2.0, 30.0, 4.0, 50.0, 6.0]);
        assert!(TraceBlock::new("d").rows().next().is_none());
    }

    #[test]
    fn view_accessors_borrow_for_the_block_lifetime() {
        let b = block_123();
        let samples = {
            let view = b.row(0).unwrap();
            assert_eq!(view.len(), 2);
            assert!(!view.is_empty());
            assert_eq!(view.as_ref(), view.samples());
            view.samples()
        };
        // `samples` outlives the view: it borrows from the block itself.
        assert_eq!(samples, &[1.0, 2.0]);
    }

    #[test]
    fn trace_source_accumulates_rows() {
        let b = block_123();
        let mut acc = vec![0.0; 2];
        b.accumulate(0, &mut acc).unwrap();
        b.accumulate(2, &mut acc).unwrap();
        assert_eq!(acc, vec![6.0, 8.0]);
        assert_eq!(b.num_traces(), 3);
        assert_eq!(TraceSource::trace_len(&b), 2);
        let mut bad = vec![0.0; 3];
        assert!(b.accumulate(0, &mut bad).is_err());
        assert!(b.accumulate(9, &mut acc).is_err());
    }
}
