//! The owned single trace and the by-index trace-source seam.

use serde::{Deserialize, Serialize};

use crate::error::TraceError;

/// One power-consumption trace: a series of voltage/current samples taken at
/// a fixed rate while the device under test runs.
///
/// # Examples
///
/// ```
/// use ipmark_traces::Trace;
///
/// let t = Trace::from_samples(vec![0.1, 0.4, 0.2]);
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.samples()[1], 0.4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    samples: Vec<f64>,
}

impl Trace {
    /// Wraps a sample vector as a trace.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        Self { samples }
    }

    /// An all-zero trace of `len` samples (useful as an accumulator).
    pub fn zeros(len: usize) -> Self {
        Self {
            samples: vec![0.0; len],
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace has zero samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Borrows the samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mutably borrows the samples.
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// Consumes the trace, returning the sample vector.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }

    /// Adds `other` element-wise into `self`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] when the lengths differ.
    pub fn add_assign(&mut self, other: &Trace) -> Result<(), TraceError> {
        if self.len() != other.len() {
            return Err(TraceError::LengthMismatch {
                expected: self.len(),
                provided: other.len(),
            });
        }
        crate::kernels::accumulate(&mut self.samples, &other.samples);
        Ok(())
    }

    /// Multiplies every sample by `factor`.
    pub fn scale(&mut self, factor: f64) {
        crate::kernels::scale(&mut self.samples, factor);
    }
}

impl From<Vec<f64>> for Trace {
    fn from(samples: Vec<f64>) -> Self {
        Self::from_samples(samples)
    }
}

impl AsRef<[f64]> for Trace {
    fn as_ref(&self) -> &[f64] {
        &self.samples
    }
}

/// Anything that can serve traces by index.
///
/// Implemented by the in-memory [`TraceBlock`](crate::TraceBlock), the
/// stored-file [`MappedBlock`](crate::MappedBlock) and, in `ipmark-power`, by
/// the on-demand simulated acquisition source — which lets the verification
/// process draw from a population of `n2 = 10 000` traces without ever
/// materializing all of them.
pub trait TraceSource {
    /// Number of traces available.
    fn num_traces(&self) -> usize;

    /// Number of samples per trace.
    fn trace_len(&self) -> usize;

    /// Adds trace `index` element-wise into `acc` (`acc.len()` equals
    /// [`TraceSource::trace_len`]).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::IndexOutOfRange`] for a bad index and
    /// [`TraceError::LengthMismatch`] when `acc` has the wrong length.
    fn accumulate(&self, index: usize, acc: &mut [f64]) -> Result<(), TraceError>;

    /// Adds the traces at `indices` into `acc`, in list order: the k-average
    /// fill. The default body calls [`TraceSource::accumulate`] once per
    /// index. A source may override it to batch the work, as long as `acc`
    /// ends bit-identical to that loop's result and a failing call returns
    /// the loop's first error.
    ///
    /// # Errors
    ///
    /// As for [`TraceSource::accumulate`], for the first index that fails.
    fn accumulate_indices(&self, indices: &[usize], acc: &mut [f64]) -> Result<(), TraceError> {
        for &i in indices {
            self.accumulate(i, acc)?;
        }
        Ok(())
    }

    /// Appends traces `start..start + count` to `out`, in index order, each
    /// sample bit for bit: the chunk copy of a streaming session. The
    /// default body reads each row with [`TraceSource::accumulate`] into
    /// `-0.0`s, the IEEE additive identity (`-0.0 + s` is `s` bit for bit
    /// for every non-NaN `s`, `-0.0` included). A source may override it to
    /// copy rows directly, as long as the rows and a failing call's error
    /// are the default body's.
    ///
    /// # Errors
    ///
    /// A range that runs past the end is [`TraceError::IndexOutOfRange`]
    /// with index `max(start, num_traces())`, before any row is read;
    /// otherwise the first failing row's error, as for
    /// [`TraceSource::accumulate`]. On error `out` is left exactly as it
    /// was.
    fn append_rows(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), TraceError> {
        check_rows(start, count, self.num_traces())?;
        let before = out.len();
        let trace_len = self.trace_len();
        for index in start..start + count {
            let at = out.len();
            out.resize(at + trace_len, -0.0);
            if let Err(e) = self.accumulate(index, &mut out[at..]) {
                out.truncate(before);
                return Err(e);
            }
        }
        Ok(())
    }
}

/// The range check of [`TraceSource::append_rows`]: the error a per-row
/// loop over `start..start + count` meets at the first index past the end
/// of a source of `available` traces.
pub(crate) fn check_rows(start: usize, count: usize, available: usize) -> Result<(), TraceError> {
    if count > 0 && start.checked_add(count).is_none_or(|end| end > available) {
        return Err(TraceError::IndexOutOfRange {
            index: start.max(available),
            available,
        });
    }
    Ok(())
}

// The stored source's tests check `append_rows` with the same contract.
#[cfg(test)]
pub(crate) use tests::{assert_append_rows_contract, SPECIAL_ROWS};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBlock;

    /// Three rows of four: `-0.0`, subnormals, `±MAX` and `±MIN_POSITIVE`.
    pub(crate) const SPECIAL_ROWS: [f64; 12] = [
        -0.0,
        5e-324,
        f64::MAX,
        -f64::MAX,
        f64::MIN_POSITIVE,
        -2.5e-310,
        0.0,
        -1.5,
        -0.0,
        -5e-324,
        -f64::MIN_POSITIVE,
        f64::MAX,
    ];

    /// Checks [`TraceSource::append_rows`] on `source`, whose rows are `want`
    /// (row-major): every range comes back bit for bit after a kept prefix,
    /// and every range past the end fails with the range check's error and
    /// leaves `out` as it was.
    pub(crate) fn assert_append_rows_contract<S: TraceSource + ?Sized>(source: &S, want: &[f64]) {
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let prefix = [7.5, -0.0];
        let (n, len) = (source.num_traces(), source.trace_len());
        for start in 0..=n + 2 {
            for count in 0..=n.saturating_sub(start) {
                let mut out = prefix.to_vec();
                source.append_rows(start, count, &mut out).unwrap();
                let rows = if count == 0 {
                    &[][..]
                } else {
                    &want[start * len..(start + count) * len]
                };
                assert_eq!(
                    bits(&out[..2]),
                    bits(&prefix),
                    "prefix, rows {start}+{count}"
                );
                assert_eq!(bits(&out[2..]), bits(rows), "rows {start}+{count}");
            }
        }
        let past_end = [
            (0, n + 1),
            (n, 1),
            (n + 3, 2),
            (1, usize::MAX),
            (usize::MAX, 1),
        ];
        for (start, count) in past_end {
            let mut out = prefix.to_vec();
            match source.append_rows(start, count, &mut out) {
                Err(TraceError::IndexOutOfRange { index, available }) => {
                    assert_eq!(
                        (index, available),
                        (start.max(n), n),
                        "rows {start}+{count}"
                    );
                }
                other => panic!("rows {start}+{count}: expected IndexOutOfRange, got {other:?}"),
            }
            assert_eq!(bits(&out), bits(&prefix), "out kept, rows {start}+{count}");
        }
    }

    /// A source that implements only the required methods, so it takes the
    /// default `append_rows`.
    struct AccumulateOnly(TraceBlock);

    impl TraceSource for AccumulateOnly {
        fn num_traces(&self) -> usize {
            self.0.num_traces()
        }

        fn trace_len(&self) -> usize {
            self.0.trace_len()
        }

        fn accumulate(&self, index: usize, acc: &mut [f64]) -> Result<(), TraceError> {
            self.0.accumulate(index, acc)
        }
    }

    #[test]
    fn append_rows_copies_blocks_and_the_default_body_bit_for_bit() {
        let block = TraceBlock::from_data("d", 4, SPECIAL_ROWS.to_vec()).unwrap();
        assert_append_rows_contract(&block, &SPECIAL_ROWS);
        assert_append_rows_contract(&AccumulateOnly(block), &SPECIAL_ROWS);
        let empty = TraceBlock::new("e");
        assert_append_rows_contract(&empty, &[]);
        assert_append_rows_contract(&AccumulateOnly(empty), &[]);
    }

    /// The default body hands a failing row's error on and drops the rows
    /// it appended before it.
    #[test]
    fn append_rows_default_body_restores_out_on_a_row_error() {
        struct FailsAt(usize);
        impl TraceSource for FailsAt {
            fn num_traces(&self) -> usize {
                4
            }

            fn trace_len(&self) -> usize {
                2
            }

            fn accumulate(&self, index: usize, acc: &mut [f64]) -> Result<(), TraceError> {
                if index == self.0 {
                    return Err(TraceError::EmptySet);
                }
                acc.fill(index as f64);
                Ok(())
            }
        }
        let mut out = vec![-0.0];
        assert!(matches!(
            FailsAt(2).append_rows(0, 4, &mut out),
            Err(TraceError::EmptySet)
        ));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to_bits(), (-0.0f64).to_bits());
        FailsAt(2).append_rows(3, 1, &mut out).unwrap();
        assert_eq!(out[1..], [3.0, 3.0]);
    }

    #[test]
    fn trace_basics() {
        let mut t = Trace::from_samples(vec![1.0, 2.0]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        t.scale(2.0);
        assert_eq!(t.samples(), &[2.0, 4.0]);
        t.add_assign(&Trace::from_samples(vec![1.0, 1.0])).unwrap();
        assert_eq!(t.samples(), &[3.0, 5.0]);
        assert!(t.add_assign(&Trace::from_samples(vec![1.0])).is_err());
        assert_eq!(t.clone().into_samples(), vec![3.0, 5.0]);
    }

    #[test]
    fn zeros_constructor() {
        let t = Trace::zeros(4);
        assert_eq!(t.samples(), &[0.0; 4]);
    }
}
