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
/// mapped [`MappedBlock`](crate::MappedBlock) and, in `ipmark-power`, by
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
