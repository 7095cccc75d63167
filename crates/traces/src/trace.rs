//! Power traces and sets of power traces.

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

/// A set of equal-length power traces measured on one device — the paper's
/// `T_RefD` / `T_DUT` objects.
///
/// The uniform-length invariant is enforced on construction, insertion and
/// deserialization, so that averaging and correlation never have to
/// re-validate.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct TraceSet {
    traces: Vec<Trace>,
    trace_len: usize,
    /// Free-form label of the device the traces were measured on.
    device: String,
}

impl Deserialize for TraceSet {
    fn from_value(value: &serde::Value) -> Result<Self, serde::de::Error> {
        #[derive(Deserialize)]
        struct Raw {
            traces: Vec<Trace>,
            device: String,
        }
        let raw = Raw::from_value(value)?;
        Self::from_traces(raw.device, raw.traces).map_err(serde::de::Error::custom)
    }
}

impl TraceSet {
    /// Creates an empty set labelled with a device name; the trace length is
    /// fixed by the first inserted trace.
    pub fn new(device: impl Into<String>) -> Self {
        Self {
            traces: Vec::new(),
            trace_len: 0,
            device: device.into(),
        }
    }

    /// Builds a set from a vector of traces.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] when the traces do not all
    /// have the same length and [`TraceError::EmptyTrace`] when a trace has
    /// no samples.
    pub fn from_traces(device: impl Into<String>, traces: Vec<Trace>) -> Result<Self, TraceError> {
        let mut set = Self::new(device);
        for t in traces {
            set.push(t)?;
        }
        Ok(set)
    }

    /// Appends a trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyTrace`] for a zero-sample trace and
    /// [`TraceError::LengthMismatch`] when its length differs from the
    /// traces already in the set.
    pub fn push(&mut self, trace: Trace) -> Result<(), TraceError> {
        if trace.is_empty() {
            return Err(TraceError::EmptyTrace);
        }
        if self.traces.is_empty() {
            self.trace_len = trace.len();
        } else if trace.len() != self.trace_len {
            return Err(TraceError::LengthMismatch {
                expected: self.trace_len,
                provided: trace.len(),
            });
        }
        self.traces.push(trace);
        Ok(())
    }

    /// Number of traces in the set (the paper's `n1`/`n2`).
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the set contains no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Number of samples per trace (0 for an empty set).
    pub fn trace_len(&self) -> usize {
        self.trace_len
    }

    /// Device label.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Borrows trace `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::IndexOutOfRange`] when `index >= len()`.
    pub fn trace(&self, index: usize) -> Result<&Trace, TraceError> {
        self.traces.get(index).ok_or(TraceError::IndexOutOfRange {
            index,
            available: self.traces.len(),
        })
    }

    /// Iterates over the traces.
    pub fn iter(&self) -> std::slice::Iter<'_, Trace> {
        self.traces.iter()
    }
}

impl<'a> IntoIterator for &'a TraceSet {
    type Item = &'a Trace;
    type IntoIter = std::slice::Iter<'a, Trace>;

    fn into_iter(self) -> Self::IntoIter {
        self.traces.iter()
    }
}

/// Anything that can serve traces by index.
///
/// Implemented by the in-memory [`TraceSet`] and, in `ipmark-power`, by the
/// on-demand simulated acquisition source — which lets the verification
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

impl TraceSource for TraceSet {
    fn num_traces(&self) -> usize {
        self.len()
    }

    fn trace_len(&self) -> usize {
        self.trace_len
    }

    fn accumulate(&self, index: usize, acc: &mut [f64]) -> Result<(), TraceError> {
        let t = self.trace(index)?;
        if acc.len() != t.len() {
            return Err(TraceError::LengthMismatch {
                expected: t.len(),
                provided: acc.len(),
            });
        }
        crate::kernels::accumulate(acc, t.samples());
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

    #[test]
    fn set_enforces_uniform_length() {
        let mut set = TraceSet::new("refd");
        set.push(Trace::from_samples(vec![1.0, 2.0])).unwrap();
        assert!(matches!(
            set.push(Trace::from_samples(vec![1.0])),
            Err(TraceError::LengthMismatch {
                expected: 2,
                provided: 1
            })
        ));
        assert_eq!(set.trace_len(), 2);
        assert_eq!(set.len(), 1);
        assert_eq!(set.device(), "refd");
    }

    #[test]
    fn set_rejects_empty_trace() {
        let mut set = TraceSet::new("d");
        assert!(matches!(
            set.push(Trace::from_samples(vec![])),
            Err(TraceError::EmptyTrace)
        ));
    }

    #[test]
    fn from_traces_validates() {
        let ok = TraceSet::from_traces(
            "d",
            vec![
                Trace::from_samples(vec![1.0, 2.0]),
                Trace::from_samples(vec![3.0, 4.0]),
            ],
        )
        .unwrap();
        assert_eq!(ok.len(), 2);
        assert!(TraceSet::from_traces(
            "d",
            vec![
                Trace::from_samples(vec![1.0]),
                Trace::from_samples(vec![1.0, 2.0]),
            ],
        )
        .is_err());
    }

    #[test]
    fn index_bounds() {
        let set = TraceSet::from_traces("d", vec![Trace::from_samples(vec![1.0])]).unwrap();
        assert!(set.trace(0).is_ok());
        assert!(matches!(
            set.trace(1),
            Err(TraceError::IndexOutOfRange {
                index: 1,
                available: 1
            })
        ));
    }

    #[test]
    fn trace_source_accumulates() {
        let set = TraceSet::from_traces(
            "d",
            vec![
                Trace::from_samples(vec![1.0, 2.0]),
                Trace::from_samples(vec![10.0, 20.0]),
            ],
        )
        .unwrap();
        let mut acc = vec![0.0; 2];
        set.accumulate(0, &mut acc).unwrap();
        set.accumulate(1, &mut acc).unwrap();
        assert_eq!(acc, vec![11.0, 22.0]);
        assert_eq!(set.num_traces(), 2);
        assert_eq!(TraceSource::trace_len(&set), 2);
        let mut bad = vec![0.0; 3];
        assert!(set.accumulate(0, &mut bad).is_err());
        assert!(set.accumulate(7, &mut acc).is_err());
    }

    #[test]
    fn iteration_works() {
        let set = TraceSet::from_traces(
            "d",
            vec![
                Trace::from_samples(vec![1.0]),
                Trace::from_samples(vec![2.0]),
            ],
        )
        .unwrap();
        let sum: f64 = (&set).into_iter().map(|t| t.samples()[0]).sum();
        assert_eq!(sum, 3.0);
        assert_eq!(set.iter().count(), 2);
    }
}
