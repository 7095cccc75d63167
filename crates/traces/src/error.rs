//! Error types for trace handling and statistics.

use std::fmt;

/// Error raised by statistical primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// The two input series have different lengths.
    LengthMismatch {
        /// Length of the left series.
        left: usize,
        /// Length of the right series.
        right: usize,
    },
    /// The input series is too short for the requested statistic.
    TooShort {
        /// Number of points provided.
        provided: usize,
        /// Minimum number of points required.
        required: usize,
    },
    /// A correlation was requested against a constant (zero-variance) series.
    ZeroVariance,
    /// A binomial interval was requested over zero trials.
    NoTrials,
    /// A binomial interval was requested for more successes than trials.
    HitsExceedTrials {
        /// Number of successes given.
        hits: u64,
        /// Number of trials given.
        trials: u64,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StatsError::LengthMismatch { left, right } => {
                write!(f, "series length mismatch: {left} vs {right}")
            }
            StatsError::TooShort { provided, required } => {
                write!(
                    f,
                    "series too short: {provided} points, need at least {required}"
                )
            }
            StatsError::ZeroVariance => write!(f, "series has zero variance"),
            StatsError::NoTrials => write!(f, "binomial interval over zero trials"),
            StatsError::HitsExceedTrials { hits, trials } => {
                write!(f, "{hits} successes in only {trials} trials")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Error raised by random subset selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectError {
    /// More distinct elements were requested than exist in the set.
    KExceedsN {
        /// Number of distinct elements requested.
        k: usize,
        /// Size of the set selected from.
        n: usize,
    },
    /// Zero elements were requested.
    EmptySelection,
    /// A selection handed to a consumer was not strictly ascending.
    NotAscending {
        /// Position of the first index not greater than its predecessor.
        position: usize,
    },
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SelectError::KExceedsN { k, n } => {
                write!(f, "cannot select {k} distinct traces from a set of {n}")
            }
            SelectError::EmptySelection => write!(f, "selection of zero traces requested"),
            SelectError::NotAscending { position } => {
                write!(
                    f,
                    "selection is not strictly ascending at position {position}"
                )
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// Error raised by trace containers and averaging.
#[derive(Debug)]
pub enum TraceError {
    /// A trace with an unexpected number of samples was inserted or combined.
    LengthMismatch {
        /// Expected sample count.
        expected: usize,
        /// Provided sample count.
        provided: usize,
    },
    /// An operation that needs at least one trace was given an empty set.
    EmptySet,
    /// A trace index was out of range.
    IndexOutOfRange {
        /// Requested index.
        index: usize,
        /// Number of traces available.
        available: usize,
    },
    /// A trace with zero samples was provided.
    EmptyTrace,
    /// A streamed trace carried a non-finite (NaN/infinite) sample.
    ///
    /// Streaming accumulators reject the trace *before* touching any
    /// partial sum — one corrupted chunk must not poison the whole
    /// session — so the caller may re-supply a clean measurement for the
    /// same index and continue.
    NonFiniteSample {
        /// Stream index of the offending trace.
        trace_index: usize,
        /// Position of the first non-finite sample within the trace.
        sample_index: usize,
    },
    /// A chunked reader was configured with a zero chunk size.
    EmptyChunk,
    /// A trace block's declared dimensions overflow the addressable sample
    /// count (`count × trace_len` exceeds `usize`).
    DimensionOverflow {
        /// Declared trace count.
        count: usize,
        /// Declared samples per trace.
        trace_len: usize,
    },
    /// A positioned read of a stored trace failed — for example because
    /// the file was truncated after it was opened.
    ///
    /// Rows added before the failing one stay added, as for
    /// [`TraceError::IndexOutOfRange`].
    RowRead {
        /// Index of the trace whose read failed.
        index: usize,
        /// What the operating system reported.
        kind: std::io::ErrorKind,
    },
    /// An underlying statistics error.
    Stats(StatsError),
    /// An underlying selection error.
    Select(SelectError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::LengthMismatch { expected, provided } => {
                write!(
                    f,
                    "trace length mismatch: expected {expected} samples, got {provided}"
                )
            }
            TraceError::EmptySet => write!(f, "trace set is empty"),
            TraceError::IndexOutOfRange { index, available } => {
                write!(f, "trace index {index} out of range (have {available})")
            }
            TraceError::EmptyTrace => write!(f, "trace has zero samples"),
            TraceError::NonFiniteSample {
                trace_index,
                sample_index,
            } => {
                write!(
                    f,
                    "streamed trace {trace_index} has a non-finite sample at position {sample_index}"
                )
            }
            TraceError::EmptyChunk => write!(f, "chunk size must be at least 1"),
            TraceError::DimensionOverflow { count, trace_len } => {
                write!(
                    f,
                    "trace block dimensions {count} x {trace_len} samples overflow"
                )
            }
            TraceError::RowRead { index, kind } => {
                write!(f, "reading trace {index} failed: {kind}")
            }
            TraceError::Stats(e) => write!(f, "statistics error: {e}"),
            TraceError::Select(e) => write!(f, "selection error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Stats(e) => Some(e),
            TraceError::Select(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for TraceError {
    fn from(e: StatsError) -> Self {
        TraceError::Stats(e)
    }
}

impl From<SelectError> for TraceError {
    fn from(e: SelectError) -> Self {
        TraceError::Select(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let errors: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(StatsError::LengthMismatch { left: 1, right: 2 }),
            Box::new(StatsError::TooShort {
                provided: 1,
                required: 2,
            }),
            Box::new(StatsError::ZeroVariance),
            Box::new(SelectError::KExceedsN { k: 5, n: 2 }),
            Box::new(SelectError::EmptySelection),
            Box::new(SelectError::NotAscending { position: 1 }),
            Box::new(TraceError::LengthMismatch {
                expected: 10,
                provided: 9,
            }),
            Box::new(TraceError::EmptySet),
            Box::new(TraceError::IndexOutOfRange {
                index: 3,
                available: 3,
            }),
            Box::new(TraceError::EmptyTrace),
            Box::new(TraceError::NonFiniteSample {
                trace_index: 7,
                sample_index: 2,
            }),
            Box::new(TraceError::EmptyChunk),
            Box::new(TraceError::DimensionOverflow {
                count: usize::MAX,
                trace_len: 2,
            }),
            Box::new(TraceError::RowRead {
                index: 4,
                kind: std::io::ErrorKind::UnexpectedEof,
            }),
            Box::new(TraceError::Stats(StatsError::ZeroVariance)),
            Box::new(TraceError::Select(SelectError::EmptySelection)),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn trace_error_sources() {
        use std::error::Error;
        assert!(TraceError::Stats(StatsError::ZeroVariance)
            .source()
            .is_some());
        assert!(TraceError::EmptySet.source().is_none());
    }
}
