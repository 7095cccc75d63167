//! Deterministic fork-join primitives for the ipmark workspace.
//!
//! The engine's hot paths all reduce to the same shape: evaluate an
//! independent function over an index space `0..n` and collect the results
//! in order. This crate runs that shape over `std::thread::scope` workers
//! while guaranteeing the *determinism contract* documented in DESIGN.md:
//!
//! - `f(i)` is called exactly once per index, and the output vector is
//!   assembled in index order, so results are **identical to the sequential
//!   loop regardless of thread count** — including one thread.
//! - Fallible maps surface the error with the **lowest index**, matching
//!   what a sequential `for` loop returning on first error would produce,
//!   so error behaviour is thread-count-invariant too.
//!
//! Worker threads are spawned per call. The workspace fans out over coarse
//! units (k-average builds, identification-matrix cells, key-guess
//! hypotheses), where a few microseconds of spawn overhead is noise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::ops::Range;

/// The default worker count: `RAYON_NUM_THREADS` when set to a positive
/// number (the conventional knob, honored for familiarity), otherwise the
/// machine's available parallelism.
#[must_use]
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A fork-join pool configuration: just a thread count.
///
/// Tests pin the count explicitly (`Pool::with_threads`) instead of racing
/// on process-global environment variables.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Pool {
    /// A pool sized from the environment (see [`max_threads`]).
    #[must_use]
    pub fn from_env() -> Self {
        Self {
            threads: max_threads(),
        }
    }

    /// A pool with an explicit worker count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..n` into at most `self.threads` contiguous, balanced
    /// chunks: `(start, end)` pairs covering the range in order.
    fn chunks(&self, n: usize) -> Vec<(usize, usize)> {
        let workers = self.threads.min(n).max(1);
        let base = n / workers;
        let rem = n % workers;
        let mut bounds = Vec::with_capacity(workers);
        let mut start = 0;
        for w in 0..workers {
            let len = base + usize::from(w < rem);
            bounds.push((start, start + len));
            start += len;
        }
        bounds
    }

    /// Maps `f` over `0..n`, collecting results in index order.
    ///
    /// Equivalent to `(0..n).map(f).collect()` for every thread count.
    pub fn map_indexed<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        match self.fan_out(n, &mut [], 0, |i, _| Ok::<U, Infallible>(f(i))) {
            Ok(out) => out,
            Err(never) => match never {},
        }
    }

    /// Fallibly maps `f` over `0..n`.
    ///
    /// On success returns all results in index order; on failure returns
    /// the error produced at the **lowest failing index**, exactly as the
    /// sequential early-return loop would. Workers stop at their chunk's
    /// first error, so later chunks may still be fully evaluated — only the
    /// reported error is normalized, matching sequential *observable*
    /// behaviour for side-effect-free `f`.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-index error from `f`.
    pub fn try_map_indexed<U, E, F>(&self, n: usize, f: F) -> Result<Vec<U>, E>
    where
        U: Send,
        E: Send,
        F: Fn(usize) -> Result<U, E> + Sync,
    {
        self.fan_out(n, &mut [], 0, |i, _| f(i))
    }

    /// Fallibly fills the rows of one contiguous row-major buffer:
    /// `data` is split into `data.len() / row_len` rows and `f(i, row)` is
    /// called exactly once per row, each row visited by exactly one worker.
    ///
    /// This is the arena-writing counterpart of
    /// [`Pool::try_map_indexed`]: instead of collecting per-index
    /// allocations, all workers write into disjoint row ranges of a single
    /// caller-owned allocation (safe — the buffer is partitioned with
    /// `split_at_mut` along the same contiguous chunk boundaries the map
    /// primitives use). Row order and error normalization follow the
    /// determinism contract: `f` runs once per row, and the reported error
    /// is the one with the **lowest row index**, as in the sequential loop.
    ///
    /// Rows past `data.len() / row_len * row_len` samples do not exist; a
    /// trailing partial row is ignored (callers pass exact-multiple
    /// buffers). `row_len == 0` is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-row-index error from `f`.
    pub fn try_fill_rows<E, F>(&self, data: &mut [f64], row_len: usize, f: F) -> Result<(), E>
    where
        E: Send,
        F: Fn(usize, &mut [f64]) -> Result<(), E> + Sync,
    {
        // `Vec<()>` never allocates.
        self.try_fill_rows_map(data, row_len, f).map(drop)
    }

    /// [`Pool::try_fill_rows`] that also collects one value per row — the
    /// arena-writing counterpart of [`Pool::try_map_indexed`], for fused
    /// fills whose per-row sweep produces a by-product (e.g. the row's
    /// blocked sum in the fused k-average path, DESIGN.md §16).
    ///
    /// `f(i, row)` runs exactly once per row; on success the returned
    /// vector holds `f`'s values in row order for every thread count, and
    /// on failure the reported error is the one with the **lowest row
    /// index**, as in the sequential loop. Partitioning, trailing-row and
    /// `row_len == 0` behavior match [`Pool::try_fill_rows`] (`row_len ==
    /// 0` yields an empty vector).
    ///
    /// # Errors
    ///
    /// Propagates the lowest-row-index error from `f`.
    pub fn try_fill_rows_map<U, E, F>(
        &self,
        data: &mut [f64],
        row_len: usize,
        f: F,
    ) -> Result<Vec<U>, E>
    where
        U: Send,
        E: Send,
        F: Fn(usize, &mut [f64]) -> Result<U, E> + Sync,
    {
        let rows = data.len().checked_div(row_len).unwrap_or(0);
        self.fan_out(rows, data, row_len, f)
    }

    /// The one fan-out body behind every primitive: calls `f(i, row)` once
    /// for each `i` in `0..n`, where `row` is the `i`-th `row_len`-sample
    /// row of `data` (empty when `row_len == 0`; `data` holds at least
    /// `n * row_len` samples), and collects the values in index order.
    ///
    /// At one worker, or for at most one index, this is the plain loop on
    /// the calling thread. Otherwise `0..n` is split into contiguous chunks
    /// (with `data` split along the same boundaries), one scoped worker per
    /// chunk. Each worker stops at its chunk's first error; the chunks are
    /// joined in index order and every chunk before the first failing one
    /// succeeded whole, so the first error met is the lowest-index one.
    fn fan_out<U, E, F>(
        &self,
        n: usize,
        data: &mut [f64],
        row_len: usize,
        f: F,
    ) -> Result<Vec<U>, E>
    where
        U: Send,
        E: Send,
        F: Fn(usize, &mut [f64]) -> Result<U, E> + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return run_range(&f, 0..n, data, row_len);
        }
        let f = &f;
        let parts: Vec<Result<Vec<U>, E>> = std::thread::scope(|scope| {
            let mut rest = data;
            let mut handles = Vec::new();
            for (start, end) in self.chunks(n) {
                let (part, tail) = rest.split_at_mut((end - start) * row_len);
                rest = tail;
                handles.push(scope.spawn(move || run_range(f, start..end, part, row_len)));
            }
            handles
                .into_iter()
                // A worker can only panic if `f` panicked; re-raise that
                // panic on the caller's thread instead of a fresh
                // expect-panic, so no new panic site is introduced here.
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut out = Vec::with_capacity(n);
        for part in parts {
            out.append(&mut part?);
        }
        Ok(out)
    }
}

/// The sequential loop over one contiguous index range: `f(i, row)` for
/// each `i` in `range`, rows taken in order from the front of `rows`,
/// stopping at the first error.
fn run_range<U, E, F>(
    f: &F,
    range: Range<usize>,
    mut rows: &mut [f64],
    row_len: usize,
) -> Result<Vec<U>, E>
where
    F: Fn(usize, &mut [f64]) -> Result<U, E>,
{
    let mut out = Vec::with_capacity(range.len());
    for i in range {
        let (row, tail) = std::mem::take(&mut rows).split_at_mut(row_len);
        rows = tail;
        out.push(f(i, row)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_sequential_for_every_thread_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64, 200] {
            let pool = Pool::with_threads(threads);
            assert_eq!(
                pool.map_indexed(97, |i| i * i),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn chunk_boundaries_cover_range_in_order() {
        for n in [0usize, 1, 2, 5, 97, 100] {
            for threads in [1usize, 2, 3, 7, 100] {
                let chunks = Pool::with_threads(threads).chunks(n);
                let mut expect_start = 0;
                for &(start, end) in &chunks {
                    assert_eq!(start, expect_start);
                    assert!(end >= start);
                    expect_start = end;
                }
                assert_eq!(expect_start, n, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn try_map_reports_lowest_index_error() {
        let pool = Pool::with_threads(4);
        // Fail at several indices; the lowest (13) must win.
        let result: Result<Vec<usize>, usize> =
            pool.try_map_indexed(100, |i| if i % 13 == 0 && i > 0 { Err(i) } else { Ok(i) });
        assert_eq!(result.unwrap_err(), 13);
        // Same as the sequential path.
        let seq: Result<Vec<usize>, usize> = Pool::with_threads(1).try_map_indexed(100, |i| {
            if i % 13 == 0 && i > 0 {
                Err(i)
            } else {
                Ok(i)
            }
        });
        assert_eq!(seq.unwrap_err(), 13);
    }

    #[test]
    fn try_map_success_collects_in_order() {
        let pool = Pool::with_threads(3);
        let result: Result<Vec<usize>, ()> = pool.try_map_indexed(17, Ok);
        assert_eq!(result.unwrap(), (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_ranges_work() {
        let pool = Pool::with_threads(8);
        assert!(pool.map_indexed(0, |i| i).is_empty());
        assert_eq!(pool.map_indexed(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn with_threads_clamps_zero() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
    }

    #[test]
    fn fill_rows_matches_sequential_for_every_thread_count() {
        let rows = 23;
        let row_len = 5;
        let mut expected = vec![0.0; rows * row_len];
        for (i, row) in expected.chunks_exact_mut(row_len).enumerate() {
            for (j, s) in row.iter_mut().enumerate() {
                *s = (i * 100 + j) as f64;
            }
        }
        for threads in [1, 2, 3, 8, 64] {
            let pool = Pool::with_threads(threads);
            let mut got = vec![0.0; rows * row_len];
            let ok: Result<(), ()> = pool.try_fill_rows(&mut got, row_len, |i, row| {
                for (j, s) in row.iter_mut().enumerate() {
                    *s = (i * 100 + j) as f64;
                }
                Ok(())
            });
            ok.unwrap();
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn fill_rows_reports_lowest_row_error() {
        for threads in [1, 4] {
            let pool = Pool::with_threads(threads);
            let mut data = vec![0.0; 100 * 3];
            let result: Result<(), usize> = pool.try_fill_rows(&mut data, 3, |i, _| {
                if i % 13 == 0 && i > 0 {
                    Err(i)
                } else {
                    Ok(())
                }
            });
            assert_eq!(result.unwrap_err(), 13, "threads = {threads}");
        }
    }

    #[test]
    fn fill_rows_map_matches_sequential_for_every_thread_count() {
        let rows = 23;
        let row_len = 5;
        let mut expected = vec![0.0; rows * row_len];
        let mut expected_vals = Vec::with_capacity(rows);
        for (i, row) in expected.chunks_exact_mut(row_len).enumerate() {
            for (j, s) in row.iter_mut().enumerate() {
                *s = (i * 100 + j) as f64;
            }
            expected_vals.push(row.iter().sum::<f64>());
        }
        for threads in [1, 2, 3, 8, 64] {
            let pool = Pool::with_threads(threads);
            let mut got = vec![0.0; rows * row_len];
            let vals: Result<Vec<f64>, ()> = pool.try_fill_rows_map(&mut got, row_len, |i, row| {
                for (j, s) in row.iter_mut().enumerate() {
                    *s = (i * 100 + j) as f64;
                }
                Ok(row.iter().sum::<f64>())
            });
            assert_eq!(got, expected, "threads = {threads}");
            assert_eq!(vals.unwrap(), expected_vals, "threads = {threads}");
        }
    }

    #[test]
    fn fill_rows_map_reports_lowest_row_error() {
        for threads in [1, 4] {
            let pool = Pool::with_threads(threads);
            let mut data = vec![0.0; 100 * 3];
            let result: Result<Vec<usize>, usize> = pool.try_fill_rows_map(&mut data, 3, |i, _| {
                if i % 13 == 0 && i > 0 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(result.unwrap_err(), 13, "threads = {threads}");
        }
    }

    #[test]
    fn fill_rows_map_degenerate_shapes() {
        let pool = Pool::with_threads(4);
        let mut some = vec![1.0; 6];
        let vals: Result<Vec<usize>, ()> = pool.try_fill_rows_map(&mut some, 0, |_, _| Err(()));
        assert!(vals.unwrap().is_empty());
        let vals: Result<Vec<usize>, ()> = pool.try_fill_rows_map(&mut some, 6, |i, row| {
            row.fill(3.0);
            Ok(i + 41)
        });
        assert_eq!(vals.unwrap(), vec![41]);
        assert_eq!(some, vec![3.0; 6]);
    }

    #[test]
    fn fill_rows_degenerate_shapes_are_no_ops() {
        let pool = Pool::with_threads(4);
        let mut empty: Vec<f64> = Vec::new();
        let ok: Result<(), ()> = pool.try_fill_rows(&mut empty, 4, |_, _| Err(()));
        ok.unwrap();
        let mut some = vec![1.0; 6];
        let ok: Result<(), ()> = pool.try_fill_rows(&mut some, 0, |_, _| Err(()));
        ok.unwrap();
        assert_eq!(some, vec![1.0; 6]);
        // One row: runs inline.
        let ran: Result<(), ()> = pool.try_fill_rows(&mut some, 6, |i, row| {
            assert_eq!(i, 0);
            row.fill(2.0);
            Ok(())
        });
        ran.unwrap();
        assert_eq!(some, vec![2.0; 6]);
    }

    /// At one worker every primitive is the plain index-ordered loop on the
    /// calling thread: nothing is spawned, so `RAYON_NUM_THREADS=1` runs
    /// the sequential path.
    #[test]
    fn single_worker_pool_runs_on_the_calling_thread() {
        let pool = Pool::with_threads(1);
        let caller = std::thread::current().id();
        let on_caller = || assert_eq!(std::thread::current().id(), caller);

        let mapped = pool.map_indexed(9, |i| {
            on_caller();
            i
        });
        assert_eq!(mapped, (0..9).collect::<Vec<_>>());

        let tried: Result<Vec<usize>, ()> = pool.try_map_indexed(9, |i| {
            on_caller();
            Ok(i)
        });
        assert_eq!(tried.unwrap(), (0..9).collect::<Vec<_>>());

        let mut data = vec![0.0; 12];
        let filled: Result<(), ()> = pool.try_fill_rows(&mut data, 3, |i, row| {
            on_caller();
            row.fill(i as f64);
            Ok(())
        });
        filled.unwrap();
        assert_eq!(data[9..], [3.0; 3]);

        let sums: Result<Vec<f64>, ()> = pool.try_fill_rows_map(&mut data, 3, |i, row| {
            on_caller();
            row.fill(1.0 + i as f64);
            Ok(row.iter().sum())
        });
        assert_eq!(sums.unwrap(), vec![3.0, 6.0, 9.0, 12.0]);
    }
}
