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
//! Every fan-out schedules itself: the calling thread spawns `threads − 1`
//! scoped workers for the call and then works beside them, each
//! participant claiming the next index from a shared atomic counter. A
//! fan-out started inside a task of a fan-out that already has a task for
//! every worker runs inline on that task's thread, so nested fan-outs do
//! not multiply the thread count. The workspace fans out over coarse units
//! (k-average rows, identification-matrix cells, key-guess hypotheses),
//! where a few microseconds of spawn overhead per call is noise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

thread_local! {
    /// Set while this thread runs tasks of a saturated fan-out, one with a
    /// task for every worker: a fan-out started under it runs inline.
    static SATURATED: Cell<bool> = const { Cell::new(false) };
}

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

/// The `lead` argument of a fan-out that has none.
type NoLead<E> = fn() -> Result<(), E>;

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

    /// Maps `f` over `0..n`, collecting results in index order.
    ///
    /// Equivalent to `(0..n).map(f).collect()` for every thread count.
    pub fn map_indexed<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let mapped = self.fan_out(n, &mut [], 0, None::<NoLead<Infallible>>, |i, _| {
            Ok::<U, Infallible>(f(i))
        });
        match mapped {
            Ok(out) => out,
            Err(never) => match never {},
        }
    }

    /// Fallibly maps `f` over `0..n`.
    ///
    /// On success returns all results in index order; on failure returns
    /// the error produced at the **lowest failing index**, exactly as the
    /// sequential early-return loop would. Claiming stops above the lowest
    /// failed index, so every index below the reported one has run; indices
    /// above it may have run too — only the reported error is normalized,
    /// matching sequential *observable* behaviour for side-effect-free `f`.
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
        self.fan_out(n, &mut [], 0, None::<NoLead<E>>, |i, _| f(i))
    }

    /// Fallibly fills the rows of one contiguous row-major buffer:
    /// `data` is split into `data.len() / row_len` rows and `f(i, row)` is
    /// called exactly once per row, each row visited by exactly one worker.
    ///
    /// This is the arena-writing counterpart of
    /// [`Pool::try_map_indexed`]: instead of collecting per-index
    /// allocations, all workers write into disjoint rows of a single
    /// caller-owned allocation (safe — each row sits behind its own lock,
    /// taken once by the participant that claims the row). Row order and
    /// error normalization follow the determinism contract: `f` runs once
    /// per row, and the reported error is the one with the **lowest row
    /// index**, as in the sequential loop.
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
        let rows = data.len().checked_div(row_len).unwrap_or(0);
        self.fan_out(rows, data, row_len, None::<NoLead<E>>, f)
            .map(drop)
    }

    /// [`Pool::try_fill_rows`] that also collects one value per row, with
    /// one extra task for the calling thread: `lead` runs on the caller
    /// while the workers start on the rows, then the caller joins the row
    /// queue.
    ///
    /// `f(i, row)` runs exactly once per row; on success the returned
    /// vector holds `f`'s values in row order for every thread count.
    /// Trailing-row and `row_len == 0` behavior match
    /// [`Pool::try_fill_rows`] (`row_len == 0` yields an empty vector).
    ///
    /// `lead` needs neither `Send` nor `Sync`, so it may borrow state the
    /// rows cannot (a reference source that is not `Sync`, say). It runs
    /// exactly once, before the caller claims any row; where the fan-out
    /// runs inline it runs before row 0. An error from `lead` wins over any
    /// row error, and stops the row claims.
    ///
    /// # Errors
    ///
    /// Propagates `lead`'s error, else the lowest-row-index error from `f`.
    pub fn try_fill_rows_map_with_lead<U, E, G, F>(
        &self,
        data: &mut [f64],
        row_len: usize,
        lead: G,
        f: F,
    ) -> Result<Vec<U>, E>
    where
        U: Send,
        E: Send,
        G: FnOnce() -> Result<(), E>,
        F: Fn(usize, &mut [f64]) -> Result<U, E> + Sync,
    {
        let rows = data.len().checked_div(row_len).unwrap_or(0);
        self.fan_out(rows, data, row_len, Some(lead), f)
    }

    /// The one fan-out body behind every primitive: runs `lead` (if any) on
    /// the calling thread, calls `f(i, row)` once for each `i` in `0..n`,
    /// where `row` is the `i`-th `row_len`-sample row of `data` (empty when
    /// `row_len == 0`; `data` holds at least `n * row_len` samples), and
    /// collects the values in index order.
    ///
    /// It runs as the plain loop on the calling thread at one worker, for
    /// at most one task, or inside a task of a saturated fan-out. Otherwise
    /// the caller spawns one scoped worker per further task, up to
    /// `threads − 1`, runs `lead`, and joins the workers in claiming
    /// indices from the shared [`Queue`].
    fn fan_out<U, E, G, F>(
        &self,
        n: usize,
        data: &mut [f64],
        row_len: usize,
        lead: Option<G>,
        f: F,
    ) -> Result<Vec<U>, E>
    where
        U: Send,
        E: Send,
        G: FnOnce() -> Result<(), E>,
        F: Fn(usize, &mut [f64]) -> Result<U, E> + Sync,
    {
        let tasks = n + usize::from(lead.is_some());
        if self.threads <= 1 || tasks <= 1 || SATURATED.get() {
            if let Some(lead) = lead {
                lead()?;
            }
            return run_inline(&f, n, data, row_len);
        }
        let saturated = tasks >= self.threads;
        let queue = Queue::new(n, data, row_len, &f);
        let (led, parts) = std::thread::scope(|scope| {
            let queue = &queue;
            let workers: Vec<_> = (1..self.threads.min(tasks))
                .map(|_| scope.spawn(move || as_task(saturated, || queue.drain())))
                .collect();
            let (led, mine) = as_task(saturated, || {
                let led = lead.map_or(Ok(()), |lead| lead());
                if led.is_err() {
                    queue.close();
                }
                (led, queue.drain())
            });
            let mut parts = vec![mine];
            // A worker can only panic if `f` panicked; re-raise that panic
            // on the caller's thread instead of a fresh expect-panic, so no
            // new panic site is introduced here.
            parts.extend(
                workers
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
            );
            (led, parts)
        });
        led?;
        assemble(n, parts)
    }
}

/// Runs `body` as a task of a fan-out, with the thread marked saturated or
/// not for any fan-out `body` starts; the mark is restored on return and
/// on unwind.
fn as_task<T>(saturated: bool, body: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SATURATED.set(self.0);
        }
    }
    let _restore = Restore(SATURATED.replace(saturated));
    body()
}

/// What one participant of a fan-out hands back: the `(index, value)`
/// pairs it produced in ascending index order, or its first error.
type Claimed<U, E> = Result<Vec<(usize, U)>, (usize, E)>;

/// The shared state of one self-scheduling fan-out.
///
/// Both counters are `Relaxed`: they publish no data. A claim's
/// uniqueness comes from `fetch_add` alone, rows reach their claimer
/// through their locks, and values reach the caller through the scoped
/// joins.
struct Queue<'a, F> {
    /// The next unclaimed index.
    next: AtomicUsize,
    /// Claims at or above this index are refused: `n`, lowered to the
    /// lowest failed index, or to 0 when the lead fails.
    end: AtomicUsize,
    /// Row `i` of the buffer, locked only by the participant that claims
    /// `i`, and only once; empty when the fan-out writes no rows.
    rows: Vec<Mutex<&'a mut [f64]>>,
    f: &'a F,
}

impl<'a, F> Queue<'a, F> {
    fn new(n: usize, data: &'a mut [f64], row_len: usize, f: &'a F) -> Self {
        let rows = if row_len == 0 {
            Vec::new()
        } else {
            data.chunks_exact_mut(row_len)
                .take(n)
                .map(Mutex::new)
                .collect()
        };
        Self {
            next: AtomicUsize::new(0),
            end: AtomicUsize::new(n),
            rows,
            f,
        }
    }

    /// Refuses every further claim.
    fn close(&self) {
        self.end.store(0, Relaxed);
    }

    /// Claims and runs indices until the queue refuses a claim or `f`
    /// fails. Claims are handed out in increasing order, so when the
    /// lowest failed index is `e`, every index below `e` was claimed before
    /// `end` dropped to `e` and has run.
    fn drain<U, E>(&self) -> Claimed<U, E>
    where
        F: Fn(usize, &mut [f64]) -> Result<U, E>,
    {
        let mut done = Vec::new();
        loop {
            let i = self.next.fetch_add(1, Relaxed);
            if i >= self.end.load(Relaxed) {
                return Ok(done);
            }
            let out = match self.rows.get(i) {
                // Each row is locked once, so no earlier holder can have
                // poisoned it.
                Some(row) => (self.f)(i, &mut row.lock().unwrap_or_else(PoisonError::into_inner)),
                None => (self.f)(i, &mut []),
            };
            match out {
                Ok(value) => done.push((i, value)),
                Err(e) => {
                    self.end.fetch_min(i, Relaxed);
                    return Err((i, e));
                }
            }
        }
    }
}

/// Puts the participants' results together in index order, or picks the
/// lowest-index error among them.
fn assemble<U, E>(n: usize, parts: Vec<Claimed<U, E>>) -> Result<Vec<U>, E> {
    let mut done = Vec::with_capacity(n);
    let mut failed: Option<(usize, E)> = None;
    for part in parts {
        match part {
            Ok(mut values) => done.append(&mut values),
            Err((i, e)) => {
                if failed.as_ref().is_none_or(|&(lowest, _)| i < lowest) {
                    failed = Some((i, e));
                }
            }
        }
    }
    if let Some((_, e)) = failed {
        return Err(e);
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    Ok(done.into_iter().map(|(_, value)| value).collect())
}

/// The sequential loop: `f(i, row)` for each `i` in `0..n`, rows taken in
/// order from the front of `rows`, stopping at the first error.
fn run_inline<U, E, F>(f: &F, n: usize, mut rows: &mut [f64], row_len: usize) -> Result<Vec<U>, E>
where
    F: Fn(usize, &mut [f64]) -> Result<U, E>,
{
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
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
            let vals: Result<Vec<f64>, ()> = pool.try_fill_rows_map_with_lead(
                &mut got,
                row_len,
                || Ok(()),
                |i, row| {
                    for (j, s) in row.iter_mut().enumerate() {
                        *s = (i * 100 + j) as f64;
                    }
                    Ok(row.iter().sum::<f64>())
                },
            );
            assert_eq!(got, expected, "threads = {threads}");
            assert_eq!(vals.unwrap(), expected_vals, "threads = {threads}");
        }
    }

    #[test]
    fn fill_rows_map_reports_lowest_row_error() {
        for threads in [1, 4] {
            let pool = Pool::with_threads(threads);
            let mut data = vec![0.0; 100 * 3];
            let result: Result<Vec<usize>, usize> = pool.try_fill_rows_map_with_lead(
                &mut data,
                3,
                || Ok(()),
                |i, _| {
                    if i % 13 == 0 && i > 0 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                },
            );
            assert_eq!(result.unwrap_err(), 13, "threads = {threads}");
        }
    }

    #[test]
    fn fill_rows_map_degenerate_shapes() {
        let pool = Pool::with_threads(4);
        let mut some = vec![1.0; 6];
        let vals: Result<Vec<usize>, ()> =
            pool.try_fill_rows_map_with_lead(&mut some, 0, || Ok(()), |_, _| Err(()));
        assert!(vals.unwrap().is_empty());
        let vals: Result<Vec<usize>, ()> = pool.try_fill_rows_map_with_lead(
            &mut some,
            6,
            || Ok(()),
            |i, row| {
                row.fill(3.0);
                Ok(i + 41)
            },
        );
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

        let sums: Result<Vec<f64>, ()> = pool.try_fill_rows_map_with_lead(
            &mut data,
            3,
            || Ok(()),
            |i, row| {
                on_caller();
                row.fill(1.0 + i as f64);
                Ok(row.iter().sum())
            },
        );
        assert_eq!(sums.unwrap(), vec![3.0, 6.0, 9.0, 12.0]);
    }
}
