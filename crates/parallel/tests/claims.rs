//! Property tests of the self-scheduling fan-out: every index runs once,
//! the lowest failing index wins with every lower index run, nested
//! fan-outs run inline under a saturated fan-out, the caller-only lead
//! runs on the caller and its error wins, and panics reach the caller.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::thread::{self, ThreadId};
use std::time::Duration;

use ipmark_parallel::Pool;

const THREADS: [usize; 5] = [1, 2, 3, 8, 64];

/// How long a rendezvous waits: seconds of yielding, far longer than any
/// spawn takes on a loaded host.
const YIELDS: usize = 10_000_000;

/// One counter per index.
fn counters(n: usize) -> Vec<AtomicUsize> {
    (0..n).map(|_| AtomicUsize::new(0)).collect()
}

fn counts(runs: &[AtomicUsize]) -> Vec<usize> {
    runs.iter().map(|c| c.load(SeqCst)).collect()
}

/// SplitMix64, so the failing sets vary without a dev-dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Waits until `parties` calls have arrived, so each of them must be on
/// its own thread; false if they never all arrive within a bounded number
/// of yields (the calls were serialized onto fewer threads).
fn rendezvous(arrived: &AtomicUsize, parties: usize) -> bool {
    arrived.fetch_add(1, SeqCst);
    for _ in 0..YIELDS {
        if arrived.load(SeqCst) >= parties {
            return true;
        }
        thread::yield_now();
    }
    false
}

#[test]
fn every_primitive_runs_each_index_exactly_once() {
    for threads in THREADS {
        let pool = Pool::with_threads(threads);
        for n in [0, 1, 2, 5, 97] {
            let runs = counters(n);
            let mapped = pool.map_indexed(n, |i| {
                runs[i].fetch_add(1, SeqCst);
                i
            });
            assert_eq!(mapped, (0..n).collect::<Vec<_>>());
            assert!(
                counts(&runs).iter().all(|&c| c == 1),
                "map, threads = {threads}"
            );

            let runs = counters(n);
            let tried: Result<Vec<usize>, ()> = pool.try_map_indexed(n, |i| {
                runs[i].fetch_add(1, SeqCst);
                Ok(i)
            });
            assert_eq!(tried.unwrap(), (0..n).collect::<Vec<_>>());
            assert!(
                counts(&runs).iter().all(|&c| c == 1),
                "try_map, threads = {threads}"
            );

            let runs = counters(n);
            let mut data = vec![0.0; n * 3];
            let filled: Result<(), ()> = pool.try_fill_rows(&mut data, 3, |i, row| {
                runs[i].fetch_add(1, SeqCst);
                row.fill(i as f64);
                Ok(())
            });
            filled.unwrap();
            assert!(
                counts(&runs).iter().all(|&c| c == 1),
                "fill, threads = {threads}"
            );
            let expected: Vec<f64> = (0..n).flat_map(|i| [i as f64; 3]).collect();
            assert_eq!(data, expected);

            let runs = counters(n);
            let leads = AtomicUsize::new(0);
            let led: Result<Vec<usize>, ()> = pool.try_fill_rows_map_with_lead(
                &mut data,
                3,
                || {
                    leads.fetch_add(1, SeqCst);
                    Ok(())
                },
                |i, row| {
                    runs[i].fetch_add(1, SeqCst);
                    row.fill(-(i as f64));
                    Ok(i)
                },
            );
            assert_eq!(led.unwrap(), (0..n).collect::<Vec<_>>());
            assert_eq!(leads.load(SeqCst), 1, "lead, threads = {threads}");
            assert!(
                counts(&runs).iter().all(|&c| c == 1),
                "led fill, threads = {threads}"
            );
            let expected: Vec<f64> = (0..n).flat_map(|i| [-(i as f64); 3]).collect();
            assert_eq!(data, expected);
        }
    }
}

#[test]
fn random_failures_report_the_lowest_index_after_every_lower_index_ran() {
    let mut state = 2014;
    for threads in THREADS {
        let pool = Pool::with_threads(threads);
        for _ in 0..40 {
            let n = 1 + (splitmix(&mut state) % 120) as usize;
            let failing: BTreeSet<usize> = (0..1 + splitmix(&mut state) % 4)
                .map(|_| (splitmix(&mut state) % n as u64) as usize)
                .collect();
            let lowest = *failing.first().unwrap();
            let fails = |i: usize| failing.contains(&i);

            let runs = counters(n);
            let got: Result<Vec<usize>, usize> = pool.try_map_indexed(n, |i| {
                runs[i].fetch_add(1, SeqCst);
                if fails(i) {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(got.unwrap_err(), lowest, "threads = {threads}, {failing:?}");
            let ran = counts(&runs);
            assert!(ran[..lowest].iter().all(|&c| c == 1), "threads = {threads}");
            assert!(ran.iter().all(|&c| c <= 1), "threads = {threads}");

            let runs = counters(n);
            let mut data = vec![0.0; n * 2];
            let got: Result<Vec<()>, usize> = pool.try_fill_rows_map_with_lead(
                &mut data,
                2,
                || Ok(()),
                |i, row| {
                    runs[i].fetch_add(1, SeqCst);
                    row.fill(1.0);
                    if fails(i) {
                        Err(i)
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(got.unwrap_err(), lowest, "fill, threads = {threads}");
            let ran = counts(&runs);
            assert!(
                ran[..lowest].iter().all(|&c| c == 1),
                "fill, threads = {threads}"
            );
            assert!(data[..lowest * 2].iter().all(|&s| s == 1.0));
        }
    }
}

#[test]
fn nested_fan_out_under_a_saturated_fan_out_runs_on_its_task_thread() {
    for threads in THREADS {
        let pool = Pool::with_threads(threads);
        let outer = 2 * threads;
        let strays = AtomicUsize::new(0);
        let mapped = pool.map_indexed(outer, |i| {
            let task = thread::current().id();
            let inner = pool.map_indexed(threads + 3, |j| {
                // The check below holds at any timing; the pause only makes
                // a fan-out that did spawn here hand its workers some tasks.
                thread::sleep(Duration::from_micros(200));
                if thread::current().id() != task {
                    strays.fetch_add(1, SeqCst);
                }
                j
            });
            i + inner.len()
        });
        assert_eq!(mapped.len(), outer);
        assert_eq!(strays.load(SeqCst), 0, "threads = {threads}");
    }
}

#[test]
fn nested_fan_out_under_an_unsaturated_fan_out_may_spawn() {
    for threads in [2, 3, 8] {
        let pool = Pool::with_threads(threads);
        // One outer task on a multi-worker pool leaves workers idle, so
        // its nested fan-out may use them: all `threads` inner tasks meet.
        let outer: Vec<bool> = pool.map_indexed(1, |_| {
            let arrived = AtomicUsize::new(0);
            pool.map_indexed(threads, |_| rendezvous(&arrived, threads))
                .into_iter()
                .all(|met| met)
        });
        assert_eq!(outer, vec![true], "threads = {threads}");
        // Likewise for fewer outer tasks than workers (n < threads).
        let tasks = threads - 1;
        if tasks >= 2 {
            let outer: Vec<bool> = pool.map_indexed(tasks, |_| {
                let arrived = AtomicUsize::new(0);
                pool.map_indexed(2, |_| rendezvous(&arrived, 2))
                    .into_iter()
                    .all(|met| met)
            });
            assert!(outer.into_iter().all(|met| met), "threads = {threads}");
        }
    }
}

#[test]
fn lead_runs_on_the_caller_and_its_error_wins() {
    for threads in THREADS {
        let pool = Pool::with_threads(threads);
        let caller = thread::current().id();
        let mut data = vec![0.0; 40];
        let mut lead_thread: Option<ThreadId> = None;
        let ok: Result<Vec<()>, &str> = pool.try_fill_rows_map_with_lead(
            &mut data,
            4,
            || {
                lead_thread = Some(thread::current().id());
                Ok(())
            },
            |_, _| Ok(()),
        );
        ok.unwrap();
        assert_eq!(lead_thread, Some(caller), "threads = {threads}");

        let err: Result<Vec<()>, &str> =
            pool.try_fill_rows_map_with_lead(&mut data, 4, || Err("lead"), |_, _| Err("row"));
        assert_eq!(err.unwrap_err(), "lead", "threads = {threads}");

        let err: Result<Vec<()>, &str> =
            pool.try_fill_rows_map_with_lead(&mut data, 4, || Ok(()), |_, _| Err("row"));
        assert_eq!(err.unwrap_err(), "row", "threads = {threads}");
    }
}

#[test]
fn panics_in_f_reach_the_caller_from_the_caller_and_from_workers() {
    for threads in [2, 3, 8] {
        let pool = Pool::with_threads(threads);
        let caller = thread::current().id();
        for on_caller in [true, false] {
            // `threads` indices that meet at a rendezvous run on `threads`
            // distinct participants, so both the caller and a worker get one.
            let arrived = AtomicUsize::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.map_indexed(threads, |i| {
                    assert!(rendezvous(&arrived, threads), "participants never met");
                    if (thread::current().id() == caller) == on_caller {
                        panic!("planted panic at index {i}");
                    }
                    i
                })
            }));
            let payload = outcome.expect_err("the panic must be re-raised");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                message.starts_with("planted panic"),
                "threads = {threads}, on_caller = {on_caller}: {message:?}"
            );
        }
    }
}
