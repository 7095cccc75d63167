//! Operator-graph overhead benchmark (experiment X12).
//!
//! Every verification path runs through one typed `Plan` graph, executed on
//! an `ipmark_parallel::Pool`. This binary proves the abstraction is free:
//!
//! * `CorrelateStage::rows` vs the direct per-row `PearsonRef::correlate`
//!   loop it wraps;
//! * a full correlation process as the hand-rolled pre-refactor body
//!   (select → `mean_of_indices_into` → per-row `correlate`, one thread) vs
//!   `Plan::execute` over the same sources and seed, on a one-worker pool
//!   and on the environment's pool;
//! * `Plan` buffer reuse: re-executing one plan against fresh selections,
//!   which skips the per-call arena allocation.
//!
//! Both comparisons are asserted bit-identical before timing, and the run
//! FAILS (exit 1) if the plan path drops below 0.95x the throughput of its
//! direct counterpart at either pool size. Results go to stdout and `BENCH_8.json`.
//! Set `IPMARK_QUICK=1` to shrink the repetition counts.
//!
//! Each parity reading carries the host's regime over its timed section,
//! read from `/proc/stat` and `/proc/self/stat` (read only): the share of
//! all CPUs' time the hypervisor stole (`host.steal_share`) and the share
//! other processes kept busy (`host.other_busy_share`). A reading near the
//! gate under a busy host says the host moved, not the code.

// Benchmark binary: measuring wall-clock time is the whole point here.
// The disallowed-methods rule protects numeric kernels, not timing code.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ipmark_core::verify::CorrelationParams;
use ipmark_core::{default_backend, CorrelationSet, Plan};
use ipmark_parallel::Pool;
use ipmark_traces::average::mean_of_indices_into;
use ipmark_traces::select::uniform_distinct_indices;
use ipmark_traces::stats::PearsonRef;
use ipmark_traces::TraceBlock;

/// The X8/X9 acceptance shape: paper-grade trace length, m = 20 rows.
const TRACE_LEN: usize = 8192;
const PARAMS: CorrelationParams = CorrelationParams {
    n1: 60,
    n2: 400,
    k: 10,
    m: 20,
};
const SEED: u64 = 2014;
/// The parity gate: the graph path must retain at least this fraction of
/// the direct path's throughput.
const MIN_PARITY: f64 = 0.95;

/// Cumulative CPU accounting in clock ticks: every CPU's time, the part
/// the hypervisor stole, the busy part, and this process's own busy part.
#[derive(Clone, Copy)]
struct HostTicks {
    total: u64,
    steal: u64,
    busy: u64,
    own: u64,
}

/// Reads the aggregate `cpu` line of `/proc/stat` (user nice system idle
/// iowait irq softirq steal; guest time is already inside user and nice)
/// and utime + stime, fields 14 and 15, of `/proc/self/stat`.
fn host_ticks() -> Option<HostTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    let field = |i: usize| cpu.get(i).copied().unwrap_or(0);
    let own_stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = own_stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(HostTicks {
        total: (0..8).map(field).sum(),
        steal: field(7),
        busy: field(0) + field(1) + field(2) + field(5) + field(6),
        own: ticks(14)? + ticks(15)?,
    })
}

/// Fewest clock ticks (summed over CPUs) a section must span for its
/// shares to mean anything: `/proc` accounts time by the tick.
const MIN_HOST_TICKS: u64 = 20;

/// The host's regime over one timed section, as shares of all CPUs' time;
/// `None` where `/proc` is unreadable or fewer than [`MIN_HOST_TICKS`]
/// ticks elapsed.
#[derive(Clone, Copy, Default)]
struct HostShares {
    ticks: u64,
    steal: Option<f64>,
    other_busy: Option<f64>,
}

impl HostShares {
    /// Runs `section` and reports the host's regime while it ran.
    fn around<T>(section: impl FnOnce() -> T) -> (T, HostShares) {
        let before = host_ticks();
        let out = section();
        let shares = before
            .zip(host_ticks())
            .map_or_else(HostShares::default, |(b, a)| {
                let ticks = a.total.saturating_sub(b.total);
                let share =
                    |part: u64| (ticks >= MIN_HOST_TICKS).then(|| part as f64 / ticks as f64);
                let busy = a.busy.saturating_sub(b.busy);
                HostShares {
                    ticks,
                    steal: share(a.steal.saturating_sub(b.steal)),
                    other_busy: share(busy.saturating_sub(a.own.saturating_sub(b.own))),
                }
            });
        (out, shares)
    }

    fn json(&self) -> serde_json::Value {
        serde_json::json!({
            "ticks": self.ticks,
            "steal_share": self.steal,
            "other_busy_share": self.other_busy,
        })
    }
}

impl std::fmt::Display for HostShares {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.steal, self.other_busy) {
            (Some(steal), Some(busy)) => write!(
                f,
                "host steal {:.1}%, other busy {:.1}%",
                100.0 * steal,
                100.0 * busy
            ),
            _ => write!(f, "host regime n/a over {} ticks", self.ticks),
        }
    }
}

fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Deterministic pseudo-noise series; no RNG needed for throughput work.
fn series(len: usize, salt: u64) -> Vec<f64> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (i as f64 * 0.173).sin() + (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn synthetic_block(device: &str, n: usize, salt: u64) -> TraceBlock {
    let samples = (0..n)
        .flat_map(|i| series(TRACE_LEN, salt.wrapping_add(i as u64)))
        .collect();
    TraceBlock::from_data(device, TRACE_LEN, samples).expect("whole rows")
}

/// Median wall time of `reps` runs of `f`, in nanoseconds.
fn median_ns<F: FnMut() -> f64>(reps: usize, mut f: F) -> (f64, f64) {
    let mut sink = 0.0;
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            sink += f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], sink)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Paired comparison: times `direct` and `staged` back to back within each
/// repetition so clock-frequency drift hits both sides alike, and reports
/// (median direct ns, median staged ns, median per-rep direct/staged
/// ratio). The median ratio — not the ratio of medians — is the parity
/// figure, because it is robust to thermal throttling between reps.
fn paired_parity_ns<F, G>(reps: usize, mut direct: F, mut staged: G) -> (f64, f64, f64)
where
    F: FnMut() -> f64,
    G: FnMut() -> f64,
{
    let mut sink = 0.0;
    // One untimed round each, so cold caches don't bias the first pair.
    sink += direct();
    sink += staged();
    let mut direct_ns = Vec::with_capacity(reps);
    let mut staged_ns = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        sink += direct();
        let d = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        sink += staged();
        let s = t.elapsed().as_nanos() as f64;
        direct_ns.push(d);
        staged_ns.push(s);
        ratios.push(d / s);
    }
    std::hint::black_box(sink);
    (median(direct_ns), median(staged_ns), median(ratios))
}

/// The pre-refactor correlation-process body, hand-rolled from the same
/// primitives the stages wrap: draw the reference selection, k-average it,
/// draw and k-average the m DUT selections into a fresh arena, then
/// correlate each row. Same draws, same FLOPs, no stage structs.
fn direct_process(refd: &TraceBlock, dut: &TraceBlock, seed: u64) -> CorrelationSet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let refd_sel =
        uniform_distinct_indices(PARAMS.n1, PARAMS.k, &mut rng).expect("valid selection");
    let dut_sels: Vec<Vec<usize>> = (0..PARAMS.m)
        .map(|_| uniform_distinct_indices(PARAMS.n2, PARAMS.k, &mut rng).expect("valid selection"))
        .collect();
    let mut a_refd = vec![0.0; TRACE_LEN];
    mean_of_indices_into(refd, &refd_sel, &mut a_refd).expect("reference average");
    let mut block = TraceBlock::zeros("direct", PARAMS.m, TRACE_LEN).expect("arena");
    for (i, mut row) in block.rows_mut().enumerate() {
        mean_of_indices_into(dut, &dut_sels[i], row.samples_mut()).expect("DUT average");
    }
    let kernel = PearsonRef::new(&a_refd).expect("non-degenerate reference");
    let coefficients: Vec<f64> = block
        .rows()
        .map(|row| kernel.correlate(row.samples()).expect("well-formed row"))
        .collect();
    CorrelationSet::new(coefficients).expect("m coefficients")
}

/// One pool's full-process comparison.
struct ProcessParity {
    threads: usize,
    direct_ns: f64,
    plan_ns: f64,
    reused_ns: f64,
    parity: f64,
    host: HostShares,
}

/// Times the hand-rolled body against `Plan::execute` on `pool`, paired,
/// and a warm plan re-executing against fresh selections.
fn process_parity(reps: usize, pool: &Pool, refd: &TraceBlock, dut: &TraceBlock) -> ProcessParity {
    let ((direct_ns, plan_ns, parity), host) = HostShares::around(|| {
        paired_parity_ns(
            reps,
            || direct_process(refd, dut, SEED).mean(),
            || {
                let mut rng = ChaCha8Rng::seed_from_u64(SEED);
                let mut plan = Plan::correlation(&PARAMS, &mut rng).expect("plan");
                plan.execute(refd, dut, pool).expect("execute").mean()
            },
        )
    });
    // Buffer reuse: one plan, fresh selections per call, arena kept warm.
    let mut reused = {
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        Plan::correlation(&PARAMS, &mut rng).expect("plan")
    };
    let (reused_ns, _) = median_ns(reps, || {
        reused.execute(refd, dut, pool).expect("execute").mean()
    });
    ProcessParity {
        threads: pool.threads(),
        direct_ns,
        plan_ns,
        reused_ns,
        parity,
        host,
    }
}

fn main() {
    let quick = std::env::var("IPMARK_QUICK").is_ok_and(|v| v == "1");
    let reps = if quick { 11 } else { 101 };
    let pool = default_backend();
    let kernels = ipmark_traces::kernels::isa_name();
    eprintln!(
        "pipeline benchmark: {} pool threads, kernels = {kernels}, trace_len = {TRACE_LEN}, \
         params = {PARAMS:?}, {reps} repetitions (median reported)",
        pool.threads(),
    );

    // --- Stage seam: CorrelateStage::rows vs the direct per-row loop. -----
    let reference = series(TRACE_LEN, 100);
    let mut block = TraceBlock::zeros("bench", PARAMS.m, TRACE_LEN).expect("arena");
    for (i, mut row) in block.rows_mut().enumerate() {
        let data = series(TRACE_LEN, 200 + i as u64);
        row.copy_from_slice(&data).expect("row length");
    }
    let kernel = PearsonRef::new(&reference).expect("non-degenerate reference");
    let stage = ipmark_core::CorrelateStage::center(&reference).expect("stage");

    let direct: Vec<f64> = block
        .rows()
        .map(|row| kernel.correlate(row.samples()).expect("well-formed row"))
        .collect();
    let staged = stage.rows(&block).expect("staged rows");
    assert_eq!(
        direct.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        staged.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        "CorrelateStage::rows diverged from per-row correlate"
    );

    let ((rows_direct_ns, rows_staged_ns, rows_parity), rows_host) = HostShares::around(|| {
        paired_parity_ns(
            reps,
            || {
                std::hint::black_box(&block)
                    .rows()
                    .map(|row| kernel.correlate(row.samples()).expect("well-formed row"))
                    .sum::<f64>()
            },
            || {
                stage
                    .rows(std::hint::black_box(&block))
                    .expect("staged rows")
                    .iter()
                    .sum::<f64>()
            },
        )
    });
    println!(
        "correlate-rows seam (trace_len = {TRACE_LEN}, m = {}):",
        PARAMS.m
    );
    println!("  direct per-row loop     {rows_direct_ns:>10.0} ns");
    println!("  CorrelateStage::rows    {rows_staged_ns:>10.0} ns");
    println!("  parity                  {rows_parity:>10.3}x (gate >= {MIN_PARITY}; {rows_host})");

    // --- Full process: hand-rolled legacy body vs Plan::execute. ----------
    let refd = synthetic_block("refd", PARAMS.n1, 1_000);
    let dut = synthetic_block("dut", PARAMS.n2, 2_000);

    let want = direct_process(&refd, &dut, SEED);
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut check_plan = Plan::correlation(&PARAMS, &mut rng).expect("plan");
    let got = check_plan
        .execute(&refd, &dut, &pool)
        .expect("plan execute");
    assert_eq!(
        want.coefficients()
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>(),
        got.coefficients()
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>(),
        "Plan::execute diverged from the hand-rolled process"
    );

    // The process comparison runs on one worker and on the environment's
    // pool: the direct body is sequential either way, so the pooled figure
    // prices what the fan-out buys as well as what the graph costs.
    println!(
        "full correlation process (n1 = {}, n2 = {}, k = {}, m = {}):",
        PARAMS.n1, PARAMS.n2, PARAMS.k, PARAMS.m
    );
    let processes: Vec<ProcessParity> = [Pool::with_threads(1), pool]
        .iter()
        .map(|pool| {
            let process = process_parity(reps, pool, &refd, &dut);
            println!("  on {} pool thread(s):", process.threads);
            println!("    hand-rolled direct body {:>10.0} ns", process.direct_ns);
            println!("    Plan::correlation+exec  {:>10.0} ns", process.plan_ns);
            println!("    Plan re-execute (warm)  {:>10.0} ns", process.reused_ns);
            println!(
                "    parity                  {:>10.3}x (gate >= {MIN_PARITY}; {})",
                process.parity, process.host
            );
            process
        })
        .collect();

    let peak_rss_kib = vm_hwm_kib();
    if let Some(kib) = peak_rss_kib {
        println!("peak RSS (VmHWM): {kib} KiB");
    }

    let json = serde_json::json!({
        "experiment": "X12-operator-graph-parity",
        "threads": pool.threads(),
        "kernels": kernels,
        "config": {
            "trace_len": TRACE_LEN,
            "n1": PARAMS.n1,
            "n2": PARAMS.n2,
            "k": PARAMS.k,
            "m": PARAMS.m,
            "repetitions": reps,
            "quick": quick,
            "min_parity": MIN_PARITY,
        },
        "correlate_rows_seam": {
            "direct_median_ns": rows_direct_ns,
            "staged_median_ns": rows_staged_ns,
            "parity": rows_parity,
            "bit_identical": true,
            "host": rows_host.json(),
        },
        "correlation_process": processes
            .iter()
            .map(|p| serde_json::json!({
                "threads": p.threads,
                "direct_median_ns": p.direct_ns,
                "plan_median_ns": p.plan_ns,
                "plan_reused_median_ns": p.reused_ns,
                "parity": p.parity,
                "bit_identical": true,
                "host": p.host.json(),
            }))
            .collect::<Vec<_>>(),
        "peak_rss_kib": peak_rss_kib,
    });
    let out_path = "BENCH_8.json";
    match std::fs::write(
        out_path,
        serde_json::to_string_pretty(&json).expect("finite data"),
    ) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    let process_figures = processes
        .iter()
        .map(|p| format!("{:.3}x at {} thread(s), {}", p.parity, p.threads, p.host))
        .collect::<Vec<_>>()
        .join(", ");
    if rows_parity < MIN_PARITY || processes.iter().any(|p| p.parity < MIN_PARITY) {
        eprintln!(
            "FAIL: operator-graph throughput parity below {MIN_PARITY} \
             (correlate-rows {rows_parity:.3}x, {rows_host}; process {process_figures})"
        );
        std::process::exit(1);
    }
    println!(
        "parity gate passed (correlate-rows {rows_parity:.3}x, {rows_host}; process \
         {process_figures}; all >= {MIN_PARITY})"
    );
}
