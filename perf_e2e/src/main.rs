//! `perf_e2e`: end-to-end and per-layer benchmark of paper-scale ipmark
//! verification (`n1 = 400`, `n2 = 10 000`, `k = 50`, `m = 20`, 2 048
//! samples per trace).
//!
//! ```text
//! perf_e2e --workload NAME --seconds S [--seed N] [--trace 0|1] [--out FILE]
//! perf_e2e compare A.jsonl B.jsonl
//! ```
//!
//! One process runs one workload, with every worker pool pinned to
//! `T = min(available parallelism, 4)` threads through `RAYON_NUM_THREADS`.
//! It sets the workload up several times from a cold start (the median is
//! `setup_s`), checks the first ops against an independent path of the
//! library, then runs a closed loop of ops, one at a time, for `--seconds`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! production ops with traced replays and reports per-layer metrics. The
//! last line of standard output is one JSON object; `--out` appends it,
//! tagged with workload, seed and mode, to a JSON-lines file that `compare`
//! reads. See README.md for the metric glossary.

// Benchmark binary: measuring wall-clock time is the whole point here. The
// repository's disallowed-methods rule protects numeric kernels, not timing code.
#![allow(clippy::disallowed_methods)]

mod compare;
mod probe;
mod stats;
mod workloads;

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::{Number, Value};

use probe::{Count, Layer, Probe};
use stats::{median, percentile, sorted};
use workloads::{Scale, SetupReport, Workload, NAMES};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Cold setups per run; `setup_s` is their median.
const SETUPS: u64 = 3;

const USAGE: &str = "usage: perf_e2e --workload NAME --seconds S [--seed N] [--trace 0|1] [--out FILE]\n       perf_e2e compare A.jsonl B.jsonl";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

impl Args {
    /// Parses the run arguments. `--workload` and `--seconds` have no
    /// default: the run length is `run_seconds` in `BENCHMARK.json`, passed
    /// on every run, and a result object does not name its workload.
    fn parse(argv: &[String]) -> Result<Self, String> {
        let (mut workload, mut seconds) = (None, None);
        let (mut seed, mut trace, mut out) = (2014, false, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--out" => out = Some(value.into()),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !NAMES.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (one of {})",
                NAMES.join(", ")
            ));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            out,
        })
    }
}

/// Worker threads per pool: the machine's parallelism, at most four.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

fn main() -> ExitCode {
    let argv: Vec<String> = env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = threads();
    // Pins the explicit pools and the library's nested `default_backend()`
    // alike; set while this is the only thread, before any pool exists.
    env::set_var("RAYON_NUM_THREADS", threads.to_string());
    match run(&args, threads) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_e2e {}: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}

/// A per-run scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(".perf_e2e").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while other runs use it.
        let _ = std::fs::remove_dir(".perf_e2e");
    }
}

/// Tallies of the timed loop.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    op_ms: Vec<f64>,
    traces: usize,
    decisions: u64,
    right: u64,
    traced_ms: Vec<f64>,
    traced_ns: u64,
    faults: u64,
    allocs: (u64, u64),
}

impl Tally {
    /// Records an untimed op: a warm-up, or a gate op checked against the
    /// oracle. Verdicts are statistical and only feed `verdict_accuracy`.
    fn check(&mut self, what: &str, result: Result<workloads::Outcome, workloads::Error>) {
        self.attempted += 1;
        match result {
            Ok(o) if o.oracle_ok => {}
            Ok(_) => {
                self.failed += 1;
                eprintln!("{what}: result differs from the independent path");
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("{what}: {e}");
            }
        }
    }
}

fn run(args: &Args, threads: usize) -> Result<bool, workloads::Error> {
    let id = NAMES
        .iter()
        .position(|n| *n == args.workload)
        .ok_or("unknown workload")?;
    let scale = Scale::paper();
    let dir = WorkDir::create(&args.workload)?;
    let mut tally = Tally::default();

    // Setup, timed from a cold start through the first verdict. Each setup
    // ends with one untimed warm-up op.
    let mut setup_s = Vec::new();
    let mut reports = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for s in 0..SETUPS {
        drop(workload.take());
        let start = Instant::now();
        let (w, report) = workloads::setup(id, args.seed, &scale, &dir.0, threads)?;
        tally.check(&format!("warm-up op {s}"), w.run(s, None, false));
        setup_s.push(start.elapsed().as_secs_f64());
        reports.push(report);
        workload = Some(w);
    }
    let w = workload.ok_or("no setup ran")?;

    for i in 0..w.gate_ops() {
        tally.check(&format!("gate op {i}"), w.run(i, None, true));
    }

    let probe = Probe::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed() < budget {
        tally.attempted += 1;
        let t = Instant::now();
        let untraced = w.run(i, None, false);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match &untraced {
            Ok(o) => {
                tally.op_ms.push(ms);
                tally.traces += o.traces;
                tally.decisions += o.decisions;
                tally.right += o.right;
            }
            Err(e) => {
                tally.failed += 1;
                eprintln!("op {i}: {e}");
            }
        }
        if args.trace {
            traced_op(&*w, i, &probe, untraced.ok().map(|o| o.digest), &mut tally)?;
        }
        i += 1;
    }

    let metrics = if args.trace {
        per_layer(&tally, &probe, &reports, &scale, threads)
    } else {
        end_to_end(&tally, &setup_s)?
    };
    summarize(args, threads, &tally, &setup_s);
    let correct = tally.failed == 0;
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        (
            "attempted".into(),
            Value::Number(Number::PosInt(tally.attempted)),
        ),
        ("failed".into(), Value::Number(Number::PosInt(tally.failed))),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    if let Some(out) = &args.out {
        append_record(out, args, &result)?;
    }
    println!("{result}");
    Ok(correct)
}

/// One traced replay of op `i`, checked bit for bit against the untraced op.
fn traced_op(
    w: &dyn Workload,
    i: u64,
    probe: &Probe,
    untraced: Option<u64>,
    tally: &mut Tally,
) -> Result<(), workloads::Error> {
    tally.attempted += 1;
    let faults = probe::minor_faults()?;
    let before = probe::allocations();
    probe::count_allocations(true);
    let start = Instant::now();
    let traced = w.run(i, Some(probe), false);
    let elapsed = start.elapsed();
    probe::count_allocations(false);
    let after = probe::allocations();
    tally.faults += probe::minor_faults()? - faults;
    tally.allocs.0 += after.0 - before.0;
    tally.allocs.1 += after.1 - before.1;
    tally.traced_ns += u64::try_from(elapsed.as_nanos())?;
    tally.traced_ms.push(elapsed.as_secs_f64() * 1e3);
    match traced {
        Ok(o) if Some(o.digest) == untraced => {}
        Ok(_) => {
            tally.failed += 1;
            eprintln!("traced op {i}: result differs from the untraced op");
        }
        Err(e) => {
            tally.failed += 1;
            eprintln!("traced op {i}: {e}");
        }
    }
    Ok(())
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Value) {
    let value = if value.is_finite() { value } else { 0.0 };
    (
        name.into(),
        Value::Object(vec![
            ("value".into(), Value::Number(Number::Float(value))),
            ("unit".into(), Value::String(unit.into())),
        ]),
    )
}

/// Percentile `q` of a list of latencies (0 when no op completed).
fn pct(latencies: &[f64], q: f64) -> f64 {
    if latencies.is_empty() {
        0.0
    } else {
        percentile(&sorted(latencies), q)
    }
}

/// Untraced ops per second of their own wall time.
fn ops_per_s(op_ms: &[f64]) -> f64 {
    op_ms.len() as f64 * 1e3 / op_ms.iter().sum::<f64>()
}

/// The gated metrics. Latency percentiles are reported by the traced run
/// (`op.ms_*`) and on standard error: the host's load slows whole runs by
/// up to a third for minutes at a time, which spreads every timing over
/// runs, and the median more than the throughput (README.md, "Steadiness").
fn end_to_end(tally: &Tally, setup_s: &[f64]) -> Result<Vec<(String, Value)>, workloads::Error> {
    let ops = tally.op_ms.len().max(1) as f64;
    Ok(vec![
        metric("setup_s", median(setup_s), "s"),
        metric("ops_per_s", ops_per_s(&tally.op_ms), "1/s"),
        metric("traces_per_op", tally.traces as f64 / ops, "count"),
        metric(
            "peak_rss_mib",
            probe::peak_rss_kib()? as f64 / 1024.0,
            "MiB",
        ),
        metric(
            "verdict_accuracy",
            tally.right as f64 / tally.decisions.max(1) as f64,
            "fraction",
        ),
    ])
}

fn per_layer(
    tally: &Tally,
    p: &Probe,
    reports: &[SetupReport],
    scale: &Scale,
    threads: usize,
) -> Vec<(String, Value)> {
    let ops = tally.traced_ms.len().max(1) as f64;
    let ms = |layer| p.ns(layer) as f64 / 1e6;
    let per_op = |layer| ms(layer) / ops;
    let count = |c| p.count(c) as f64;
    let gib_per_s = |bytes: f64, layer| {
        let ns = p.ns(layer) as f64;
        if ns > 0.0 {
            bytes / ns * 1e9 / f64::from(1u32 << 30)
        } else {
            0.0
        }
    };
    let setup = |f: fn(&SetupReport) -> f64| median(&reports.iter().map(f).collect::<Vec<_>>());
    let sample_bytes = (scale.trace_len() * 8) as f64;
    let source_ms = ms(Layer::Synth) + ms(Layer::Accumulate);
    // Fan-out wall time: the panel's cell fan-out, else the k-average fill.
    let fan_out_ms = if p.ns(Layer::FanOut) > 0 {
        ms(Layer::FanOut)
    } else {
        ms(Layer::Kavg)
    };
    let t = threads as f64;
    // Overhead compares lower deciles, so that interference phases do not
    // masquerade as tracing cost.
    let untraced_p10 = pct(&tally.op_ms, 10.0);
    let traced_p10 = pct(&tally.traced_ms, 10.0);
    vec![
        metric("op.ms_p10", untraced_p10, "ms"),
        metric("op.ms_p50", pct(&tally.op_ms, 50.0), "ms"),
        metric("op.ms_p90", pct(&tally.op_ms, 90.0), "ms"),
        metric(
            "power.prepare.ms",
            if p.ns(Layer::Prepare) > 0 {
                per_op(Layer::Prepare)
            } else {
                setup(|r| r.prepare_ms)
            },
            "ms",
        ),
        metric("power.synth.block_ms", setup(|r| r.block_ms), "ms"),
        metric("power.synth.busy_ms_per_op", per_op(Layer::Synth), "ms"),
        metric(
            "power.synth.ns_per_sample",
            if count(Count::SynthTraces) > 0.0 {
                p.ns(Layer::Synth) as f64 / (count(Count::SynthTraces) * scale.trace_len() as f64)
            } else {
                0.0
            },
            "ns",
        ),
        metric(
            "power.synth.traces_per_op",
            count(Count::SynthTraces) / ops,
            "count",
        ),
        metric(
            "process.allocs_per_op",
            tally.allocs.0 as f64 / ops,
            "count",
        ),
        metric(
            "process.alloc_bytes_per_op",
            tally.allocs.1 as f64 / ops,
            "B",
        ),
        metric(
            "traces.accumulate.busy_ms_per_op",
            per_op(Layer::Accumulate),
            "ms",
        ),
        metric(
            "traces.accumulate.gib_per_s",
            gib_per_s(count(Count::AccTraces) * sample_bytes, Layer::Accumulate),
            "GiB/s",
        ),
        metric("core.select.ms_per_op", per_op(Layer::Select), "ms"),
        metric("core.kavg.fill_ms_per_op", per_op(Layer::Kavg), "ms"),
        metric(
            "core.kavg.self_ms_per_op",
            if p.ns(Layer::Kavg) > 0 {
                (ms(Layer::Kavg) - source_ms / t) / ops
            } else {
                0.0
            },
            "ms",
        ),
        metric("core.correlate.ms_per_op", per_op(Layer::Correlate), "ms"),
        metric(
            "core.correlate.gib_per_s",
            gib_per_s(count(Count::CorrelateBytes), Layer::Correlate),
            "GiB/s",
        ),
        metric("core.decide.us_per_op", per_op(Layer::Decide) * 1e3, "us"),
        metric("traces.decode.ms_per_op", per_op(Layer::Decode), "ms"),
        metric(
            "traces.decode.gib_per_s",
            gib_per_s(count(Count::DecodedBytes), Layer::Decode),
            "GiB/s",
        ),
        metric(
            "traces.decode.wire_ratio",
            if count(Count::WireBytes) > 0.0 {
                count(Count::DecodedBytes) / count(Count::WireBytes)
            } else {
                0.0
            },
            "ratio",
        ),
        metric("traces.encode.ms", setup(|r| r.encode_ms), "ms"),
        metric("traces.io.write_ms", setup(|r| r.write_ms), "ms"),
        metric("traces.map.us_per_op", per_op(Layer::Map) * 1e3, "us"),
        metric("os.minor_faults_per_op", tally.faults as f64 / ops, "count"),
        metric("traces.chunk.ms_per_op", per_op(Layer::Chunk), "ms"),
        metric(
            "traces.chunk.gib_per_s",
            gib_per_s(count(Count::ChunkBytes), Layer::Chunk),
            "GiB/s",
        ),
        metric(
            "core.session.open_ms_per_op",
            per_op(Layer::SessionOpen),
            "ms",
        ),
        metric(
            "core.session.ingest_ms_per_op",
            per_op(Layer::SessionIngest),
            "ms",
        ),
        metric(
            "core.session.chunks_per_op",
            count(Count::Chunks) / ops,
            "count",
        ),
        metric(
            "core.session.rounds_used",
            count(Count::Rounds) / ops,
            "count",
        ),
        metric("parallel.threads", p.peak_concurrency() as f64, "count"),
        metric(
            "parallel.utilization",
            if fan_out_ms > 0.0 {
                source_ms / (t * fan_out_ms)
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "trace.coverage",
            p.covered_ns() as f64 / tally.traced_ns.max(1) as f64,
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            if untraced_p10 > 0.0 {
                traced_p10 / untraced_p10 - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
        metric("trace.ops", tally.traced_ms.len() as f64, "count"),
    ]
}

/// A human-readable summary on standard error, with the sample counts
/// behind each percentile.
fn summarize(args: &Args, threads: usize, tally: &Tally, setup_s: &[f64]) {
    let n = tally.op_ms.len();
    let tail = stats::tail(&tally.op_ms)
        .map_or("no percentile has 10 samples beyond it".into(), |(q, v)| {
            format!("p{q} {v:.3} ms")
        });
    eprintln!(
        "{} seed {} threads {threads}: setup {:.3} s (median of {}), {n} ops, p10 {:.3} ms, p50 {:.3} ms, {tail}, {:.3} ops/s, {} of {} decisions right, {} attempted, {} failed",
        args.workload,
        args.seed,
        median(setup_s),
        setup_s.len(),
        pct(&tally.op_ms, 10.0),
        pct(&tally.op_ms, 50.0),
        ops_per_s(&tally.op_ms),
        tally.right,
        tally.decisions,
        tally.attempted,
        tally.failed,
    );
}

fn append_record(path: &Path, args: &Args, result: &Value) -> std::io::Result<()> {
    use std::io::Write as _;
    let record = Value::Object(vec![
        ("workload".into(), Value::String(args.workload.clone())),
        ("seed".into(), Value::Number(Number::PosInt(args.seed))),
        (
            "trace".into(),
            Value::Number(Number::PosInt(u64::from(args.trace))),
        ),
        ("result".into(), result.clone()),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{record}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_arguments_and_rejects_the_rest() {
        let a = Args::parse(&argv(
            "--workload verify-mapped --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("verify-mapped", 7, 2.5, true)
        );
        let d = Args::parse(&argv("--workload panel-4x4 --seconds 1")).unwrap();
        assert_eq!((d.seed, d.trace), (2014, false));
        assert!(Args::parse(&argv("--workload nope --seconds 1")).is_err());
        assert!(Args::parse(&argv("--workload all --seconds 1")).is_err());
        assert!(Args::parse(&argv("--workload panel-4x4")).is_err());
        assert!(Args::parse(&argv("--seconds 1")).is_err());
        assert!(Args::parse(&argv("--workload panel-4x4 --seconds 0")).is_err());
        assert!(Args::parse(&argv("--workload panel-4x4 --seconds 1 --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload panel-4x4 --seconds 1 --seed")).is_err());
    }
}
