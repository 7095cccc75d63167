//! Fused-ingest benchmark (experiment X13).
//!
//! Gates the fused ingest at the acceptance configuration
//! (`trace_len = 8192`, `m = 20`): slot finalization as one
//! `accumulate_scale_sum` sweep against the staged
//! `accumulate` → `scale` → `sum` sequence it replaces; gate: fused
//! ≥ 1.3× staged.
//!
//! The kernels run on the instruction set they are compiled for, reported
//! as `isa`.
//!
//! The timed pair is asserted bit-identical before any timing is
//! reported — fusion is a scheduling change, never a numeric one
//! (DESIGN.md §16). Results go to stdout and to `BENCH_6.json` in the
//! current directory; the process exits non-zero if the speedup gate
//! misses. Set `IPMARK_QUICK=1` to shrink the repetition counts.

// Benchmark binary: measuring wall-clock time is the whole point here.
// The disallowed-methods rule protects numeric kernels, not timing code.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use ipmark_traces::kernels;

/// The acceptance configuration from ISSUE 10.
const TRACE_LEN: usize = 8192;
const M: usize = 20;

/// Minimum speedup of the fused finalization over the staged sequence.
const FUSED_INGEST_GATE: f64 = 1.3;

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

/// Measures slot finalization: staged `accumulate` → `scale` → `sum`
/// versus the fused single sweep, over `M` accumulator slots. Returns
/// `(staged_ns, fused_ns)`.
fn bench_fused_ingest(reps: usize) -> (f64, f64) {
    // M accumulator slots mid-stream (k - 1 chunks already folded in)
    // plus the final chunk and the 1/k scale factor each slot needs.
    let factor = 1.0 / 7.0;
    let accs: Vec<Vec<f64>> = (0..M).map(|i| series(TRACE_LEN, 300 + i as u64)).collect();
    let last: Vec<Vec<f64>> = (0..M).map(|i| series(TRACE_LEN, 400 + i as u64)).collect();
    let mut scratch = vec![0.0; TRACE_LEN];

    // Correctness gate before timing: fused ≡ staged, bitwise, for
    // every slot — both the carried sum and the finalized buffer.
    for (acc, xs) in accs.iter().zip(&last) {
        scratch.copy_from_slice(acc);
        kernels::accumulate(&mut scratch, xs);
        kernels::scale(&mut scratch, factor);
        let staged_sum = kernels::sum(&scratch);
        let staged_buf = scratch.clone();

        scratch.copy_from_slice(acc);
        let fused_sum = kernels::accumulate_scale_sum(&mut scratch, xs, factor);
        assert_eq!(
            fused_sum.to_bits(),
            staged_sum.to_bits(),
            "fused sum diverged from staged scale -> sum"
        );
        for (f, s) in scratch.iter().zip(&staged_buf) {
            assert_eq!(
                f.to_bits(),
                s.to_bits(),
                "fused buffer diverged from staged finalization"
            );
        }
    }

    let (staged_ns, s1) = median_ns(reps, || {
        let mut total = 0.0;
        for (acc, xs) in accs.iter().zip(&last) {
            scratch.copy_from_slice(std::hint::black_box(acc));
            kernels::accumulate(&mut scratch, std::hint::black_box(xs));
            kernels::scale(&mut scratch, factor);
            total += kernels::sum(&scratch);
        }
        total
    });
    let (fused_ns, s2) = median_ns(reps, || {
        let mut total = 0.0;
        for (acc, xs) in accs.iter().zip(&last) {
            scratch.copy_from_slice(std::hint::black_box(acc));
            total += kernels::accumulate_scale_sum(&mut scratch, std::hint::black_box(xs), factor);
        }
        total
    });
    std::hint::black_box((s1, s2));
    (staged_ns, fused_ns)
}

fn main() {
    let quick = std::env::var("IPMARK_QUICK").is_ok_and(|v| v == "1");
    let reps = if quick { 11 } else { 201 };
    let isa = kernels::isa_name();
    eprintln!(
        "fusion benchmark: isa = {isa}, trace_len = {TRACE_LEN}, m = {M}, \
         {reps} repetitions (median reported)"
    );

    // --- Fused ingest finalization. ----------------------------------------
    let (staged_ns, fused_ns) = bench_fused_ingest(reps);
    let fused_speedup = staged_ns / fused_ns;
    let fused_pass = fused_speedup >= FUSED_INGEST_GATE;
    println!("fused ingest finalization (trace_len = {TRACE_LEN}, m = {M} slots):");
    println!(
        "  staged {staged_ns:>10.0} ns   fused {fused_ns:>10.0} ns   \
         speedup {fused_speedup:>5.2}x   gate >= {FUSED_INGEST_GATE}x  {}",
        if fused_pass { "PASS" } else { "FAIL" }
    );

    let peak_rss_kib = vm_hwm_kib();
    if let Some(kib) = peak_rss_kib {
        println!("peak RSS (VmHWM): {kib} KiB");
    }

    let json = serde_json::json!({
        "experiment": "X13-fusion-dispatch",
        "isa": isa,
        "config": {
            "trace_len": TRACE_LEN,
            "m": M,
            "repetitions": reps,
            "quick": quick,
        },
        "fused_ingest": {
            "staged_median_ns": staged_ns,
            "fused_median_ns": fused_ns,
            "speedup": fused_speedup,
            "gate": FUSED_INGEST_GATE,
            "pass": fused_pass,
            "bit_identical": true,
        },
        "peak_rss_kib": peak_rss_kib,
    });
    let out_path = "BENCH_6.json";
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
    if !fused_pass {
        eprintln!("speedup gate missed; see the FAIL lines above");
        std::process::exit(1);
    }
}
