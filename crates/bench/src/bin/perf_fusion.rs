//! Fused-ingest and multi-reference screening benchmark (experiment X13).
//!
//! Gates the two ISSUE-10 fusions at the acceptance configuration
//! (`trace_len = 8192`, `m = 20`, `refs = 8`):
//!
//! * **fused ingest** — slot finalization as one
//!   `accumulate_scale_sum` sweep against the staged
//!   `accumulate` → `scale` → `sum` sequence it replaces; gate: fused
//!   ≥ 1.3× staged;
//! * **multi-reference screening** — `PearsonRef::correlate_refs`
//!   sweeping one DUT `TraceBlock` against 8 cached references against
//!   the baseline of 8 independent `correlate_rows` calls; gate:
//!   batched ≥ 1.5× looped. The underlying 4-row kernel (`sxy_refs_x4`
//!   vs looped `sxy`) is also reported.
//!
//! The kernels run on the instruction set they are compiled for, reported
//! as `isa`.
//!
//! Every timed pair is asserted bit-identical before any timing is
//! reported — fusion is a scheduling change, never a numeric one
//! (DESIGN.md §16). Results go to stdout and to `BENCH_6.json` in the
//! current directory; the process exits non-zero if a speedup gate
//! misses. Set `IPMARK_QUICK=1` to shrink the repetition counts.

// Benchmark binary: measuring wall-clock time is the whole point here.
// The disallowed-methods rule protects numeric kernels, not timing code.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use ipmark_traces::kernels;
use ipmark_traces::stats::PearsonRef;
use ipmark_traces::TraceBlock;

/// The acceptance configuration from ISSUE 10.
const TRACE_LEN: usize = 8192;
const M: usize = 20;
const REFS: usize = 8;

/// Speedup gates from the ISSUE-10 acceptance criteria.
const FUSED_INGEST_GATE: f64 = 1.3;
const MULTI_REF_GATE: f64 = 1.5;

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

/// Measures the 4-row multi-reference kernel: four independent `sxy`
/// sweeps versus one `sxy_refs_x4` group sweep. Returns
/// `(looped_ns, batched_ns)`.
fn bench_sxy_refs_kernel(reps: usize) -> (f64, f64) {
    let refs: Vec<Vec<f64>> = (0..4).map(|i| series(TRACE_LEN, 500 + i as u64)).collect();
    let y = series(TRACE_LEN, 600);
    let my = kernels::sum(&y) / TRACE_LEN as f64;
    let group: [&[f64]; 4] = [&refs[0], &refs[1], &refs[2], &refs[3]];

    // Correctness gate before timing.
    let batched = kernels::sxy_refs_x4(group, &y, my);
    for (r, want) in refs.iter().zip(batched) {
        let got = kernels::sxy(r, &y, my);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "sxy_refs_x4 diverged from single-reference sxy"
        );
    }

    let (looped_ns, s1) = median_ns(reps, || {
        refs.iter()
            .map(|r| kernels::sxy(std::hint::black_box(r.as_slice()), &y, my))
            .sum()
    });
    let (batched_ns, s2) = median_ns(reps, || {
        kernels::sxy_refs_x4(std::hint::black_box(group), &y, my)
            .iter()
            .sum()
    });
    std::hint::black_box((s1, s2));
    (looped_ns, batched_ns)
}

fn main() {
    let quick = std::env::var("IPMARK_QUICK").is_ok_and(|v| v == "1");
    let reps = if quick { 11 } else { 201 };
    let isa = kernels::isa_name();
    eprintln!(
        "fusion benchmark: isa = {isa}, trace_len = {TRACE_LEN}, m = {M}, \
         refs = {REFS}, {reps} repetitions (median reported)"
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

    // --- 4-row multi-reference kernel. -------------------------------------
    let (looped_x4_ns, batched_x4_ns) = bench_sxy_refs_kernel(reps);
    let x4_speedup = looped_x4_ns / batched_x4_ns;
    println!("sxy_refs_x4 kernel (trace_len = {TRACE_LEN}, 4 references):");
    println!(
        "  looped {looped_x4_ns:>10.0} ns   batched {batched_x4_ns:>10.0} ns   \
         speedup {x4_speedup:>5.2}x"
    );

    // --- Multi-reference screening sweep, compiled backend. ---------------
    let references: Vec<Vec<f64>> = (0..REFS)
        .map(|i| series(TRACE_LEN, 700 + i as u64))
        .collect();
    let kernels_vec: Vec<PearsonRef> = references
        .iter()
        .map(|r| PearsonRef::new(r).expect("non-degenerate reference"))
        .collect();
    let mut block = TraceBlock::zeros("bench", M, TRACE_LEN).expect("arena");
    for (i, mut row) in block.rows_mut().enumerate() {
        let data = series(TRACE_LEN, 800 + i as u64);
        row.copy_from_slice(&data).expect("row length");
    }

    // Correctness gate before timing: batched ≡ per-reference, bitwise.
    let batched_cols = PearsonRef::correlate_refs(&kernels_vec, &block);
    for (kernel, col) in kernels_vec.iter().zip(&batched_cols) {
        for (want, got) in col.iter().zip(kernel.correlate_rows(&block)) {
            assert_eq!(
                got.as_ref().expect("well-formed rows").to_bits(),
                want.as_ref().expect("well-formed rows").to_bits(),
                "correlate_refs diverged from per-reference correlate_rows"
            );
        }
    }

    let (looped_ns, s1) = median_ns(reps, || {
        kernels_vec
            .iter()
            .map(|k| {
                k.correlate_rows(std::hint::black_box(&block))
                    .into_iter()
                    .map(|r| r.expect("well-formed rows"))
                    .sum::<f64>()
            })
            .sum()
    });
    let (batched_ns, s2) = median_ns(reps, || {
        PearsonRef::correlate_refs(&kernels_vec, std::hint::black_box(&block))
            .into_iter()
            .flatten()
            .map(|r| r.expect("well-formed rows"))
            .sum()
    });
    std::hint::black_box((s1, s2));
    let multi_ref_speedup = looped_ns / batched_ns;
    let multi_ref_pass = multi_ref_speedup >= MULTI_REF_GATE;
    println!("multi-reference screening (trace_len = {TRACE_LEN}, m = {M}, refs = {REFS}):");
    println!("  per-ref correlate_rows x{REFS}  {looped_ns:>10.0} ns");
    println!("  correlate_refs (batched)      {batched_ns:>10.0} ns");
    println!(
        "  speedup                       {multi_ref_speedup:>10.2}x   gate >= {MULTI_REF_GATE}x  {}",
        if multi_ref_pass { "PASS" } else { "FAIL" }
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
            "refs": REFS,
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
        "sxy_refs_kernel": {
            "looped_median_ns": looped_x4_ns,
            "batched_median_ns": batched_x4_ns,
            "speedup": x4_speedup,
            "bit_identical": true,
        },
        "multi_ref_screening": {
            "looped_median_ns": looped_ns,
            "batched_median_ns": batched_ns,
            "speedup": multi_ref_speedup,
            "gate": MULTI_REF_GATE,
            "pass": multi_ref_pass,
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
    if !(fused_pass && multi_ref_pass) {
        eprintln!("speedup gate missed; see the FAIL lines above");
        std::process::exit(1);
    }
}
