//! Extension **X5**: the acquisition-time / computation-time tradeoff of
//! §V.B, quantified.
//!
//! The paper's closing discussion says the parameter `k` "only impacts the
//! time required for measurement" while `m` "has an impact on the
//! computation time of the correlation". This experiment puts numbers on
//! both halves:
//!
//! * **measurement model** — with a DUT clock and trace length fixed, the
//!   bench time is `(n1 + D·n2) × capture_time`, and `n2 = α·k·m`; the
//!   table shows how the campaign duration scales with `k`;
//! * **computation measurement** — the correlation process is run for a
//!   sweep of `m` on a prepared campaign and its wall-clock time reported;
//! * **synthesis breakdown** — trace synthesis is nearly all of that
//!   time, so its pieces are timed one by one on one thread: the
//!   per-trace noise stream's words, the normal sampler's draws, the
//!   whole measurement sweep on the default chain, and the two calls a
//!   verification makes into an on-demand source: one trace's
//!   `accumulate` through `&dyn TraceSource`, and a k = 50 fill through
//!   `mean_of_indices_into`.
//!
//! ```text
//! cargo run --release -p ipmark-bench --bin budget
//! IPMARK_QUICK=1 cargo run --release -p ipmark-bench --bin budget
//! ```

// Benchmark binary: measuring wall-clock time is the whole point here.
// The disallowed-methods rule protects numeric kernels, not timing code.
#![allow(clippy::disallowed_methods)]

use std::hint::black_box;
use std::time::Instant;

use ipmark_bench::quick_mode;
use ipmark_core::ip::{default_chain, FabricatedDevice, DEFAULT_CYCLES};
use ipmark_core::ip_b;
use ipmark_core::verify::{correlation_process, CorrelationParams};
use ipmark_power::noise::standard_normal;
use ipmark_power::{MeasurementChain, NoiseRng, ProcessVariation};
use ipmark_traces::average::mean_of_indices_into;
use ipmark_traces::TraceSource;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Assumed DUT clock for the measurement-time model (the paper's FPGA
/// designs run tens of MHz; 10 MHz keeps the numbers conservative).
const CLOCK_HZ: f64 = 10.0e6;
/// Scope re-arm dead time per capture (typical bench value).
const REARM_S: f64 = 1.0e-3;

fn main() {
    let alpha = 10usize;
    let m = 20usize;
    let duts = 4usize;
    let capture_s = DEFAULT_CYCLES as f64 / CLOCK_HZ + REARM_S;

    println!("# X5a: measurement-time model (alpha = {alpha}, m = {m}, {duts} DUTs,");
    println!(
        "#      {DEFAULT_CYCLES}-cycle captures at {} MHz + {} ms re-arm)",
        CLOCK_HZ / 1e6,
        REARM_S * 1e3
    );
    println!("k,n1,n2,total_traces,bench_minutes");
    for k in [10usize, 25, 50, 100, 200] {
        let n1 = 8 * k;
        let n2 = alpha * k * m;
        let total = n1 + duts * n2;
        let minutes = total as f64 * capture_s / 60.0;
        println!("{k},{n1},{n2},{total},{minutes:.1}");
    }

    println!();
    println!("# X5b: measured correlation-process compute time vs m");
    println!("m,n2,wall_ms");
    let chain = default_chain().expect("built-in");
    let variation = ProcessVariation::typical();
    let k = if quick_mode() { 10 } else { 50 };
    let ms: &[usize] = if quick_mode() {
        &[5, 10]
    } else {
        &[5, 10, 20, 40, 80]
    };
    let max_n2 = alpha * k * ms.last().expect("non-empty");
    let mut refd_die = FabricatedDevice::fabricate(&ip_b(), &variation, 1).expect("die");
    let mut dut_die = FabricatedDevice::fabricate(&ip_b(), &variation, 2).expect("die");
    let refd = refd_die
        .acquisition(&chain, DEFAULT_CYCLES, 8 * k, 3)
        .expect("campaign");
    let dut = dut_die
        .acquisition(&chain, DEFAULT_CYCLES, max_n2, 4)
        .expect("campaign");
    for &m in ms {
        let params = CorrelationParams {
            n1: 8 * k,
            n2: alpha * k * m,
            k,
            m,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let t0 = Instant::now();
        let c = correlation_process(&refd, &dut, &params, &mut rng).expect("process");
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        println!("{m},{},{wall:.1}", params.n2);
        assert_eq!(c.len(), m);
    }

    synthesis_breakdown(&chain, refd.clean_waveform(), &refd);

    println!();
    println!("# expectation per §V.B: bench time grows linearly in k (the only");
    println!("# reason to keep k small), compute time grows linearly in m (the");
    println!("# reason m is chosen just past the f_alpha(m) knee).");
}

/// Median wall time of `reps` runs of `f`, in nanoseconds.
fn median_ns<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// X5c: ns per sample of each synthesis piece over `traces` traces of
/// `clean.len()` samples, each trace on its own `NoiseRng` stream as in
/// `SimulatedAcquisition`: one `next_u64` word, one `standard_normal`
/// draw, and one `accumulate_into` sweep of `chain` (noise, low-pass,
/// add). Then the paths a verification runs on `source`, a
/// campaign of the same chain and waveform: its `accumulate` called through
/// `&dyn TraceSource`, as a non-generic caller does, and one
/// `mean_of_indices_into` over 50 indices, the k-average fill of §III.
fn synthesis_breakdown(chain: &MeasurementChain, clean: &[f64], source: &dyn TraceSource) {
    let (reps, traces) = if quick_mode() { (5, 16) } else { (21, 128) };
    let samples = (traces * clean.len()) as f64;
    let streams = || (0..traces as u64).map(NoiseRng::seed_from_u64);
    let words = median_ns(reps, || {
        let mut x = 0;
        for mut rng in streams() {
            for _ in clean {
                x ^= rng.next_u64();
            }
        }
        x as f64
    });
    let normals = median_ns(reps, || {
        let mut sum = 0.0;
        for mut rng in streams() {
            for _ in clean {
                sum += standard_normal(&mut rng);
            }
        }
        sum
    });
    let mut acc = vec![0.0; clean.len()];
    let sweep = median_ns(reps, || {
        for mut rng in streams() {
            chain
                .accumulate_into(clean, &mut acc, &mut rng)
                .expect("row matches the waveform");
        }
        acc.first().copied().unwrap_or_default()
    });
    let source_accumulate = median_ns(reps, || {
        for i in 0..traces {
            source
                .accumulate(i, &mut acc)
                .expect("index inside the campaign");
        }
        acc.first().copied().unwrap_or_default()
    });
    let fill: Vec<usize> = (0..50).collect();
    let fill_ns = median_ns(reps, || {
        mean_of_indices_into(source, &fill, &mut acc).expect("indices inside the campaign");
        acc.first().copied().unwrap_or_default()
    });

    println!();
    println!(
        "# X5c: synthesis breakdown, one thread, median of {reps} reps of \
         {traces} traces x {} samples",
        clean.len()
    );
    println!("piece,ns_per_sample");
    println!("noise_rng_word,{:.2}", words / samples);
    println!("standard_normal,{:.2}", normals / samples);
    println!("accumulate_into_sweep,{:.2}", sweep / samples);
    println!("source_accumulate_dyn,{:.2}", source_accumulate / samples);
    println!(
        "mean_of_indices_into_k50,{:.2}",
        fill_ns / (fill.len() * clean.len()) as f64
    );
}
