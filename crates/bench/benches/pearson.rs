//! Microbenchmark: the Pearson coefficient over trace-sized series — the
//! inner loop of the verification process (m evaluations per DUT) — and
//! the fused [`PearsonRef`] kernel that centers the single reference once
//! and reuses it for all m correlations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipmark_traces::stats::{pearson, PearsonRef};
use std::hint::black_box;

fn bench_pearson(c: &mut Criterion) {
    let mut group = c.benchmark_group("pearson");
    for &len in &[256usize, 2048, 16384] {
        let x: Vec<f64> = (0..len).map(|i| (i as f64 * 0.17).sin()).collect();
        let y: Vec<f64> = (0..len).map(|i| (i as f64 * 0.17 + 0.3).sin()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| pearson(black_box(&x), black_box(&y)).expect("valid series"))
        });
    }
    group.finish();
}

/// The verification hot loop at the paper's scale: one reference average
/// correlated against m = 20 DUT averages of 1024 samples (256 cycles ×
/// 4 samples/cycle). The baseline re-derives the reference's mean and
/// centered norm inside every `pearson` call; the fused kernel pays that
/// once in `PearsonRef::new` — the per-call pass drops from three series
/// to two, so the fused variant should land around 2/3 of the baseline.
fn bench_fused_reference(c: &mut Criterion) {
    let len = 1024usize;
    let m = 20usize;
    let reference: Vec<f64> = (0..len).map(|i| (i as f64 * 0.17).sin()).collect();
    let duts: Vec<Vec<f64>> = (0..m)
        .map(|j| {
            (0..len)
                .map(|i| (i as f64 * 0.17 + 0.01 * j as f64).sin())
                .collect()
        })
        .collect();

    let mut group = c.benchmark_group("pearson-m20-len1024");
    group.bench_with_input(
        BenchmarkId::from_parameter("per-call-pearson"),
        &duts,
        |b, duts| {
            b.iter(|| {
                let mut acc = 0.0;
                for y in duts {
                    acc += pearson(black_box(&reference), black_box(y)).expect("valid");
                }
                acc
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("fused-pearson-ref"),
        &duts,
        |b, duts| {
            b.iter(|| {
                let r = PearsonRef::new(black_box(&reference)).expect("valid");
                let mut acc = 0.0;
                for y in duts {
                    acc += r.correlate(black_box(y)).expect("valid");
                }
                acc
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_pearson, bench_fused_reference);
criterion_main!(benches);
