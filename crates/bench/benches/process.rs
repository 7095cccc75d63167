//! Macrobenchmark: the full correlation computation process — one
//! (RefD, DUT) verification at the paper's parameters and at a reduced
//! set — plus the engine on its default pooled backend against the same
//! plan on the sequential backend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipmark_core::ip::{default_chain, FabricatedDevice, DEFAULT_CYCLES};
use ipmark_core::verify::{correlation_process, CorrelationParams};
use ipmark_core::{ip_b, ip_c, Plan};
use ipmark_parallel::Pool;
use ipmark_power::ProcessVariation;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_correlation_process(c: &mut Criterion) {
    let chain = default_chain().expect("built-in");
    let mut refd_die =
        FabricatedDevice::fabricate(&ip_b(), &ProcessVariation::typical(), 1).expect("die");
    let mut dut_die =
        FabricatedDevice::fabricate(&ip_c(), &ProcessVariation::typical(), 2).expect("die");
    let refd = refd_die
        .acquisition(&chain, DEFAULT_CYCLES, 400, 3)
        .expect("campaign");
    let dut = dut_die
        .acquisition(&chain, DEFAULT_CYCLES, 10_000, 4)
        .expect("campaign");

    let mut group = c.benchmark_group("correlation-process");
    group.sample_size(20);
    for (label, params) in [
        ("paper-n2-10000-k50-m20", CorrelationParams::paper()),
        (
            "reduced-n2-1000-k10-m10",
            CorrelationParams {
                n1: 400,
                n2: 1000,
                k: 10,
                m: 10,
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &params, |b, params| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(9);
                black_box(correlation_process(&refd, &dut, params, &mut rng).expect("process"))
            })
        });
    }
    group.finish();

    // Engine vs sequential backend at the paper's parameters: both run the
    // same fused plan, so the gap is the k-averaging fan-out (with more
    // than one core).
    let mut group = c.benchmark_group("correlation-engine");
    group.sample_size(20);
    let params = CorrelationParams::paper();
    group.bench_with_input(
        BenchmarkId::from_parameter("engine"),
        &params,
        |b, params| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(9);
                black_box(correlation_process(&refd, &dut, params, &mut rng).expect("process"))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("sequential-reference"),
        &params,
        |b, params| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(9);
                let mut plan = Plan::correlation(params, &mut rng).expect("plan");
                black_box(
                    plan.execute(&refd, &dut, &Pool::with_threads(1))
                        .expect("process"),
                )
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_correlation_process);
criterion_main!(benches);
