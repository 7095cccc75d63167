//! The determinism contract of the parallel correlation engine (see
//! DESIGN.md): for every worker count, including one, the engine must
//! produce bit-identical results to the sequential reference
//! implementations — same seeded RNG trace selections, same correlation
//! coefficients, same matrices.

use ipmark::core::matrix::{ExperimentConfig, IdentificationMatrix};
use ipmark::core::verify::{correlation_process, CorrelationParams};
use ipmark::core::{AcquireStage, CounterfeitScreen, KAverageStage, Plan};
use ipmark::parallel::Pool;
use ipmark::traces::average::k_average;
use ipmark::traces::{Trace, TraceBlock, TraceSource};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn small_config() -> ExperimentConfig {
    let mut c = ExperimentConfig::reduced().expect("built-in");
    c.cycles = 128;
    c.params = CorrelationParams {
        n1: 40,
        n2: 1_200,
        k: 12,
        m: 10,
    };
    c
}

fn noisy_set(device: &str, n: usize, seed: u64) -> TraceBlock {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut set = TraceBlock::new(device);
    for _ in 0..n {
        let samples: Vec<f64> = (0..96)
            .map(|i| (i as f64 * 0.29).sin() + ipmark::power::device::gaussian(&mut rng, 0.0, 0.4))
            .collect();
        set.push_row(&samples).expect("same length");
    }
    set
}

/// Every cell of the parallel matrix must match the sequential reference
/// exactly — the ISSUE tolerance is 1e-12 per cell, but the contract is
/// stronger (bit equality), so assert that.
#[test]
fn matrix_equals_sequential_reference_cell_by_cell() {
    use ipmark::core::ip::{ip_a, ip_b};

    let config = small_config();
    let refs = [ip_a(), ip_b()];
    let duts = [ip_a(), ip_b()];
    let par = IdentificationMatrix::run(&refs, &duts, &config).expect("parallel run");
    let seq = IdentificationMatrix::run_seq(&refs, &duts, &config).expect("sequential run");
    assert_eq!(par.refd_names(), seq.refd_names());
    assert_eq!(par.dut_names(), seq.dut_names());
    for i in 0..refs.len() {
        for j in 0..duts.len() {
            let p = par.set(i, j).expect("in range").coefficients();
            let s = seq.set(i, j).expect("in range").coefficients();
            assert_eq!(p.len(), s.len(), "cell ({i}, {j})");
            for (a, b) in p.iter().zip(s) {
                assert!((a - b).abs() < 1e-12, "cell ({i}, {j}): {a} vs {b}");
                assert_eq!(a.to_bits(), b.to_bits(), "cell ({i}, {j})");
            }
        }
    }
}

/// The matrix must not depend on the worker count: 1, 2 and 8 threads all
/// reproduce the sequential reference bit for bit.
#[test]
fn matrix_is_invariant_across_thread_counts() {
    use ipmark::core::ip::{ip_a, ip_b};

    let config = small_config();
    let refs = [ip_a()];
    let duts = [ip_a(), ip_b()];
    let baseline = IdentificationMatrix::run_seq(&refs, &duts, &config).expect("sequential");
    for threads in [1, 2, 8] {
        let pool = Pool::with_threads(threads);
        let m = IdentificationMatrix::run_with_pool(&refs, &duts, &config, &pool)
            .expect("parallel run");
        assert_eq!(m, baseline, "threads = {threads}");
    }
}

/// The fused-kernel process must be bit-identical to the sequential
/// reference and must consume the RNG stream identically (same trace
/// selections), leaving the generator in the same state.
#[test]
fn correlation_process_preserves_rng_stream_and_coefficients() {
    let refd = noisy_set("ref", 50, 1);
    let dut = noisy_set("dut", 400, 2);
    let params = CorrelationParams {
        n1: 50,
        n2: 400,
        k: 10,
        m: 12,
    };
    for seed in 0..5u64 {
        let mut rng_par = ChaCha8Rng::seed_from_u64(seed);
        let mut rng_seq = ChaCha8Rng::seed_from_u64(seed);
        let par = correlation_process(&refd, &dut, &params, &mut rng_par).expect("parallel");
        let seq = Plan::correlation(&params, &mut rng_seq)
            .and_then(|mut plan| plan.execute_seq(&refd, &dut))
            .expect("sequential");
        let par_bits: Vec<u64> = par.coefficients().iter().map(|c| c.to_bits()).collect();
        let seq_bits: Vec<u64> = seq.coefficients().iter().map(|c| c.to_bits()).collect();
        assert_eq!(par_bits, seq_bits, "seed {seed}");
        // Identical post-state proves both paths drew exactly the same
        // selections from the stream.
        assert_eq!(rng_par.next_u64(), rng_seq.next_u64(), "seed {seed}");
    }
}

/// k-averaging — where the selection RNG actually lives — must pre-draw
/// exactly what the interleaved draw-then-average loop draws: the pooled
/// fill of the pre-drawn selections equals one `k_average` call per
/// average, for every worker count.
#[test]
fn k_averaging_selects_identical_traces() {
    let set = noisy_set("dev", 64, 9);
    let params = CorrelationParams {
        n1: 64,
        n2: 64,
        k: 7,
        m: 9,
    };
    for seed in [0u64, 7, 2014] {
        let mut rng_seq = ChaCha8Rng::seed_from_u64(seed);
        let seq: Vec<Trace> = (0..=params.m)
            .map(|_| k_average(&set, params.k, &mut rng_seq).expect("sequential average"))
            .collect();
        let mut rng_par = ChaCha8Rng::seed_from_u64(seed);
        let acquire = AcquireStage::draw(&params, &mut rng_par).expect("selections");
        assert_eq!(rng_par.next_u64(), rng_seq.next_u64(), "seed {seed}");
        for threads in [1, 2, 8] {
            let mut stage = KAverageStage::allocate(params.m, set.trace_len()).expect("buffers");
            stage
                .fill(&set, &set, &acquire, &Pool::with_threads(threads))
                .expect("parallel averages");
            assert_eq!(stage.reference(), seq[0].samples(), "seed {seed}");
            for (i, row) in stage.duts().rows().enumerate() {
                assert_eq!(
                    row.samples(),
                    seq[i + 1].samples(),
                    "seed {seed}, threads {threads}, average {i}"
                );
            }
        }
    }
}

/// `Plan::execute` over two stored campaigns opened with
/// `read_block_mapped` must not depend on the worker count. The k-average
/// fill's workers read their DUT rows concurrently from one shared file
/// handle, so the environment's pool (pinned to several workers in CI) is
/// compared bit for bit with a one-worker pool, and both with the owned
/// blocks the files were written from.
#[test]
fn mapped_sources_execute_identically_across_thread_counts() {
    use ipmark::traces::io::write_block;
    use ipmark::traces::read_block_mapped;

    let refd = noisy_set("ref", 60, 6);
    let dut = noisy_set("dut", 500, 7);
    let dir = std::env::temp_dir().join("ipmark-parallel-equivalence");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut paths = Vec::new();
    for (block, name) in [(&refd, "mapped_ref.trc2"), (&dut, "mapped_dut.trc2")] {
        let mut bytes = Vec::new();
        write_block(block, &mut bytes).expect("in-memory write");
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write campaign");
        paths.push(path);
    }
    let mapped_refd = read_block_mapped("ref", &paths[0]).expect("open reference");
    let mapped_dut = read_block_mapped("dut", &paths[1]).expect("open dut");
    let params = CorrelationParams {
        n1: 60,
        n2: 500,
        k: 10,
        m: 16,
    };
    let env_pool = Pool::from_env();
    let one_pool = Pool::with_threads(1);
    for seed in [0u64, 2014] {
        let owned = execute_bits(&refd, &dut, &params, seed, &env_pool);
        let one = execute_bits(&mapped_refd, &mapped_dut, &params, seed, &one_pool);
        let many = execute_bits(&mapped_refd, &mapped_dut, &params, seed, &env_pool);
        assert_eq!(one, many, "seed {seed}, {} workers", env_pool.threads());
        assert_eq!(one, owned, "seed {seed}: mapped against owned");
    }
}

/// The coefficient bits of one seeded `Plan::execute` on `pool`.
fn execute_bits<SR, SD>(
    refd: &SR,
    dut: &SD,
    params: &CorrelationParams,
    seed: u64,
    pool: &Pool,
) -> Vec<u64>
where
    SR: TraceSource,
    SD: TraceSource + Sync,
{
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut plan = Plan::correlation(params, &mut rng).expect("plan");
    let set = plan.execute(refd, dut, pool).expect("execute");
    set.coefficients().iter().map(|c| c.to_bits()).collect()
}

/// Panel screening must reproduce standalone screens at the documented
/// derived seeds, independent of fan-out.
#[test]
fn screen_panel_equals_standalone_screens() {
    let refd = noisy_set("ref", 40, 3);
    let duts = [noisy_set("d0", 300, 4), noisy_set("d1", 300, 5)];
    let params = CorrelationParams {
        n1: 40,
        n2: 300,
        k: 10,
        m: 8,
    };
    let screen = CounterfeitScreen::with_threshold(1e-4).expect("positive threshold");
    let panel = screen
        .screen_panel(&refd, &duts, &params, 2014)
        .expect("panel");
    for (j, dut) in duts.iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(CounterfeitScreen::panel_seed(2014, j));
        let lone = screen
            .screen(&refd, dut, &params, &mut rng)
            .expect("single");
        assert_eq!(panel[j], lone, "panel index {j}");
    }
}

/// The stage's row loop (`CorrelateStage::rows`) must be bit-identical to
/// m independent per-row `correlate` calls, to the same loop fed carried
/// row sums, and to an index-ordered pooled per-row pass at every worker
/// count.
#[test]
fn correlate_rows_equals_per_row_correlate() {
    use ipmark::core::CorrelateStage;
    use ipmark::traces::kernels;

    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let trace_len = 257; // odd, so the blocked kernels' remainder runs
    let reference: Vec<f64> = (0..trace_len)
        .map(|i| (i as f64 * 0.17).sin() + ipmark::power::device::gaussian(&mut rng, 0.0, 0.2))
        .collect();
    let mut block = TraceBlock::zeros("dut", 11, trace_len).expect("block");
    for mut row in block.rows_mut() {
        for s in row.samples_mut() {
            *s = ipmark::power::device::gaussian(&mut rng, 0.0, 1.0);
        }
    }

    let stage = CorrelateStage::center(&reference).expect("non-degenerate reference");
    let kernel = stage.kernel();
    let staged = stage.rows(&block).expect("well-formed rows");
    assert_eq!(staged.len(), block.len());
    for (row, got) in block.rows().zip(&staged) {
        let lone = kernel.correlate(row.samples()).expect("per-row");
        assert_eq!(lone.to_bits(), got.to_bits());
    }
    let sums: Vec<f64> = block
        .rows()
        .map(|row| kernels::sum(row.samples()))
        .collect();
    let with_sums = stage
        .rows_with_sums(&block, &sums)
        .expect("well-formed rows");
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&with_sums), bits(&staged));

    // The stage's loop must also match an index-ordered parallel per-row
    // pass, for every worker count.
    for threads in [1, 2, 8] {
        let pool = Pool::with_threads(threads);
        let per_row = pool.map_indexed(block.len(), |i| {
            let row = block.row(i).expect("in range");
            kernel.correlate(row.samples()).expect("per-row")
        });
        assert_eq!(bits(&per_row), bits(&staged), "threads = {threads}");
    }
}
