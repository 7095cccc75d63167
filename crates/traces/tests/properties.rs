//! Property-based tests for trace statistics and selection.

use ipmark_traces::average::{k_average, mean_of_indices};
use ipmark_traces::select::uniform_distinct_indices;
use ipmark_traces::stats::{
    mean, pearson, two_largest, two_smallest, variance_population, PearsonRef, RunningStats,
};
use ipmark_traces::{io, TraceBlock};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn series(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, min_len..64)
}

proptest! {
    #[test]
    fn pearson_bounded(x in series(2), y in series(2)) {
        let n = x.len().min(y.len());
        if let Ok(r) = pearson(&x[..n], &y[..n]) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {}", r);
        }
    }

    #[test]
    fn pearson_affine_invariant(x in series(3), a in 0.1f64..100.0, b in -100.0f64..100.0) {
        let y: Vec<f64> = x.iter().map(|v| a * v + b).collect();
        if let Ok(r) = pearson(&x, &y) {
            prop_assert!((r - 1.0).abs() < 1e-6, "r = {}", r);
        }
    }

    #[test]
    fn pearson_sign_flips_under_negation(x in series(3), y in series(3)) {
        let n = x.len().min(y.len());
        let neg: Vec<f64> = y[..n].iter().map(|v| -v).collect();
        if let (Ok(r1), Ok(r2)) = (pearson(&x[..n], &y[..n]), pearson(&x[..n], &neg)) {
            prop_assert!((r1 + r2).abs() < 1e-6);
        }
    }

    #[test]
    fn pearson_ref_equals_pearson_everywhere(x in series(2), y in series(2)) {
        // The fused kernel's contract: for equal-length inputs the reusable
        // centered reference reproduces `pearson` bit for bit — including
        // which error is surfaced on degenerate (constant) inputs.
        let n = x.len().min(y.len());
        let baseline = pearson(&x[..n], &y[..n]);
        let fused = PearsonRef::new(&x[..n]).and_then(|r| r.correlate(&y[..n]));
        match (baseline, fused) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (a, b) => prop_assert!(false, "baseline {:?} vs fused {:?}", a, b),
        }
    }

    #[test]
    fn running_stats_merge_equals_sequential_push(
        x in series(1),
        cut in 0.0f64..1.0,
    ) {
        // Chunked reduction contract: pushing a prefix and a suffix into
        // two accumulators and merging must agree with one sequential pass,
        // for every split point (including the empty sides).
        let split = ((x.len() as f64) * cut) as usize;
        let mut left = RunningStats::new();
        for &v in &x[..split] {
            left.push(v);
        }
        let mut right = RunningStats::new();
        for &v in &x[split..] {
            right.push(v);
        }
        left.merge(&right);

        let mut sequential = RunningStats::new();
        for &v in &x {
            sequential.push(v);
        }
        prop_assert_eq!(left.count(), sequential.count());
        let (m1, m2) = (left.mean().unwrap(), sequential.mean().unwrap());
        prop_assert!((m1 - m2).abs() <= 1e-9 * m2.abs().max(1.0), "{} vs {}", m1, m2);
        if x.len() >= 2 {
            let (v1, v2) = (
                left.variance_population().unwrap(),
                sequential.variance_population().unwrap(),
            );
            prop_assert!((v1 - v2).abs() <= 1e-6 * v2.abs().max(1.0), "{} vs {}", v1, v2);
        }
    }

    #[test]
    fn pearson_affine_invariance_covers_negative_scale(
        x in series(3),
        a in 0.1f64..100.0,
        b in -100.0f64..100.0,
    ) {
        // Complement of `pearson_affine_invariant`: a *negative* scale must
        // flip the coefficient to -1, and the fused kernel must agree.
        let y: Vec<f64> = x.iter().map(|v| -a * v + b).collect();
        if let Ok(r) = pearson(&x, &y) {
            prop_assert!((r + 1.0).abs() < 1e-6, "r = {}", r);
            let fused = PearsonRef::new(&x).and_then(|rf| rf.correlate(&y)).unwrap();
            prop_assert_eq!(fused.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn welford_mean_matches_naive(x in series(1)) {
        let mut rs = RunningStats::new();
        for &v in &x {
            rs.push(v);
        }
        let naive = mean(&x).unwrap();
        prop_assert!((rs.mean().unwrap() - naive).abs() < 1e-6 * naive.abs().max(1.0));
    }

    #[test]
    fn variance_is_nonnegative_and_shift_invariant(x in series(2), shift in -1e3f64..1e3) {
        let v1 = variance_population(&x).unwrap();
        prop_assert!(v1 >= 0.0);
        let shifted: Vec<f64> = x.iter().map(|v| v + shift).collect();
        let v2 = variance_population(&shifted).unwrap();
        let scale = v1.abs().max(1.0);
        prop_assert!((v1 - v2).abs() < 1e-6 * scale, "{} vs {}", v1, v2);
    }

    #[test]
    fn two_largest_agrees_with_sort(x in series(2)) {
        let (a, b) = two_largest(&x).unwrap();
        let mut sorted = x.clone();
        sorted.sort_by(|p, q| q.partial_cmp(p).unwrap());
        prop_assert_eq!(a, sorted[0]);
        prop_assert_eq!(b, sorted[1]);
        let (lo, lo2) = two_smallest(&x).unwrap();
        prop_assert_eq!(lo, sorted[sorted.len() - 1]);
        prop_assert_eq!(lo2, sorted[sorted.len() - 2]);
    }

    #[test]
    fn selection_distinct_and_in_range(n in 1usize..500, k in 1usize..100, seed: u64) {
        prop_assume!(k <= n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let picks = uniform_distinct_indices(n, k, &mut rng).unwrap();
        prop_assert_eq!(picks.len(), k);
        let set: std::collections::HashSet<_> = picks.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(picks.iter().all(|&i| i < n));
    }

    #[test]
    fn k_average_lies_within_sample_hull(seed: u64, vals in prop::collection::vec(0.0f64..10.0, 4..40)) {
        let set = TraceBlock::from_data("d", 1, vals.clone()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = vals.len() / 2 + 1;
        let avg = k_average(&set, k, &mut rng).unwrap();
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(avg.samples()[0] >= lo - 1e-12 && avg.samples()[0] <= hi + 1e-12);
    }

    #[test]
    fn mean_of_all_indices_is_grand_mean(vals in prop::collection::vec(-5.0f64..5.0, 2..20)) {
        let set = TraceBlock::from_data("d", 1, vals.clone()).unwrap();
        let indices: Vec<usize> = (0..vals.len()).collect();
        let avg = mean_of_indices(&set, &indices).unwrap();
        let grand = mean(&vals).unwrap();
        prop_assert!((avg.samples()[0] - grand).abs() < 1e-9);
    }

    #[test]
    fn csv_round_trip_preserves_values(rows in prop::collection::vec(prop::collection::vec(-1e3f64..1e3, 3), 1..10)) {
        let block = TraceBlock::from_data("d", 3, rows.concat()).unwrap();
        let mut buf = Vec::new();
        io::write_csv(&block, &mut buf).unwrap();
        let back = io::read_csv("d", buf.as_slice()).unwrap();
        prop_assert_eq!(back.len(), block.len());
        prop_assert_eq!(back.trace_len(), block.trace_len());
        for (a, b) in back.samples().iter().zip(block.samples()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn binary_round_trip_is_bit_exact(rows in prop::collection::vec(prop::collection::vec(-1e30f64..1e30, 2), 1..8)) {
        let block = TraceBlock::from_data("d", 2, rows.concat()).unwrap();
        let mut buf = Vec::new();
        io::write_block(&block, &mut buf).unwrap();
        let back = io::read_block("d", buf.as_slice()).unwrap();
        prop_assert_eq!(back, block);
    }

    #[test]
    fn every_format_round_trips_into_the_same_arena(
        campaign in (1usize..6).prop_flat_map(|len| prop::collection::vec(
            prop::collection::vec(-1e30f64..1e30, len..=len),
            1..8,
        )),
    ) {
        // One campaign, four containers — CSV text, IPMKTRC1, IPMKTRC2 and
        // the in-memory TraceBlock — must all hold the same sample bits.
        let len = campaign[0].len();
        let block = TraceBlock::from_data(
            "d",
            len,
            campaign.iter().flatten().copied().collect::<Vec<f64>>(),
        ).unwrap();

        let mut csv = Vec::new();
        io::write_csv(&block, &mut csv).unwrap();
        let via_csv = io::read_csv("d", csv.as_slice()).unwrap();

        let mut v2 = Vec::new();
        io::write_block(&block, &mut v2).unwrap();
        let via_v2 = io::read_block("d", v2.as_slice()).unwrap();

        // An IPMKTRC1 file is the v2 payload under the v1 magic.
        let mut v1 = v2.clone();
        v1[..8].copy_from_slice(io::BINARY_MAGIC);
        let via_v1 = io::read_block_any("d", v1.as_slice()).unwrap();

        for other in [&via_csv, &via_v1, &via_v2] {
            prop_assert_eq!(other.len(), block.len());
            prop_assert_eq!(other.trace_len(), block.trace_len());
            for (a, b) in other.samples().iter().zip(block.samples()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn truncated_and_corrupted_block_files_are_rejected(
        rows in prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 3), 1..6),
        cut in 0.0f64..1.0,
    ) {
        let block = TraceBlock::from_data(
            "d",
            3,
            rows.iter().flatten().copied().collect::<Vec<f64>>(),
        ).unwrap();
        let mut v2 = Vec::new();
        io::write_block(&block, &mut v2).unwrap();

        // Any strict truncation must surface a typed error, never a panic
        // or a short silent read.
        let keep = ((v2.len() - 1) as f64 * cut) as usize;
        prop_assert!(io::read_block("d", &v2[..keep]).is_err());

        // A flipped magic byte is rejected up front.
        let mut bad_magic = v2.clone();
        bad_magic[0] ^= 0xff;
        prop_assert!(io::read_block("d", bad_magic.as_slice()).is_err());

        // A hostile header claiming astronomically many traces errors out
        // without attempting the allocation.
        let mut hostile = v2.clone();
        hostile[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        prop_assert!(io::read_block("d", hostile.as_slice()).is_err());
    }
}

// --- Blocked reduction kernels (DESIGN.md §11) ----------------------------
//
// On *arbitrary* inputs — not just the structured series the unit tests
// use — the fused and grouped kernels must be bit-identical to their staged
// and single-row forms, and the blocked order must stay numerically close
// to the naive left-to-right sum it replaced.

use ipmark_traces::kernels;

fn kernel_series() -> impl Strategy<Value = Vec<f64>> {
    // Spans several magnitudes and includes negatives so lane combination
    // order actually matters in the low bits.
    prop::collection::vec(-1e9f64..1e9, 0..200)
}

proptest! {
    #[test]
    fn blocked_sum_matches_naive_within_tolerance(x in kernel_series()) {
        let naive: f64 = x.iter().fold(0.0, |acc, v| acc + v);
        let blocked = kernels::sum(&x);
        // Relative to the magnitude of the terms, not the (possibly
        // cancelling) result.
        let scale: f64 = x.iter().fold(0.0, |acc, v| acc + v.abs()).max(1.0);
        prop_assert!(
            (blocked - naive).abs() <= 1e-12 * scale,
            "blocked {} vs naive {} (scale {})",
            blocked,
            naive,
            scale
        );
    }

    #[test]
    fn fused_kernels_match_their_staged_forms(
        x in kernel_series(),
        f in -1e3f64..1e3,
    ) {
        // scale_sum ≡ scale → sum, bit for bit — including the scaled
        // buffer contents.
        let mut staged = x.clone();
        kernels::scale(&mut staged, f);
        let staged_sum = kernels::sum(&staged);
        let mut fused = x.clone();
        prop_assert_eq!(kernels::scale_sum(&mut fused, f).to_bits(), staged_sum.to_bits());
        for (a, b) in fused.iter().zip(&staged) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn streaming_ingest_matches_mean_of_indices_bitwise(
        n2 in 4usize..32,
        k_frac in 0.0f64..1.0,
        m in 1usize..5,
        trace_len in 1usize..24,
        seed: u64,
    ) {
        use ipmark_traces::average::StreamingKAverager;

        let k = ((k_frac * n2 as f64) as usize).clamp(1, n2);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let drawn: Vec<Vec<usize>> = (0..m)
            .map(|_| uniform_distinct_indices(n2, k, &mut rng).unwrap())
            .collect();
        let mut streamer = StreamingKAverager::new(n2, trace_len, drawn.clone()).unwrap();

        let set = TraceBlock::from_data(
            "stream",
            trace_len,
            (0..n2 * trace_len)
                .map(|ij| (ij as f64 * 0.37 + (seed % 97) as f64).sin() * 1e3)
                .collect(),
        ).unwrap();
        // Fed as one-row chunks, each finished average is bitwise the
        // staged batch average of its selection, completed by the
        // selection's last index.
        let mut completed = 0;
        for (i, trace) in set.rows().enumerate() {
            let chunk = TraceBlock::from_data("live", trace_len, trace.samples().to_vec()).unwrap();
            for slot in streamer.ingest_chunk(&chunk).unwrap() {
                let selection = &drawn[slot];
                prop_assert_eq!(selection.last().copied(), Some(i));
                let avg = streamer.average(slot).unwrap();
                let want = mean_of_indices(&set, selection).unwrap();
                for (a, b) in avg.iter().zip(want.samples()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "slot {}", slot);
                }
                completed += 1;
            }
        }
        prop_assert_eq!(completed, m);
        prop_assert!((0..m).all(|slot| streamer.average(slot).is_some()));
    }
}

/// Samples on both sides of the finiteness boundary: infinities, quiet and
/// signalling NaNs with payloads, the largest and smallest normals,
/// subnormals and both zeros.
const BOUNDARY_SAMPLES: [f64; 17] = [
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::from_bits(0xfff8_0000_0000_0000),
    f64::from_bits(0x7ff8_dead_beef_0001),
    f64::from_bits(0x7ff0_0000_0000_0001),
    f64::from_bits(0xfff4_dead_beef_0000),
    f64::MAX,
    -f64::MAX,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    f64::from_bits(0x000f_ffff_ffff_ffff),
    0.0,
    -0.0,
    1.5,
];

/// What `ingest_chunk` must say about a one-row chunk at stream index 1:
/// the first sample that `is_finite` rejects, or nothing.
fn ingest_outcome(row: &[f64]) -> Result<(), ipmark_traces::TraceError> {
    use ipmark_traces::average::StreamingKAverager;
    let mut streamer = StreamingKAverager::new(3, row.len(), vec![vec![0, 1, 2]]).unwrap();
    let lead = TraceBlock::from_data("lead", row.len(), vec![0.25; row.len()]).unwrap();
    streamer.ingest_chunk(&lead).unwrap();
    let chunk = TraceBlock::from_data("row", row.len(), row.to_vec()).unwrap();
    let outcome = streamer.ingest_chunk(&chunk).map(|_| ());
    // A rejected chunk consumes nothing.
    assert_eq!(streamer.ingested(), if outcome.is_ok() { 2 } else { 1 });
    outcome
}

fn expected_outcome(row: &[f64]) -> Result<(), ipmark_traces::TraceError> {
    match row.iter().position(|s| !s.is_finite()) {
        Some(sample_index) => Err(ipmark_traces::TraceError::NonFiniteSample {
            trace_index: 1,
            sample_index,
        }),
        None => Ok(()),
    }
}

/// Every boundary sample at every position of rows of 1 to 17 samples
/// (two whole eight-lane words and every remainder): the session rejects
/// exactly the rows `is_finite` rejects. A zero-sample row never reaches
/// the scan: the averager refuses that length.
#[test]
fn finiteness_scan_rejects_exactly_what_is_finite_rejects() {
    use ipmark_traces::average::StreamingKAverager;
    assert!(matches!(
        StreamingKAverager::new(3, 0, vec![vec![0]]),
        Err(ipmark_traces::TraceError::EmptyTrace)
    ));
    for len in 1..=17 {
        for position in 0..len {
            for &sample in &BOUNDARY_SAMPLES {
                let mut row = vec![-1.0; len];
                row[position] = sample;
                assert_eq!(
                    format!("{:?}", ingest_outcome(&row)),
                    format!("{:?}", expected_outcome(&row)),
                    "len {len}, sample {:#x} at {position}",
                    sample.to_bits()
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn finiteness_scan_reports_the_first_non_finite_sample(
        picks in prop::collection::vec(0usize..BOUNDARY_SAMPLES.len(), 1..=17),
        raw in prop::collection::vec(any::<u64>(), 17),
    ) {
        // Boundary samples, with each third one an arbitrary bit pattern.
        let row: Vec<f64> = picks
            .iter()
            .zip(&raw)
            .enumerate()
            .map(|(i, (&p, &bits))| if i % 3 == 2 { f64::from_bits(bits) } else { BOUNDARY_SAMPLES[p] })
            .collect();
        prop_assert_eq!(
            format!("{:?}", ingest_outcome(&row)),
            format!("{:?}", expected_outcome(&row))
        );
    }
}
