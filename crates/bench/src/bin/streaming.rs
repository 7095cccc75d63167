//! Streaming-verification benchmark: batch pipeline vs
//! [`VerificationSession`] over the same campaigns and seed.
//!
//! The batch pipeline must record the full `n2`-trace campaign on every
//! candidate before verification starts; the streaming session ingests the
//! same campaigns chunk by chunk and stops acquiring as soon as its
//! early-stop rule holds. This binary reports, for each reference IP
//! against the 4-candidate DUT panel:
//!
//! * the verdict of both paths (they must agree),
//! * traces consumed (streaming) vs the fixed batch budget,
//! * wall time of both verification paths.
//!
//! Set `IPMARK_QUICK=1` for the reduced campaign.

// Benchmark binary: measuring wall-clock time is the whole point here.
// The disallowed-methods rule protects numeric kernels, not timing code.
#![allow(clippy::disallowed_methods)]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ipmark_bench::campaign_config;
use ipmark_core::distinguisher::Distinguisher;
use ipmark_core::ip::FabricatedDevice;
use ipmark_core::matrix::ExperimentConfig;
use ipmark_core::session::{EarlyStopRule, SessionOptions, SessionStatus, VerificationSession};
use ipmark_core::{correlation_process, reference_ips, CorrelationSet, LowerVariance};
use ipmark_power::acquire::SimulatedAcquisition;
use ipmark_traces::streaming::ChunkedSource;
use ipmark_traces::TraceSource;

fn acquisitions(
    config: &ExperimentConfig,
) -> (Vec<SimulatedAcquisition>, Vec<SimulatedAcquisition>) {
    let ips = reference_ips();
    let refds: Vec<SimulatedAcquisition> = ips
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let die_seed = config.seed.wrapping_mul(1009).wrapping_add(i as u64);
            let mut die = FabricatedDevice::fabricate(spec, &config.variation, die_seed)
                .expect("fabrication");
            let campaign_seed = config.seed.wrapping_mul(37).wrapping_add(i as u64);
            die.acquisition(
                &config.chain,
                config.cycles,
                config.params.n1,
                campaign_seed,
            )
            .expect("reference campaign")
        })
        .collect();
    let duts: Vec<SimulatedAcquisition> = ips
        .iter()
        .enumerate()
        .map(|(j, spec)| {
            let die_seed = config.seed.wrapping_mul(1009).wrapping_add(100 + j as u64);
            let mut die = FabricatedDevice::fabricate(spec, &config.variation, die_seed)
                .expect("fabrication");
            let campaign_seed = config
                .seed
                .wrapping_mul(31)
                .wrapping_add(j as u64)
                .wrapping_add(0x00D0_7000);
            die.acquisition(
                &config.chain,
                config.cycles,
                config.params.n2,
                campaign_seed,
            )
            .expect("DUT campaign")
        })
        .collect();
    (refds, duts)
}

/// The IP label without the `@die...` suffix, for compact table cells.
fn short(device: &str) -> &str {
    device.split('@').next().unwrap_or(device)
}

/// Rough human-readable byte count.
fn human_bytes(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

fn main() {
    let config = campaign_config().expect("built-in configuration");
    let params = config.params;
    let chunk = params.k;
    let rule = EarlyStopRule {
        stability: 4,
        min_confidence_percent: 60.0,
    };
    eprintln!(
        "streaming benchmark: n1 = {}, n2 = {}, k = {}, m = {}, {} cycles/trace, \
         chunk = {chunk}, early stop after {} stable rounds at >= {}% confidence",
        params.n1,
        params.n2,
        params.k,
        params.m,
        config.cycles,
        rule.stability,
        rule.min_confidence_percent
    );

    let t0 = std::time::Instant::now();
    let (refds, duts) = acquisitions(&config);
    eprintln!("campaign preparation: {:?}\n", t0.elapsed());

    let names: Vec<&str> = duts.iter().map(SimulatedAcquisition::device_name).collect();
    let candidates = duts.len();
    let batch_budget = params.n2 * candidates;

    println!(
        "{:<6}{:>8}{:>8}{:>7}{:>9}{:>10}{:>9}{:>12}{:>12}",
        "RefD", "batch", "stream", "agree", "rounds", "traces", "saved", "t_batch", "t_stream"
    );

    let mut total_consumed = 0usize;
    let mut disagreements = 0usize;
    for (i, refd) in refds.iter().enumerate() {
        // --- Batch path: the CLI `verify` shape, one RNG threaded through
        // the candidates in order. A real batch verifier must record every
        // one of the n2 traces before it can start, so campaign
        // materialization is part of its cost.
        let t_batch = std::time::Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(i as u64));
        let sets: Vec<CorrelationSet> = duts
            .iter()
            .map(|dut| {
                let campaign = dut.acquire_block().expect("campaign materialization");
                correlation_process(refd, &campaign, &params, &mut rng).expect("correlation")
            })
            .collect();
        let batch = LowerVariance.decide(&sets).expect("batch decision");
        let t_batch = t_batch.elapsed();

        // --- Streaming path: same seed, chunked delivery, early stop.
        let t_stream = std::time::Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(i as u64));
        let options = SessionOptions::new(params).with_early_stop(rule);
        let mut session =
            VerificationSession::new(refd, candidates, options, &mut rng).expect("session");
        let mut streams: Vec<ChunkedSource<'_, SimulatedAcquisition>> = duts
            .iter()
            .map(|dut| ChunkedSource::new(dut, chunk).expect("chunked source"))
            .collect();
        'stream: loop {
            let mut delivered = false;
            for (candidate, stream) in streams.iter_mut().enumerate() {
                if let Some(traces) = stream.next_chunk().expect("trace regeneration") {
                    delivered = true;
                    if let SessionStatus::Decided(_) =
                        session.ingest_chunk(candidate, &traces).expect("ingest")
                    {
                        break 'stream;
                    }
                }
            }
            if !delivered {
                break;
            }
        }
        let verdict = session.finalize().expect("stream decision");
        let t_stream = t_stream.elapsed();

        let consumed: usize = (0..candidates).map(|c| session.traces_ingested(c)).sum();
        total_consumed += consumed;
        let agree = verdict.best == batch.best;
        if !agree {
            disagreements += 1;
        }
        println!(
            "{:<6}{:>8}{:>8}{:>7}{:>6}/{:<2}{:>10}{:>8.1}%{:>12.2?}{:>12.2?}",
            short(refd.device_name()),
            short(names[batch.best]),
            short(names[verdict.best]),
            if agree { "yes" } else { "NO" },
            verdict.rounds_used,
            params.m,
            consumed,
            100.0 * (1.0 - consumed as f64 / batch_budget as f64),
            t_batch,
            t_stream
        );
    }

    let total_budget = batch_budget * refds.len();
    println!(
        "\ntotal traces: {total_consumed}/{total_budget} consumed \
         ({:.1}% of the batch acquisition budget saved)",
        100.0 * (1.0 - total_consumed as f64 / total_budget as f64)
    );
    // Peak working set for the DUT side of one verification: the batch path
    // materializes the n2-trace campaign per candidate; the session holds at
    // most m partial-sum accumulators per candidate.
    let trace_bytes = 8 * refds[0].trace_len();
    println!(
        "peak DUT working set: batch {} per candidate vs streaming <= {} per candidate",
        human_bytes(params.n2 * trace_bytes),
        human_bytes(params.m * trace_bytes)
    );
    if disagreements > 0 {
        println!("WARNING: {disagreements} verdict disagreement(s) between batch and streaming");
        std::process::exit(1);
    }
    println!("all verdicts agree with the batch pipeline");
}
