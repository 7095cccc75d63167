//! The five workloads. Each one sets up its inputs from the run seed, runs
//! one op through the public entry points a user calls (or, traced, replays
//! it from the public stages with a span around each call), and can check
//! an op against an independent path of the library.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ipmark_core::ip::{DEFAULT_CYCLES, SAMPLES_PER_CYCLE};
use ipmark_core::{
    default_backend, default_chain, ip_b, ip_c, reference_ips, CoreError, CorrelateStage,
    CorrelationParams, CorrelationSet, CounterKind, CounterfeitScreen, DecideStage, Distinguisher,
    EarlyStopRule, ExperimentConfig, FabricatedDevice, IdentificationMatrix, IpSpec, KAverageStage,
    LowerVariance, Plan, SessionOptions, SessionStatus, VerificationSession,
};
use ipmark_parallel::Pool;
use ipmark_power::{ProcessVariation, SimulatedAcquisition};
use ipmark_traces::streaming::ChunkedSource;
use ipmark_traces::{
    io as trace_io, read_block_mapped, AdcDomain, MappedBlock, TraceBlock, TraceSource,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::probe::{span, Count, Layer, Probe, Traceable};

/// Any failure of setup or of an op.
pub type Error = Box<dyn std::error::Error>;

/// Workload names, in the order their seeds are derived.
pub const NAMES: [&str; 5] = [
    "verify-ondemand",
    "verify-trc3",
    "verify-mapped",
    "session-mapped",
    "panel-4x4",
];

/// The screen margin over the largest calibration variance.
const SCREEN_MARGIN: f64 = 2.5;
/// Genuine verifications the screen is calibrated on.
const CALIBRATION_RUNS: u64 = 4;
/// Seed streams of a workload: ops use `0..`, dies and calibration start here.
const DIE_STREAM: u64 = 1 << 32;
const CALIBRATION_STREAM: u64 = 2 << 32;
/// The 12-bit scope front-end the stored `IPMKTRC3` corpus passes through;
/// its range holds the default chain's samples with a wide margin.
const ADC_BITS: u32 = 12;
const ADC_RANGE: (f64, f64) = (-64.0, 96.0);

/// Campaign shape.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `(n1, n2, k, m)`.
    pub params: CorrelationParams,
    /// Clock cycles per trace.
    pub cycles: usize,
}

impl Scale {
    /// The paper's configuration: 1 050 traces of 2 048 samples per verification.
    pub fn paper() -> Self {
        Self {
            params: CorrelationParams::paper(),
            cycles: DEFAULT_CYCLES,
        }
    }

    /// Samples per trace.
    pub fn trace_len(&self) -> usize {
        self.cycles * SAMPLES_PER_CYCLE
    }

    /// Traces one verification regenerates or reads: `k` reference, `k·m` DUT.
    fn traces_per_verification(&self) -> usize {
        self.params.k * (self.params.m + 1)
    }
}

/// What one op produced.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Traces synthesized, decoded or streamed.
    pub traces: usize,
    /// Decisions the op made: one verdict, or one per panel row.
    pub decisions: u64,
    /// Decisions that matched the ground truth.
    pub right: u64,
    /// The independent path agreed bit for bit (true when not checked).
    pub oracle_ok: bool,
    /// FNV-1a over every result bit, to compare traced and untraced ops.
    pub digest: u64,
}

/// Setup costs by layer, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupReport {
    /// Die fabrication and `SimulatedAcquisition::prepare`.
    pub prepare_ms: f64,
    /// `acquire_block` of the stored corpora.
    pub block_ms: f64,
    /// `IPMKTRC3` encoding.
    pub encode_ms: f64,
    /// Writing `IPMKTRC2` files.
    pub write_ms: f64,
}

/// A workload, set up and ready to run ops.
pub trait Workload {
    /// Runs op `i` through the production entry points, or with `probe`
    /// replays it from the public stages under spans. With `oracle`, also
    /// recomputes the result on an independent path of the library.
    fn run(&self, i: u64, probe: Option<&Probe>, oracle: bool) -> Result<Outcome, Error>;

    /// How many leading ops the correctness gate checks against the oracle.
    fn gate_ops(&self) -> u64;
}

/// Sets up workload `id` for run seed `seed`, writing any files into `dir`.
pub fn setup(
    id: usize,
    seed: u64,
    scale: &Scale,
    dir: &Path,
    threads: usize,
) -> Result<(Box<dyn Workload>, SetupReport), Error> {
    let mut report = SetupReport::default();
    let ctx = Ctx {
        id: id as u64,
        seed,
        scale: *scale,
    };
    let workload: Box<dyn Workload> = match NAMES[id] {
        "session-mapped" => Box::new(Session::setup(ctx, dir, &mut report)?),
        "panel-4x4" => Box::new(Panel::setup(ctx, threads)?),
        _ => Box::new(Verify::setup(ctx, dir, &mut report)?),
    };
    Ok((workload, report))
}

fn splitmix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// Identity of a set-up workload: which one, under which run seed, at what size.
#[derive(Debug, Clone, Copy)]
struct Ctx {
    id: u64,
    seed: u64,
    scale: Scale,
}

impl Ctx {
    /// Seed of stream `i` (op `i`, a die, a calibration run) of this workload.
    fn derive(&self, i: u64) -> u64 {
        splitmix64(splitmix64(splitmix64(self.seed) ^ self.id) ^ i)
    }

    /// Fabricates die `die` carrying `spec` and prepares a campaign of `traces`.
    fn campaign(
        &self,
        spec: &IpSpec,
        die: u64,
        traces: usize,
    ) -> Result<SimulatedAcquisition, CoreError> {
        let die_seed = self.derive(DIE_STREAM + 2 * die);
        FabricatedDevice::fabricate(spec, &ProcessVariation::typical(), die_seed)?.acquisition(
            &default_chain()?,
            self.scale.cycles,
            traces,
            self.derive(DIE_STREAM + 2 * die + 1),
        )
    }

    /// The reference die and two DUT dies, timed as `prepare`.
    fn dies(
        &self,
        duts: [&IpSpec; 2],
        report: &mut SetupReport,
    ) -> Result<[SimulatedAcquisition; 3], CoreError> {
        let start = Instant::now();
        let n2 = self.scale.params.n2;
        let dies = [
            self.campaign(&ip_b(), 0, self.scale.params.n1)?,
            self.campaign(duts[0], 1, n2)?,
            self.campaign(duts[1], 2, n2)?,
        ];
        report.prepare_ms += ms(start);
        Ok(dies)
    }
}

/// Materializes a campaign, timed as `power.synth.block_ms`.
fn block_of(acq: &SimulatedAcquisition, report: &mut SetupReport) -> Result<TraceBlock, Error> {
    let start = Instant::now();
    let block = acq.acquire_block()?;
    report.block_ms += ms(start);
    Ok(block)
}

/// Materializes a campaign and writes it as an `IPMKTRC2` file.
fn write_corpus(
    acq: &SimulatedAcquisition,
    path: &Path,
    report: &mut SetupReport,
) -> Result<PathBuf, Error> {
    let block = block_of(acq, report)?;
    let start = Instant::now();
    trace_io::write_block(&block, File::create(path)?)?;
    report.write_ms += ms(start);
    Ok(path.to_path_buf())
}

/// The traced replay of `Plan::execute`: the same stage calls in the same
/// order (minus source validation, which the sources pass by construction),
/// each under a span. Here and below, a layer's span also covers releasing
/// the buffers it allocated.
fn staged<SR, SD>(
    refd: &SR,
    dut: &SD,
    params: &CorrelationParams,
    rng: &mut ChaCha8Rng,
    p: &Probe,
) -> Result<CorrelationSet, CoreError>
where
    SR: TraceSource + ?Sized,
    SD: TraceSource + Sync + ?Sized,
{
    let plan = p.span(Layer::Select, || Plan::correlation(params, rng))?;
    let stage = p.span(Layer::Kavg, || -> Result<_, CoreError> {
        let mut stage = KAverageStage::allocate(params.m, refd.trace_len())?;
        stage.fill(refd, dut, plan.acquire(), &default_backend())?;
        Ok(stage)
    })?;
    p.add(
        Count::CorrelateBytes,
        ((params.m + 1) * stage.trace_len() * 8) as u64,
    );
    let coefficients = p.span(Layer::Correlate, || {
        CorrelateStage::center(stage.reference())?.rows_with_sums(stage.duts(), stage.dut_sums())
    })?;
    p.span(Layer::Kavg, || drop(stage));
    p.span(Layer::Decide, || DecideStage.finish(coefficients))
}

/// One §III verification of `dut` against `refd`: `Plan::correlation` +
/// `Plan::execute`, or its traced replay. With `oracle`, also reports
/// whether the staged `Plan::execute_seq` gives the same bits.
fn verify_on<SR: Traceable, SD: Traceable>(
    refd: &SR,
    dut: &SD,
    params: &CorrelationParams,
    seed: u64,
    probe: Option<&Probe>,
    oracle: bool,
) -> Result<(CorrelationSet, bool), Error> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let set = match probe {
        None => Plan::correlation(params, &mut rng)?.execute(refd, dut, &default_backend())?,
        Some(p) => staged(&refd.traced(p), &dut.traced(p), params, &mut rng, p)?,
    };
    let agrees = !oracle || {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sequential = Plan::correlation(params, &mut rng)?.execute_seq(refd, dut)?;
        digest(sequential.coefficients().iter().copied())
            == digest(set.coefficients().iter().copied())
    };
    Ok((set, agrees))
}

/// Where a verify workload keeps its reference and its two DUT campaigns
/// (the genuine IP_B die, then the unmarked clone).
#[allow(clippy::large_enum_variant)] // one per workload; its size is immaterial
enum Store {
    /// Regenerated on demand from per-index seeds.
    OnDemand {
        refd: SimulatedAcquisition,
        duts: [SimulatedAcquisition; 2],
    },
    /// In-memory `IPMKTRC3` bytes, decoded by every op.
    Trc3 { refd: Vec<u8>, duts: [Vec<u8>; 2] },
    /// `IPMKTRC2` files, mapped by every op.
    Mapped { refd: PathBuf, duts: [PathBuf; 2] },
}

impl Store {
    /// Loads the sources the way the op's user would, then verifies DUT
    /// `dut`. Returns the set, the traces the op touched and the oracle's
    /// agreement.
    fn verify(
        &self,
        scale: &Scale,
        seed: u64,
        dut: usize,
        probe: Option<&Probe>,
        oracle: bool,
    ) -> Result<(CorrelationSet, usize, bool), Error> {
        let params = &scale.params;
        match self {
            Store::OnDemand { refd, duts } => {
                let (set, agrees) = verify_on(refd, &duts[dut], params, seed, probe, oracle)?;
                Ok((set, scale.traces_per_verification(), agrees))
            }
            Store::Trc3 { refd, duts } => {
                let (r, d) = span(probe, Layer::Decode, || -> Result<_, Error> {
                    Ok((
                        trace_io::read_block_any("refd", refd.as_slice())?,
                        trace_io::read_block_any("dut", duts[dut].as_slice())?,
                    ))
                })?;
                if let Some(p) = probe {
                    p.add(
                        Count::DecodedBytes,
                        ((r.len() + d.len()) * scale.trace_len() * 8) as u64,
                    );
                    p.add(Count::WireBytes, (refd.len() + duts[dut].len()) as u64);
                }
                let (set, agrees) = verify_on(&r, &d, params, seed, probe, oracle)?;
                let traces = r.len() + d.len();
                span(probe, Layer::Decode, || drop((r, d)));
                Ok((set, traces, agrees))
            }
            Store::Mapped { refd, duts } => {
                let (r, d) = span(probe, Layer::Map, || -> Result<_, Error> {
                    Ok((
                        read_block_mapped("refd", refd)?,
                        read_block_mapped("dut", &duts[dut])?,
                    ))
                })?;
                let (set, agrees) = verify_on(&r, &d, params, seed, probe, oracle)?;
                span(probe, Layer::Map, || drop((r, d)));
                Ok((set, scale.traces_per_verification(), agrees))
            }
        }
    }
}

/// `verify-ondemand`, `verify-trc3` and `verify-mapped`: one verification
/// of the genuine die (even ops) or the unmarked clone (odd ops), judged by
/// a `CounterfeitScreen` calibrated in setup.
struct Verify {
    ctx: Ctx,
    store: Store,
    screen: CounterfeitScreen,
}

impl Verify {
    fn setup(ctx: Ctx, dir: &Path, report: &mut SetupReport) -> Result<Self, Error> {
        let clone = IpSpec::unmarked("clone", CounterKind::Gray);
        let [refd, genuine, clone] = ctx.dies([&ip_b(), &clone], report)?;
        let store = match NAMES[ctx.id as usize] {
            "verify-ondemand" => Store::OnDemand {
                refd,
                duts: [genuine, clone],
            },
            "verify-trc3" => {
                let domain = AdcDomain::from_range(ADC_RANGE.0, ADC_RANGE.1, ADC_BITS)?;
                let mut encode = |acq: &SimulatedAcquisition| -> Result<Vec<u8>, Error> {
                    let mut block = block_of(acq, report)?;
                    let start = Instant::now();
                    domain.quantize_block(&mut block);
                    let mut bytes = Vec::new();
                    trace_io::write_block_v3_with_domain(&block, &domain, &mut bytes)?;
                    report.encode_ms += ms(start);
                    Ok(bytes)
                };
                Store::Trc3 {
                    refd: encode(&refd)?,
                    duts: [encode(&genuine)?, encode(&clone)?],
                }
            }
            _ => Store::Mapped {
                refd: write_corpus(&refd, &dir.join("refd.trc2"), report)?,
                duts: [
                    write_corpus(&genuine, &dir.join("genuine.trc2"), report)?,
                    write_corpus(&clone, &dir.join("clone.trc2"), report)?,
                ],
            },
        };
        let variances = (0..CALIBRATION_RUNS)
            .map(|r| {
                let seed = ctx.derive(CALIBRATION_STREAM + r);
                Ok(store.verify(&ctx.scale, seed, 0, None, false)?.0.variance())
            })
            .collect::<Result<Vec<f64>, Error>>()?;
        let screen = CounterfeitScreen::calibrate(&variances, SCREEN_MARGIN)?;
        Ok(Self { ctx, store, screen })
    }
}

impl Workload for Verify {
    fn run(&self, i: u64, probe: Option<&Probe>, oracle: bool) -> Result<Outcome, Error> {
        let dut = (i % 2) as usize;
        let (set, traces, oracle_ok) =
            self.store
                .verify(&self.ctx.scale, self.ctx.derive(i), dut, probe, oracle)?;
        let verdict = span(probe, Layer::Decide, || self.screen.judge(&set));
        Ok(Outcome {
            traces,
            decisions: 1,
            right: u64::from(verdict.genuine == (dut == 0)),
            oracle_ok,
            digest: digest(set.coefficients().iter().copied()),
        })
    }

    fn gate_ops(&self) -> u64 {
        8
    }
}

/// `session-mapped`: a streaming `VerificationSession` over two stored
/// candidates, IP_B on another die (the right answer, candidate 0) and
/// IP_C (same FSM, different key).
struct Session {
    ctx: Ctx,
    refd: PathBuf,
    duts: [PathBuf; 2],
}

impl Session {
    fn setup(ctx: Ctx, dir: &Path, report: &mut SetupReport) -> Result<Self, Error> {
        let [refd, genuine, other] = ctx.dies([&ip_b(), &ip_c()], report)?;
        Ok(Self {
            ctx,
            refd: write_corpus(&refd, &dir.join("refd.trc2"), report)?,
            duts: [
                write_corpus(&genuine, &dir.join("ip_b.trc2"), report)?,
                write_corpus(&other, &dir.join("ip_c.trc2"), report)?,
            ],
        })
    }

    /// Streams both candidates in interleaved waves of `k`-trace chunks
    /// until the early-stop rule decides, as `ipmark session` does.
    ///
    /// The traced run leaves the sources undecorated: a streamed trace costs
    /// about 2 µs, so timing each one would break the 5 % overhead budget,
    /// and the chunk spans already time exactly that work.
    fn stream(
        &self,
        refd: &TraceBlock,
        duts: &[MappedBlock; 2],
        seed: u64,
        probe: Option<&Probe>,
    ) -> Result<VerificationSession, Error> {
        let params = self.ctx.scale.params;
        let options = SessionOptions::new(params).with_early_stop(EarlyStopRule {
            stability: 3,
            min_confidence_percent: 50.0,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut session = span(probe, Layer::SessionOpen, || {
            VerificationSession::new(refd, duts.len(), options, &mut rng)
        })?;
        let mut streams = [
            ChunkedSource::with_limit(&duts[0], params.k, params.n2)?,
            ChunkedSource::with_limit(&duts[1], params.k, params.n2)?,
        ];
        'stream: loop {
            let mut delivered = false;
            for (candidate, stream) in streams.iter_mut().enumerate() {
                let Some(chunk) = span(probe, Layer::Chunk, || stream.next_chunk())? else {
                    continue;
                };
                delivered = true;
                if let Some(p) = probe {
                    p.add(Count::Chunks, 1);
                    p.add(Count::ChunkBytes, (chunk.samples().len() * 8) as u64);
                }
                let status = span(probe, Layer::SessionIngest, || {
                    session.ingest_chunk(candidate, &chunk)
                })?;
                span(probe, Layer::Chunk, || drop(chunk));
                if let SessionStatus::Decided(_) = status {
                    break 'stream;
                }
            }
            if !delivered {
                break;
            }
        }
        let verdict = span(probe, Layer::Decide, || session.finalize())?;
        if let Some(p) = probe {
            p.add(Count::Rounds, verdict.rounds_used as u64);
        }
        Ok(session)
    }
}

impl Workload for Session {
    fn run(&self, i: u64, probe: Option<&Probe>, oracle: bool) -> Result<Outcome, Error> {
        let refd = span(probe, Layer::Decode, || -> Result<_, Error> {
            Ok(trace_io::read_block_any(
                "refd",
                BufReader::new(File::open(&self.refd)?),
            )?)
        })?;
        if let Some(p) = probe {
            let bytes = (refd.samples().len() * 8) as u64;
            p.add(Count::DecodedBytes, bytes);
            p.add(Count::WireBytes, std::fs::metadata(&self.refd)?.len());
        }
        let duts = span(probe, Layer::Map, || -> Result<_, Error> {
            Ok([
                read_block_mapped("ip_b", &self.duts[0])?,
                read_block_mapped("ip_c", &self.duts[1])?,
            ])
        })?;
        let seed = self.ctx.derive(i);
        let session = self.stream(&refd, &duts, seed, probe)?;
        let verdict = session.verdict().ok_or("session ended without a verdict")?;

        // DESIGN.md §9: each finished prefix equals batch `Plan::execute`
        // from a clone of the session's seeded RNG, candidates in order.
        let mut oracle_ok = true;
        if oracle {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for (c, dut) in duts.iter().enumerate() {
                let batch = Plan::correlation(&self.ctx.scale.params, &mut rng)?.execute(
                    &refd,
                    dut,
                    &default_backend(),
                )?;
                oracle_ok &= (0..session.completed_prefix(c)).all(|slot| {
                    session.coefficient(c, slot).map(f64::to_bits)
                        == batch.coefficients().get(slot).map(|x| x.to_bits())
                });
            }
        }
        let s = &session;
        let finished = (0..2).flat_map(|c| {
            (0..s.completed_prefix(c)).filter_map(move |slot| s.coefficient(c, slot))
        });
        let summary = [verdict.best as f64, verdict.rounds_used as f64];
        let outcome = Outcome {
            traces: refd.len() + (0..2).map(|c| s.traces_ingested(c)).sum::<usize>(),
            decisions: 1,
            right: u64::from(verdict.best == 0),
            oracle_ok,
            digest: digest(finished.chain(summary)),
        };
        span(probe, Layer::SessionOpen, || drop(session));
        span(probe, Layer::Map, || drop(duts));
        span(probe, Layer::Decode, || drop(refd));
        Ok(outcome)
    }

    fn gate_ops(&self) -> u64 {
        8
    }
}

/// `panel-4x4`: the paper's Fig. 4 experiment, every reference IP against
/// every DUT IP, decided by lower variance per row.
struct Panel {
    ctx: Ctx,
    config: ExperimentConfig,
    pool: Pool,
}

impl Panel {
    fn setup(ctx: Ctx, threads: usize) -> Result<Self, Error> {
        let config = ExperimentConfig {
            params: ctx.scale.params,
            cycles: ctx.scale.cycles,
            ..ExperimentConfig::paper()?
        };
        Ok(Self {
            ctx,
            config,
            pool: Pool::with_threads(threads),
        })
    }

    /// Rebuilds `IdentificationMatrix::run_with_pool` from public pieces on
    /// the same pool layout, with the die, campaign and cell seeds it
    /// derives from `config.seed`.
    fn replay(
        &self,
        ips: &[IpSpec],
        config: &ExperimentConfig,
        p: &Probe,
    ) -> Result<Vec<Vec<CorrelationSet>>, CoreError> {
        let (n, s) = (ips.len(), config.seed);
        let acquire = |spec: &IpSpec, die_seed: u64, campaign_seed: u64, traces: usize| {
            FabricatedDevice::fabricate(spec, &config.variation, die_seed)?.acquisition(
                &config.chain,
                config.cycles,
                traces,
                campaign_seed,
            )
        };
        let (duts, refds) = p.span(Layer::Prepare, || -> Result<_, CoreError> {
            let duts = self.pool.try_map_indexed(n, |j| {
                let j = j as u64;
                let die = s.wrapping_mul(1009).wrapping_add(100 + j);
                let campaign = s.wrapping_mul(31).wrapping_add(j).wrapping_add(0x00D0_7000);
                acquire(&ips[j as usize], die, campaign, config.params.n2)
            })?;
            let refds = self.pool.try_map_indexed(n, |i| {
                let i = i as u64;
                let die = s.wrapping_mul(1009).wrapping_add(i);
                let campaign = s.wrapping_mul(37).wrapping_add(i);
                acquire(&ips[i as usize], die, campaign, config.params.n1)
            })?;
            Ok((duts, refds))
        })?;
        let cells = p.span(Layer::FanOut, || {
            self.pool.try_map_indexed(n * n, |cell| {
                let mut rng =
                    ChaCha8Rng::seed_from_u64(s.wrapping_mul(7919).wrapping_add(cell as u64));
                let (refd, dut) = (&refds[cell / n], &duts[cell % n]);
                staged(&refd.traced(p), &dut.traced(p), &config.params, &mut rng, p)
            })
        })?;
        let mut cells = cells.into_iter();
        Ok((0..n).map(|_| cells.by_ref().take(n).collect()).collect())
    }
}

fn panel_digest(sets: &[Vec<CorrelationSet>]) -> u64 {
    digest(
        sets.iter()
            .flatten()
            .flat_map(|s| s.coefficients().iter().copied()),
    )
}

impl Workload for Panel {
    fn run(&self, i: u64, probe: Option<&Probe>, oracle: bool) -> Result<Outcome, Error> {
        let ips = reference_ips();
        let config = ExperimentConfig {
            seed: self.ctx.derive(i),
            ..self.config.clone()
        };
        let (sets, decisions) = match probe {
            None => {
                let matrix = IdentificationMatrix::run_with_pool(&ips, &ips, &config, &self.pool)?;
                let decisions = matrix.decide(&LowerVariance)?;
                (matrix.sets().to_vec(), decisions)
            }
            Some(p) => {
                let sets = self.replay(&ips, &config, p)?;
                let decisions = p.span(Layer::Decide, || {
                    sets.iter()
                        .map(|row| LowerVariance.decide(row))
                        .collect::<Result<Vec<_>, _>>()
                })?;
                (sets, decisions)
            }
        };
        let oracle_ok = !oracle
            || panel_digest(IdentificationMatrix::run_seq(&ips, &ips, &config)?.sets())
                == panel_digest(&sets);
        Ok(Outcome {
            traces: ips.len() * ips.len() * self.ctx.scale.traces_per_verification(),
            decisions: decisions.len() as u64,
            right: decisions
                .iter()
                .enumerate()
                .filter(|(row, d)| d.best == *row)
                .count() as u64,
            oracle_ok,
            digest: panel_digest(&sets),
        })
    }

    fn gate_ops(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough that every workload sets up and runs in well under a second.
    fn tiny() -> Scale {
        Scale {
            params: CorrelationParams {
                n1: 40,
                n2: 400,
                k: 8,
                m: 5,
            },
            cycles: 32,
        }
    }

    #[test]
    fn every_workload_replays_bit_identically_under_tracing() {
        for (id, name) in NAMES.iter().enumerate() {
            let dir =
                std::env::temp_dir().join(format!("perf_e2e-test-{name}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let (workload, _) = setup(id, 7, &tiny(), &dir, 2).unwrap();
            for i in 0..2 {
                let untraced = workload.run(i, None, true).unwrap();
                assert!(untraced.oracle_ok, "{name} op {i}: oracle disagrees");
                let probe = Probe::new();
                let start = Instant::now();
                let traced = workload.run(i, Some(&probe), false).unwrap();
                let wall = start.elapsed().as_nanos() as u64;
                assert_eq!(traced.digest, untraced.digest, "{name} op {i}");
                assert_eq!(traced.traces, untraced.traces, "{name} op {i}");
                assert!(
                    probe.covered_ns() > 0 && probe.covered_ns() <= wall,
                    "{name} op {i}"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn op_seeds_differ_by_workload_and_op() {
        let ctx = |id| Ctx {
            id,
            seed: 2014,
            scale: tiny(),
        };
        assert_ne!(ctx(0).derive(0), ctx(1).derive(0));
        assert_ne!(ctx(0).derive(0), ctx(0).derive(1));
        assert_eq!(ctx(3).derive(5), ctx(3).derive(5));
    }
}
