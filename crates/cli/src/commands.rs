//! The CLI subcommands.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::num::NonZeroUsize;
use std::path::Path;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ipmark_attacks::collision::analyze_collisions;
use ipmark_attacks::cpa::{recover_key, recover_key_phase_robust};
use ipmark_core::ip::{
    default_chain, ip_a, ip_b, ip_c, ip_d, FabricatedDevice, IpSpec, Substitution, DEFAULT_CYCLES,
    SAMPLES_PER_CYCLE,
};
use ipmark_core::params::ParameterPlan;
use ipmark_core::pipeline::explain_graph;
use ipmark_core::report::VerificationReport;
use ipmark_core::screen::CounterfeitScreen;
use ipmark_core::{
    correlation_process, default_backend, CorrelationParams, CorrelationSet, CounterKind,
    DistinguisherKind, EarlyStopRule, SessionOptions, SessionStatus, VerificationSession,
    WatermarkKey,
};
use ipmark_netlist::vcd::dump_vcd;
use ipmark_power::ProcessVariation;
use ipmark_traces::{io as trace_io, read_block_mapped, AdcDomain, TraceBlock, TraceSource};

use crate::args::Args;
use crate::error::CliError;

/// The top-level usage text.
pub fn help() -> String {
    "\
ipmark — IP watermark verification based on power-consumption analysis
(reproduction of Marchand/Bossuet/Jung, IEEE SOCC 2014)

USAGE: ipmark <command> [--flag value]...

COMMANDS
  simulate   Simulate a watermarked IP netlist.
             --ip A|B|C|D | --counter binary|gray [--key 0xNN | --unmarked]
             [--identity] [--cycles N=256] [--vcd out.vcd]
  acquire    Measure a trace campaign on a fabricated die (Pw(device, n)).
             <ip flags as above> [--die-seed N=1] [--traces N=400]
             [--cycles N=256] [--seed N=0] --out FILE
             [--format bin|csv|trc3] [--adc BITS:VMIN:VMAX]
  convert    Re-encode a trace campaign between wire formats.
             --in FILE --out FILE [--format bin|csv|trc3]
             [--adc BITS:VMIN:VMAX]
  verify     Verify which DUT campaign matches a reference campaign.
             --refd FILE --dut FILE [--dut FILE]... [--k N=50] [--m N=20]
             [--n1 N] [--n2 N] [--seed N=0] [--json]
  session    Streaming verification: ingest DUT campaigns in chunks and
             stop as soon as the verdict is stable.
             --refd FILE --dut FILE --dut FILE... [--k N=50] [--m N=20]
             [--n1 N] [--n2 N] [--seed N=0] [--chunk N=k]
             [--stability N=3] [--confidence F=50]
             [--distinguisher mean|variance] [--no-early-stop] [--json]
  params     Plan (alpha, m, k, n2) from a reselection-probability target.
             [--alpha X=10] [--band F=0.05] [--k N=50] [--n1 N=400]
  plan       Explain the verification operator graph: stages, buffer
             shapes and the worker count, without running anything.
             [--explain] [--paper] [--k N] [--m N] [--n1 N] [--n2 N]
             [--trace-len N=2048] [--streaming]
  cpa        Recover the watermark key from a trace campaign.
             --traces FILE --counter binary|gray [--spc N=8] [--limit N]
             [--identity] [--phase-robust] [--true-key 0xNN]
  collision  Pairwise key-collision analysis of the leakage sequences.
             [--counter gray] [--keys N=32] [--cycles N=256]
             [--threshold F=0.5] [--identity]
  screen     Absolute genuine/counterfeit decision for one DUT campaign.
             --refd FILE --dut FILE (--threshold X | --genuine FILE...
             [--margin F=2.5]) [--k N=50] [--m N=20] [--n1 N] [--n2 N]
             [--seed N=0]
  campaign   Fleet-scale scenario campaign with adversarial DUTs: expand
             the corner x noise x drift x jitter x adversary grid, score
             every cell, report per-adversary ROC/AUC.
             [--full] [--threads N] [--cells]
  help       Show this text.

Trace files: `.csv` for one-trace-per-line CSV, anything else for the
compact binary formats. `acquire` writes the contiguous IPMKTRC2 block
format by default (`--format trc3` for the quantized + delta-encoded
IPMKTRC3 wire format; `--adc BITS:VMIN:VMAX` snaps samples onto an ADC
code grid first, which is what makes trc3 small). Readers accept
IPMKTRC1, IPMKTRC2 and IPMKTRC3 transparently. `session` reads each
binary DUT campaign row by row from the file instead of loading it."
        .to_owned()
}

/// A subcommand: its name, its body and the flags it accepts, separated by
/// spaces.
type Command = (
    &'static str,
    fn(&Args) -> Result<String, CliError>,
    &'static str,
);

/// Every subcommand with the flags it reads; any other flag is a usage
/// error, so a typo'd flag never runs silently with the default.
const COMMANDS: &[Command] = &[
    ("help", |_| Ok(help()), ""),
    (
        "simulate",
        simulate,
        "ip counter key unmarked identity cycles vcd",
    ),
    (
        "acquire",
        acquire,
        "ip counter key unmarked identity die-seed traces cycles seed out format adc",
    ),
    ("convert", convert, "in out format adc"),
    ("verify", verify, "refd dut k m n1 n2 seed json"),
    (
        "session",
        session,
        "refd dut k m n1 n2 seed chunk stability confidence distinguisher no-early-stop json",
    ),
    ("params", params, "alpha band k n1"),
    ("plan", plan, "explain paper k m n1 n2 trace-len streaming"),
    (
        "cpa",
        cpa,
        "traces counter spc limit identity phase-robust true-key",
    ),
    (
        "collision",
        collision,
        "counter keys cycles threshold identity",
    ),
    (
        "screen",
        screen,
        "refd dut genuine threshold margin k m n1 n2 seed",
    ),
    ("campaign", campaign, "full threads cells"),
];

/// Dispatches one parsed command line.
///
/// # Errors
///
/// Returns [`CliError`] for usage mistakes (an unknown command or flag
/// among them), I/O failures and library errors; the caller prints the
/// message and sets the exit code.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    let name = match args.command.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    let Some(&(name, run, accepted)) = COMMANDS.iter().find(|(n, _, _)| *n == name) else {
        return Err(CliError::Usage(format!(
            "unknown command `{name}`; try `ipmark help`"
        )));
    };
    if let Some(flag) = args
        .flag_names()
        .find(|f| !accepted.split_whitespace().any(|a| a == *f))
    {
        let accepted: Vec<String> = accepted
            .split_whitespace()
            .map(|f| format!("--{f}"))
            .collect();
        let accepted = if accepted.is_empty() {
            "none".to_owned()
        } else {
            accepted.join(", ")
        };
        return Err(CliError::Usage(format!(
            "unknown flag --{flag} for `{name}`; accepted: {accepted}"
        )));
    }
    run(args)
}

fn parse_counter(s: &str) -> Result<CounterKind, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "binary" | "bin" => Ok(CounterKind::Binary),
        "gray" | "grey" => Ok(CounterKind::Gray),
        other => Err(CliError::Usage(format!(
            "unknown counter `{other}` (binary|gray)"
        ))),
    }
}

fn parse_key(s: &str) -> Result<WatermarkKey, CliError> {
    let v = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    v.map(WatermarkKey::new)
        .map_err(|_| CliError::Usage(format!("cannot parse key `{s}` (0x00..0xff)")))
}

/// Builds the IP spec from `--ip A|B|C|D` or from
/// `--counter ... [--key ... | --unmarked] [--identity]`.
fn parse_ip(args: &Args) -> Result<IpSpec, CliError> {
    if let Some(name) = args.get("ip")? {
        return match name.to_ascii_uppercase().as_str() {
            "A" | "IP_A" => Ok(ip_a()),
            "B" | "IP_B" => Ok(ip_b()),
            "C" | "IP_C" => Ok(ip_c()),
            "D" | "IP_D" => Ok(ip_d()),
            other => Err(CliError::Usage(format!(
                "unknown reference IP `{other}` (A|B|C|D)"
            ))),
        };
    }
    let counter =
        parse_counter(args.get("counter")?.ok_or_else(|| {
            CliError::Usage("need --ip A|B|C|D or --counter binary|gray".into())
        })?)?;
    if args.has("unmarked") {
        return Ok(IpSpec::unmarked("unmarked", counter));
    }
    let key = parse_key(args.get("key")?.unwrap_or("0xa7"))?;
    let substitution = if args.has("identity") {
        Substitution::Identity
    } else {
        Substitution::AesSbox
    };
    Ok(IpSpec::watermarked_with_substitution(
        format!("custom-{key}"),
        counter,
        key,
        substitution,
    ))
}

/// The device label of a campaign file: its file stem.
fn device_of(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("device")
        .to_owned()
}

/// Loads a campaign as one contiguous [`TraceBlock`] arena. CSV parses
/// row by row; binary files (IPMKTRC1 or IPMKTRC2 — the payloads are
/// byte-identical) stream straight into the arena.
fn load_traces(path: &str) -> Result<TraceBlock, CliError> {
    let device = device_of(path);
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    let block = if path.ends_with(".csv") {
        trace_io::read_csv(&device, reader)?
    } else {
        trace_io::read_block_any(&device, reader)?
    };
    Ok(block)
}

/// Parses `--adc BITS:VMIN:VMAX` (e.g. `12:0.0:3.3`) into a domain.
fn parse_adc(spec: &str) -> Result<AdcDomain, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let usage = || {
        CliError::Usage(format!(
            "cannot parse ADC domain `{spec}` (expected BITS:VMIN:VMAX, e.g. 12:0.0:3.3)"
        ))
    };
    let [bits, vmin, vmax] = parts.as_slice() else {
        return Err(usage());
    };
    let bits: u32 = bits.parse().map_err(|_| usage())?;
    let vmin: f64 = vmin.parse().map_err(|_| usage())?;
    let vmax: f64 = vmax.parse().map_err(|_| usage())?;
    AdcDomain::from_range(vmin, vmax, bits).map_err(|_| {
        CliError::Usage(format!(
            "invalid ADC domain `{spec}`: need 1..=32 bits and a finite vmin < vmax"
        ))
    })
}

fn save_traces(
    block: &TraceBlock,
    path: &str,
    format: &str,
    domain: Option<&AdcDomain>,
) -> Result<(), CliError> {
    let file = File::create(path)?;
    let writer = BufWriter::new(file);
    match format {
        "csv" => trace_io::write_csv(block, writer)?,
        "bin" | "binary" => trace_io::write_block(block, writer)?,
        "trc3" => match domain {
            Some(d) => trace_io::write_block_v3_with_domain(block, d, writer)?,
            None => trace_io::write_block_v3(block, writer)?,
        },
        other => {
            return Err(CliError::Usage(format!(
                "unknown format `{other}` (bin|csv|trc3)"
            )))
        }
    }
    Ok(())
}

fn simulate(args: &Args) -> Result<String, CliError> {
    let spec = parse_ip(args)?;
    let cycles: usize = args.get_or("cycles", DEFAULT_CYCLES)?;
    let cycles = NonZeroUsize::new(cycles)
        .ok_or_else(|| CliError::Usage("--cycles must be at least 1".into()))?;
    let mut circuit = spec.circuit()?;

    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "IP: {} ({:?} counter, key {:?})",
        spec.name(),
        spec.counter(),
        spec.key()
    );
    let _ = writeln!(out, "components:");
    for info in circuit.component_infos() {
        let _ = writeln!(
            out,
            "  {:<8} {:<16} {}",
            info.name,
            info.type_name,
            if info.sequential {
                "sequential"
            } else {
                "combinational"
            }
        );
    }

    if let Some(vcd_path) = args.get("vcd")? {
        let file = File::create(vcd_path)?;
        dump_vcd(&mut circuit, cycles, spec.name(), BufWriter::new(file))??;
        let _ = writeln!(out, "wrote {cycles}-cycle VCD to {vcd_path}");
    }

    circuit.reset();
    let records = circuit.run_free(cycles.get())?;
    let total_hd: u32 = records.iter().map(|r| r.total_state_hd()).sum();
    let total_out: u32 = records.iter().map(|r| r.total_output_hd()).sum();
    let _ = writeln!(
        out,
        "{cycles} cycles simulated: {} register-bit toggles ({:.3}/cycle), {} net-bit toggles",
        total_hd,
        f64::from(total_hd) / cycles.get() as f64,
        total_out
    );
    Ok(out)
}

fn acquire(args: &Args) -> Result<String, CliError> {
    let spec = parse_ip(args)?;
    let die_seed: u64 = args.get_or("die-seed", 1)?;
    let traces: usize = args.get_or("traces", 400)?;
    let cycles: usize = args.get_or("cycles", DEFAULT_CYCLES)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let out_path = args.require("out")?;
    // Default the write format from the extension so that load_traces
    // (which dispatches reads by extension) can read the file back.
    let default_format = if out_path.ends_with(".csv") {
        "csv"
    } else if out_path.ends_with(".trc3") {
        "trc3"
    } else {
        "bin"
    };
    let format = args.get("format")?.unwrap_or(default_format).to_owned();
    let domain = args.get("adc")?.map(parse_adc).transpose()?;

    let chain = default_chain()?;
    let mut die = FabricatedDevice::fabricate(&spec, &ProcessVariation::typical(), die_seed)?;
    let acq = die.acquisition(&chain, cycles, traces, seed)?;
    let mut block = acq.acquire_block()?;
    if let Some(d) = &domain {
        d.quantize_block(&mut block);
    }
    save_traces(&block, out_path, &format, domain.as_ref())?;
    Ok(format!(
        "acquired {traces} traces x {} samples on {} (die seed {die_seed}) -> {out_path}",
        block.trace_len(),
        die.device().name()
    ))
}

fn convert(args: &Args) -> Result<String, CliError> {
    let in_path = args.require("in")?;
    let out_path = args.require("out")?;
    let default_format = if out_path.ends_with(".csv") {
        "csv"
    } else if out_path.ends_with(".trc3") {
        "trc3"
    } else {
        "bin"
    };
    let format = args.get("format")?.unwrap_or(default_format).to_owned();
    let domain = args.get("adc")?.map(parse_adc).transpose()?;

    let mut block = load_traces(in_path)?;
    if let Some(d) = &domain {
        d.quantize_block(&mut block);
    }
    save_traces(&block, out_path, &format, domain.as_ref())?;

    let in_bytes = std::fs::metadata(in_path)?.len();
    let out_bytes = std::fs::metadata(out_path)?.len();
    let ratio = if out_bytes > 0 {
        in_bytes as f64 / out_bytes as f64
    } else {
        f64::INFINITY
    };
    Ok(format!(
        "converted {} traces x {} samples ({}) -> {out_path}: {in_bytes} -> {out_bytes} bytes ({ratio:.2}x)",
        block.len(),
        block.trace_len(),
        block.device(),
    ))
}

fn verify(args: &Args) -> Result<String, CliError> {
    let refd_path = args.require("refd")?;
    let dut_paths = args.all("dut");
    if dut_paths.is_empty() {
        return Err(CliError::Usage("need at least one --dut FILE".into()));
    }
    let refd = load_traces(refd_path)?;
    let duts: Vec<TraceBlock> = dut_paths
        .iter()
        .map(|p| load_traces(p))
        .collect::<Result<_, _>>()?;

    let k: usize = args.get_or("k", 50)?;
    let m: usize = args.get_or("m", 20)?;
    let n1: usize = args.get_or("n1", refd.len())?;
    let n2_default = duts.iter().map(TraceBlock::len).min().unwrap_or(0);
    let n2: usize = args.get_or("n2", n2_default)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let params = CorrelationParams { n1, n2, k, m };

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sets: Vec<CorrelationSet> = duts
        .iter()
        .map(|dut| correlation_process(&refd, dut, &params, &mut rng))
        .collect::<Result<_, _>>()?;
    let names: Vec<String> = duts.iter().map(|d| d.device().to_owned()).collect();

    if duts.len() == 1 {
        // Single-candidate mode: report the statistics without a
        // comparative verdict.
        let c = &sets[0];
        return Ok(format!(
            "reference {} vs {}: mean = {:.4}, variance = {:.4e} over m = {} coefficients\n\
             (comparative verdicts need >= 2 --dut campaigns)",
            refd.device(),
            names[0],
            c.mean(),
            c.variance(),
            c.len()
        ));
    }

    let report = VerificationReport::new(refd.device(), params, &names, &sets)?;
    if args.has("json") {
        Ok(report.to_json()?)
    } else {
        Ok(report.render_text())
    }
}

/// Streaming verification: replay the DUT campaigns chunk by chunk through
/// a [`VerificationSession`] and stop as soon as the early-stop rule holds.
/// With the same `--seed`, the final coefficients are bit-identical to
/// `verify` over the same files (DESIGN.md §9).
fn session(args: &Args) -> Result<String, CliError> {
    let refd_path = args.require("refd")?;
    let dut_paths = args.all("dut");
    if dut_paths.len() < 2 {
        return Err(CliError::Usage(
            "streaming sessions are comparative: need at least two --dut FILE campaigns".into(),
        ));
    }
    let refd = load_traces(refd_path)?;
    // A binary DUT campaign stays in its file and serves each row the
    // session reads with a positioned read; a CSV campaign has no row
    // layout to read from, so it is decoded whole. Both feed the same
    // `ChunkedSource` seam.
    let duts: Vec<Box<dyn TraceSource>> = dut_paths
        .iter()
        .map(|p| -> Result<Box<dyn TraceSource>, CliError> {
            Ok(if p.ends_with(".csv") {
                Box::new(load_traces(p)?)
            } else {
                Box::new(read_block_mapped(&device_of(p), Path::new(p))?)
            })
        })
        .collect::<Result<_, _>>()?;
    let names: Vec<String> = dut_paths.iter().map(|p| device_of(p)).collect();

    let k: usize = args.get_or("k", 50)?;
    let m: usize = args.get_or("m", 20)?;
    let n1: usize = args.get_or("n1", refd.len())?;
    let n2_default = duts.iter().map(|d| d.num_traces()).min().unwrap_or(0);
    let n2: usize = args.get_or("n2", n2_default)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let chunk: usize = args.get_or("chunk", k)?;
    let stability: usize = args.get_or("stability", 3)?;
    let confidence: f64 = args.get_or("confidence", 50.0)?;
    let distinguisher = match args.get("distinguisher")?.unwrap_or("variance") {
        "mean" => DistinguisherKind::Mean,
        "variance" | "var" => DistinguisherKind::Variance,
        other => {
            return Err(CliError::Usage(format!(
                "unknown distinguisher `{other}` (mean|variance)"
            )))
        }
    };
    let params = CorrelationParams { n1, n2, k, m };
    let mut options = SessionOptions::new(params).with_distinguisher(distinguisher);
    if !args.has("no-early-stop") {
        options = options.with_early_stop(EarlyStopRule {
            stability,
            min_confidence_percent: confidence,
        });
    }

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut session = VerificationSession::new(&refd, duts.len(), options, &mut rng)?;
    let mut streams: Vec<_> = duts
        .iter()
        .map(|d| ipmark_traces::streaming::ChunkedSource::with_limit(&**d, chunk, n2))
        .collect::<Result<_, _>>()?;

    // Interleave candidates wave by wave, the way a verification service
    // polls several benches; stop streaming the moment the session decides.
    'stream: loop {
        let mut delivered = false;
        for (candidate, stream) in streams.iter_mut().enumerate() {
            if let Some(traces) = stream.next_chunk()? {
                delivered = true;
                if let SessionStatus::Decided(_) = session.ingest_chunk(candidate, &traces)? {
                    break 'stream;
                }
            }
        }
        if !delivered {
            break;
        }
    }
    let verdict = session.finalize()?;

    let ingested: Vec<usize> = (0..duts.len())
        .map(|c| session.traces_ingested(c))
        .collect();
    let budget = n2 * duts.len();
    let consumed: usize = ingested.iter().sum();

    if args.has("json") {
        let value = serde_json::json!({
            "reference": refd.device(),
            "distinguisher": distinguisher.name(),
            "params": { "n1": n1, "n2": n2, "k": k, "m": m },
            "chunk": chunk,
            "winner": names[verdict.best].as_str(),
            "best": verdict.best,
            "confidence_percent": verdict.confidence_percent,
            "scores": verdict.scores.clone(),
            "rounds_used": verdict.rounds_used,
            "early_stopped": verdict.early_stopped,
            "traces_consumed": consumed,
            "traces_budget": budget,
        });
        return serde_json::to_string_pretty(&value).map_err(|e| CliError::Library(Box::new(e)));
    }

    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "streaming verification of {} candidates against {} ({} distinguisher, chunk {chunk})",
        duts.len(),
        refd.device(),
        distinguisher.name()
    );
    for (i, name) in names.iter().enumerate() {
        let marker = if i == verdict.best {
            " <-- VERDICT"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {name:<20} score {:+.6e}  traces {}/{n2}{marker}",
            verdict.scores[i], ingested[i]
        );
    }
    let _ = writeln!(
        out,
        "decided at round {}/{m} ({}), confidence {:.2}%",
        verdict.rounds_used,
        if verdict.early_stopped {
            "early stop"
        } else {
            "full campaign"
        },
        verdict.confidence_percent
    );
    let _ = write!(
        out,
        "traces consumed: {consumed}/{budget} ({:.1}% of the batch budget)",
        100.0 * consumed as f64 / budget as f64
    );
    Ok(out)
}

fn params(args: &Args) -> Result<String, CliError> {
    let alpha: f64 = args.get_or("alpha", 10.0)?;
    let band: f64 = args.get_or("band", 0.05)?;
    let k: usize = args.get_or("k", 50)?;
    let n1: usize = args.get_or("n1", 400)?;
    let plan = ParameterPlan::from_alpha(alpha, band, k)?;
    let params = plan.into_params(n1)?;
    Ok(format!(
        "alpha = {alpha}, limit band = {band}\n\
         m  = {} (smallest m within the band of the m->inf limit)\n\
         k  = {k} (acquisition-budget parameter)\n\
         n2 = {} (= alpha * k * m)\n\
         n1 = {n1}\n\
         P(zeta) = {:.6}\n\
         correlation parameters valid: {:?}",
        plan.m,
        plan.n2,
        plan.p_zeta,
        params.validate().is_ok()
    ))
}

/// `ipmark plan [--explain]`: renders the operator graph every
/// verification path executes — stage list, preallocated buffer shapes
/// and the pool's worker count — without touching any traces.
fn plan(args: &Args) -> Result<String, CliError> {
    let base = if args.has("paper") {
        CorrelationParams::paper()
    } else {
        CorrelationParams::reduced()
    };
    let k: usize = args.get_or("k", base.k)?;
    let m: usize = args.get_or("m", base.m)?;
    let n1: usize = args.get_or("n1", base.n1)?;
    let n2: usize = args.get_or("n2", base.n2)?;
    let trace_len: usize = args.get_or("trace-len", DEFAULT_CYCLES * SAMPLES_PER_CYCLE)?;
    let params = CorrelationParams { n1, n2, k, m };
    params.validate()?;

    // `--explain` is the command's only mode; the flag is accepted for
    // discoverability and symmetry with future planning modes.
    Ok(explain_graph(
        &params,
        trace_len,
        default_backend().threads(),
        args.has("streaming"),
    ))
}

fn cpa(args: &Args) -> Result<String, CliError> {
    let path = args.require("traces")?;
    let counter = parse_counter(args.get("counter")?.unwrap_or("gray"))?;
    let spc: usize = args.get_or("spc", SAMPLES_PER_CYCLE)?;
    let set = load_traces(path)?;
    let limit: usize = args.get_or("limit", set.len())?;
    let substitution = if args.has("identity") {
        Substitution::Identity
    } else {
        Substitution::AesSbox
    };
    let true_key = match args.get("true-key")? {
        Some(s) => Some(parse_key(s)?),
        None => None,
    };
    let result = if args.has("phase-robust") {
        recover_key_phase_robust(&set, limit, spc, counter, substitution, true_key)?
    } else {
        recover_key(&set, limit, spc, counter, substitution, true_key)?
    };
    let mut out = format!(
        "recovered key: {} (margin {:.4} over {} traces)",
        result.best_key, result.margin, limit
    );
    if let Some(rank) = result.true_key_rank {
        out.push_str(&format!("\ntrue key rank: {rank}"));
    }
    Ok(out)
}

fn collision(args: &Args) -> Result<String, CliError> {
    let counter = parse_counter(args.get("counter")?.unwrap_or("gray"))?;
    let num_keys: usize = args.get_or("keys", 32)?;
    let cycles: usize = args.get_or("cycles", DEFAULT_CYCLES)?;
    let threshold: f64 = args.get_or("threshold", 0.5)?;
    let substitution = if args.has("identity") {
        Substitution::Identity
    } else {
        Substitution::AesSbox
    };
    if !(2..=256).contains(&num_keys) {
        return Err(CliError::Usage(format!(
            "--keys must be 2..=256, got {num_keys}"
        )));
    }
    let stride = 256 / num_keys;
    let keys: Vec<WatermarkKey> = (0..num_keys)
        .map(|i| WatermarkKey::new((i * stride) as u8))
        .collect();
    let analysis = analyze_collisions(counter, substitution, &keys, cycles, threshold)?;
    Ok(format!(
        "{} keys over {cycles} cycles ({counter:?} counter, {substitution:?}):\n\
         max |rho|  = {:.4} (worst pair {} / {})\n\
         mean |rho| = {:.4}\n\
         collision rate at |rho| > {threshold}: {:.4}",
        analysis.num_keys,
        analysis.max_abs_correlation,
        analysis.worst_pair.0,
        analysis.worst_pair.1,
        analysis.mean_abs_correlation,
        analysis.collision_rate
    ))
}

fn screen(args: &Args) -> Result<String, CliError> {
    let refd = load_traces(args.require("refd")?)?;
    let dut = load_traces(args.require("dut")?)?;
    let k: usize = args.get_or("k", 50)?;
    let m: usize = args.get_or("m", 20)?;
    let n1: usize = args.get_or("n1", refd.len())?;
    let n2: usize = args.get_or("n2", dut.len())?;
    let seed: u64 = args.get_or("seed", 0)?;
    let params = CorrelationParams { n1, n2, k, m };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let screen = if let Some(t) = args.get("threshold")? {
        let threshold: f64 = t
            .parse()
            .map_err(|_| CliError::Usage(format!("cannot parse threshold `{t}`")))?;
        CounterfeitScreen::with_threshold(threshold)?
    } else {
        let genuine_paths = args.all("genuine");
        if genuine_paths.is_empty() {
            return Err(CliError::Usage(
                "need --threshold X or at least one --genuine FILE to calibrate".into(),
            ));
        }
        let margin: f64 = args.get_or("margin", 2.5)?;
        let mut variances = Vec::new();
        for path in genuine_paths {
            let genuine = load_traces(path)?;
            let p = CorrelationParams {
                n1,
                n2: genuine.len().min(n2),
                k,
                m,
            };
            let c = correlation_process(&refd, &genuine, &p, &mut rng)?;
            variances.push(c.variance());
        }
        CounterfeitScreen::calibrate(&variances, margin)?
    };

    let verdict = screen.screen(&refd, &dut, &params, &mut rng)?;
    Ok(format!(
        "device {}: variance = {:.4e} (mean {:.4}), threshold = {:.4e}\nverdict: {}",
        dut.device(),
        verdict.variance,
        verdict.mean,
        verdict.threshold,
        if verdict.genuine {
            "GENUINE"
        } else {
            "COUNTERFEIT"
        }
    ))
}

/// Fleet-scale scenario campaign (extension X10): the reduced 8-cell grid
/// by default, the full 4000+-cell grid with `--full`.
fn campaign(args: &Args) -> Result<String, CliError> {
    use ipmark_bench::campaign::{Campaign, Pool};
    use std::fmt::Write as _;

    let campaign = if args.has("full") {
        Campaign::full()
    } else {
        Campaign::reduced()
    };
    let pool = match args.get("threads")? {
        Some(t) => {
            let threads: usize = t
                .parse()
                .map_err(|_| CliError::Usage(format!("cannot parse --threads `{t}`")))?;
            Pool::with_threads(threads)
        }
        None => Pool::from_env(),
    };
    let report = campaign
        .run(&pool)
        .map_err(|e| CliError::Library(Box::new(e)))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign: {} cells over {} (master seed {})",
        campaign.grid().len(),
        campaign.ip().name(),
        campaign.config().master_seed
    );
    if args.has("cells") {
        let _ = writeln!(
            out,
            "{:<6}{:>7}{:>8}  {:<16}{:>12}{:>12}{:>12}{:>12}",
            "cell", "corner", "noise", "adversary", "pos.mean", "pos.var", "neg.mean", "neg.var"
        );
        for o in report.outcomes() {
            let c = o.coord;
            let _ = writeln!(
                out,
                "{:<6}{:>7}{:>8.1}  {:<16}{:>12.6}{:>12.3e}{:>12.6}{:>12.3e}",
                c.index,
                c.corner,
                report.noise_sigmas()[c.noise],
                report.adversary_labels()[c.adversary],
                o.positive_mean,
                o.positive_variance,
                o.negative_mean,
                o.negative_variance
            );
        }
    }
    let _ = writeln!(
        out,
        "{:<16}{:>12}{:>14}",
        "adversary", "AUC(mean)", "AUC(variance)"
    );
    let rocs = report
        .adversary_rocs()
        .map_err(|e| CliError::Library(Box::new(e)))?;
    for (label, mean_roc, var_roc) in rocs {
        let _ = writeln!(
            out,
            "{label:<16}{:>12.3}{:>14.3}",
            mean_roc.auc(),
            var_roc.auc()
        );
    }
    Ok(out.trim_end().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmark_traces::stats::wilson_interval;

    fn run(tokens: &[&str]) -> Result<String, CliError> {
        dispatch(&Args::parse(tokens.iter().copied()).unwrap())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("ipmark-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_owned()
    }

    #[test]
    fn help_lists_all_commands() {
        let h = help();
        for cmd in [
            "simulate",
            "acquire",
            "verify",
            "params",
            "plan",
            "cpa",
            "collision",
        ] {
            assert!(h.contains(cmd), "help is missing `{cmd}`");
        }
        assert!(run(&["help"]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        assert!(matches!(run(&["frobnicate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn every_command_rejects_unknown_flags() {
        for &(name, _, accepted) in COMMANDS {
            match run(&[name, "--bogus", "3"]) {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains("--bogus"), "`{name}`: {msg}");
                    for flag in accepted.split_whitespace() {
                        assert!(msg.contains(&format!("--{flag}")), "`{name}`: {msg}");
                    }
                }
                other => panic!("`{name} --bogus 3` must be a usage error, got {other:?}"),
            }
        }
        // The typo and the removed flag from before flags were checked.
        for tokens in [
            &["params", "--kk", "5"][..],
            &["plan", "--backend", "sequential"],
        ] {
            assert!(matches!(run(tokens), Err(CliError::Usage(_))), "{tokens:?}");
        }
    }

    #[test]
    fn every_accepted_flag_is_in_help() {
        let h = help();
        let documented: Vec<&str> = h
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|token| token.strip_prefix("--"))
            .collect();
        for &(name, _, accepted) in COMMANDS {
            assert!(
                name == "help" || h.contains(name),
                "help is missing `{name}`"
            );
            for flag in accepted.split_whitespace() {
                assert!(
                    documented.contains(&flag),
                    "help is missing `--{flag}` of `{name}`"
                );
            }
        }
    }

    #[test]
    fn parse_ip_variants() {
        let a = Args::parse(["x", "--ip", "a"]).unwrap();
        assert_eq!(parse_ip(&a).unwrap().name(), "IP_A");
        let c = Args::parse(["x", "--counter", "gray", "--key", "0x3c"]).unwrap();
        let spec = parse_ip(&c).unwrap();
        assert_eq!(spec.key().unwrap().value(), 0x3c);
        let u = Args::parse(["x", "--counter", "binary", "--unmarked"]).unwrap();
        assert!(parse_ip(&u).unwrap().key().is_none());
        let bad = Args::parse(["x", "--ip", "z"]).unwrap();
        assert!(parse_ip(&bad).is_err());
        let none = Args::parse(["x"]).unwrap();
        assert!(parse_ip(&none).is_err());
    }

    #[test]
    fn key_parsing() {
        assert_eq!(parse_key("0xff").unwrap().value(), 0xff);
        assert_eq!(parse_key("10").unwrap().value(), 10);
        assert!(parse_key("0x100").is_err());
        assert!(parse_key("zz").is_err());
    }

    #[test]
    fn simulate_reports_components() {
        let out = run(&["simulate", "--ip", "B", "--cycles", "32"]).unwrap();
        assert!(out.contains("gray-counter"));
        assert!(out.contains("sync-rom"));
        assert!(out.contains("32 cycles simulated"));
    }

    #[test]
    fn simulate_writes_vcd() {
        let vcd = tmp("sim.vcd");
        let out = run(&["simulate", "--ip", "A", "--cycles", "16", "--vcd", &vcd]).unwrap();
        assert!(out.contains("VCD"));
        let text = std::fs::read_to_string(&vcd).unwrap();
        assert!(text.contains("$enddefinitions"));
    }

    #[test]
    fn acquire_then_verify_round_trip() {
        let refd = tmp("refd.bin");
        let dut_good = tmp("dut_good.bin");
        let dut_bad = tmp("dut_bad.bin");
        run(&[
            "acquire",
            "--ip",
            "b",
            "--die-seed",
            "1",
            "--traces",
            "60",
            "--cycles",
            "128",
            "--seed",
            "1",
            "--out",
            &refd,
        ])
        .unwrap();
        run(&[
            "acquire",
            "--ip",
            "b",
            "--die-seed",
            "2",
            "--traces",
            "600",
            "--cycles",
            "128",
            "--seed",
            "2",
            "--out",
            &dut_good,
        ])
        .unwrap();
        run(&[
            "acquire",
            "--ip",
            "c",
            "--die-seed",
            "3",
            "--traces",
            "600",
            "--cycles",
            "128",
            "--seed",
            "3",
            "--out",
            &dut_bad,
        ])
        .unwrap();
        let out = run(&[
            "verify", "--refd", &refd, "--dut", &dut_good, "--dut", &dut_bad, "--k", "15", "--m",
            "10",
        ])
        .unwrap();
        assert!(out.contains("VERDICT"), "output:\n{out}");
        assert!(
            out.lines()
                .find(|l| l.contains("VERDICT"))
                .unwrap()
                .contains("dut_good"),
            "wrong verdict:\n{out}"
        );
        // JSON mode parses back.
        let json = run(&[
            "verify", "--refd", &refd, "--dut", &dut_good, "--dut", &dut_bad, "--k", "15", "--m",
            "10", "--json",
        ])
        .unwrap();
        assert!(ipmark_core::report::VerificationReport::from_json(&json).is_ok());
    }

    #[test]
    fn session_streams_to_the_same_winner_as_verify() {
        let refd = tmp("sess_refd.bin");
        let dut_good = tmp("sess_dut_good.bin");
        let dut_bad = tmp("sess_dut_bad.bin");
        for (ip, die, seed, n, path) in [
            ("b", "1", "1", "60", &refd),
            ("b", "2", "2", "600", &dut_good),
            ("c", "3", "3", "600", &dut_bad),
        ] {
            run(&[
                "acquire",
                "--ip",
                ip,
                "--die-seed",
                die,
                "--traces",
                n,
                "--cycles",
                "128",
                "--seed",
                seed,
                "--out",
                path,
            ])
            .unwrap();
        }
        let common = [
            "--refd", &refd, "--dut", &dut_good, "--dut", &dut_bad, "--k", "15", "--m", "10",
            "--seed", "7",
        ];
        let out = run(&[&["session"], &common[..], &["--chunk", "40"]].concat()).unwrap();
        assert!(out.contains("VERDICT"), "output:\n{out}");
        assert!(
            out.lines()
                .find(|l| l.contains("VERDICT"))
                .unwrap()
                .contains("sess_dut_good"),
            "wrong verdict:\n{out}"
        );
        assert!(out.contains("traces consumed"), "output:\n{out}");

        // Early stop must not consume the whole budget on this easy case.
        let early = run(&[
            &["session"],
            &common[..],
            &["--chunk", "40", "--stability", "2", "--confidence", "10"],
        ]
        .concat())
        .unwrap();
        assert!(early.contains("early stop"), "output:\n{early}");

        // JSON mode round-trips and agrees with the batch verdict.
        let json = run(&[&["session"], &common[..], &["--json"]].concat()).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            value.get("winner").and_then(|v| v.as_str()).unwrap(),
            "sess_dut_good"
        );
        assert!(matches!(
            value.get("traces_consumed"),
            Some(serde_json::Value::Number(_))
        ));
    }

    #[test]
    fn session_rejects_single_candidate_and_bad_distinguisher() {
        let refd = tmp("sess1_refd.bin");
        run(&[
            "acquire", "--ip", "a", "--traces", "30", "--cycles", "32", "--out", &refd,
        ])
        .unwrap();
        assert!(matches!(
            run(&["session", "--refd", &refd, "--dut", &refd]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&[
                "session",
                "--refd",
                &refd,
                "--dut",
                &refd,
                "--dut",
                &refd,
                "--distinguisher",
                "median"
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn verify_single_dut_reports_statistics() {
        let refd = tmp("single_refd.bin");
        let dut = tmp("single_dut.bin");
        for (ip, seed, path, n) in [("a", "1", &refd, "40"), ("a", "2", &dut, "300")] {
            run(&[
                "acquire",
                "--ip",
                ip,
                "--die-seed",
                seed,
                "--traces",
                n,
                "--cycles",
                "64",
                "--seed",
                seed,
                "--out",
                path,
            ])
            .unwrap();
        }
        let out = run(&[
            "verify", "--refd", &refd, "--dut", &dut, "--k", "10", "--m", "5",
        ])
        .unwrap();
        assert!(out.contains("mean ="));
        assert!(out.contains("variance ="));
    }

    #[test]
    fn verify_requires_duts() {
        let refd = tmp("verify_refd.bin");
        run(&[
            "acquire", "--ip", "a", "--traces", "20", "--cycles", "32", "--out", &refd,
        ])
        .unwrap();
        assert!(matches!(
            run(&["verify", "--refd", &refd]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn csv_format_round_trips() {
        let path = tmp("traces.csv");
        run(&[
            "acquire", "--ip", "d", "--traces", "5", "--cycles", "16", "--out", &path, "--format",
            "csv",
        ])
        .unwrap();
        let set = load_traces(&path).unwrap();
        assert_eq!(set.len(), 5);
        assert_eq!(set.trace_len(), 16 * SAMPLES_PER_CYCLE);
        assert!(matches!(
            save_traces(&set, &tmp("x.bin"), "nope", None),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn convert_quantizes_to_trc3_and_round_trips() {
        let raw = tmp("conv_raw.bin");
        run(&[
            "acquire", "--ip", "b", "--traces", "40", "--cycles", "64", "--seed", "5", "--out",
            &raw,
        ])
        .unwrap();

        // bin -> trc3 with ADC quantization shrinks the file substantially.
        let packed = tmp("conv_packed.trc3");
        let out = run(&[
            "convert",
            "--in",
            &raw,
            "--out",
            &packed,
            "--adc",
            "12:0.0:40.0",
        ])
        .unwrap();
        assert!(out.contains("->"), "output:\n{out}");
        let raw_bytes = std::fs::metadata(&raw).unwrap().len();
        let packed_bytes = std::fs::metadata(&packed).unwrap().len();
        assert!(
            packed_bytes * 4 <= raw_bytes,
            "trc3 {packed_bytes} bytes vs bin {raw_bytes}: under 4x"
        );

        // trc3 -> bin reproduces the quantized block bit-exactly through
        // the generic loader.
        let back = tmp("conv_back.bin");
        run(&["convert", "--in", &packed, "--out", &back]).unwrap();
        let from_trc3 = load_traces(&packed).unwrap();
        let from_bin = load_traces(&back).unwrap();
        assert_eq!(from_trc3.len(), 40);
        let a: Vec<u64> = from_trc3.samples().iter().map(|s| s.to_bits()).collect();
        let b: Vec<u64> = from_bin.samples().iter().map(|s| s.to_bits()).collect();
        assert_eq!(a, b);

        // Usage errors: missing input, bad ADC spec, the retired mapped flag.
        assert!(matches!(
            run(&["convert", "--out", &back]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["convert", "--in", &raw, "--out", &back, "--adc", "12:3.3"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&[
                "convert",
                "--in",
                &raw,
                "--out",
                &back,
                "--adc",
                "0:0.0:1.0"
            ]),
            Err(CliError::Usage(_))
        ));
        match run(&["convert", "--in", "nope.csv", "--out", &back, "--mapped"]) {
            Err(CliError::Usage(msg)) => assert!(msg.starts_with("unknown flag --mapped"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn mapped_session_agrees_with_owned_session() {
        let refd = tmp("map_sess_refd.bin");
        let dut_good = tmp("map_sess_good.trc3");
        let dut_bad = tmp("map_sess_bad.bin");
        // CSV copies of the same campaigns, in a directory of their own
        // under the same file stems, so the device names match.
        let csv_dir = std::env::temp_dir().join("ipmark-cli-tests").join("csv");
        std::fs::create_dir_all(&csv_dir).unwrap();
        let csv = |stem: &str| {
            csv_dir
                .join(format!("{stem}.csv"))
                .to_str()
                .unwrap()
                .to_owned()
        };
        let (csv_refd, csv_good, csv_bad) = (
            csv("map_sess_refd"),
            csv("map_sess_good"),
            csv("map_sess_bad"),
        );
        // At k = 15 one session names the genuine DUT only about four
        // times in five, so the winner is checked as a rate over 64
        // realizations; the binary files (positioned reads for bin, the
        // owned fallback for trc3) and their decoded CSV copies must agree
        // on every one.
        let sets = 64;
        let mut genuine_wins = 0;
        for set in 0..sets {
            for (ip, die, seed, n, path) in [
                ("b", "1", 10 * set + 1, "60", &refd),
                ("b", "2", 10 * set + 2, "400", &dut_good),
                ("c", "3", 10 * set + 3, "400", &dut_bad),
            ] {
                run(&[
                    "acquire",
                    "--ip",
                    ip,
                    "--die-seed",
                    die,
                    "--traces",
                    n,
                    "--cycles",
                    "64",
                    "--seed",
                    &seed.to_string(),
                    "--out",
                    path,
                ])
                .unwrap();
            }
            for (from, to) in [
                (&refd, &csv_refd),
                (&dut_good, &csv_good),
                (&dut_bad, &csv_bad),
            ] {
                run(&["convert", "--in", from, "--out", to]).unwrap();
            }
            let seed = (7 + set).to_string();
            let session = |refd: &str, good: &str, bad: &str| {
                run(&[
                    "session", "--refd", refd, "--dut", good, "--dut", bad, "--k", "15", "--m",
                    "10", "--seed", &seed, "--json",
                ])
                .unwrap()
            };
            let mapped = session(&refd, &dut_good, &dut_bad);
            let owned = session(&csv_refd, &csv_good, &csv_bad);
            // Same campaigns, same seed: the session is source-agnostic, so
            // the two runs must agree verbatim (scores included).
            assert_eq!(owned, mapped, "realization {set}");
            let value: serde_json::Value = serde_json::from_str(&mapped).unwrap();
            if value.get("winner").and_then(|v| v.as_str()).unwrap() == "map_sess_good" {
                genuine_wins += 1;
            }
        }
        assert!(
            wilson_interval(genuine_wins, sets, 1.96).unwrap().0 > 0.5,
            "genuine DUT won {genuine_wins}/{sets} sessions"
        );
    }

    #[test]
    fn params_command_reproduces_paper_plan() {
        let out = run(&["params", "--alpha", "10", "--band", "0.05", "--k", "50"]).unwrap();
        assert!(out.contains("P(zeta)"), "output:\n{out}");
        assert!(out.contains("valid: true"));
    }

    #[test]
    fn plan_explain_prints_the_stage_graph() {
        let out = run(&["plan", "--explain"]).unwrap();
        for stage in [
            "AcquireStage",
            "KAverageStage",
            "CorrelateStage",
            "DecideStage",
            "backend:",
            "kernels:",
        ] {
            assert!(out.contains(stage), "missing `{stage}` in:\n{out}");
        }
        // Explicit parameters flow through.
        let out = run(&[
            "plan",
            "--explain",
            "--n1",
            "40",
            "--n2",
            "800",
            "--k",
            "10",
            "--m",
            "8",
            "--trace-len",
            "1024",
        ])
        .unwrap();
        assert!(out.contains("k=10"), "output:\n{out}");
        // The streaming variant names the resumable ingestion stage.
        let out = run(&["plan", "--explain", "--streaming"]).unwrap();
        assert!(out.contains("streaming"), "output:\n{out}");
        // Bad configurations are rejected, not rendered.
        assert!(run(&["plan", "--n2", "0"]).is_err());
    }

    #[test]
    fn cpa_command_recovers_key_from_file() {
        let path = tmp("cpa_traces.bin");
        run(&[
            "acquire",
            "--counter",
            "gray",
            "--key",
            "0x5b",
            "--die-seed",
            "4",
            "--traces",
            "150",
            "--cycles",
            "256",
            "--seed",
            "9",
            "--out",
            &path,
        ])
        .unwrap();
        let out = run(&[
            "cpa",
            "--traces",
            &path,
            "--counter",
            "gray",
            "--true-key",
            "0x5b",
        ])
        .unwrap();
        assert!(out.contains("Kw(0x5b)"), "output:\n{out}");
        assert!(out.contains("true key rank: 0"), "output:\n{out}");
    }

    #[test]
    fn screen_command_flags_counterfeit() {
        let refd = tmp("screen_refd.bin");
        let genuine = tmp("screen_genuine.bin");
        let fake = tmp("screen_fake.bin");
        run(&[
            "acquire",
            "--ip",
            "c",
            "--die-seed",
            "1",
            "--traces",
            "80",
            "--cycles",
            "128",
            "--seed",
            "1",
            "--out",
            &refd,
        ])
        .unwrap();
        run(&[
            "acquire",
            "--ip",
            "c",
            "--die-seed",
            "2",
            "--traces",
            "800",
            "--cycles",
            "128",
            "--seed",
            "2",
            "--out",
            &genuine,
        ])
        .unwrap();
        run(&[
            "acquire",
            "--counter",
            "gray",
            "--unmarked",
            "--die-seed",
            "3",
            "--traces",
            "800",
            "--cycles",
            "128",
            "--seed",
            "3",
            "--out",
            &fake,
        ])
        .unwrap();
        let ok = run(&[
            "screen",
            "--refd",
            &refd,
            "--dut",
            &genuine,
            "--genuine",
            &genuine,
            "--k",
            "20",
            "--m",
            "10",
        ])
        .unwrap();
        assert!(ok.contains("GENUINE"), "output:\n{ok}");
        let bad = run(&[
            "screen",
            "--refd",
            &refd,
            "--dut",
            &fake,
            "--genuine",
            &genuine,
            "--k",
            "20",
            "--m",
            "10",
        ])
        .unwrap();
        assert!(bad.contains("COUNTERFEIT"), "output:\n{bad}");
        assert!(matches!(
            run(&["screen", "--refd", &refd, "--dut", &fake]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn campaign_command_reports_aucs() {
        let out = run(&["campaign", "--threads", "2", "--cells"]).unwrap();
        assert!(out.contains("8 cells"), "output:\n{out}");
        assert!(out.contains("honest"), "output:\n{out}");
        assert!(out.contains("guessed-key/4"), "output:\n{out}");
        assert!(out.contains("AUC"), "output:\n{out}");
        assert!(matches!(
            run(&["campaign", "--threads", "zero"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn collision_command_summarizes() {
        let out = run(&["collision", "--keys", "8", "--cycles", "128"]).unwrap();
        assert!(out.contains("max |rho|"));
        assert!(matches!(
            run(&["collision", "--keys", "1"]),
            Err(CliError::Usage(_))
        ));
    }
}
