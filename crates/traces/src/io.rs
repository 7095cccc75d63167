//! Reading and writing trace campaigns.
//!
//! Four formats:
//!
//! * **CSV** — one trace per line, samples comma-separated; interoperable
//!   with spreadsheet tools and the plotting scripts of side-channel suites.
//! * **`IPMKTRC1`** — the legacy compact little-endian format (magic, trace
//!   count, trace length, raw `f64` samples, trace by trace). It is read,
//!   no longer written.
//! * **`IPMKTRC2`** — the arena-native block format. Its payload is
//!   **byte-identical** to `IPMKTRC1` (writing traces contiguously *is*
//!   row-major order); only the magic differs. The payload therefore maps
//!   1:1 onto a [`TraceBlock`]'s sample arena, and [`read_block_any`] loads
//!   either version straight into one contiguous allocation. Multi-GB v1/v2
//!   corpora can instead stay on disk behind
//!   [`read_block_mapped`](crate::mmap::read_block_mapped), which reads
//!   only the rows a verification selects.
//! * **`IPMKTRC3`** — the quantized wire format ([`crate::codec`]): per-row
//!   scale/offset metadata plus delta-encoded, bit-packed integer ADC
//!   codes, with a verbatim raw-f64 fallback for rows off the code grid.
//!   Decoding is **bit-identical** to the encoded samples — see the
//!   exactness argument in the module docs — at a ≥ 4× wire-size reduction
//!   for ADC-domain campaigns.

use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

use ipmark_parallel::Pool;

use crate::block::TraceBlock;
use crate::codec::{self, AdcDomain};
use crate::error::TraceError;

/// Magic bytes opening the legacy (v1) binary trace format.
pub const BINARY_MAGIC: &[u8; 8] = b"IPMKTRC1";

/// Magic bytes opening the arena-native (v2) binary block format.
pub const BLOCK_MAGIC: &[u8; 8] = b"IPMKTRC2";

/// Magic bytes opening the quantized + delta-encoded (v3) wire format.
pub const BLOCK_V3_MAGIC: &[u8; 8] = b"IPMKTRC3";

/// Error raised by trace serialization.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a valid trace file.
    Format(String),
    /// The decoded traces violate a container invariant.
    Trace(TraceError),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Format(msg) => write!(f, "malformed trace file: {msg}"),
            IoError::Trace(e) => write!(f, "invalid trace data: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Trace(e) => Some(e),
            IoError::Format(_) => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<TraceError> for IoError {
    fn from(e: TraceError) -> Self {
        IoError::Trace(e)
    }
}

/// Writes a trace block as CSV, one trace per line. A mutable reference may
/// be passed as the writer.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv<W: Write>(block: &TraceBlock, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    for row in block.rows() {
        let mut first = true;
        for s in row.samples() {
            if !first {
                w.write_all(b",")?;
            }
            write!(w, "{s}")?;
            first = false;
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a CSV campaign written by [`write_csv`] straight into a
/// contiguous [`TraceBlock`]. A mutable reference may be passed as the
/// reader.
///
/// # Errors
///
/// Returns [`IoError::Format`] for unparsable numbers and
/// [`IoError::Trace`] when lines have inconsistent lengths.
pub fn read_csv<R: Read>(device: &str, reader: R) -> Result<TraceBlock, IoError> {
    let r = BufReader::new(reader);
    let mut block = TraceBlock::new(device);
    for (lineno, line) in r.lines().enumerate() {
        // `lines()` reports non-UTF-8 input as an I/O error; for this
        // reader that is a malformed *file*, not a failing reader — keep
        // genuine transport errors in `Io` and reclassify the rest.
        let line = line.map_err(|e| {
            if e.kind() == io::ErrorKind::InvalidData {
                IoError::Format(format!("line {}: {e}", lineno + 1))
            } else {
                IoError::Io(e)
            }
        })?;
        if line.trim().is_empty() {
            continue;
        }
        let samples: Result<Vec<f64>, _> = line
            .split(',')
            .map(|tok| tok.trim().parse::<f64>())
            .collect();
        let samples = samples.map_err(|e| IoError::Format(format!("line {}: {e}", lineno + 1)))?;
        block.push_row(&samples)?;
    }
    Ok(block)
}

/// Writes a trace block in the arena-native `IPMKTRC2` format. A mutable
/// reference may be passed as the writer.
///
/// The payload is the block's row-major sample arena verbatim (little
/// endian), so [`read_block`] restores it with a single streamed read into
/// one allocation. The header and samples are copied into one reused
/// 1 MiB buffer, and each full buffer goes to `writer` in one
/// `write_all`; the writer is flushed at the end. The write size matters
/// beyond the write itself: a file written in ≥ 1 MiB pieces sits in the
/// page cache in large folios, and the positioned row reads of
/// [`read_block_mapped`](crate::mmap::read_block_mapped) from it measured
/// ~40 % cheaper (DESIGN.md §14, EXPERIMENTS.md X15).
///
/// # Errors
///
/// Propagates I/O failures, including a failing `flush`.
pub fn write_block<W: Write>(block: &TraceBlock, writer: W) -> Result<(), IoError> {
    let samples = block.samples();
    let mut w = ChunkWriter::new(writer, HEADER_LEN + samples.len() * 8);
    w.put(&header(BLOCK_MAGIC, block))?;
    w.put_samples(samples)?;
    w.finish()?;
    Ok(())
}

/// Bytes in a binary header: magic, trace count, trace length.
const HEADER_LEN: usize = 24;

/// Bytes the corpus writers hand to the caller's writer per `write_all`
/// (all but the last of a file). Writes of this size and up let the page
/// cache hold the file in large folios; larger ones gained nothing more
/// (EXPERIMENTS.md X15).
pub(crate) const WRITE_CHUNK: usize = 1 << 20;

/// The 24-byte header of a binary trace file.
fn header(magic: &[u8; 8], block: &TraceBlock) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    let (m, dims) = out.split_at_mut(8);
    m.copy_from_slice(magic);
    let (count, len) = dims.split_at_mut(8);
    count.copy_from_slice(&(block.len() as u64).to_le_bytes());
    len.copy_from_slice(&(block.trace_len() as u64).to_le_bytes());
    out
}

/// The corpus writers' output buffer: bytes collect in one fixed buffer,
/// and each time it fills, the whole buffer goes to the inner writer in
/// one `write_all`.
pub(crate) struct ChunkWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
    len: usize,
}

impl<W: Write> ChunkWriter<W> {
    /// A writer whose buffer holds [`WRITE_CHUNK`] bytes, or `size_hint`
    /// if that is smaller (but at least one sample).
    pub(crate) fn new(inner: W, size_hint: usize) -> Self {
        Self {
            inner,
            buf: vec![0; size_hint.clamp(8, WRITE_CHUNK)],
            len: 0,
        }
    }

    /// Appends `bytes`.
    pub(crate) fn put(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            let free = self.buf.get_mut(self.len..).unwrap_or_default();
            let n = free.len().min(bytes.len());
            let (now, later) = bytes.split_at(n);
            free.get_mut(..n).unwrap_or_default().copy_from_slice(now);
            self.len += n;
            bytes = later;
            self.spill_if_full()?;
        }
        Ok(())
    }

    /// Appends `samples` as little-endian bytes, converted straight into
    /// the buffer.
    pub(crate) fn put_samples(&mut self, mut samples: &[f64]) -> io::Result<()> {
        while !samples.is_empty() {
            let free = self.buf.get_mut(self.len..).unwrap_or_default();
            let words = free.as_chunks_mut::<8>().0;
            if words.is_empty() {
                // Fewer than 8 bytes left: split one sample across buffers.
                let (head, rest) = samples.split_at(1);
                self.put(&head.first().copied().unwrap_or_default().to_le_bytes())?;
                samples = rest;
                continue;
            }
            let (now, later) = samples.split_at(words.len().min(samples.len()));
            for (word, s) in words.iter_mut().zip(now) {
                *word = s.to_le_bytes();
            }
            self.len += now.len() * 8;
            samples = later;
            self.spill_if_full()?;
        }
        Ok(())
    }

    fn spill_if_full(&mut self) -> io::Result<()> {
        if self.len == self.buf.len() {
            self.inner.write_all(&self.buf)?;
            self.len = 0;
        }
        Ok(())
    }

    /// Writes what is left in the buffer and flushes the inner writer.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.inner
            .write_all(self.buf.get(..self.len).unwrap_or_default())?;
        self.inner.flush()
    }
}

/// Reads an `IPMKTRC2` trace block written by [`write_block`]. A mutable
/// reference may be passed as the reader.
///
/// # Errors
///
/// Returns [`IoError::Format`] for a bad magic (including the legacy
/// `IPMKTRC1` — use [`read_block_any`] to accept both) or a truncated
/// payload.
pub fn read_block<R: Read>(device: &str, reader: R) -> Result<TraceBlock, IoError> {
    read_block_magics(device, reader, &[BLOCK_MAGIC])
}

/// Writes a trace block in the quantized + delta-encoded `IPMKTRC3` wire
/// format ([`crate::codec`]). A mutable reference may be passed as the
/// writer.
///
/// Rows on an exact ADC code grid are stored as bit-packed integer codes
/// (~4–8× smaller than raw f64); rows that do not reconstruct bit-exactly
/// fall back to verbatim f64 storage, so the encoding is always lossless.
/// The writer is a pure function of the block's sample bits: re-encoding a
/// decoded file reproduces it byte for byte.
///
/// Rows are encoded in batches on the environment's pool and written in
/// row order, so the bytes do not depend on the thread count; they reach
/// `writer` through the same 1 MiB buffer as [`write_block`]'s, and the
/// writer is flushed at the end.
///
/// Grid *detection* is heuristic; when the ADC the samples came through is
/// known, [`write_block_v3_with_domain`] compresses robustly for any code
/// distribution.
///
/// # Errors
///
/// Propagates I/O failures, including a failing `flush`.
pub fn write_block_v3<W: Write>(block: &TraceBlock, writer: W) -> Result<(), IoError> {
    write_v3_inner(block, writer, None)
}

/// [`write_block_v3`] with an explicit [`AdcDomain`] tried as the first
/// quantization candidate for every row — the robust path for pipelines
/// that know their scope front-end. Rows the domain does not reproduce
/// bit-exactly still fall back (detection, then raw), so the encoding
/// stays lossless even under a wrong domain; re-encoding is byte-stable
/// under the same domain.
///
/// # Errors
///
/// Propagates I/O failures, including a failing `flush`.
pub fn write_block_v3_with_domain<W: Write>(
    block: &TraceBlock,
    domain: &AdcDomain,
    writer: W,
) -> Result<(), IoError> {
    write_v3_inner(block, writer, Some(domain))
}

fn write_v3_inner<W: Write>(
    block: &TraceBlock,
    writer: W,
    domain: Option<&AdcDomain>,
) -> Result<(), IoError> {
    // The raw-row bound: one flag byte and `trace_len` f64s per row.
    let bound = HEADER_LEN + block.len() * (1 + block.trace_len() * 8);
    let mut w = ChunkWriter::new(writer, bound);
    w.put(&header(BLOCK_V3_MAGIC, block))?;
    codec::write_rows(&Pool::from_env(), block, &mut w, domain)?;
    w.finish()?;
    Ok(())
}

/// Reads an `IPMKTRC3` trace block written by [`write_block_v3`]. A
/// mutable reference may be passed as the reader.
///
/// # Errors
///
/// Returns [`IoError::Format`] for a bad magic (use [`read_block_any`] to
/// accept every version), hostile header, corrupt row or truncation.
pub fn read_block_v3<R: Read>(device: &str, reader: R) -> Result<TraceBlock, IoError> {
    read_block_magics(device, reader, &[BLOCK_V3_MAGIC])
}

/// Reads any binary version — `IPMKTRC1`, `IPMKTRC2` or `IPMKTRC3` — into
/// a contiguous [`TraceBlock`].
///
/// The v1/v2 payloads are byte-identical (v1's trace-by-trace layout *is*
/// row-major), so those campaign files load into the arena without any
/// per-trace allocation or re-ordering; v3 rows are decoded through the
/// bit-exact quantized codec ([`crate::codec`]).
///
/// # Errors
///
/// Returns [`IoError::Format`] for an unknown magic or truncated payload.
pub fn read_block_any<R: Read>(device: &str, reader: R) -> Result<TraceBlock, IoError> {
    read_block_magics(device, reader, &[BINARY_MAGIC, BLOCK_MAGIC, BLOCK_V3_MAGIC])
}

/// Validates an untrusted binary header (magic + dimensions): returns the
/// accepted magic and the `(count, trace_len)` pair, with the sample count
/// guaranteed representable in bytes.
///
/// Shared by the streaming readers here and the stored-file reader
/// ([`crate::mmap`]), so every entry point enforces the identical
/// overflow/shape guards.
pub(crate) fn validate_header(
    magic: &[u8; 8],
    count_word: u64,
    len_word: u64,
    accept: &[&[u8; 8]],
) -> Result<(usize, usize), IoError> {
    if !accept.contains(&magic) {
        return Err(IoError::Format(format!(
            "bad magic `{}`, expected `{}` — not an ipmark binary trace file",
            String::from_utf8_lossy(magic).escape_default(),
            accept
                .iter()
                .map(|m| String::from_utf8_lossy(*m).into_owned())
                .collect::<Vec<_>>()
                .join("` or `")
        )));
    }
    let count = usize::try_from(count_word)
        .map_err(|_| IoError::Format(format!("trace count {count_word} not addressable")))?;
    let len = usize::try_from(len_word)
        .map_err(|_| IoError::Format(format!("trace length {len_word} not addressable")))?;
    if count > 0 && len == 0 {
        return Err(IoError::Format("zero-length traces".to_owned()));
    }
    // The header is untrusted: reject sizes whose byte count cannot even
    // be represented, so no downstream size computation can overflow.
    count
        .checked_mul(len)
        .and_then(|s| s.checked_mul(8))
        .ok_or_else(|| {
            IoError::Format(format!("declared size {count} x {len} samples overflows"))
        })?;
    Ok((count, len))
}

/// Shared header + payload reader for every binary version: validates an
/// untrusted header, then streams the payload into one flat arena — raw
/// row-major f64s for v1/v2, decoded quantized rows for v3 ([`codec`]).
///
/// The v1/v2 payload is read in pieces of up to 1 MiB into one scratch
/// buffer, and each piece is converted onto the arena in one loop. A short
/// read names the first sample that did not arrive
/// (`truncated at trace t, sample s`).
///
/// Neither path lets a header commit memory its payload does not back.
/// The v1/v2 arena starts at no more than 2²⁰ samples and grows only as
/// payload bytes arrive. The v3 arena is reserved fallibly at its full
/// declared size (an unallocatable header is an [`IoError::Format`]) and
/// handed out as untouched zero pages, committed only as decoded rows are
/// written.
fn read_block_magics<R: Read>(
    device: &str,
    reader: R,
    accept: &[&[u8; 8]],
) -> Result<TraceBlock, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|_| IoError::Format("missing magic".to_owned()))?;
    // Check the magic before touching the dimension words so an
    // unrecognized file is reported as such, not as a truncated header.
    validate_header(&magic, 0, 0, accept)?;
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf)
        .map_err(|_| IoError::Format("missing trace count".to_owned()))?;
    let count_word = u64::from_le_bytes(u64buf);
    r.read_exact(&mut u64buf)
        .map_err(|_| IoError::Format("missing trace length".to_owned()))?;
    let len_word = u64::from_le_bytes(u64buf);
    let (count, len) = validate_header(&magic, count_word, len_word, accept)?;
    if &magic == BLOCK_V3_MAGIC {
        // Fallible reservation, zero pages committed row by row.
        return codec::read_rows(device, &mut r, count, len);
    }
    // `count * len` is representable: validate_header checked ×8. Bounded
    // pre-allocation: the arena grows towards `total` only as payload
    // bytes arrive, so a hostile header cannot force a giant up-front
    // allocation.
    let total = count * len;
    let mut data: Vec<f64> = Vec::with_capacity(total.min(1 << 20));
    let mut scratch = vec![0u8; (total * 8).min(WRITE_CHUNK)];
    while data.len() < total {
        let want = ((total - data.len()) * 8).min(scratch.len());
        let piece = scratch.get_mut(..want).unwrap_or_default();
        let arrived = read_full(&mut r, piece);
        let words = piece.get(..arrived).unwrap_or_default().as_chunks::<8>().0;
        data.extend(words.iter().map(|b| f64::from_le_bytes(*b)));
        if arrived < want {
            let (t, s) = (data.len() / len, data.len() % len);
            return Err(IoError::Format(format!(
                "truncated at trace {t}, sample {s}"
            )));
        }
    }
    if count == 0 {
        // An empty campaign file may declare any trace length (including
        // zero); `from_data` rejects zero-sample rows, so build the empty
        // block directly.
        return Ok(TraceBlock::new(device));
    }
    Ok(TraceBlock::from_data(device, len, data)?)
}

/// Reads into `buf` until it is full or the reader ends or fails, and
/// returns how many bytes arrived. Every failure but an interrupt ends the
/// read: the caller reports a short read as a truncation.
pub(crate) fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> usize {
    let mut got = 0;
    while let Some(rest) = buf.get_mut(got..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    got
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> TraceBlock {
        TraceBlock::from_data("dev", 3, vec![1.0, -2.5, 3.25, 0.0, 1e-9, 7.0]).unwrap()
    }

    /// An `IPMKTRC1` file: the v2 writer's bytes under the v1 magic (the
    /// payloads are byte-identical).
    fn v1_bytes(block: &TraceBlock) -> Vec<u8> {
        let mut buf = Vec::new();
        write_block(block, &mut buf).unwrap();
        buf[..8].copy_from_slice(BINARY_MAGIC);
        buf
    }

    #[test]
    fn csv_round_trip() {
        let block = sample_block();
        let mut buf = Vec::new();
        write_csv(&block, &mut buf).unwrap();
        let back = read_csv("dev", buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.trace_len(), block.trace_len());
        assert_eq!(back.samples(), block.samples());
    }

    #[test]
    fn csv_skips_blank_lines_and_reports_bad_numbers() {
        let text = "1.0,2.0\n\n3.0,4.0\n";
        let block = read_csv("d", text.as_bytes()).unwrap();
        assert_eq!(block.len(), 2);
        let err = read_csv("d", "1.0,zzz\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)));
    }

    #[test]
    fn csv_rejects_invalid_utf8_as_a_format_error() {
        // Found by the fuzz smoke: invalid UTF-8 used to surface as
        // `IoError::Io`, misclassifying a malformed file as a transport
        // failure.
        let err = read_csv("d", [0x31u8, 0x2c, 0xff, 0xfe, 0x0a].as_slice()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let err = read_csv("d", "1.0,2.0\n3.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Trace(_)));
    }

    #[test]
    fn v1_reads_exact() {
        let block = sample_block();
        let back = read_block_any("dev", v1_bytes(&block).as_slice()).unwrap();
        assert_eq!(back, block);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_block_any("d", b"NOTMAGIC".as_slice()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)));
    }

    #[test]
    fn v1_rejects_truncation() {
        let mut buf = v1_bytes(&sample_block());
        buf.truncate(buf.len() - 4);
        let err = read_block_any("d", buf.as_slice()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)));
    }

    #[test]
    fn v1_rejects_hostile_headers_without_allocating() {
        // A crafted header declaring 2^40 traces of 2^40 samples must fail
        // fast (truncation or overflow), not attempt a giant allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(BINARY_MAGIC);
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        let err = read_block_any("d", buf.as_slice()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
    }

    #[test]
    fn v1_empty_campaign_reads() {
        let back = read_block_any("empty", v1_bytes(&TraceBlock::new("empty")).as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn block_round_trip_exact_bits() {
        let block = sample_block();
        let mut buf = Vec::new();
        write_block(&block, &mut buf).unwrap();
        assert_eq!(&buf[..8], BLOCK_MAGIC);
        let back = read_block("dev", buf.as_slice()).unwrap();
        assert_eq!(back, block);
        let bits: Vec<u64> = back.samples().iter().map(|s| s.to_bits()).collect();
        let want: Vec<u64> = block.samples().iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn v1_and_v2_load_into_the_same_arena() {
        let block = sample_block();
        let mut v2 = Vec::new();
        write_block(&block, &mut v2).unwrap();
        let from_v1 = read_block_any("dev", v1_bytes(&block).as_slice()).unwrap();
        let from_v2 = read_block_any("dev", v2.as_slice()).unwrap();
        assert_eq!(from_v1, from_v2);
        assert_eq!(from_v1, block);
    }

    #[test]
    fn strict_block_reader_rejects_v1_magic() {
        let err = read_block("dev", v1_bytes(&sample_block()).as_slice()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
        assert!(matches!(
            read_block("d", b"NOTMAGIC".as_slice()).unwrap_err(),
            IoError::Format(_)
        ));
    }

    #[test]
    fn block_rejects_truncation_and_hostile_headers() {
        let block = sample_block();
        let mut buf = Vec::new();
        write_block(&block, &mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        let err = read_block("d", buf.as_slice()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
        // Truncated header.
        let err = read_block("d", &BLOCK_MAGIC[..]).unwrap_err();
        assert!(matches!(err, IoError::Format(_)));
        // 2^40 x 2^40 samples must fail fast without a giant allocation.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(BLOCK_MAGIC);
        hostile.extend_from_slice(&(1u64 << 40).to_le_bytes());
        hostile.extend_from_slice(&(1u64 << 40).to_le_bytes());
        let err = read_block("d", hostile.as_slice()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
        // Zero-length traces with a nonzero count are invalid.
        let mut zero_len = Vec::new();
        zero_len.extend_from_slice(BLOCK_MAGIC);
        zero_len.extend_from_slice(&2u64.to_le_bytes());
        zero_len.extend_from_slice(&0u64.to_le_bytes());
        assert!(read_block("d", zero_len.as_slice()).is_err());
    }

    #[test]
    fn block_empty_campaign_round_trips() {
        let empty = TraceBlock::new("empty");
        let mut buf = Vec::new();
        write_block(&empty, &mut buf).unwrap();
        let back = read_block("empty", buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn error_displays() {
        assert!(!IoError::Format("x".into()).to_string().is_empty());
        assert!(!IoError::Trace(TraceError::EmptySet).to_string().is_empty());
    }
}
