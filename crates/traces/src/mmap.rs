//! Positioned reads of stored `IPMKTRC1`/`IPMKTRC2` corpora, and the
//! crate's sample-arena allocator.
//!
//! `read_block_magics` streams a campaign file through a scratch buffer
//! into a fresh arena — a full copy of the payload. A §III verification
//! reads only about a tenth of a paper-scale corpus, one scattered 16 KiB
//! row at a time, so [`read_block_mapped`] copies nothing up front: it
//! checks the header and the file length and keeps the file open. The
//! v1/v2 payload is already the row-major little-endian f64 arena, so each
//! row is one contiguous byte range of the file.
//!
//! [`MappedBlock`] serves its rows only through [`TraceSource`]: each
//! requested row is a positioned read of the file
//! (`FileExt::read_exact_at`) into a fixed on-stack scratch. The k-average
//! fills of `correlation_process` and `Plan::execute` (`accumulate`,
//! `accumulate_indices`) add it into the caller's buffer from there;
//! [`ChunkedSource`](crate::streaming::ChunkedSource) (`append_rows`)
//! decodes it straight onto the end of the chunk's arena, bit for bit. A
//! positioned read takes no page fault, leaves nothing to unmap, and the
//! page-cache pages it reads do not count toward the process's resident
//! set. A file truncated under it gives [`TraceError::RowRead`].
//!
//! `ChunkedSource::next_chunk` copies every chunk into a fresh
//! [`TraceBlock`], one positioned read per row: reading several rows per
//! call through a larger heap scratch measured slower, because that
//! scratch no longer fits in L1. `IPMKTRC3` files (bit-packed, not
//! layout-identical) and non-Unix or big-endian targets fall back to an
//! owned decode behind the same type, so callers stay portable.
//!
//! The module also owns the crate's sample-arena allocator,
//! `zeroed_arena`: [`TraceBlock::zeros`] and the `IPMKTRC3` decoder take
//! their arenas from it. An arena of at least 32 MiB is always a private
//! anonymous mapping of its own, and on Linux it is advised onto
//! transparent huge pages before anything touches it, so its first touch
//! and its unmapping run in 2 MiB steps instead of 4 KiB ones.
//!
//! ## Safety boundary
//!
//! This is the workspace's single unsafe island (the crate is otherwise
//! `deny(unsafe_code)` with no allows). It makes one foreign call,
//! `madvise`, for arena advice. The advice is `MADV_HUGEPAGE` only, over a
//! range inside a live, zeroed allocation that the caller holds by `&mut`;
//! it changes how the kernel backs those pages, never their contents or
//! their validity. Reads of stored corpora do not pass through the island:
//! they are safe `std` positioned reads of the open file.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use crate::block::TraceBlock;
use crate::error::TraceError;
use crate::io::{self, IoError};
#[cfg(all(unix, target_endian = "little"))]
use crate::trace::check_rows;
use crate::trace::TraceSource;

/// Byte offset of the sample payload in the v1/v2 layout (magic + two
/// u64 dimension words).
const HEADER_BYTES: usize = 24;

#[cfg(all(target_os = "linux", target_endian = "little"))]
#[allow(unsafe_code)]
mod sys {
    //! A minimal raw `madvise(2)` binding — the build has no registry
    //! access, so no `libc`; this one prototype is the entire FFI surface,
    //! with `MADV_HUGEPAGE` taken from Linux's generic `mman-common.h`.

    use std::ffi::{c_int, c_void};

    const MADV_HUGEPAGE: c_int = 14;

    /// Transparent huge-page size on the Linux targets this builds for.
    const HUGE_PAGE: usize = 2 << 20;

    unsafe extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    /// Advises the kernel to back the 2 MiB-aligned interior of `arena`
    /// with transparent huge pages. Advice only: where THP is `always` or
    /// `never`, or the call fails, nothing changes.
    pub fn advise_huge_pages(arena: &mut [f64]) {
        let bytes = std::mem::size_of_val(arena);
        let base = arena.as_mut_ptr().cast::<u8>();
        let lead = base.align_offset(HUGE_PAGE);
        let len = bytes.saturating_sub(lead) / HUGE_PAGE * HUGE_PAGE;
        if len == 0 {
            return;
        }
        // SAFETY: `lead + len <= bytes`, so [base + lead, base + lead +
        // len) lies inside `arena`, a live allocation held by `&mut` for
        // the whole call, and the start is page-aligned. MADV_HUGEPAGE only
        // changes how the kernel backs those pages: it cannot change their
        // contents or unmap them, so no Rust-visible state changes. The
        // result is ignored because the advice is optional.
        let _ = unsafe { madvise(base.wrapping_add(lead).cast(), len, MADV_HUGEPAGE) };
    }
}

/// Arenas of at least this many bytes take the huge-page advice. glibc's
/// dynamic mmap threshold never rises above 32 MiB, so such an arena is
/// always a private mapping of its own: it arrives untouched, `free`
/// unmaps it, and the advice dies with it instead of landing on heap
/// memory that later small allocations reuse.
const HUGE_ARENA_MIN_BYTES: usize = 32 << 20;

/// A zeroed arena of `total` samples — the crate's one sample-arena
/// allocator. Arenas of at least [`HUGE_ARENA_MIN_BYTES`] are advised onto
/// transparent huge pages on Linux before anything touches them; the
/// contents are the same zeros either way.
pub(crate) fn zeroed_arena(total: usize) -> Vec<f64> {
    #[allow(unused_mut)] // only the Linux build advises the arena
    let mut data = vec![0.0f64; total];
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    if std::mem::size_of_val(data.as_slice()) >= HUGE_ARENA_MIN_BYTES {
        sys::advise_huge_pages(&mut data);
    }
    data
}

/// How a [`MappedBlock`] holds its samples.
#[derive(Debug)]
enum Backing {
    /// The samples stay in the file, which stays open for the block's
    /// lifetime; each row is read on demand.
    #[cfg(all(unix, target_endian = "little"))]
    File(File),
    /// Portable fallback (v3 files, non-Unix, big-endian): an owned block
    /// decoded through the streaming readers.
    Owned(TraceBlock),
}

/// A read-only trace campaign stored in a binary file, served row by row
/// through [`TraceSource`] without loading the payload (or, where
/// positioned reads do not apply, from an owned decode behind the same
/// API).
#[derive(Debug)]
pub struct MappedBlock {
    device: String,
    trace_len: usize,
    count: usize,
    backing: Backing,
}

impl MappedBlock {
    /// Number of traces (rows).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the campaign holds no traces.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Samples per trace (0 for an empty campaign).
    pub fn trace_len(&self) -> usize {
        self.trace_len
    }

    /// Device label (derived by the caller, as for the streaming readers).
    pub fn device(&self) -> &str {
        &self.device
    }

    /// The checks a positioned read makes before it adds row `index` into
    /// `acc`: [`TraceBlock`]'s, in its order.
    #[cfg(all(unix, target_endian = "little"))]
    fn check_row(&self, index: usize, acc: &[f64]) -> Result<(), TraceError> {
        if index >= self.count {
            return Err(TraceError::IndexOutOfRange {
                index,
                available: self.count,
            });
        }
        if acc.len() != self.trace_len {
            return Err(TraceError::LengthMismatch {
                expected: self.trace_len,
                provided: acc.len(),
            });
        }
        Ok(())
    }
}

impl TraceSource for MappedBlock {
    fn num_traces(&self) -> usize {
        self.count
    }

    fn trace_len(&self) -> usize {
        self.trace_len
    }

    fn accumulate(&self, index: usize, acc: &mut [f64]) -> Result<(), TraceError> {
        self.accumulate_indices(std::slice::from_ref(&index), acc)
    }

    /// Adds each row to `acc` in list order. A stored file's rows are read
    /// with positioned reads into an on-stack scratch. The checks come in
    /// [`TraceBlock`]'s order, index then length, so every error matches
    /// the per-index loop's; a failed read is [`TraceError::RowRead`]. A
    /// row longer than the scratch is read in pieces, so a read that fails
    /// partway through it leaves that row's earlier pieces added.
    fn accumulate_indices(&self, indices: &[usize], acc: &mut [f64]) -> Result<(), TraceError> {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::File(file) => {
                let mut scratch = [0u8; SCRATCH_BYTES];
                for &index in indices {
                    self.check_row(index, acc)?;
                    let offset = HEADER_BYTES + index * self.trace_len * 8;
                    read_row_into(file, offset as u64, acc, &mut scratch).map_err(|e| {
                        TraceError::RowRead {
                            index,
                            kind: e.kind(),
                        }
                    })?;
                }
                Ok(())
            }
            Backing::Owned(block) => block.accumulate_indices(indices, acc),
        }
    }

    /// Appends the rows bit for bit. After one range check, a stored
    /// file's rows are read one positioned read each into the on-stack
    /// scratch and decoded from there into `out`; a failed read is
    /// [`TraceError::RowRead`] for its row, and `out` is cut back to its
    /// length on entry.
    fn append_rows(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), TraceError> {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::File(file) => {
                check_rows(start, count, self.count)?;
                let before = out.len();
                // Representable: the file holds `count × trace_len` samples.
                out.reserve(count * self.trace_len);
                let mut scratch = [0u8; SCRATCH_BYTES];
                for index in start..start + count {
                    let offset = HEADER_BYTES + index * self.trace_len * 8;
                    if let Err(e) =
                        append_row(file, offset as u64, self.trace_len, out, &mut scratch)
                    {
                        out.truncate(before);
                        return Err(TraceError::RowRead {
                            index,
                            kind: e.kind(),
                        });
                    }
                }
                Ok(())
            }
            Backing::Owned(block) => block.append_rows(start, count, out),
        }
    }
}

/// Bytes of the on-stack scratch a positioned read fills: one row at the
/// paper's 2 048-sample trace length. Longer rows are read in pieces.
#[cfg(all(unix, target_endian = "little"))]
const SCRATCH_BYTES: usize = 16 << 10;

/// Reads the `acc.len()` little-endian samples at byte `offset` of `file`
/// and adds them into `acc`, one scratch-sized piece at a time.
#[cfg(all(unix, target_endian = "little"))]
fn read_row_into(
    file: &File,
    mut offset: u64,
    acc: &mut [f64],
    scratch: &mut [u8; SCRATCH_BYTES],
) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    for piece in acc.chunks_mut(SCRATCH_BYTES / 8) {
        let (bytes, _) = scratch.split_at_mut(piece.len() * 8);
        file.read_exact_at(bytes, offset)?;
        crate::kernels::accumulate_le_bytes(piece, bytes);
        offset += bytes.len() as u64;
    }
    Ok(())
}

/// Reads the `samples` little-endian samples at byte `offset` of `file`
/// and appends them to `out`, one scratch-sized piece at a time.
#[cfg(all(unix, target_endian = "little"))]
fn append_row(
    file: &File,
    mut offset: u64,
    samples: usize,
    out: &mut Vec<f64>,
    scratch: &mut [u8; SCRATCH_BYTES],
) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    let mut left = samples;
    while left > 0 {
        let piece = left.min(SCRATCH_BYTES / 8);
        let bytes = &mut scratch[..piece * 8];
        file.read_exact_at(bytes, offset)?;
        crate::kernels::extend_le_bytes(out, bytes);
        offset += bytes.len() as u64;
        left -= piece;
    }
    Ok(())
}

/// Opens a binary campaign file for row-by-row reading.
///
/// `IPMKTRC1`/`IPMKTRC2` files on little-endian Unix targets stay on disk
/// and serve each row with a positioned read (the payload *is* the arena);
/// `IPMKTRC3` files and other targets decode through the streaming
/// readers into an owned block behind the same [`MappedBlock`] API.
///
/// The header is validated with the same overflow/shape guards as the
/// streaming readers, and the file length against the declared payload,
/// before anything is read or allocated; like the streaming readers,
/// trailing bytes beyond the declared payload are tolerated.
///
/// # Errors
///
/// Returns [`IoError::Io`] for filesystem failures and
/// [`IoError::Format`] for bad magics, hostile headers or a file shorter
/// than its declared payload.
pub fn read_block_mapped(device: &str, path: &Path) -> Result<MappedBlock, IoError> {
    let mut file = File::open(path)?;
    let mut header = [0u8; HEADER_BYTES];
    file.read_exact(&mut header)
        .map_err(|_| IoError::Format("missing header".to_owned()))?;
    let mut magic = [0u8; 8];
    magic.copy_from_slice(&header[0..8]);
    let mut word = [0u8; 8];
    word.copy_from_slice(&header[8..16]);
    let count_word = u64::from_le_bytes(word);
    word.copy_from_slice(&header[16..24]);
    let len_word = u64::from_le_bytes(word);
    let (count, trace_len) = io::validate_header(
        &magic,
        count_word,
        len_word,
        &[io::BINARY_MAGIC, io::BLOCK_MAGIC, io::BLOCK_V3_MAGIC],
    )?;

    if &magic == io::BLOCK_V3_MAGIC {
        // Bit-packed payload: rows are not byte ranges of the file, so
        // decode into an owned block behind the same API.
        return owned_fallback(device, path);
    }

    let payload_bytes = count * trace_len * 8; // representable: validated above
    let file_len = file.metadata()?.len();
    let need = (HEADER_BYTES as u64).saturating_add(payload_bytes as u64);
    if file_len < need {
        return Err(IoError::Format(format!(
            "file holds {file_len} bytes but the header declares {need}"
        )));
    }

    #[cfg(all(unix, target_endian = "little"))]
    {
        Ok(MappedBlock {
            device: device.to_owned(),
            trace_len: if count == 0 { 0 } else { trace_len },
            count,
            backing: Backing::File(file),
        })
    }
    #[cfg(not(all(unix, target_endian = "little")))]
    {
        owned_fallback(device, path)
    }
}

/// Streams the whole file through [`io::read_block_any`] into an owned
/// [`MappedBlock`] — the portable / v3 path.
fn owned_fallback(device: &str, path: &Path) -> Result<MappedBlock, IoError> {
    let block = io::read_block_any(device, File::open(path)?)?;
    Ok(MappedBlock {
        device: device.to_owned(),
        trace_len: block.trace_len(),
        count: block.len(),
        backing: Backing::Owned(block),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{write_block, write_block_v3, BINARY_MAGIC};
    use crate::streaming::ChunkedSource;
    use crate::trace::{assert_append_rows_contract, SPECIAL_ROWS};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ipmark-mmap-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn sample_block() -> TraceBlock {
        TraceBlock::from_data(
            "dev",
            2,
            vec![1.0, -2.5, 3.25, 0.0, 1e-9, 7.0, -0.0, f64::MAX],
        )
        .unwrap()
    }

    fn bits(samples: &[f64]) -> Vec<u64> {
        samples.iter().map(|s| s.to_bits()).collect()
    }

    /// Every row of `source`, each read through `accumulate_indices` into a
    /// buffer of −0.0: the IEEE additive identity, so the sum is the row,
    /// bit for bit, for every sample but a NaN.
    fn row_bits(source: &MappedBlock) -> Vec<u64> {
        let mut out = Vec::new();
        for index in 0..source.num_traces() {
            let mut acc = vec![-0.0; source.trace_len()];
            source.accumulate_indices(&[index], &mut acc).unwrap();
            out.extend(bits(&acc));
        }
        out
    }

    /// Whether `mapped` holds an owned decode rather than the open file.
    fn is_owned(mapped: &MappedBlock) -> bool {
        matches!(mapped.backing, Backing::Owned(_))
    }

    /// Writes `bytes` to `name` and opens it with both readers.
    fn open_both(name: &str, bytes: &[u8]) -> (MappedBlock, TraceBlock) {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let mapped = read_block_mapped("dev", &path).unwrap();
        (mapped, io::read_block_any("dev", bytes).unwrap())
    }

    #[test]
    fn mapped_v2_matches_streamed_read_bit_exactly() {
        let block = sample_block();
        let mut buf = Vec::new();
        write_block(&block, &mut buf).unwrap();
        let (mapped, streamed) = open_both("map_v2.trc2", &buf);
        assert_eq!(mapped.len(), block.len());
        assert_eq!(mapped.trace_len(), block.trace_len());
        assert_eq!(mapped.device(), "dev");
        assert!(!mapped.is_empty());
        assert_eq!(
            is_owned(&mapped),
            !cfg!(all(unix, target_endian = "little"))
        );
        assert_eq!(row_bits(&mapped), bits(streamed.samples()));
        assert_eq!(bits(streamed.samples()), bits(block.samples()));
        assert!(matches!(
            mapped.accumulate(4, &mut [0.0; 2]),
            Err(TraceError::IndexOutOfRange {
                index: 4,
                available: 4
            })
        ));
    }

    #[test]
    fn mapped_reader_accepts_v1_and_decodes_v3_owned() {
        let block = sample_block();
        // An IPMKTRC1 file is the v2 payload under the v1 magic.
        let mut buf = Vec::new();
        write_block(&block, &mut buf).unwrap();
        buf[..8].copy_from_slice(BINARY_MAGIC);
        let (mapped, streamed) = open_both("map_v1.trc1", &buf);
        assert_eq!(
            is_owned(&mapped),
            !cfg!(all(unix, target_endian = "little"))
        );
        assert_eq!(row_bits(&mapped), bits(streamed.samples()));
        assert_eq!(bits(streamed.samples()), bits(block.samples()));

        let mut buf = Vec::new();
        write_block_v3(&block, &mut buf).unwrap();
        let (mapped, streamed) = open_both("map_v3.trc3", &buf);
        assert!(is_owned(&mapped), "v3 rows are bit-packed");
        assert_eq!(row_bits(&mapped), bits(streamed.samples()));
        assert_eq!(bits(streamed.samples()), bits(block.samples()));
    }

    #[test]
    fn mapped_source_seams_work() {
        let block = sample_block();
        let path = tmp("map_seams.trc2");
        let mut buf = Vec::new();
        write_block(&block, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let mapped = read_block_mapped("dev", &path).unwrap();

        // TraceSource: accumulate matches the owned block.
        let mut acc = vec![0.0; 2];
        let mut want = vec![0.0; 2];
        mapped.accumulate(2, &mut acc).unwrap();
        block.accumulate(2, &mut want).unwrap();
        assert_eq!(acc, want);
        assert_eq!(mapped.num_traces(), 4);
        assert_eq!(TraceSource::trace_len(&mapped), 2);
        let mut bad = vec![0.0; 3];
        assert!(mapped.accumulate(0, &mut bad).is_err());
        assert!(mapped.accumulate(9, &mut acc).is_err());
        let indices = [3, 0, 3, 1];
        mapped.accumulate_indices(&indices, &mut acc).unwrap();
        block.accumulate_indices(&indices, &mut want).unwrap();
        assert_eq!(acc, want);

        // ChunkedSource streams the file's rows bit for bit.
        let mut chunks = ChunkedSource::new(&mapped, 3).unwrap();
        let mut seen = Vec::new();
        while let Some(chunk) = chunks.next_chunk().unwrap() {
            seen.extend(bits(chunk.samples()));
        }
        assert_eq!(seen, bits(block.samples()));
    }

    #[test]
    fn append_rows_copies_stored_rows_bit_for_bit() {
        let block = TraceBlock::from_data("dev", 4, SPECIAL_ROWS.to_vec()).unwrap();
        let mut v2 = Vec::new();
        write_block(&block, &mut v2).unwrap();
        let mut v1 = v2.clone();
        v1[..8].copy_from_slice(BINARY_MAGIC);
        let mut v3 = Vec::new();
        write_block_v3(&block, &mut v3).unwrap();
        let files = [
            ("append_v1.trc1", v1),
            ("append_v2.trc2", v2),
            ("append_v3.trc3", v3),
        ];
        for (name, bytes) in files {
            let (mapped, streamed) = open_both(name, &bytes);
            assert_eq!(bits(streamed.samples()), bits(&SPECIAL_ROWS), "{name}");
            assert_eq!(
                is_owned(&mapped),
                name.ends_with("trc3") || !cfg!(all(unix, target_endian = "little"))
            );
            assert_append_rows_contract(&mapped, &SPECIAL_ROWS);
        }
    }

    #[test]
    fn reads_from_a_file_truncated_after_open_fail_as_typed_errors() {
        if !cfg!(all(unix, target_endian = "little")) {
            return; // the owned fallback holds its samples in memory
        }
        let block = sample_block();
        let path = tmp("map_truncated_after_open.trc2");
        let mut buf = Vec::new();
        write_block(&block, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let mapped = read_block_mapped("dev", &path).unwrap();
        // Rows 0 and 1 stay whole, row 2 keeps one of its two samples and
        // row 3 is gone.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len((HEADER_BYTES + 5 * 8) as u64).unwrap();

        let mut acc = vec![0.0; 2];
        mapped.accumulate(1, &mut acc).unwrap();
        assert_eq!(acc, block.row(1).unwrap().samples());
        for index in [2, 3] {
            let mut acc = vec![0.0; 2];
            match mapped.accumulate(index, &mut acc) {
                Err(TraceError::RowRead { index: i, kind }) => {
                    assert_eq!((i, kind), (index, std::io::ErrorKind::UnexpectedEof));
                }
                other => panic!("row {index}: expected a read error, got {other:?}"),
            }
            assert_eq!(bits(&acc), bits(&[0.0, 0.0]), "row {index} added nothing");
        }

        // Rows before the failing index stay added, as an owned block
        // leaves them before an out-of-range index.
        let mut got = vec![0.0; 2];
        match mapped.accumulate_indices(&[1, 0, 1, 3, 0], &mut got) {
            Err(TraceError::RowRead { index: 3, .. }) => {}
            other => panic!("expected a read error for row 3, got {other:?}"),
        }
        let mut want = vec![0.0; 2];
        assert!(matches!(
            block.accumulate_indices(&[1, 0, 1, 9, 0], &mut want),
            Err(TraceError::IndexOutOfRange { index: 9, .. })
        ));
        assert_eq!(bits(&got), bits(&want));
        // Index and length checks still come before any read.
        assert!(matches!(
            mapped.accumulate_indices(&[9, 3], &mut got),
            Err(TraceError::IndexOutOfRange { index: 9, .. })
        ));
        assert!(matches!(
            mapped.accumulate_indices(&[3], &mut [0.0; 3]),
            Err(TraceError::LengthMismatch { .. })
        ));

        // A range append fails at the first lost row and keeps `out` as it
        // was; its range check still comes before any read.
        let mut out = vec![-0.0];
        for (start, count) in [(0, 4), (2, 1), (3, 1)] {
            match mapped.append_rows(start, count, &mut out) {
                Err(TraceError::RowRead { index, kind }) => {
                    assert_eq!(
                        (index, kind),
                        (start.max(2), std::io::ErrorKind::UnexpectedEof)
                    );
                }
                other => panic!("rows {start}+{count}: expected a read error, got {other:?}"),
            }
            assert_eq!(bits(&out), bits(&[-0.0]), "rows {start}+{count}");
        }
        assert!(matches!(
            mapped.append_rows(1, 9, &mut out),
            Err(TraceError::IndexOutOfRange { index: 4, .. })
        ));
        mapped.append_rows(0, 2, &mut out).unwrap();
        assert_eq!(bits(&out[1..]), bits(&block.samples()[..4]));

        // A chunk that reaches a lost row fails and is not consumed: the
        // stream stays at the chunk's first row, however often it retries.
        let mut chunks = ChunkedSource::new(&mapped, 2).unwrap();
        let first = chunks
            .next_chunk()
            .unwrap()
            .expect("rows 0 and 1 are whole");
        assert_eq!(bits(first.samples()), bits(&block.samples()[..4]));
        for _ in 0..2 {
            match chunks.next_chunk() {
                Err(TraceError::RowRead { index: 2, kind }) => {
                    assert_eq!(kind, std::io::ErrorKind::UnexpectedEof);
                }
                other => panic!("expected a read error for row 2, got {other:?}"),
            }
            assert_eq!(chunks.position(), 2);
        }
    }

    #[test]
    fn hostile_and_truncated_files_fail_as_format_errors() {
        // Declared payload larger than the file.
        let path = tmp("map_short.trc2");
        let mut buf = Vec::new();
        buf.extend_from_slice(io::BLOCK_MAGIC);
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]); // 2 of 64 payload bytes
        std::fs::write(&path, &buf).unwrap();
        let err = read_block_mapped("d", &path).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");

        // A usize::MAX-adjacent dimension product is refused before the
        // file length is compared with it.
        let path = tmp("map_overflow.trc2");
        let mut buf = Vec::new();
        buf.extend_from_slice(io::BLOCK_MAGIC);
        buf.extend_from_slice(&(u64::MAX / 2).to_le_bytes());
        buf.extend_from_slice(&3u64.to_le_bytes());
        std::fs::write(&path, &buf).unwrap();
        let err = read_block_mapped("d", &path).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");

        // Bad magic and truncated header.
        let path = tmp("map_bad.trc2");
        std::fs::write(&path, b"NOTMAGIC\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0").unwrap();
        assert!(matches!(
            read_block_mapped("d", &path).unwrap_err(),
            IoError::Format(_)
        ));
        let path = tmp("map_tiny.trc2");
        std::fs::write(&path, b"IPMK").unwrap();
        assert!(matches!(
            read_block_mapped("d", &path).unwrap_err(),
            IoError::Format(_)
        ));

        // A missing file is a genuine transport error, not Format.
        assert!(matches!(
            read_block_mapped("d", &tmp("does_not_exist.trc2")).unwrap_err(),
            IoError::Io(_)
        ));
    }

    /// Sample counts on both sides of the 2 MiB huge-page alignment and of
    /// the 32 MiB advice floor.
    const ARENA_EDGES: [usize; 8] = [
        0,
        1,
        (2 << 20) / 8 - 1,
        (2 << 20) / 8,
        (2 << 20) / 8 + 1,
        HUGE_ARENA_MIN_BYTES / 8 - 1,
        HUGE_ARENA_MIN_BYTES / 8,
        HUGE_ARENA_MIN_BYTES / 8 + 1,
    ];

    fn all_zero_bits(samples: &[f64]) -> bool {
        samples.iter().all(|s| s.to_bits() == 0)
    }

    #[test]
    fn arenas_at_the_alignment_and_floor_edges_come_back_zeroed() {
        for total in ARENA_EDGES {
            let arena = zeroed_arena(total);
            assert_eq!(arena.len(), total);
            assert!(all_zero_bits(&arena), "zeroed_arena({total})");

            let block = TraceBlock::zeros("z", total, 1).unwrap();
            assert_eq!(block.samples().len(), total);
            assert!(
                all_zero_bits(block.samples()),
                "TraceBlock::zeros({total}, 1)"
            );

            // The v3 decoder takes its arena from the same helper; shape the
            // block as a few long rows so the file stays small.
            let trace_len = (1..=4096).rev().find(|l| total % l == 0).unwrap();
            let block = TraceBlock::zeros("z", total / trace_len, trace_len).unwrap();
            let mut buf = Vec::new();
            write_block_v3(&block, &mut buf).unwrap();
            let decoded = io::read_block_any("z", buf.as_slice()).unwrap();
            assert_eq!(decoded.samples().len(), total);
            assert!(all_zero_bits(decoded.samples()), "v3 decode of {total}");
        }
    }

    #[test]
    fn truncated_v3_files_with_giant_counts_keep_their_format_errors() {
        // Two whole rows under a header that declares an arena twice the
        // advice floor: the error names the first missing row.
        let block = TraceBlock::from_data("g", 2048, vec![0.5; 2 * 2048]).unwrap();
        let mut buf = Vec::new();
        write_block_v3(&block, &mut buf).unwrap();
        let count = (2 * HUGE_ARENA_MIN_BYTES / (2048 * 8)) as u64;
        buf[8..16].copy_from_slice(&count.to_le_bytes());
        match io::read_block_any("g", buf.as_slice()) {
            Err(IoError::Format(msg)) => assert_eq!(msg, "truncated at trace 2: missing row flag"),
            other => panic!("expected a format error, got {other:?}"),
        }

        // 2^40 x 2^10 samples: beyond any address space, refused before
        // the arena is requested.
        buf[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        buf[16..24].copy_from_slice(&(1u64 << 10).to_le_bytes());
        match io::read_block_any("g", buf.as_slice()) {
            Err(IoError::Format(msg)) => assert!(
                msg.starts_with("declared size 1099511627776 x 1024 samples cannot be allocated"),
                "{msg}"
            ),
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn arenas_above_the_floor_are_huge_page_eligible() {
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        match &mode {
            Ok(mode) if !mode.contains("[never]") => {}
            _ => {
                eprintln!("skipped: transparent huge pages are disabled or absent ({mode:?})");
                return;
            }
        }
        let block = TraceBlock::zeros("thp", 2 * HUGE_ARENA_MIN_BYTES / (1024 * 8), 1024).unwrap();
        // The advice covers the arena's 2 MiB-aligned interior, which the
        // kernel splits into a mapping of its own: probe its middle.
        let samples = block.samples();
        let probe = samples.as_ptr() as usize + std::mem::size_of_val(samples) / 2;
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let mut holds_probe = false;
        for line in smaps.lines() {
            let range = line.split_once(' ').map_or(line, |(head, _)| head);
            if let Some((lo, hi)) = range.split_once('-') {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    holds_probe = (lo..hi).contains(&probe);
                    continue;
                }
            }
            if holds_probe && line.starts_with("THPeligible:") {
                assert_eq!(line.split_whitespace().nth(1), Some("1"), "{line}");
                return;
            }
        }
        panic!("no THPeligible line for the mapping at {probe:#x}");
    }

    #[test]
    fn empty_campaign_opens_as_empty() {
        let path = tmp("map_empty.trc2");
        let mut buf = Vec::new();
        write_block(&TraceBlock::new("empty"), &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let mapped = read_block_mapped("empty", &path).unwrap();
        assert!(mapped.is_empty());
        assert_eq!(mapped.trace_len(), 0);
        assert!(row_bits(&mapped).is_empty());
        assert!(matches!(
            mapped.accumulate(0, &mut []),
            Err(TraceError::IndexOutOfRange {
                index: 0,
                available: 0
            })
        ));
        let mut chunks = ChunkedSource::new(&mapped, 1).unwrap();
        assert!(chunks.next_chunk().unwrap().is_none());
    }
}
