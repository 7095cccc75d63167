//! Zero-copy memory-mapped reads for multi-GB binary trace corpora.
//!
//! `read_block_magics` streams a campaign file through a scratch buffer
//! into a fresh arena — a full copy of the payload. For campaign-scale
//! reruns over multi-GB `IPMKTRC1`/`IPMKTRC2` corpora that copy dominates
//! start-up time and doubles peak memory. [`read_block_mapped`] instead
//! maps the file and hands out the payload *in place*: the v1/v2 payload
//! is already the row-major little-endian f64 arena, and the page cache
//! becomes the storage.
//!
//! [`MappedBlock`] implements [`TraceSource`] and [`TraceChunk`], and the
//! two kinds of API read the file in different ways:
//!
//! * The borrowed-slice APIs ([`MappedBlock::samples`], [`MappedBlock::row`],
//!   [`MappedBlock::rows`], [`TraceChunk::chunk_row`] and the
//!   [`MappedBlock::to_block`] copy) serve the mapping in place.
//! * The [`TraceSource`] reads (`accumulate`, `accumulate_indices`) are
//!   positioned reads of the file (`FileExt::read_exact_at`) into a fixed
//!   on-stack scratch, added into the caller's buffer from there. The
//!   k-average fills of `correlation_process` and `Plan::execute`, and
//!   [`ChunkedSource`](crate::streaming::ChunkedSource), read this way.
//!
//! A §III verification reads about a tenth of a paper-scale corpus, one
//! scattered 16 KiB row at a time. Through the mapping, each such row cost
//! about one page fault, and dropping the mapping then had to clear every
//! page-table entry those faults created: on `verify-mapped` the two took
//! about half of each verification. A positioned read takes no fault and
//! leaves nothing to unmap, and the page-cache pages it reads do not count
//! toward the process's resident set. [`MappedBlock`] keeps its `File` open
//! for its lifetime to serve these reads.
//!
//! `ChunkedSource::next_chunk` still copies every chunk into a fresh
//! [`TraceBlock`]; a zero-copy chunk view measured only about 1.2× on a
//! streaming session, because reading the rows, not the copy, dominates.
//! `IPMKTRC3` files (bit-packed, not layout-identical) and non-Unix or
//! big-endian targets transparently fall back to an owned decode behind
//! the same type, so callers stay portable.
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
//! `deny(unsafe_code)` with no allows). It makes three foreign calls:
//! `mmap` and `munmap` for file mappings, and `madvise` for arena advice.
//! The advice is `MADV_HUGEPAGE` only, over a range inside a live, zeroed
//! allocation that the caller holds by `&mut`; it changes how the kernel
//! backs those pages, never their contents or their validity. The
//! file-mapping invariants, checked before the pointer is ever formed:
//!
//! * the mapping is `PROT_READ`/`MAP_PRIVATE` over a regular file whose
//!   length was just validated to cover `24 + count·trace_len·8` bytes
//!   (dimension arithmetic goes through the shared overflow-checked
//!   [`validate_header`](crate::io) guard);
//! * the payload starts at byte 24 of a page-aligned base, so the `f64`
//!   view is 8-byte aligned;
//! * every byte pattern is a valid `f64`, and the target is little-endian
//!   (compile-time gate), so reinterpretation cannot produce invalid
//!   values;
//! * the mapping is unmapped exactly once, on drop.
//!
//! The one hazard that cannot be checked up front is another process
//! truncating the file while a borrowed view reads it (`SIGBUS`) — the
//! standard mmap caveat; corpora under verification are treated as
//! immutable inputs. The [`TraceSource`] reads do not pass through the
//! island: they are safe `std` positioned reads of the open file, so a
//! file truncated under them gives [`TraceError::RowRead`] instead.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use crate::block::{TraceBlock, TraceChunk, TraceView};
use crate::error::TraceError;
use crate::io::{self, IoError};
use crate::kernels;
use crate::trace::TraceSource;

/// Byte offset of the sample payload in the v1/v2 layout (magic + two
/// u64 dimension words). A multiple of 8, so the mapped payload view is
/// f64-aligned on any page-aligned base.
const HEADER_BYTES: usize = 24;

#[cfg(all(unix, target_endian = "little"))]
#[allow(unsafe_code)]
mod sys {
    //! Minimal raw `mmap(2)`/`madvise(2)` bindings — the build has no
    //! registry access, so no `libc`/`memmap2`; these three prototypes are
    //! the entire FFI surface, with the constants taken from the Linux/BSD
    //! ABI (`MADV_HUGEPAGE` from Linux's generic `mman-common.h`).

    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    #[cfg(target_os = "linux")]
    const MADV_HUGEPAGE: c_int = 14;

    /// Transparent huge-page size on the Linux targets this builds for.
    #[cfg(target_os = "linux")]
    const HUGE_PAGE: usize = 2 << 20;

    unsafe extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        #[cfg(target_os = "linux")]
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    /// Advises the kernel to back the 2 MiB-aligned interior of `arena`
    /// with transparent huge pages. Advice only: where THP is `always` or
    /// `never`, or the call fails, nothing changes.
    #[cfg(target_os = "linux")]
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

    /// An owned read-only mapping; unmapped on drop.
    #[derive(Debug)]
    pub struct Map {
        base: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is immutable (PROT_READ, MAP_PRIVATE) for its
    // whole lifetime and carries no interior mutability, so shared access
    // from any thread is sound — the same reasoning that makes `&[u8]`
    // Send + Sync.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        /// Maps `len` readable bytes of an open file. `len` must be
        /// non-zero (zero-length mappings are an `EINVAL`) and no larger
        /// than the file, which the caller has just measured.
        pub fn new(file: &std::fs::File, len: usize) -> std::io::Result<Self> {
            use std::os::unix::io::AsRawFd;
            // SAFETY: fd is a valid open descriptor borrowed for the
            // duration of the call; a NULL addr lets the kernel choose the
            // placement; the prot/flags request a private read-only view,
            // which cannot alias any Rust-visible mutable state.
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if std::ptr::eq(base, usize::MAX as *mut c_void) {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Self {
                base: base.cast_const().cast(),
                len,
            })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: base/len describe a live PROT_READ mapping owned by
            // self; the borrow cannot outlive the mapping (unmapped only
            // in Drop, after every borrow ends).
            unsafe { std::slice::from_raw_parts(self.base, self.len) }
        }

        /// The payload reinterpreted as `count` little-endian f64s
        /// starting at `offset` (which the caller keeps 8-aligned).
        pub fn samples(&self, offset: usize, count: usize) -> &[f64] {
            debug_assert!(offset.is_multiple_of(8), "payload must stay f64-aligned");
            debug_assert!(offset + count * 8 <= self.len, "payload bounds");
            // SAFETY: the region [offset, offset + count*8) is in bounds
            // (validated against the measured file length before
            // construction), 8-aligned (page-aligned base + offset 24 ≡ 0
            // mod 8), lives as long as self, and every bit pattern is a
            // valid f64 whose in-memory layout on this little-endian
            // target equals the file's LE encoding.
            unsafe { std::slice::from_raw_parts(self.base.add(offset).cast::<f64>(), count) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: base/len came from a successful mmap and are
            // unmapped exactly once. munmap can only fail for invalid
            // arguments, which the invariant rules out; the result is
            // ignored because drop has no error channel.
            let _ = unsafe { munmap(self.base.cast_mut().cast(), self.len) };
        }
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
    /// Zero-copy: the samples live in the page cache. The borrowed views
    /// read them through `map`; the [`TraceSource`] rows are positioned
    /// reads of `file`, which stays open for the block's lifetime.
    #[cfg(all(unix, target_endian = "little"))]
    Mapped { map: sys::Map, file: File },
    /// Portable fallback (v3 files, non-Unix, big-endian): an owned arena
    /// decoded through the streaming readers.
    Owned(Vec<f64>),
}

/// A read-only trace campaign backed by a memory-mapped file (or an owned
/// arena where mapping is unavailable — same API either way).
///
/// Rows are exposed exactly like [`TraceBlock`] rows. The borrowed views
/// read the mapping in place, and only [`MappedBlock::to_block`] copies the
/// whole payload; the [`TraceSource`] reads copy just the rows they are
/// asked for, straight from the file.
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

    /// Whether the borrowed views are served zero-copy from a live mapping
    /// and the [`TraceSource`] reads go to the file (false for the owned
    /// decode fallback).
    pub fn is_zero_copy(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped { .. } => true,
            Backing::Owned(_) => false,
        }
    }

    /// The whole row-major arena: `len() * trace_len()` samples.
    pub fn samples(&self) -> &[f64] {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped { map, .. } => map.samples(HEADER_BYTES, self.count * self.trace_len),
            Backing::Owned(data) => data,
        }
    }

    /// Borrows row `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::IndexOutOfRange`] when `index >= len()`.
    pub fn row(&self, index: usize) -> Result<TraceView<'_>, TraceError> {
        if index >= self.count {
            return Err(TraceError::IndexOutOfRange {
                index,
                available: self.count,
            });
        }
        let start = index * self.trace_len;
        Ok(TraceView::from_samples(
            &self.samples()[start..start + self.trace_len],
        ))
    }

    /// Iterates over the rows as borrowed views.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = TraceView<'_>> {
        self.samples()
            .chunks_exact(self.trace_len.max(1))
            .map(TraceView::from_samples)
    }

    /// The checks a [`TraceSource`] read makes before it adds row `index`
    /// into `acc`: [`TraceBlock`]'s, in its order.
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

    /// Materializes an owned [`TraceBlock`] (one full copy of the
    /// payload) — the bridge to APIs that need ownership.
    pub fn to_block(&self) -> TraceBlock {
        let mut block = TraceBlock::new(self.device.clone());
        if self.count > 0 {
            // A mapped campaign always satisfies the block invariants
            // (validated dimensions, len > 0), so this cannot fail.
            if let Ok(b) =
                TraceBlock::from_data(self.device.clone(), self.trace_len, self.samples().to_vec())
            {
                block = b;
            }
        }
        block
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

    /// Adds each row to `acc` in list order. A mapped file's rows are read
    /// with positioned reads into an on-stack scratch, never through the
    /// mapping, so the fill takes no page faults and leaves no page-table
    /// entries to clear when the block is dropped. The checks come in
    /// [`TraceBlock`]'s order, index then length, so every error matches
    /// the per-index loop's; a failed read is [`TraceError::RowRead`]. A
    /// row longer than the scratch is read in pieces, so a read that fails
    /// partway through it leaves that row's earlier pieces added.
    fn accumulate_indices(&self, indices: &[usize], acc: &mut [f64]) -> Result<(), TraceError> {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped { file, .. } => {
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
            }
            Backing::Owned(_) => {
                for &index in indices {
                    self.check_row(index, acc)?;
                    kernels::accumulate(acc, self.row(index)?.samples());
                }
            }
        }
        Ok(())
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
        kernels::accumulate_le_bytes(piece, bytes);
        offset += bytes.len() as u64;
    }
    Ok(())
}

impl TraceChunk for MappedBlock {
    fn chunk_len(&self) -> usize {
        self.count
    }

    fn chunk_row(&self, index: usize) -> Option<&[f64]> {
        if index >= self.count {
            return None;
        }
        self.samples()
            .get(index * self.trace_len..(index + 1) * self.trace_len)
    }
}

/// Opens a binary campaign file for zero-copy reading.
///
/// `IPMKTRC1`/`IPMKTRC2` files on little-endian Unix targets are
/// memory-mapped and served in place (the payload *is* the arena);
/// `IPMKTRC3` files and other targets decode through the streaming
/// readers into an owned arena behind the same [`MappedBlock`] API.
///
/// The header is validated with the same overflow/shape guards as the
/// streaming readers before any mapping or allocation is attempted; like
/// them, trailing bytes beyond the declared payload are tolerated.
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
        // Bit-packed payload: not layout-identical, so no zero-copy view
        // exists; decode into an owned arena behind the same API.
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
        if count == 0 {
            // Zero-length mappings are invalid; an empty campaign needs no
            // payload anyway.
            return Ok(MappedBlock {
                device: device.to_owned(),
                trace_len: 0,
                count: 0,
                backing: Backing::Owned(Vec::new()),
            });
        }
        let map = sys::Map::new(&file, HEADER_BYTES + payload_bytes)?;
        debug_assert_eq!(&map.bytes()[0..8], &magic);
        Ok(MappedBlock {
            device: device.to_owned(),
            trace_len,
            count,
            backing: Backing::Mapped { map, file },
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
        backing: Backing::Owned(block.into_samples()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{write_block, write_block_v3, BINARY_MAGIC};
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

    #[test]
    fn mapped_v2_matches_streamed_read_bit_exactly() {
        let block = sample_block();
        let path = tmp("map_v2.trc2");
        let mut buf = Vec::new();
        write_block(&block, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();

        let mapped = read_block_mapped("dev", &path).unwrap();
        assert_eq!(mapped.len(), block.len());
        assert_eq!(mapped.trace_len(), block.trace_len());
        assert_eq!(mapped.device(), "dev");
        assert!(!mapped.is_empty());
        if cfg!(all(unix, target_endian = "little")) {
            assert!(mapped.is_zero_copy());
        }
        let bits: Vec<u64> = mapped.samples().iter().map(|s| s.to_bits()).collect();
        let want: Vec<u64> = block.samples().iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, want);
        // Row views and the owned bridge agree too.
        assert_eq!(
            mapped.row(1).unwrap().samples(),
            block.row(1).unwrap().samples()
        );
        assert!(mapped.row(4).is_err());
        assert_eq!(mapped.rows().len(), 4);
        assert_eq!(mapped.to_block(), block);
    }

    #[test]
    fn mapped_reader_accepts_v1_and_decodes_v3_owned() {
        let block = sample_block();
        let v1 = tmp("map_v1.trc1");
        // An IPMKTRC1 file is the v2 payload under the v1 magic.
        let mut buf = Vec::new();
        write_block(&block, &mut buf).unwrap();
        buf[..8].copy_from_slice(BINARY_MAGIC);
        std::fs::write(&v1, &buf).unwrap();
        let mapped = read_block_mapped("dev", &v1).unwrap();
        assert_eq!(mapped.samples(), block.samples());

        let v3 = tmp("map_v3.trc3");
        let mut buf = Vec::new();
        write_block_v3(&block, &mut buf).unwrap();
        std::fs::write(&v3, &buf).unwrap();
        let mapped = read_block_mapped("dev", &v3).unwrap();
        assert!(!mapped.is_zero_copy(), "v3 is bit-packed, not mappable");
        let bits: Vec<u64> = mapped.samples().iter().map(|s| s.to_bits()).collect();
        let want: Vec<u64> = block.samples().iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn mapped_source_and_chunk_seams_work() {
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

        // TraceChunk: rows come back in place.
        assert_eq!(mapped.chunk_len(), 4);
        assert_eq!(mapped.chunk_row(1), Some(block.row(1).unwrap().samples()));
        assert_eq!(mapped.chunk_row(4), None);

        // ChunkedSource streams straight off the mapping.
        let mut chunks = crate::streaming::ChunkedSource::new(&mapped, 3).unwrap();
        let mut seen = Vec::new();
        while let Some(chunk) = chunks.next_chunk().unwrap() {
            seen.extend(chunk.rows().map(|r| r.samples().to_vec()));
        }
        let want: Vec<Vec<f64>> = block.rows().map(|r| r.samples().to_vec()).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn reads_from_a_file_truncated_after_open_fail_as_typed_errors() {
        let block = sample_block();
        let path = tmp("map_truncated_after_open.trc2");
        let mut buf = Vec::new();
        write_block(&block, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let mapped = read_block_mapped("dev", &path).unwrap();
        if !mapped.is_zero_copy() {
            return; // the owned fallback holds its samples in memory
        }
        // Rows 0 and 1 stay whole, row 2 keeps one of its two samples and
        // row 3 is gone. The borrowed views must not be touched from here
        // on: the mapping now reaches past the end of the file.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len((HEADER_BYTES + 5 * 8) as u64).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

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

        // usize::MAX-adjacent dimension product must not reach mmap.
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
    fn empty_campaign_maps_as_empty() {
        let path = tmp("map_empty.trc2");
        let mut buf = Vec::new();
        write_block(&TraceBlock::new("empty"), &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let mapped = read_block_mapped("empty", &path).unwrap();
        assert!(mapped.is_empty());
        assert_eq!(mapped.trace_len(), 0);
        assert!(mapped.samples().is_empty());
        assert_eq!(mapped.rows().len(), 0);
        assert!(mapped.to_block().is_empty());
    }
}
