//! Instrumentation for the traced run, kept entirely outside the library:
//! per-layer busy-time and work counters filled by spans around calls into
//! each layer's public functions, timing decorators around trace sources,
//! a counting global allocator, and the `/proc/self` readers for page
//! faults and peak RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::thread::{self, ThreadId};
use std::time::Instant;

use ipmark_power::SimulatedAcquisition;
use ipmark_traces::{kernels, MappedBlock, TraceBlock, TraceError, TraceSource};

/// A layer whose busy time the probe accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Die fabrication and `SimulatedAcquisition::prepare`.
    Prepare,
    /// `Plan::correlation`: drawing the index selections.
    Select,
    /// `KAverageStage::allocate` + `fill`, and freeing the stage.
    Kavg,
    /// `CorrelateStage::center` + `rows_with_sums`.
    Correlate,
    /// `DecideStage::finish`, the screen or distinguisher, session finalize.
    Decide,
    /// `io::read_block_any`, and freeing its arena.
    Decode,
    /// `read_block_mapped`, and unmapping.
    Map,
    /// `ChunkedSource::next_chunk`, and freeing the chunk.
    Chunk,
    /// `VerificationSession::new`, and dropping the session.
    SessionOpen,
    /// `VerificationSession::ingest_chunk`.
    SessionIngest,
    /// The panel's cell fan-out, as seen from the calling thread.
    FanOut,
    /// Trace synthesis inside a simulated source (worker threads included).
    Synth,
    /// `kernels::accumulate` or a stored source's `accumulate`.
    Accumulate,
}

const LAYERS: usize = 13;

/// A work counter the probe accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Traces synthesized on demand.
    SynthTraces,
    /// Traces added into a k-average or chunk row.
    AccTraces,
    /// `f64` bytes produced by decoding.
    DecodedBytes,
    /// Encoded bytes the decoder read.
    WireBytes,
    /// `f64` bytes delivered in session chunks.
    ChunkBytes,
    /// Session chunks delivered.
    Chunks,
    /// Session rounds used by the verdict.
    Rounds,
    /// Bytes swept by the correlation stage.
    CorrelateBytes,
}

const COUNTS: usize = 8;

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Per-layer busy time and work counts of a traced run.
///
/// Busy time from worker threads is summed across threads. Only spans
/// entered at the top level of the thread that created the probe count
/// toward `covered_ns`, the numerator of `trace.coverage`.
#[derive(Debug)]
pub struct Probe {
    busy_ns: [AtomicU64; LAYERS],
    counts: [AtomicU64; COUNTS],
    covered_ns: AtomicU64,
    caller: ThreadId,
    active: AtomicUsize,
    peak_active: AtomicUsize,
}

impl Probe {
    /// A probe whose coverage is attributed to the calling thread.
    pub fn new() -> Self {
        Self {
            busy_ns: Default::default(),
            counts: Default::default(),
            covered_ns: AtomicU64::new(0),
            caller: thread::current().id(),
            active: AtomicUsize::new(0),
            peak_active: AtomicUsize::new(0),
        }
    }

    /// Runs `f` as one span of `layer`.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let depth = DEPTH.with(|d| d.replace(d.get() + 1));
        let start = Instant::now();
        let out = f();
        let ns = elapsed_ns(start);
        DEPTH.with(|d| d.set(depth));
        self.busy_ns[layer as usize].fetch_add(ns, Relaxed);
        if depth == 0 && thread::current().id() == self.caller {
            self.covered_ns.fetch_add(ns, Relaxed);
        }
        out
    }

    /// Adds `n` to a work counter.
    pub fn add(&self, count: Count, n: u64) {
        self.counts[count as usize].fetch_add(n, Relaxed);
    }

    /// Busy nanoseconds accumulated for `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.busy_ns[layer as usize].load(Relaxed)
    }

    /// The value of a work counter.
    pub fn count(&self, count: Count) -> u64 {
        self.counts[count as usize].load(Relaxed)
    }

    /// Nanoseconds covered by top-level spans on the creating thread.
    pub fn covered_ns(&self) -> u64 {
        self.covered_ns.load(Relaxed)
    }

    /// The most source calls that were ever in flight at once.
    pub fn peak_concurrency(&self) -> usize {
        self.peak_active.load(Relaxed)
    }

    fn source_call<T>(&self, f: impl FnOnce() -> T) -> T {
        let now = self.active.fetch_add(1, Relaxed) + 1;
        self.peak_active.fetch_max(now, Relaxed);
        let out = f();
        self.active.fetch_sub(1, Relaxed);
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn elapsed_ns(start: Instant) -> u64 {
    nanos(start.elapsed())
}

/// Runs `f`, as a span when tracing.
pub fn span<T>(probe: Option<&Probe>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match probe {
        Some(p) => p.span(layer, f),
        None => f(),
    }
}

/// A trace source that can be wrapped in a timing decorator.
pub trait Traceable: TraceSource + Sync {
    /// This source behind a decorator that reports into `probe`.
    fn traced<'a>(&'a self, probe: &'a Probe) -> impl TraceSource + Sync + 'a;
}

/// Times a simulated source, split the way `SimulatedAcquisition::accumulate`
/// works: one owned trace is synthesized, then added with the shared kernel.
pub struct TimedSynth<'a> {
    inner: &'a SimulatedAcquisition,
    probe: &'a Probe,
}

impl TraceSource for TimedSynth<'_> {
    fn num_traces(&self) -> usize {
        self.inner.num_traces()
    }

    fn trace_len(&self) -> usize {
        self.inner.trace_len()
    }

    fn accumulate(&self, index: usize, acc: &mut [f64]) -> Result<(), TraceError> {
        if acc.len() != self.inner.trace_len() {
            return Err(TraceError::LengthMismatch {
                expected: self.inner.trace_len(),
                provided: acc.len(),
            });
        }
        self.probe.source_call(|| {
            let start = Instant::now();
            let trace = self.inner.trace(index)?;
            let synthesized = Instant::now();
            kernels::accumulate(acc, trace.samples());
            let p = self.probe;
            p.busy_ns[Layer::Synth as usize].fetch_add(nanos(synthesized - start), Relaxed);
            p.busy_ns[Layer::Accumulate as usize].fetch_add(elapsed_ns(synthesized), Relaxed);
            p.add(Count::SynthTraces, 1);
            p.add(Count::AccTraces, 1);
            Ok(())
        })
    }
}

/// Times a stored source's whole `accumulate` call.
pub struct Timed<'a, S: ?Sized> {
    inner: &'a S,
    probe: &'a Probe,
}

impl<S: TraceSource + ?Sized> TraceSource for Timed<'_, S> {
    fn num_traces(&self) -> usize {
        self.inner.num_traces()
    }

    fn trace_len(&self) -> usize {
        self.inner.trace_len()
    }

    fn accumulate(&self, index: usize, acc: &mut [f64]) -> Result<(), TraceError> {
        self.probe.source_call(|| {
            let start = Instant::now();
            let out = self.inner.accumulate(index, acc);
            self.probe.busy_ns[Layer::Accumulate as usize].fetch_add(elapsed_ns(start), Relaxed);
            self.probe.add(Count::AccTraces, 1);
            out
        })
    }
}

impl Traceable for SimulatedAcquisition {
    fn traced<'a>(&'a self, probe: &'a Probe) -> impl TraceSource + Sync + 'a {
        TimedSynth { inner: self, probe }
    }
}

impl Traceable for TraceBlock {
    fn traced<'a>(&'a self, probe: &'a Probe) -> impl TraceSource + Sync + 'a {
        Timed { inner: self, probe }
    }
}

impl Traceable for MappedBlock {
    fn traced<'a>(&'a self, probe: &'a Probe) -> impl TraceSource + Sync + 'a {
        Timed { inner: self, probe }
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations while [`count_allocations`]
/// is on. Installed as the benchmark's global allocator.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's obligations under `GlobalAlloc` are exactly `System`'s; the
// counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// `(allocations, bytes)` counted so far.
pub fn allocations() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// Minor page faults of this process so far (`/proc/self/stat`, field 10).
pub fn minor_faults() -> std::io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, where minflt is the eighth.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| std::io::Error::other("unparsable /proc/self/stat"))
}

/// Peak resident set size of this process in KiB (`VmHWM`).
pub fn peak_rss_kib() -> std::io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_top_level_spans_on_the_creating_thread_count_as_covered() {
        let probe = Probe::new();
        probe.span(Layer::FanOut, || {
            probe.span(Layer::Kavg, || {
                thread::sleep(std::time::Duration::from_millis(2))
            });
            thread::scope(|s| {
                s.spawn(|| {
                    probe.span(Layer::Correlate, || {
                        thread::sleep(std::time::Duration::from_millis(2))
                    })
                });
            });
        });
        assert!(probe.ns(Layer::Kavg) > 0 && probe.ns(Layer::Correlate) > 0);
        assert_eq!(probe.covered_ns(), probe.ns(Layer::FanOut));
    }

    #[test]
    fn timed_sources_add_the_same_bits_as_the_source() {
        let block = TraceBlock::from_data("d", 3, vec![1.0, 2.0, 3.0, 0.5, 0.25, 0.125]).unwrap();
        let probe = Probe::new();
        let (mut a, mut b) = (vec![0.0; 3], vec![0.0; 3]);
        block.accumulate(1, &mut a).unwrap();
        block.traced(&probe).accumulate(1, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(probe.count(Count::AccTraces), 1);
        assert_eq!(probe.peak_concurrency(), 1);
    }

    #[test]
    fn proc_readers_parse_this_process() {
        assert!(peak_rss_kib().unwrap() > 0);
        minor_faults().unwrap();
    }
}
