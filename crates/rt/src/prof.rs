//! `obs::prof` — the self-profiling plane: a cooperative span-stack
//! sampling profiler plus span-attributed allocation accounting.
//!
//! The paper's thesis is cross-layer *pinpointing*; this module applies
//! the same discipline to the checker's own performance, on `std` alone
//! (the workspace is hermetic — no registry deps):
//!
//! * **Sampling profiler** — every instrumented thread (pool workers
//!   register via [`register_thread`]; any thread that opens a span
//!   joins lazily) publishes a *shadow* of its open-span stack through a
//!   seqlock: a slot of atomics the owner updates wait-free on span
//!   open/close, and a background sampler thread reads without stopping
//!   anyone. Samples fold into stack → count aggregates and export as
//!   inferno-compatible `.folded` text ([`render_folded`]) via
//!   [`arm_profile`] (`--profile-out`), and as the no-script flame view
//!   in the `paracrash report` dashboard.
//! * **Allocation accounting** — [`CountingAlloc`] wraps the system
//!   allocator (installed as the workspace `#[global_allocator]` here)
//!   and attributes allocation count / bytes / peak to the innermost
//!   open span, surfaced in `PC_TRACE=summary`, telemetry JSON, and the
//!   dashboard. This is what turns "arena-allocate `tracer::Record`"
//!   from a hunch into a measured number.
//!
//! # Overhead contract
//!
//! Both planes are **off by default**, two bits of the [`super`] plane
//! mask ([`sampling_enabled`] / [`alloc_tracking_enabled`]): the
//! disabled path in the span hooks and in the allocator is a single
//! relaxed atomic load, held under the 3% budget by
//! `paracrash selftest obs`. The allocator tests its bit on the raw
//! mask and never runs the environment bootstrap (which allocates).
//!
//! # Seqlock protocol (DESIGN.md §15)
//!
//! Each shadow slot is `{ seq, depth, frames[32] }`, all atomics. The
//! owning thread is the only writer: it bumps `seq` to odd, mutates
//! `frames`/`depth`, then bumps `seq` to even. The sampler retries a
//! bounded number of times until it observes the same even `seq` before
//! and after copying the frames; a torn read is simply dropped (one
//! lost sample, never a corrupt stack). Frames hold interned name ids,
//! so the writer path never allocates or locks.
//!
//! # Attribution approximation
//!
//! Deallocations are subtracted from the span open *at free time*, not
//! the span that allocated — per-span `peak_bytes` is therefore a
//! peak-of-net approximation. Totals (count / bytes) are exact.

use super::plane;
use crate::lock;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// `true` while the sampling profiler is collecting (one relaxed load).
#[inline]
pub fn sampling_enabled() -> bool {
    super::planes() & plane::SAMPLING != 0
}

/// `true` while the counting allocator is attributing (one relaxed load).
#[inline]
pub fn alloc_tracking_enabled() -> bool {
    super::planes() & plane::ALLOC != 0
}

/// Turn span-attributed allocation accounting on or off. Rides
/// [`super::set_enabled`]: enabling telemetry enables accounting, so
/// `PC_TRACE=summary` and `--telemetry-out` get alloc columns for free.
pub fn set_alloc_tracking(on: bool) {
    super::set_planes(plane::ALLOC, on);
}

// ---------------------------------------------------------------------------
// Name interning — shadow frames carry u32 ids, never pointers
// ---------------------------------------------------------------------------

struct Names {
    ids: BTreeMap<&'static str, u32>,
    list: Vec<&'static str>,
}

static NAMES: Mutex<Names> = Mutex::new(Names {
    ids: BTreeMap::new(),
    list: Vec::new(),
});

/// Slot 0 of the allocation table: allocations made outside any open
/// span (or past the table's capacity).
const UNTRACKED: &str = "(untracked)";

fn intern(name: &'static str) -> u32 {
    let mut n = lock(&NAMES);
    if n.list.is_empty() {
        n.list.push(UNTRACKED);
    }
    if let Some(&id) = n.ids.get(name) {
        return id;
    }
    let id = n.list.len() as u32;
    n.list.push(name);
    n.ids.insert(name, id);
    id
}

fn resolve(ids: &[u32]) -> Vec<&'static str> {
    let n = lock(&NAMES);
    ids.iter()
        .map(|&id| n.list.get(id as usize).copied().unwrap_or("(?)"))
        .collect()
}

// ---------------------------------------------------------------------------
// Shadow slots — the seqlock-published per-thread span stacks
// ---------------------------------------------------------------------------

const MAX_FRAMES: usize = 32;

struct ShadowSlot {
    /// Seqlock generation: odd while the owner is mid-update.
    seq: AtomicU32,
    depth: AtomicU32,
    frames: [AtomicU32; MAX_FRAMES],
    /// Pushes refused because the stack shadow was full.
    truncated: AtomicU64,
}

impl ShadowSlot {
    fn new() -> ShadowSlot {
        ShadowSlot {
            seq: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
            truncated: AtomicU64::new(0),
        }
    }

    /// Owner-only: push one frame. Returns `false` on overflow (the
    /// matching close must then skip its pop).
    fn push(&self, id: u32) -> bool {
        let d = self.depth.load(Ordering::SeqCst) as usize;
        if d >= MAX_FRAMES {
            self.truncated.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        let s = self.seq.load(Ordering::SeqCst);
        self.seq.store(s.wrapping_add(1), Ordering::SeqCst);
        self.frames[d].store(id, Ordering::SeqCst);
        self.depth.store((d + 1) as u32, Ordering::SeqCst);
        self.seq.store(s.wrapping_add(2), Ordering::SeqCst);
        true
    }

    /// Owner-only: pop one frame.
    fn pop(&self) {
        let d = self.depth.load(Ordering::SeqCst);
        let s = self.seq.load(Ordering::SeqCst);
        self.seq.store(s.wrapping_add(1), Ordering::SeqCst);
        self.depth.store(d.saturating_sub(1), Ordering::SeqCst);
        self.seq.store(s.wrapping_add(2), Ordering::SeqCst);
    }

    /// Owner-only: empty the shadow (thread exit, before recycling).
    fn clear(&self) {
        let s = self.seq.load(Ordering::SeqCst);
        self.seq.store(s.wrapping_add(1), Ordering::SeqCst);
        self.depth.store(0, Ordering::SeqCst);
        self.seq.store(s.wrapping_add(2), Ordering::SeqCst);
    }

    /// Sampler-side: copy a consistent stack, outermost first. `None`
    /// when the stack is empty or every retry saw a torn update.
    fn read(&self) -> Option<Vec<u32>> {
        for _ in 0..4 {
            let s1 = self.seq.load(Ordering::SeqCst);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let d = (self.depth.load(Ordering::SeqCst) as usize).min(MAX_FRAMES);
            let mut stack = Vec::with_capacity(d);
            for f in &self.frames[..d] {
                stack.push(f.load(Ordering::SeqCst));
            }
            if self.seq.load(Ordering::SeqCst) == s1 {
                return if stack.is_empty() { None } else { Some(stack) };
            }
        }
        None
    }
}

/// Every live slot the sampler walks. Bounded by the maximum number of
/// concurrent instrumented threads: exiting threads recycle their slot
/// through `FREE` instead of growing this list.
static SLOTS: Mutex<Vec<Arc<ShadowSlot>>> = Mutex::new(Vec::new());
static FREE: Mutex<Vec<Arc<ShadowSlot>>> = Mutex::new(Vec::new());

struct SlotGuard {
    slot: RefCell<Option<Arc<ShadowSlot>>>,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        if let Some(s) = self.slot.borrow_mut().take() {
            s.clear();
            lock(&FREE).push(s);
        }
    }
}

thread_local! {
    static SLOT: SlotGuard = const {
        SlotGuard {
            slot: RefCell::new(None),
        }
    };
}

fn acquire_slot() -> Arc<ShadowSlot> {
    let recycled = lock(&FREE).pop();
    match recycled {
        Some(s) => s,
        None => {
            let s = Arc::new(ShadowSlot::new());
            lock(&SLOTS).push(s.clone());
            s
        }
    }
}

/// Run `f` against this thread's shadow slot, acquiring one lazily.
/// `None` during thread-local teardown (sampling just stops early).
fn with_slot<R>(f: impl FnOnce(&ShadowSlot) -> R) -> Option<R> {
    SLOT.try_with(|g| {
        let mut slot = g.slot.borrow_mut();
        if slot.is_none() {
            *slot = Some(acquire_slot());
        }
        f(slot.as_ref().expect("slot just acquired"))
    })
    .ok()
}

/// Pre-register the calling thread with the sampler (pool workers call
/// this on spawn so their very first span is already visible). No-op
/// when sampling is off — one relaxed load.
pub fn register_thread() {
    if sampling_enabled() {
        let _ = with_slot(|_| ());
    }
}

// ---------------------------------------------------------------------------
// Span hooks — called from `obs::span_cat` / `Drop for Span`
// ---------------------------------------------------------------------------

/// Open-time state a span carries so its close mirrors its open exactly,
/// even if the planes toggle mid-span.
#[derive(Clone, Copy)]
pub(crate) struct SpanToken {
    planes: u8,
    prev_span: u32,
    pushed: bool,
}

impl SpanToken {
    pub(crate) const INERT: SpanToken = SpanToken {
        planes: 0,
        prev_span: 0,
        pushed: false,
    };
}

thread_local! {
    /// Interned id of the innermost open span — the allocator reads
    /// this (and nothing else) to attribute an allocation.
    static CUR_SPAN: Cell<u32> = const { Cell::new(0) };
}

/// `planes` is the mask the opening span already loaded.
pub(crate) fn on_span_open(name: &'static str, planes: u8) -> SpanToken {
    let p = planes & (plane::SAMPLING | plane::ALLOC);
    if p == 0 {
        return SpanToken::INERT;
    }
    let id = intern(name);
    let mut tok = SpanToken {
        planes: p,
        prev_span: 0,
        pushed: false,
    };
    if p & plane::ALLOC != 0 {
        tok.prev_span = CUR_SPAN
            .try_with(|c| {
                let prev = c.get();
                c.set(id);
                prev
            })
            .unwrap_or(0);
    }
    if p & plane::SAMPLING != 0 {
        tok.pushed = with_slot(|s| s.push(id)).unwrap_or(false);
    }
    tok
}

pub(crate) fn on_span_close(tok: SpanToken) {
    if tok.pushed {
        let _ = with_slot(|s| s.pop());
    }
    if tok.planes & plane::ALLOC != 0 {
        let _ = CUR_SPAN.try_with(|c| c.set(tok.prev_span));
    }
}

// ---------------------------------------------------------------------------
// The sampler thread and the folded aggregate
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Agg {
    /// Interned stack (outermost first) → sample count.
    stacks: BTreeMap<Vec<u32>, u64>,
    total: u64,
}

static AGG: Mutex<Agg> = Mutex::new(Agg {
    stacks: BTreeMap::new(),
    total: 0,
});

fn sample_once() {
    let slots: Vec<Arc<ShadowSlot>> = lock(&SLOTS).clone();
    let mut agg = lock(&AGG);
    for slot in &slots {
        if let Some(stack) = slot.read() {
            *agg.stacks.entry(stack).or_insert(0) += 1;
            agg.total += 1;
        }
    }
}

struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

static SAMPLER: Mutex<Option<Sampler>> = Mutex::new(None);

/// Start the sampling profiler at `hz` samples/sec (clamped to
/// 1..=10000). Idempotent: a second call while running is a no-op.
pub fn enable_sampling(hz: u32) {
    start_sampler(plane::SAMPLING, hz);
}

/// Arm the plane for a `--profile-out` run: telemetry on (spans must
/// exist to be sampled) and the sampler running at `PC_PROF_HZ`. The
/// caller writes [`render_folded`] out after [`disable_sampling`].
pub fn arm_profile() {
    let planes = plane::REGISTRY | plane::ALLOC | plane::SAMPLING;
    start_sampler(planes, super::sample_hz());
}

/// Switch `planes` (`SAMPLING` among them) on and start the thread.
fn start_sampler(planes: u8, hz: u32) {
    super::set_planes(planes, true);
    let mut guard = lock(&SAMPLER);
    if guard.is_some() {
        return;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let interval_ns = (1_000_000_000u64 / u64::from(hz.clamp(1, 10_000))).max(100_000);
    let handle = std::thread::Builder::new()
        .name("pc-prof-sampler".into())
        .spawn(move || {
            let interval = Duration::from_nanos(interval_ns);
            while !stop2.load(Ordering::Relaxed) {
                sample_once();
                std::thread::sleep(interval);
            }
        })
        .expect("spawn pc-prof-sampler");
    *guard = Some(Sampler { stop, handle });
}

/// Stop the sampler and join its thread. Collected samples stay in the
/// aggregate until [`reset`].
pub fn disable_sampling() {
    super::set_planes(plane::SAMPLING, false);
    let sampler = lock(&SAMPLER).take();
    if let Some(s) = sampler {
        s.stop.store(true, Ordering::Relaxed);
        let _ = s.handle.join();
    }
}

/// Total samples folded so far (torn reads excluded).
pub fn samples_total() -> u64 {
    lock(&AGG).total
}

/// Fold a synthetic stack directly into the aggregate — the test hook
/// behind the folded-output determinism tests (no timing dependence).
pub fn record_synthetic(stack: &[&'static str], count: u64) {
    let ids: Vec<u32> = stack.iter().map(|n| intern(n)).collect();
    if ids.is_empty() {
        return;
    }
    let mut agg = lock(&AGG);
    *agg.stacks.entry(ids).or_insert(0) += count;
    agg.total += count;
}

/// Render the aggregate as inferno-compatible `.folded` text: one
/// `outer;mid;leaf COUNT` line per distinct stack, sorted
/// lexicographically, trailing newline (empty string when no samples).
pub fn render_folded() -> String {
    let stacks: Vec<(Vec<u32>, u64)> = {
        let agg = lock(&AGG);
        agg.stacks.iter().map(|(k, v)| (k.clone(), *v)).collect()
    };
    let mut lines: Vec<String> = stacks
        .iter()
        .map(|(ids, count)| format!("{} {count}", resolve(ids).join(";")))
        .collect();
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Parse `.folded` text back into `(stack frames, count)` rows — the
/// re-parse lint behind `selftest prof FILE` and the dashboard flame view.
pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let Some((stack, count)) = line.rsplit_once(' ') else {
            return Err(format!("folded line {}: no count field", i + 1));
        };
        let count: u64 = count
            .parse()
            .map_err(|_| format!("folded line {}: bad count {count:?}", i + 1))?;
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        if frames.iter().any(|f| f.is_empty()) {
            return Err(format!("folded line {}: empty frame", i + 1));
        }
        rows.push((frames, count));
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Allocation accounting — the counting global allocator
// ---------------------------------------------------------------------------

/// Per-span allocation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStat {
    /// Number of allocations (realloc counts as free + alloc).
    pub count: u64,
    /// Total bytes requested.
    pub bytes: u64,
    /// High-water mark of net live bytes. Per-span this is a
    /// peak-of-net approximation: frees are attributed to the span
    /// open at free time (see module docs).
    pub peak_bytes: u64,
}

struct AllocSlot {
    count: AtomicU64,
    bytes: AtomicU64,
    cur: AtomicI64,
    peak: AtomicI64,
}

impl AllocSlot {
    const fn new() -> AllocSlot {
        AllocSlot {
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            cur: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }
    }
}

/// Spans with interned id < this get their own attribution slot; the
/// rest share slot 0. 256 comfortably covers every static span name in
/// the workspace, and a fixed table keeps the allocator lock-free.
const ALLOC_SPANS: usize = 256;

static ALLOC_TABLE: [AllocSlot; ALLOC_SPANS] = [const { AllocSlot::new() }; ALLOC_SPANS];

static TOTAL_COUNT: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_CUR: AtomicI64 = AtomicI64::new(0);
static TOTAL_PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn alloc_slot_for_current_span() -> &'static AllocSlot {
    let span = CUR_SPAN.try_with(|c| c.get()).unwrap_or(0) as usize;
    let idx = if span < ALLOC_SPANS { span } else { 0 };
    &ALLOC_TABLE[idx]
}

#[inline]
fn record_alloc(size: usize) {
    let slot = alloc_slot_for_current_span();
    slot.count.fetch_add(1, Ordering::Relaxed);
    slot.bytes.fetch_add(size as u64, Ordering::Relaxed);
    let cur = slot.cur.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    slot.peak.fetch_max(cur, Ordering::Relaxed);
    TOTAL_COUNT.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let total = TOTAL_CUR.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    TOTAL_PEAK.fetch_max(total, Ordering::Relaxed);
}

#[inline]
fn record_dealloc(size: usize) {
    let slot = alloc_slot_for_current_span();
    slot.cur.fetch_sub(size as i64, Ordering::Relaxed);
    TOTAL_CUR.fetch_sub(size as i64, Ordering::Relaxed);
}

/// The allocator's own test of its bit: the raw mask, never
/// [`super::planes`] — the bootstrap that would run allocates. Before the
/// bootstrap only `UNINIT` (or a programmatic bit) is set.
#[inline]
fn tracking() -> bool {
    super::PLANES.load(Ordering::Relaxed) & plane::ALLOC != 0
}

/// The counting allocator. Delegates every operation to [`System`];
/// when accounting is enabled ([`set_alloc_tracking`]) it additionally
/// updates the fixed atomic attribution table — no lock, no allocation,
/// no TLS beyond one `Cell` read, so it is safe at any point in the
/// process lifetime including thread teardown.
pub struct CountingAlloc;

// SAFETY: all four methods delegate directly to `System`, which upholds
// the `GlobalAlloc` contract; the accounting side only touches atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && tracking() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && tracking() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        if tracking() {
            record_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && tracking() {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

/// The workspace-wide global allocator. Defined once, here: every crate
/// in the workspace links `pc-rt`, so every binary gets the counting
/// wrapper (which is pure pass-through until accounting is enabled).
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// Export the attribution table: per-span rows (only spans that
/// allocated; slot 0 is `"(untracked)"`), sorted by span name, plus the
/// process-wide total.
pub fn alloc_snapshot() -> (Vec<(String, AllocStat)>, AllocStat) {
    let names = lock(&NAMES);
    let mut rows: Vec<(String, AllocStat)> = Vec::new();
    for (idx, slot) in ALLOC_TABLE.iter().enumerate() {
        let count = slot.count.load(Ordering::Relaxed);
        let bytes = slot.bytes.load(Ordering::Relaxed);
        if count == 0 && bytes == 0 {
            continue;
        }
        let name = if idx == 0 {
            UNTRACKED
        } else {
            names.list.get(idx).copied().unwrap_or("(?)")
        };
        rows.push((
            name.to_string(),
            AllocStat {
                count,
                bytes,
                peak_bytes: slot.peak.load(Ordering::Relaxed).max(0) as u64,
            },
        ));
    }
    drop(names);
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let total = AllocStat {
        count: TOTAL_COUNT.load(Ordering::Relaxed),
        bytes: TOTAL_BYTES.load(Ordering::Relaxed),
        peak_bytes: TOTAL_PEAK.load(Ordering::Relaxed).max(0) as u64,
    };
    (rows, total)
}

/// Human-readable byte count (`1.50 MB`, `320 B`).
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} kB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

// ---------------------------------------------------------------------------
// Reset
// ---------------------------------------------------------------------------

/// Clear the sample aggregate and zero the allocation table (tests and
/// benches; production runs accumulate).
pub fn reset() {
    {
        let mut agg = lock(&AGG);
        agg.stacks.clear();
        agg.total = 0;
    }
    for slot in ALLOC_TABLE.iter() {
        slot.count.store(0, Ordering::Relaxed);
        slot.bytes.store(0, Ordering::Relaxed);
        slot.cur.store(0, Ordering::Relaxed);
        slot.peak.store(0, Ordering::Relaxed);
    }
    TOTAL_COUNT.store(0, Ordering::Relaxed);
    TOTAL_BYTES.store(0, Ordering::Relaxed);
    TOTAL_CUR.store(0, Ordering::Relaxed);
    TOTAL_PEAK.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqlock_push_pop_read_round_trip() {
        let slot = ShadowSlot::new();
        assert!(slot.read().is_none());
        assert!(slot.push(3));
        assert!(slot.push(7));
        assert_eq!(slot.read(), Some(vec![3, 7]));
        slot.pop();
        assert_eq!(slot.read(), Some(vec![3]));
        slot.pop();
        assert!(slot.read().is_none());
        // Overflow refuses the push and counts it.
        for i in 0..MAX_FRAMES as u32 {
            assert!(slot.push(i));
        }
        assert!(!slot.push(99));
        assert_eq!(slot.truncated.load(Ordering::SeqCst), 1);
        slot.clear();
        assert!(slot.read().is_none());
    }

    #[test]
    fn intern_is_stable_and_untracked_is_slot_zero() {
        let a = intern("prof.test.intern.a");
        let b = intern("prof.test.intern.b");
        assert_ne!(a, 0, "slot 0 is reserved for (untracked)");
        assert_ne!(a, b);
        assert_eq!(intern("prof.test.intern.a"), a);
        assert_eq!(
            resolve(&[a, b]),
            vec!["prof.test.intern.a", "prof.test.intern.b"]
        );
        assert_eq!(resolve(&[0]), vec![UNTRACKED]);
    }

    #[test]
    fn folded_render_parse_round_trip() {
        let _guard = lock(&crate::obs::TEST_LOCK);
        reset();
        record_synthetic(&["prof.test.root", "prof.test.mid", "prof.test.leaf"], 4);
        record_synthetic(&["prof.test.root", "prof.test.mid"], 2);
        record_synthetic(&["prof.test.root", "prof.test.mid", "prof.test.leaf"], 1);
        assert_eq!(samples_total(), 7);
        let folded = render_folded();
        // Deterministic: lexicographically sorted, merged counts.
        assert_eq!(
            folded,
            "prof.test.root;prof.test.mid 2\nprof.test.root;prof.test.mid;prof.test.leaf 5\n"
        );
        assert_eq!(folded, render_folded(), "render must be a pure function");
        let rows = parse_folded(&folded).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].0.len(), 3);
        assert_eq!(rows[1].1, 5);
        assert!(parse_folded("no-count-line\n").is_err());
        assert!(parse_folded("a;b notanumber\n").is_err());
        assert!(parse_folded(";; 3\n").is_err());
        reset();
    }

    #[test]
    fn alloc_accounting_attributes_to_innermost_span() {
        let _guard = lock(&crate::obs::TEST_LOCK);
        reset();
        let id = intern("prof.test.alloc.span");
        assert!(
            (id as usize) < ALLOC_SPANS,
            "test span must land in its own slot"
        );
        set_alloc_tracking(true);
        let tok = on_span_open("prof.test.alloc.span", super::super::planes());
        let v: Vec<u8> = Vec::with_capacity(64 * 1024);
        on_span_close(tok);
        set_alloc_tracking(false);
        drop(v);
        // Only this test's own slot: the process-wide totals move under
        // every other test thread that allocates or frees meanwhile (a
        // free of memory allocated before tracking began drives the
        // total's live count, and so its peak, below this span's).
        let (rows, _total) = alloc_snapshot();
        let mine = rows
            .iter()
            .find(|(n, _)| n == "prof.test.alloc.span")
            .map(|(_, s)| *s)
            .expect("span slot recorded");
        assert!(mine.count >= 1);
        assert!(mine.bytes >= 64 * 1024, "bytes = {}", mine.bytes);
        assert!(mine.peak_bytes >= 64 * 1024);
        reset();
    }

    #[test]
    fn disabled_planes_record_nothing() {
        let _guard = lock(&crate::obs::TEST_LOCK);
        disable_sampling();
        set_alloc_tracking(false);
        reset();
        let tok = on_span_open("prof.test.disabled.span", super::super::planes());
        let _v: Vec<u8> = Vec::with_capacity(4096);
        on_span_close(tok);
        assert_eq!(samples_total(), 0);
        let (rows, total) = alloc_snapshot();
        assert!(rows.is_empty(), "rows = {rows:?}");
        assert_eq!(total, AllocStat::default());
    }

    #[test]
    fn sampler_collects_from_a_registered_thread() {
        let _guard = lock(&crate::obs::TEST_LOCK);
        reset();
        enable_sampling(2000);
        let tok = on_span_open("prof.test.sampled.span", super::super::planes());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while samples_total() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        on_span_close(tok);
        disable_sampling();
        assert!(samples_total() > 0, "sampler saw no stacks in 5s");
        assert!(render_folded().contains("prof.test.sampled.span"));
        reset();
    }

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(320.0), "320 B");
        assert_eq!(fmt_bytes(1_500.0), "1.5 kB");
        assert_eq!(fmt_bytes(2_500_000.0), "2.50 MB");
        assert_eq!(fmt_bytes(3_000_000_000.0), "3.00 GB");
    }
}
