//! `obs::prof` — the self-profiling plane: span-attributed allocation
//! accounting and the `.folded` profile format.
//!
//! The paper's thesis is cross-layer *pinpointing*; this module applies
//! the same discipline to the checker's own performance, on `std` alone
//! (the workspace is hermetic — no registry deps):
//!
//! * **Allocation accounting** — [`CountingAlloc`] wraps the system
//!   allocator (installed as the workspace `#[global_allocator]` here)
//!   and attributes allocation count / bytes / peak to the innermost
//!   open span, surfaced in `PC_TRACE=summary`, telemetry JSON, and the
//!   dashboard. This is what turns "arena-allocate `tracer::Record`"
//!   from a hunch into a measured number.
//! * **`.folded` profiles** — [`render_folded`] writes the registry's
//!   exact per-stack self times ([`super::TelemetrySnapshot::self_times`])
//!   as inferno-compatible text (`--profile-out`); [`parse_folded`] reads
//!   it back, as strictly as it was written, for `paracrash report`'s
//!   flame view. Nothing is sampled: the weights are nanoseconds and sum
//!   to the run's depth-0 span time.
//!
//! # Overhead contract
//!
//! Accounting is **off by default**, one bit of the [`super`] plane mask
//! ([`alloc_tracking_enabled`]): the disabled path in the allocator is a
//! single relaxed atomic load, held under the 3% budget by
//! `paracrash selftest obs`. The allocator tests its bit on the raw
//! mask and never runs the environment bootstrap (which allocates).
//!
//! # Attribution approximation
//!
//! Deallocations are subtracted from the span open *at free time*, not
//! the span that allocated — per-span `peak_bytes` is therefore a
//! peak-of-net approximation. Totals (count / bytes) are exact.

use super::plane;
use crate::lock;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

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
// Name interning — the allocator reads a u32 id, never a pointer
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

// ---------------------------------------------------------------------------
// Span hooks — called from `obs::span_cat` / `Drop for Span`
// ---------------------------------------------------------------------------

thread_local! {
    /// Interned id of the innermost open span — the allocator reads
    /// this (and nothing else) to attribute an allocation. It mirrors
    /// the top of `obs`'s open-span stack, which the allocator cannot
    /// borrow (pushing onto it allocates).
    static CUR_SPAN: Cell<u32> = const { Cell::new(0) };
}

/// A span named `name` opened on this thread: charge allocations to it
/// from here on. Returns its id, which the caller hands back to
/// [`set_current`] when a child of that span closes.
pub(crate) fn enter(name: &'static str) -> u32 {
    let id = intern(name);
    set_current(id);
    id
}

/// The innermost open span of this thread is now `id` (0 = none).
pub(crate) fn set_current(id: u32) {
    let _ = CUR_SPAN.try_with(|c| c.set(id));
}

// ---------------------------------------------------------------------------
// `.folded` profiles
// ---------------------------------------------------------------------------

/// Render a snapshot's per-stack self times as inferno-compatible
/// `.folded` text: one `outer;mid;leaf NANOSECONDS` line per distinct
/// stack, sorted by stack text, trailing newline (empty string when no
/// span closed). A stack that took no measurable time draws nothing and
/// is left out.
pub fn render_folded(snap: &super::TelemetrySnapshot) -> String {
    let mut rows: Vec<(String, u64)> = (snap.self_times.iter())
        .filter(|(_, ns)| *ns > 0)
        .map(|(stack, ns)| (stack.join(";"), *ns))
        .collect();
    rows.sort();
    rows.iter()
        .map(|(stack, ns)| format!("{stack} {ns}\n"))
        .collect()
}

/// Read `.folded` text back into `(stack frames, nanoseconds)` rows, as
/// strictly as [`render_folded`] writes it: every line a stack of
/// non-empty frames and a positive weight, each stack above the one
/// before (sorted, no stack twice).
pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut rows = Vec::new();
    let mut prev: Option<&str> = None;
    for (n, line) in (1..).zip(text.lines()) {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let Some((stack, count)) = line.rsplit_once(' ') else {
            return Err(format!("folded line {n}: no count field"));
        };
        let count: u64 = count
            .parse()
            .map_err(|_| format!("folded line {n}: bad count {count:?}"))?;
        if count == 0 {
            return Err(format!("folded line {n}: stack {stack} has weight 0"));
        }
        if prev.is_some_and(|p| stack <= p) {
            return Err(format!(
                "folded line {n}: stack {stack} is not above the one before (unsorted or repeated)"
            ));
        }
        prev = Some(stack);
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        if frames.iter().any(|f| f.is_empty()) {
            return Err(format!("folded line {n}: empty frame"));
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

/// Zero the allocation table (tests and benches; production runs
/// accumulate).
pub fn reset() {
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
    fn intern_is_stable_and_untracked_is_slot_zero() {
        let a = intern("prof.test.intern.a");
        let b = intern("prof.test.intern.b");
        assert_ne!(a, 0, "slot 0 is reserved for (untracked)");
        assert_ne!(a, b);
        assert_eq!(intern("prof.test.intern.a"), a);
        let names = lock(&NAMES);
        assert_eq!(names.list[a as usize], "prof.test.intern.a");
        assert_eq!(names.list[0], UNTRACKED);
    }

    #[test]
    fn folded_render_parse_round_trip() {
        let snap = crate::obs::TelemetrySnapshot {
            self_times: vec![
                (vec!["prof.test.root"], 0),
                (vec!["prof.test.root", "prof.test.mid"], 2),
                (vec!["prof.test.root", "prof.test.mid", "prof.test.leaf"], 5),
            ],
            ..Default::default()
        };
        let folded = render_folded(&snap);
        // Lexicographically sorted; the weightless stack is left out.
        assert_eq!(
            folded,
            "prof.test.root;prof.test.mid 2\nprof.test.root;prof.test.mid;prof.test.leaf 5\n"
        );
        let rows = parse_folded(&folded).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].0.len(), 3);
        assert_eq!(rows[1].1, 5);
        assert_eq!(render_folded(&Default::default()), "");
        assert_eq!(parse_folded("").unwrap(), []);
        for (bad, why) in [
            ("no-count-line\n", "no count field"),
            ("a;b notanumber\n", "bad count"),
            (";; 3\n", "empty frame"),
            ("a 1\na;b 0\n", "line 2: stack a;b has weight 0"),
            ("a;b 1\na 2\n", "line 2: stack a is not above"),
            ("a 1\na 2\n", "line 2: stack a is not above"),
        ] {
            let err = parse_folded(bad).unwrap_err();
            assert!(err.contains(why), "{bad:?}: {err}");
        }
    }

    #[test]
    fn alloc_accounting_attributes_to_innermost_span() {
        let _guard = lock(&crate::obs::TEST_LOCK);
        reset();
        set_alloc_tracking(true);
        let id = enter("prof.test.alloc.span");
        assert!(
            (id as usize) < ALLOC_SPANS,
            "test span must land in its own slot"
        );
        let v: Vec<u8> = Vec::with_capacity(64 * 1024);
        set_current(0);
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
        set_alloc_tracking(false);
        reset();
        enter("prof.test.disabled.span");
        let _v: Vec<u8> = Vec::with_capacity(4096);
        set_current(0);
        let (rows, total) = alloc_snapshot();
        assert!(rows.is_empty(), "rows = {rows:?}");
        assert_eq!(total, AllocStat::default());
    }

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(320.0), "320 B");
        assert_eq!(fmt_bytes(1_500.0), "1.5 kB");
        assert_eq!(fmt_bytes(2_500_000.0), "2.50 MB");
        assert_eq!(fmt_bytes(3_000_000_000.0), "3.00 GB");
    }
}
