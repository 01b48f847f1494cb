//! Scoped span profiler: where does a sweep worker's wall-clock go?
//!
//! The sweep executor reports per-worker busy time but nothing below it,
//! which leaves questions like the 4-thread slowdown in BENCH_sweep.json
//! unanswerable from the artifact alone. This module attributes worker
//! time to a small fixed set of subsystem buckets ([`SpanId`]) via scoped
//! guards over the monotonic clock:
//!
//! ```ignore
//! let _s = spans::span(SpanId::DpiScan);
//! // … work …
//! // guard drop charges the elapsed time to the bucket
//! ```
//!
//! Spans nest: a guard's *self time* is its elapsed time minus the time
//! spent in child spans opened beneath it, so bucket totals are disjoint
//! and sum to (at most) the instrumented region. Alongside the per-bucket
//! totals the profiler keeps the full stack *path* of every span (packed
//! 8 bits per level), which exports as folded-stack text — one line per
//! observed stack, `trial;gfw;dpi_scan 123456` — directly consumable by
//! standard flamegraph tooling.
//!
//! Profiling is wall-clock and therefore **not deterministic**; it never
//! feeds experiment output, only the BENCH `profile` section and the
//! `--profile-folded` export. Disabled (the default) the cost per span
//! site is one thread-local flag test; no state is touched.

use std::cell::RefCell;

/// Fixed subsystem buckets. Self-times across buckets are disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanId {
    /// One full trial: build, drive, classify.
    Trial,
    /// The simulator's event pop/dispatch loop (excluding element work
    /// that is instrumented separately below).
    EventLoop,
    /// GFW device processing (excluding the DPI scan itself).
    Gfw,
    /// DPI keyword scan over reassembled payload bytes.
    DpiScan,
    /// Internet checksum kernels.
    Checksum,
    /// Endpoint TCP stack processing (hosts).
    Tcpstack,
    /// The INTANG shim (strategy engine).
    Intang,
    /// Per-trial fault-plan derivation.
    FaultDerive,
    /// Waiting on and pushing into the ordered merge.
    TelemetryMerge,
    /// Claiming work from the shared cursor (steal overhead).
    IdleSteal,
}

impl SpanId {
    pub const COUNT: usize = 10;

    pub const ALL: [SpanId; SpanId::COUNT] = [
        SpanId::Trial,
        SpanId::EventLoop,
        SpanId::Gfw,
        SpanId::DpiScan,
        SpanId::Checksum,
        SpanId::Tcpstack,
        SpanId::Intang,
        SpanId::FaultDerive,
        SpanId::TelemetryMerge,
        SpanId::IdleSteal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanId::Trial => "trial",
            SpanId::EventLoop => "event_loop",
            SpanId::Gfw => "gfw",
            SpanId::DpiScan => "dpi_scan",
            SpanId::Checksum => "checksum",
            SpanId::Tcpstack => "tcpstack",
            SpanId::Intang => "intang",
            SpanId::FaultDerive => "fault_derive",
            SpanId::TelemetryMerge => "telemetry_merge",
            SpanId::IdleSteal => "idle_steal",
        }
    }
}

/// A stack path packed 8 bits per level, root in the highest populated
/// byte (`0` = empty path). Depth beyond 8 saturates into the parent's
/// path rather than corrupting it.
fn extend_path(parent: u64, id: SpanId) -> u64 {
    if parent >= 1 << 56 {
        parent
    } else {
        (parent << 8) | (id as u64 + 1)
    }
}

/// Decode a packed path into `a;b;c` bucket names.
pub fn decode_path(mut key: u64) -> String {
    let mut codes = [0u8; 8];
    let mut n = 0;
    while key != 0 {
        codes[n] = (key & 0xff) as u8;
        n += 1;
        key >>= 8;
    }
    let mut out = String::new();
    for &code in codes[..n].iter().rev() {
        if !out.is_empty() {
            out.push(';');
        }
        match SpanId::ALL.get(code as usize - 1) {
            Some(id) => out.push_str(id.name()),
            None => out.push_str("unknown"),
        }
    }
    out
}

/// Accumulated profile: per-bucket self-nanoseconds plus per-stack-path
/// self-nanoseconds (sorted by packed path for stable output).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SpanSheet {
    pub self_nanos: [u64; SpanId::COUNT],
    paths: Vec<(u64, u64)>,
}

impl SpanSheet {
    pub fn new() -> SpanSheet {
        SpanSheet::default()
    }

    fn add_path(&mut self, key: u64, nanos: u64) {
        match self.paths.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.paths[i].1 += nanos,
            Err(i) => self.paths.insert(i, (key, nanos)),
        }
    }

    /// `(packed path, self nanos)` pairs, sorted by path.
    pub fn paths(&self) -> &[(u64, u64)] {
        &self.paths
    }

    pub fn total_self_nanos(&self) -> u64 {
        self.self_nanos.iter().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.total_self_nanos() == 0 && self.paths.is_empty()
    }

    pub fn merge(&mut self, other: &SpanSheet) {
        for (mine, theirs) in self.self_nanos.iter_mut().zip(&other.self_nanos) {
            *mine += theirs;
        }
        for &(key, nanos) in &other.paths {
            self.add_path(key, nanos);
        }
    }

    /// Folded-stack text: one line per observed stack path,
    /// `bucket;bucket;bucket <self nanoseconds>`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for &(key, nanos) in &self.paths {
            out.push_str(&decode_path(key));
            out.push(' ');
            out.push_str(&nanos.to_string());
            out.push('\n');
        }
        out
    }
}

struct Frame {
    id: SpanId,
    start: std::time::Instant,
    child_nanos: u64,
    path: u64,
}

struct ThreadSpans {
    stack: Vec<Frame>,
    sheet: SpanSheet,
}

thread_local! {
    static STATE: RefCell<ThreadSpans> = RefCell::new(ThreadSpans {
        stack: Vec::with_capacity(8),
        sheet: SpanSheet::new(),
    });
}

/// RAII guard: charges elapsed-minus-children to the bucket on drop.
/// Inert (zero state) when profiling was disabled at construction.
#[must_use = "a span guard charges its bucket when dropped"]
pub struct SpanGuard {
    active: bool,
}

/// Open a span. Call sites pay one thread-local flag read when disabled.
#[inline]
pub fn span(id: SpanId) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.stack.last().map_or(0, |f| f.path);
        let path = extend_path(parent, id);
        s.stack.push(Frame {
            id,
            start: std::time::Instant::now(),
            child_nanos: 0,
            path,
        });
    });
    SpanGuard { active: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let Some(frame) = s.stack.pop() else { return };
            let elapsed = frame.start.elapsed().as_nanos() as u64;
            let self_nanos = elapsed.saturating_sub(frame.child_nanos);
            s.sheet.self_nanos[frame.id as usize] += self_nanos;
            s.sheet.add_path(frame.path, self_nanos);
            if let Some(parent) = s.stack.last_mut() {
                parent.child_nanos += elapsed;
            }
        });
    }
}

/// Take (and reset) this thread's accumulated profile. Workers call this
/// once their claim loop ends; the caller merges sheets across workers.
pub fn take_thread() -> SpanSheet {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        debug_assert!(s.stack.is_empty(), "take_thread inside an open span");
        std::mem::take(&mut s.sheet)
    })
}

/// Is span profiling enabled on this thread (`INTANG_SPANS`, see
/// [`crate::knobs`])? Checked at every span site, so it stays a bare
/// thread-local read.
#[inline]
pub fn enabled() -> bool {
    crate::knobs::current().spans
}

/// Override the spans knob on this thread (`Some(on)`) or reset it to the
/// environment (`None`). Returns the previous override so callers can
/// restore it.
pub fn set_thread(on: Option<bool>) -> Option<bool> {
    crate::knobs::set_field(on, |k| &mut k.spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_spans<T>(f: impl FnOnce() -> T) -> T {
        let prev = set_thread(Some(true));
        let out = f();
        set_thread(prev);
        out
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let prev = set_thread(Some(false));
        {
            let _a = span(SpanId::Trial);
            let _b = span(SpanId::Gfw);
        }
        set_thread(prev);
        assert!(take_thread().is_empty());
    }

    #[test]
    fn nesting_splits_self_time_and_paths() {
        let sheet = with_spans(|| {
            {
                let _t = span(SpanId::Trial);
                {
                    let _g = span(SpanId::Gfw);
                    let _d = span(SpanId::DpiScan);
                    std::hint::black_box(0u64);
                }
            }
            take_thread()
        });
        assert!(sheet.self_nanos[SpanId::Trial as usize] > 0 || sheet.self_nanos[SpanId::Gfw as usize] > 0 || sheet.total_self_nanos() > 0);
        let paths: Vec<String> = sheet.paths().iter().map(|&(k, _)| decode_path(k)).collect();
        assert_eq!(paths, vec!["trial", "trial;gfw", "trial;gfw;dpi_scan"]);
        // Self times are disjoint: their sum cannot exceed the outermost
        // span's wall time, which add_path recorded for each path too.
        let folded = sheet.folded();
        assert_eq!(folded.lines().count(), 3);
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack<space>count");
            assert!(!stack.is_empty());
            count.parse::<u64>().expect("count parses");
        }
    }

    #[test]
    fn merge_adds_buckets_and_paths() {
        let a = with_spans(|| {
            let _t = span(SpanId::Checksum);
            drop(_t);
            take_thread()
        });
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.self_nanos[SpanId::Checksum as usize], 2 * a.self_nanos[SpanId::Checksum as usize]);
        assert_eq!(b.paths().len(), 1);
    }

    #[test]
    fn path_depth_saturates() {
        let mut p = 0u64;
        for _ in 0..12 {
            p = extend_path(p, SpanId::Trial);
        }
        assert!(p < 1 << 57);
        assert_eq!(decode_path(p).matches("trial").count(), 8);
    }

    #[test]
    fn decode_unknown_code_is_harmless() {
        assert_eq!(decode_path(0xff), "unknown");
        assert_eq!(decode_path(0), "");
    }
}
