//! Batched-dispatch enablement and diagnostics.
//!
//! The event loop drains equal-timestamp runs as one batch (see
//! [`crate::Simulation::step_batch`]). Batching is result-identical to
//! single-step dispatch — the determinism suite runs both ways — so the
//! toggle exists purely for that A/B: a process-wide env var
//! (`INTANG_BATCH=0` force-disables, default on) plus a per-thread
//! override (the `batch` field of `intang_telemetry::RunKnobs`), so the
//! test matrix can flip modes per thread without touching the environment.
//! Simulations cache the flag at construction time.
//!
//! Batch-size statistics are process-global relaxed atomics (the
//! `intang_packet::wire::pool_stats` pattern): they are scheduling- and
//! mode-dependent diagnostics, reported only by `bench_sweep` — never in a
//! `MetricsSheet`, which must stay byte-identical with batching on or off.

use std::sync::atomic::{AtomicU64, Ordering};

/// Is batched dispatch enabled on this thread? Thread-local knobs first,
/// env var (`INTANG_BATCH`, default on) otherwise.
pub fn enabled() -> bool {
    intang_telemetry::knobs::current().batch
}

/// Override batching for the current thread (`Some(true)`/`Some(false)`),
/// or fall back to the env var (`None`). Returns the previous override.
/// Must be called *before* constructing the simulations it should affect —
/// they cache the flag.
pub fn set_thread(on: Option<bool>) -> Option<bool> {
    intang_telemetry::knobs::set_field(on, |k| &mut k.batch)
}

/// Batch-size histogram buckets: sizes 1, 2–3, 4–7, … (powers of two),
/// last bucket open-ended.
pub const HIST_BUCKETS: usize = 8;

static BATCHES: AtomicU64 = AtomicU64::new(0);
static BATCHED_EVENTS: AtomicU64 = AtomicU64::new(0);
static HIST: [AtomicU64; HIST_BUCKETS] = [const { AtomicU64::new(0) }; HIST_BUCKETS];

/// Histogram bucket for a batch of `n` events (`n >= 1`).
pub fn bucket(n: u64) -> usize {
    (63 - n.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// Fold one simulation's batch accounting into the process-wide totals
/// (called on `Simulation` drop; per-sim counts are plain integers so the
/// event loop itself touches no atomics).
pub fn note_run(batches: u64, events: u64, hist: &[u64; HIST_BUCKETS]) {
    if batches == 0 {
        return;
    }
    BATCHES.fetch_add(batches, Ordering::Relaxed);
    BATCHED_EVENTS.fetch_add(events, Ordering::Relaxed);
    for (slot, &n) in HIST.iter().zip(hist) {
        if n > 0 {
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Process-wide batch statistics since start (or the last [`reset_stats`]):
/// `(batches, events, histogram)`.
pub fn stats() -> (u64, u64, [u64; HIST_BUCKETS]) {
    let mut hist = [0u64; HIST_BUCKETS];
    for (out, slot) in hist.iter_mut().zip(&HIST) {
        *out = slot.load(Ordering::Relaxed);
    }
    (BATCHES.load(Ordering::Relaxed), BATCHED_EVENTS.load(Ordering::Relaxed), hist)
}

/// Zero the process-wide statistics (bench isolation between workloads).
pub fn reset_stats() {
    BATCHES.store(0, Ordering::Relaxed);
    BATCHED_EVENTS.store(0, Ordering::Relaxed);
    for slot in &HIST {
        slot.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 1);
        assert_eq!(bucket(4), 2);
        assert_eq!(bucket(7), 2);
        assert_eq!(bucket(8), 3);
        assert_eq!(bucket(1 << 40), HIST_BUCKETS - 1);
    }

    #[test]
    fn set_thread_round_trips() {
        let prev = set_thread(Some(false));
        assert!(!enabled());
        set_thread(Some(true));
        assert!(enabled());
        set_thread(prev);
    }

    #[test]
    fn note_run_accumulates() {
        let (b0, e0, _) = stats();
        let mut hist = [0u64; HIST_BUCKETS];
        hist[0] = 2;
        hist[1] = 1;
        note_run(3, 4, &hist);
        let (b1, e1, h1) = stats();
        assert_eq!(b1 - b0, 3);
        assert_eq!(e1 - e0, 4);
        assert!(h1[0] >= 2 && h1[1] >= 1);
    }
}
