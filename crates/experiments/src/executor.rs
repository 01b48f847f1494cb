//! The work-stealing executor every parallel loop in this crate runs on.
//!
//! A job is `units` independent units of work. Worker threads claim unit
//! indices from one shared atomic cursor, compute each with `work(i)` and
//! hand the result to `retire(i, result)` under one lock. Results retire
//! in claim order, not index order, so a caller whose output must not
//! depend on the worker count either folds through an index-ordered merge
//! ([`intang_telemetry::OrderedFold`]) or stores results by index.
//!
//! Each worker first installs the caller's [`RunKnobs`], so every
//! simulation a worker builds sees the same flight, series, spans and
//! simcheck switches the caller captured. That is the determinism
//! contract's one replay point: thread-locals do not follow work onto
//! spawned threads, and no caller replays a switch by hand.

use intang_telemetry::knobs::{self, RunKnobs};
use intang_telemetry::{span, SpanId, SpanSheet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One worker's executor statistics, in worker-spawn order. All
/// wall-clock — diagnostics only (varies run to run), never part of a
/// deterministic merge.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Wall-clock spent inside the claim-work-retire loop. A worker much
    /// below the max was starved or finished the tail early.
    pub busy: Duration,
    /// Wall-clock spent waiting to acquire the retire lock — direct
    /// evidence of merge contention at high worker counts.
    pub merge_wait: Duration,
    /// Cursor claims attempted (the last claim of each worker overshoots).
    pub steal_attempts: u64,
    /// Claims that found the job exhausted.
    pub steal_failures: u64,
}

/// Run units `0..units` on `workers` threads (clamped to `[1, units]`)
/// with `knobs` installed in each. Returns every worker's statistics and
/// span-profiler sheet, in worker-spawn order; the sheets are empty unless
/// `knobs.spans` is on.
pub fn run_units<T>(
    units: usize,
    workers: usize,
    knobs: RunKnobs,
    work: impl Fn(usize) -> T + Sync,
    retire: impl FnMut(usize, T) + Send,
) -> (Vec<WorkerStats>, Vec<SpanSheet>) {
    let workers = workers.clamp(1, units.max(1));
    let cursor = AtomicUsize::new(0);
    let retire = Mutex::new(retire);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (cursor, work, retire) = (&cursor, &work, &retire);
                scope.spawn(move || {
                    knobs::install(knobs);
                    let started = Instant::now();
                    let mut stats = WorkerStats::default();
                    loop {
                        let i = {
                            let _s = span(SpanId::IdleSteal);
                            stats.steal_attempts += 1;
                            cursor.fetch_add(1, Ordering::Relaxed)
                        };
                        if i >= units {
                            stats.steal_failures += 1;
                            break;
                        }
                        let out = work(i);
                        let _m = span(SpanId::TelemetryMerge);
                        let wait_started = Instant::now();
                        let mut retire = retire.lock().expect("retire lock poisoned");
                        stats.merge_wait += wait_started.elapsed();
                        (*retire)(i, out);
                    }
                    stats.busy = started.elapsed();
                    (stats, intang_telemetry::spans::take_thread())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("executor worker panicked")).unzip()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every switch as a (caller-side setter, worker-side reader) pair.
    type Knob = (fn(Option<bool>) -> Option<bool>, fn() -> bool);
    const KNOBS: [(&str, Knob); 4] = [
        ("flight", (intang_netsim::flight::set_thread, intang_netsim::flight::enabled)),
        ("series", (intang_telemetry::series::set_thread, intang_telemetry::series::enabled)),
        ("spans", (intang_telemetry::spans::set_thread, intang_telemetry::spans::enabled)),
        ("simcheck", (intang_simcheck::set_thread, intang_simcheck::enabled)),
    ];

    #[test]
    fn caller_knobs_reach_every_worker() {
        for (name, (set, read)) in KNOBS {
            for value in [false, true] {
                for workers in [1usize, 2, 8] {
                    let prev = set(Some(value));
                    let mut seen = vec![None; 32];
                    run_units(32, workers, knobs::current(), |_| read(), |i, on| seen[i] = Some(on));
                    set(prev);
                    assert!(
                        seen.iter().all(|&on| on == Some(value)),
                        "{name}={value} at {workers} workers: workers saw {seen:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_unit_is_claimed_and_retired_exactly_once() {
        for workers in [1usize, 2, 8] {
            let units = 1_000;
            let mut retired = vec![0u32; units];
            let (stats, sheets) = run_units(
                units,
                workers,
                knobs::current(),
                |i| i * 3,
                |i, v| {
                    assert_eq!(v, i * 3, "unit {i} retired with another unit's result");
                    retired[i] += 1;
                },
            );
            assert!(retired.iter().all(|&n| n == 1), "{workers} workers");
            assert_eq!(stats.len(), workers);
            assert_eq!(sheets.len(), workers);
            let claims: u64 = stats.iter().map(|s| s.steal_attempts - s.steal_failures).sum();
            assert_eq!(claims, units as u64, "{workers} workers");
            assert!(stats.iter().all(|s| s.steal_failures == 1), "each worker stops on one failed claim");
        }
    }

    #[test]
    fn workers_clamp_to_the_unit_count() {
        let (stats, _) = run_units(3, 8, knobs::current(), |i| i, |_, _| {});
        assert_eq!(stats.len(), 3);
        let (stats, _) = run_units(0, 4, knobs::current(), |i| i, |_, _| unreachable!("no units"));
        assert_eq!(stats.len(), 1, "an empty job still runs one worker");
    }
}
