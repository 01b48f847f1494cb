//! Live sweep console: a single self-rewriting stderr line tracking a
//! sweep's cells done, ETA, per-worker busy fraction, and the streaming
//! merge's reorder-window high-water.
//!
//! Purely observational — workers update a few atomics per *cell* (never
//! per event), the line is throttled to a few redraws per second, and
//! everything is written to stderr so piped experiment output (tables,
//! JSONL) is untouched. Enabled per run with `--progress`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Minimum wall-clock gap between redraws (the final cell always draws).
const REDRAW_EVERY: Duration = Duration::from_millis(200);

/// Shared progress state for one sweep (or a labelled group of sweeps).
#[derive(Debug)]
pub struct Progress {
    label: String,
    total_cells: usize,
    workers: usize,
    done: AtomicUsize,
    /// Sum of per-cell wall times across all workers, in nanoseconds —
    /// `busy / (workers · elapsed)` is the fleet utilization.
    busy_nanos: AtomicU64,
    merge_high_water: AtomicUsize,
    started: Instant,
    last_draw: Mutex<Instant>,
}

impl Progress {
    /// Begin tracking `total_cells` cells on `workers` workers under a
    /// display label (e.g. `"table1/direct"`).
    pub fn start(label: &str, total_cells: usize, workers: usize) -> Arc<Progress> {
        let now = Instant::now();
        Arc::new(Progress {
            label: label.to_string(),
            total_cells,
            workers: workers.max(1),
            done: AtomicUsize::new(0),
            busy_nanos: AtomicU64::new(0),
            merge_high_water: AtomicUsize::new(0),
            started: now,
            // Backdate so the very first finished cell draws immediately.
            last_draw: Mutex::new(now.checked_sub(REDRAW_EVERY).unwrap_or(now)),
        })
    }

    /// A worker finished (and merged) one cell that took `cell_wall` of
    /// wall-clock; `high_water` is the merge's current reorder-window
    /// high-water mark.
    pub fn cell_done(&self, cell_wall: Duration, high_water: usize) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.busy_nanos.fetch_add(cell_wall.as_nanos() as u64, Ordering::Relaxed);
        self.merge_high_water.fetch_max(high_water, Ordering::Relaxed);
        let final_cell = done >= self.total_cells;
        {
            let Ok(mut last) = self.last_draw.lock() else { return };
            if !final_cell && last.elapsed() < REDRAW_EVERY {
                return;
            }
            *last = Instant::now();
        }
        eprint!("\r{}", self.render(done));
        if final_cell {
            eprintln!();
        }
    }

    /// The console line for `done` finished cells (no carriage control).
    fn render(&self, done: usize) -> String {
        let elapsed = self.started.elapsed().as_secs_f64();
        let eta = if done > 0 && done < self.total_cells {
            let per_cell = elapsed / done as f64;
            format!("{:.1}s", per_cell * (self.total_cells - done) as f64)
        } else {
            "0.0s".to_string()
        };
        let busy = self.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let capacity = elapsed * self.workers as f64;
        let busy_pct = if capacity > 0.0 { 100.0 * busy / capacity } else { 0.0 };
        format!(
            "[{}] cells {}/{}  eta {}  busy {:>3.0}%/{}w  merge-hw {}",
            self.label,
            done,
            self.total_cells,
            eta,
            busy_pct.min(100.0),
            self.workers,
            self.merge_high_water.load(Ordering::Relaxed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_reports_cells_and_high_water() {
        let p = Progress::start("t1/direct", 8, 2);
        p.busy_nanos.store(1_000, Ordering::Relaxed);
        p.merge_high_water.store(3, Ordering::Relaxed);
        let line = p.render(5);
        assert!(line.contains("[t1/direct]"), "{line}");
        assert!(line.contains("cells 5/8"), "{line}");
        assert!(line.contains("merge-hw 3"), "{line}");
        assert!(line.contains("/2w"), "{line}");
    }

    #[test]
    fn cell_done_saturates_and_counts() {
        let p = Progress::start("x", 2, 1);
        // Draws go to stderr; just verify the counters advance.
        p.cell_done(Duration::from_millis(1), 1);
        p.cell_done(Duration::from_millis(1), 4);
        assert_eq!(p.done.load(Ordering::Relaxed), 2);
        assert_eq!(p.merge_high_water.load(Ordering::Relaxed), 4);
    }
}
