//! Sweep execution and aggregation.
//!
//! Sweeps run on [`crate::executor`]: the (vantage point, site) grid is
//! flattened into independent cells, one executor unit each, and results
//! are merged back in cell-index order. Because every cell derives its
//! randomness purely from `(master_seed, vp_idx, site_idx, trial)` and
//! keeps its own adaptive history, the merged output is byte-identical to
//! a serial run at any thread count.

use crate::executor::WorkerStats;
use crate::scenario::{Scenario, VantagePoint, Website};
use crate::trial::{run_http_trial, Outcome, TrialSpec};
use intang_core::select::History;
use intang_core::StrategyKind;
use intang_faults::{FaultConfig, FaultPlan};
use intang_telemetry::{span, FailureVector, MetricsSheet, OrderedFold, SeriesSheet, SpanId, SpanSheet};
use std::cell::RefCell;
use std::rc::Rc;

/// Outcome counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Aggregate {
    pub success: u32,
    pub failure1: u32,
    pub failure2: u32,
}

impl Aggregate {
    pub fn add(&mut self, o: Outcome) {
        match o {
            Outcome::Success => self.success += 1,
            Outcome::Failure1 => self.failure1 += 1,
            Outcome::Failure2 => self.failure2 += 1,
        }
    }

    pub fn merge(&mut self, other: Aggregate) {
        self.success += other.success;
        self.failure1 += other.failure1;
        self.failure2 += other.failure2;
    }

    pub fn total(&self) -> u32 {
        self.success + self.failure1 + self.failure2
    }

    pub fn success_rate(&self) -> f64 {
        f64::from(self.success) / f64::from(self.total().max(1))
    }

    pub fn failure1_rate(&self) -> f64 {
        f64::from(self.failure1) / f64::from(self.total().max(1))
    }

    pub fn failure2_rate(&self) -> f64 {
        f64::from(self.failure2) / f64::from(self.total().max(1))
    }
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Fixed strategy; None = INTANG adaptive mode (history persists across
    /// the repeated trials toward each site).
    pub strategy: Option<StrategyKind>,
    pub keyword: bool,
    pub trials: u32,
    pub master_seed: u64,
    pub route_change_prob: f64,
    /// Fault-injection configuration; [`FaultConfig::off`] (the default)
    /// leaves every trial byte-identical to a faultless build.
    pub faults: FaultConfig,
    /// Live console for this sweep (see [`crate::progress`]); workers
    /// report each finished cell. `None` (the default) is silent.
    pub progress: Option<std::sync::Arc<crate::progress::Progress>>,
}

impl SweepConfig {
    pub fn new(strategy: Option<StrategyKind>, keyword: bool, trials: u32, master_seed: u64) -> SweepConfig {
        SweepConfig {
            strategy,
            keyword,
            trials,
            master_seed,
            route_change_prob: 0.12,
            faults: FaultConfig::off(),
            progress: None,
        }
    }
}

fn trial_seed(master: u64, vp_idx: usize, site_idx: usize, trial: u32, keyword: bool) -> u64 {
    // SplitMix-style hash for independent streams.
    let mut z = master
        ^ (vp_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (site_idx as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ (u64::from(trial)).wrapping_mul(0x94d0_49bb_1331_11eb)
        ^ u64::from(keyword) << 63;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One failed trial's identity and its §5 classification — the payload of
/// a JSONL `diagnosis` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialDiagnosis {
    pub vp: String,
    pub site: String,
    /// Trial index within its cell.
    pub trial: u32,
    pub seed: u64,
    pub outcome: Outcome,
    pub vector: FailureVector,
    pub resets_seen: u64,
}

/// Everything one (vantage point, site) cell produces: outcome counts,
/// events processed, the merged metrics sheet, and one diagnosis per
/// failed trial (in trial order).
#[derive(Debug, Clone)]
pub struct CellRun {
    pub agg: Aggregate,
    pub events: u64,
    pub metrics: MetricsSheet,
    pub diagnoses: Vec<TrialDiagnosis>,
    /// Invariant violations recorded by simcheck across the cell's trials
    /// (0 when checking is disabled — and, with correct code, when it's on).
    pub violations: u64,
    /// The cell's trials ran under the simcheck invariant layer.
    pub checked: bool,
    /// The cell's trials' gauge time-series merged in trial order (`None`
    /// unless series telemetry was enabled).
    pub series: Option<Box<SeriesSheet>>,
}

/// Run `cfg.trials` trials of one (vantage point, site) cell: outcome
/// counts, events processed, the cell's merged [`MetricsSheet`] and a
/// [`TrialDiagnosis`] for every unsuccessful trial.
pub fn run_cell_telemetry(vp: &VantagePoint, vp_idx: usize, site: &Website, site_idx: usize, cfg: &SweepConfig) -> CellRun {
    let mut agg = Aggregate::default();
    let mut events = 0u64;
    let mut metrics = MetricsSheet::new();
    let mut diagnoses = Vec::new();
    let mut violations = 0u64;
    let mut series: Option<Box<SeriesSheet>> = None;
    let sc = intang_simcheck::enabled();
    // Adaptive mode: one history per (vantage point, site), shared across
    // the repeated trials — this is how INTANG converges (§6).
    let history = if cfg.strategy.is_none() {
        Some(Rc::new(RefCell::new(History::new())))
    } else {
        None
    };
    for t in 0..cfg.trials {
        let seed = trial_seed(cfg.master_seed, vp_idx, site_idx, t, cfg.keyword);
        let mut spec = TrialSpec::new(vp, site, cfg.strategy, cfg.keyword, seed);
        spec.history = history.clone();
        spec.route_change_prob = cfg.route_change_prob;
        spec.faults = {
            let _s = span(SpanId::FaultDerive);
            FaultPlan::derive(&cfg.faults, seed)
        };
        if sc {
            intang_simcheck::begin_trial(seed);
        }
        let r = run_http_trial(&spec);
        if sc {
            let total = intang_simcheck::violation_total();
            let vs = intang_simcheck::take_violations();
            if !vs.is_empty() {
                // Shrink the first violating trial of the cell only — one
                // artifact per cell is enough to debug from, and the
                // shrinker's replays are not free.
                if violations == 0 {
                    let report = crate::simcheck::shrink(&spec, &vs, &crate::simcheck::artifact_dir());
                    if let Some(path) = &report.artifact {
                        eprintln!(
                            "simcheck: {} violation(s) in trial seed {seed:#x}; repro written to {}",
                            total,
                            path.display()
                        );
                    }
                }
                violations += total;
            }
        }
        agg.add(r.outcome);
        events += r.events;
        metrics.merge(&r.metrics);
        if let Some(ts) = r.series {
            match &mut series {
                Some(s) => s.merge(&ts),
                None => series = Some(ts),
            }
        }
        if let Some(vector) = r.failure_vector {
            diagnoses.push(TrialDiagnosis {
                vp: vp.name.to_string(),
                site: site.name.to_string(),
                trial: t,
                seed,
                outcome: r.outcome,
                vector,
                resets_seen: r.resets_seen,
            });
        }
    }
    if violations > 0 {
        // Only stamped when non-zero so a clean simcheck-enabled sweep's
        // metrics stay byte-identical to a disabled one.
        metrics.add(intang_telemetry::Counter::SimcheckViolations, violations);
    }
    CellRun {
        agg,
        events,
        metrics,
        diagnoses,
        violations,
        checked: sc,
        series,
    }
}

/// Worker count for a sweep: the `INTANG_THREADS` environment variable
/// when set, else the machine's available parallelism. A value that is not
/// a positive integer prints an error naming the variable and exits with
/// status 2 (the CLI no-panic contract).
pub fn worker_count() -> usize {
    use std::num::NonZeroUsize;
    let Some(v) = std::env::var_os("INTANG_THREADS") else {
        return std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
    };
    match v.to_str().and_then(|s| s.parse::<NonZeroUsize>().ok()) {
        Some(n) => n.get(),
        None => {
            eprintln!("error: INTANG_THREADS needs a positive integer, got {v:?}");
            std::process::exit(2);
        }
    }
}

/// A finished sweep: per-vantage-point rows plus executor statistics.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// One row per vantage point, in scenario order.
    pub rows: Vec<(String, Aggregate)>,
    /// Total trials executed.
    pub trials: u64,
    /// Total simulation events processed.
    pub events: u64,
    /// All cells' metrics merged in cell-index order (byte-identical at
    /// any worker count, like `rows`).
    pub metrics: MetricsSheet,
    /// One §5 diagnosis per unsuccessful trial, in cell-index then trial
    /// order.
    pub diagnoses: Vec<TrialDiagnosis>,
    /// Simcheck invariant violations summed over all cells (0 unless
    /// checking was enabled *and* an invariant actually broke).
    pub violations: u64,
    /// Cells whose trials ran under the simcheck invariant layer: every
    /// cell when checking is on for the caller, else 0. Tells a clean
    /// checked sweep apart from an unchecked one.
    pub checked_cells: u64,
    /// Gauge time-series merged in cell-index order (byte-identical at any
    /// worker count, like `metrics`); `None` unless series telemetry was
    /// enabled.
    pub series: Option<Box<SeriesSheet>>,
    /// Per-worker executor statistics, in worker-spawn order.
    pub worker_stats: Vec<WorkerStats>,
    /// Per-worker span-profiler sheets, parallel to `worker_stats` (empty
    /// sheets unless span profiling was enabled).
    pub worker_profiles: Vec<SpanSheet>,
    /// Most cell results the streaming merge ever buffered at once (the
    /// reorder window behind the slowest straggler). A serial sweep pins
    /// this at 1.
    pub merge_high_water: usize,
}

impl SweepRun {
    /// All workers' span profiles merged into one sheet.
    pub fn profile(&self) -> SpanSheet {
        let mut all = SpanSheet::default();
        for p in &self.worker_profiles {
            all.merge(p);
        }
        all
    }
}

/// The streaming merge's accumulated state: per-VP rows, the one merged
/// metrics sheet, and the flat diagnosis list.
struct SweepAcc {
    rows: Vec<(String, Aggregate)>,
    events: u64,
    metrics: MetricsSheet,
    diagnoses: Vec<TrialDiagnosis>,
    violations: u64,
    checked_cells: u64,
    series: Option<Box<SeriesSheet>>,
}

/// Run the sweep on `workers` [`crate::executor`] threads, one unit per
/// (vantage point, site) cell.
///
/// Cells are independent units of work — each derives its trial seeds
/// purely from `(master_seed, vp_idx, site_idx, trial)` and owns its
/// adaptive history — so stealing order cannot leak into results. Each
/// worker is a *shard*: it owns its thread-local arenas (packet wires,
/// TCP reprs, sim scratch) and a cell's full telemetry, and retires the
/// finished cell into an [`OrderedFold`] that folds results in strict
/// cell-index order the moment the in-order prefix reaches them. The fold
/// order — not the retirement order — is what the output depends on, so
/// results are byte-identical to a serial sweep for any `workers >= 1`,
/// while the merge buffers only the reorder window instead of every
/// cell's sheet.
pub fn sweep_with_threads(scenario: &Scenario, cfg: &SweepConfig, workers: usize) -> SweepRun {
    let n_sites = scenario.websites.len();
    let n_cells = scenario.vantage_points.len() * n_sites;

    let acc = SweepAcc {
        rows: scenario
            .vantage_points
            .iter()
            .map(|vp| (vp.name.to_string(), Aggregate::default()))
            .collect(),
        events: 0,
        metrics: MetricsSheet::new(),
        diagnoses: Vec::new(),
        violations: 0,
        checked_cells: 0,
        series: None,
    };
    let mut merge = OrderedFold::new(acc, move |acc: &mut SweepAcc, i, cell: CellRun| {
        acc.rows[i / n_sites.max(1)].1.merge(cell.agg);
        acc.events += cell.events;
        acc.metrics.merge(&cell.metrics);
        acc.diagnoses.extend(cell.diagnoses);
        acc.violations += cell.violations;
        acc.checked_cells += u64::from(cell.checked);
        if let Some(cs) = cell.series {
            match &mut acc.series {
                Some(s) => s.merge(&cs),
                None => acc.series = Some(cs),
            }
        }
    });

    let (worker_stats, worker_profiles) = crate::executor::run_units(
        n_cells,
        workers,
        intang_telemetry::knobs::current(),
        |i| {
            let (vp_idx, site_idx) = (i / n_sites, i % n_sites);
            let started = std::time::Instant::now();
            let cell = run_cell_telemetry(
                &scenario.vantage_points[vp_idx],
                vp_idx,
                &scenario.websites[site_idx],
                site_idx,
                cfg,
            );
            (cell, started.elapsed())
        },
        // Retire the cell immediately: the fold advances as far as the
        // in-order prefix allows and the cell's sheet is freed, not parked
        // until the end.
        |i, (cell, cell_wall)| {
            merge.push(i, cell);
            if let Some(p) = &cfg.progress {
                p.cell_done(cell_wall, merge.high_water());
            }
        },
    );

    let (acc, merge_high_water) = merge.finish();
    let trials = n_cells as u64 * u64::from(cfg.trials);
    SweepRun {
        rows: acc.rows,
        trials,
        events: acc.events,
        metrics: acc.metrics,
        diagnoses: acc.diagnoses,
        violations: acc.violations,
        checked_cells: acc.checked_cells,
        series: acc.series,
        worker_stats,
        worker_profiles,
        merge_high_water,
    }
}

/// Collapse per-vantage-point aggregates into one row.
pub fn overall(rows: &[(String, Aggregate)]) -> Aggregate {
    let mut total = Aggregate::default();
    for (_, a) in rows {
        total.merge(*a);
    }
    total
}

/// Min/max/avg success, failure1, failure2 rates across vantage points —
/// Table 4's presentation.
#[derive(Debug, Clone, Copy)]
pub struct MinMaxAvg {
    pub min: f64,
    pub max: f64,
    pub avg: f64,
    /// Rows with zero completed trials, excluded from the statistics.
    /// A rate over an empty row is undefined — `Aggregate` clamps it to
    /// 0.0, which would silently drag every average down — so such rows
    /// are surfaced here instead of being folded in.
    pub empty: usize,
}

impl MinMaxAvg {
    /// Fold one value per row, `None` for a row with nothing to measure:
    /// such rows count in [`MinMaxAvg::empty`] instead of the statistics.
    pub fn fold(rows: impl IntoIterator<Item = Option<f64>>) -> MinMaxAvg {
        let mut empty = 0;
        let mut vals = Vec::new();
        for row in rows {
            match row {
                Some(v) => vals.push(v),
                None => empty += 1,
            }
        }
        if vals.is_empty() {
            // No populated rows means no rates; report zeros rather than
            // the fold identities (inf/-inf), which would poison
            // downstream tables.
            return MinMaxAvg {
                min: 0.0,
                max: 0.0,
                avg: 0.0,
                empty,
            };
        }
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let avg = vals.iter().sum::<f64>() / vals.len() as f64;
        MinMaxAvg { min, max, avg, empty }
    }
}

pub fn min_max_avg(rows: &[(String, Aggregate)], f: impl Fn(&Aggregate) -> f64) -> MinMaxAvg {
    MinMaxAvg::fold(rows.iter().map(|(_, a)| (a.total() > 0).then(|| f(a))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_arithmetic() {
        let mut a = Aggregate::default();
        a.add(Outcome::Success);
        a.add(Outcome::Success);
        a.add(Outcome::Failure1);
        a.add(Outcome::Failure2);
        assert_eq!(a.total(), 4);
        assert!((a.success_rate() - 0.5).abs() < 1e-9);
        assert!((a.failure1_rate() - 0.25).abs() < 1e-9);
        let mut b = Aggregate::default();
        b.add(Outcome::Failure2);
        a.merge(b);
        assert_eq!(a.failure2, 2);
    }

    #[test]
    fn seeds_are_distinct_across_cells() {
        let mut seeds = vec![
            trial_seed(1, 0, 0, 0, true),
            trial_seed(1, 1, 0, 0, true),
            trial_seed(1, 0, 1, 0, true),
            trial_seed(1, 0, 0, 1, true),
            trial_seed(1, 0, 0, 0, false),
            trial_seed(2, 0, 0, 0, true),
        ];
        seeds.sort();
        seeds.dedup();
        assert_eq!(seeds.len(), 6);
    }

    #[test]
    fn min_max_avg_of_empty_rows_is_zeroed() {
        let m = min_max_avg(&[], Aggregate::success_rate);
        assert_eq!(m.min, 0.0);
        assert_eq!(m.max, 0.0);
        assert_eq!(m.avg, 0.0);
        assert_eq!(m.empty, 0);
    }

    #[test]
    fn min_max_avg_surfaces_zero_trial_rows_instead_of_averaging_them() {
        let rows = vec![
            (
                "a".to_string(),
                Aggregate {
                    success: 4,
                    failure1: 0,
                    failure2: 0,
                },
            ),
            ("empty".to_string(), Aggregate::default()),
            (
                "b".to_string(),
                Aggregate {
                    success: 1,
                    failure1: 1,
                    failure2: 0,
                },
            ),
        ];
        let m = min_max_avg(&rows, Aggregate::success_rate);
        // The empty row must not drag min/avg toward its clamped 0.0 rate.
        assert_eq!(m.empty, 1);
        assert!((m.min - 0.5).abs() < 1e-9);
        assert!((m.max - 1.0).abs() < 1e-9);
        assert!((m.avg - 0.75).abs() < 1e-9);

        let all_empty = vec![("x".to_string(), Aggregate::default())];
        let m = min_max_avg(&all_empty, Aggregate::success_rate);
        assert_eq!(m.empty, 1);
        assert_eq!(m.avg, 0.0);
    }

    #[test]
    fn min_max_avg_works() {
        let rows = vec![
            (
                "a".to_string(),
                Aggregate {
                    success: 9,
                    failure1: 1,
                    failure2: 0,
                },
            ),
            (
                "b".to_string(),
                Aggregate {
                    success: 5,
                    failure1: 5,
                    failure2: 0,
                },
            ),
        ];
        let m = min_max_avg(&rows, Aggregate::success_rate);
        assert!((m.min - 0.5).abs() < 1e-9);
        assert!((m.max - 0.9).abs() < 1e-9);
        assert!((m.avg - 0.7).abs() < 1e-9);
    }
}
