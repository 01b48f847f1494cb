//! Sweep-executor benchmark: runs a fixed-seed multi-strategy sweep at
//! several worker counts and reports wall time, trials/sec, events/sec and
//! speedup vs the serial (1-worker) run, verifying along the way that every
//! worker count produces byte-identical aggregates. Also reports the
//! machine's available cores (warning when a worker count exceeds them —
//! those "speedups" are scheduler artifacts), per-worker busy time with
//! contention counters (merge-mutex wait, steal attempts/failures) and the
//! streaming merge's reorder high-water mark per run, the wire pool's and
//! recycling arenas' hit/miss counters, and — built with `--features
//! alloc-count` — heap allocations per trial at steady state. After the
//! timed measurements an *instrumented* serial pass (gauge series + span
//! profiler enabled) populates the `series` and `profile` sections, so
//! observability cost never touches the throughput numbers.
//!
//! Writes `BENCH_sweep.json` into the current directory. `--quick` shrinks
//! the workload to a smoke-test size (used by `scripts/ci.sh`); `--smoke`
//! additionally gates serial throughput against the blessed baseline in
//! `scripts/bench_smoke_baseline.txt` (set `INTANG_BLESS=1` to re-bless on
//! a new machine). `INTANG_THREADS` caps the "max" worker count.
//! `--progress` draws the live sweep console during the measurement loop;
//! `--profile-folded PATH` writes the instrumented pass's folded stacks.

use intang_core::{Discrepancy, StrategyKind};
use intang_experiments::args::CommonArgs;
use intang_experiments::progress::Progress;
use intang_experiments::runner::{overall, sweep_with_threads, worker_count, SweepConfig, SweepRun};
use intang_experiments::scenario::Scenario;
use intang_telemetry::{GaugeId, SpanId};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: intang_telemetry::alloc::CountingAlloc = intang_telemetry::alloc::CountingAlloc;

/// Fraction of the blessed serial events/s the smoke gate tolerates.
/// Wide on purpose: on a shared single-vCPU container, identical runs
/// vary by ±25%, so the gate blesses the median sample and compares the
/// best sample against this floor — catching real (structural) slowdowns
/// without flaking on scheduler noise.
const SMOKE_FLOOR: f64 = 0.75;

struct Workload {
    name: &'static str,
    scenario: Scenario,
    trials: u32,
    strategies: Vec<(&'static str, Option<StrategyKind>)>,
}

fn workload(quick: bool) -> Workload {
    let strategies: Vec<(&'static str, Option<StrategyKind>)> = vec![
        ("no-strategy", Some(StrategyKind::NoStrategy)),
        ("in-order-overlap", Some(StrategyKind::InOrderOverlap(Discrepancy::SmallTtl))),
        ("improved-teardown", Some(StrategyKind::ImprovedTeardown)),
        ("tcb-creation+resync-desync", Some(StrategyKind::TcbCreationResyncDesync)),
        ("teardown+tcb-reversal", Some(StrategyKind::TeardownTcbReversal)),
    ];
    if quick {
        Workload {
            name: "smoke",
            scenario: Scenario::smoke(2017),
            trials: 2,
            strategies: strategies.into_iter().take(2).collect(),
        }
    } else {
        Workload {
            name: "paper_inside",
            scenario: Scenario::paper_inside(2017),
            trials: 3,
            strategies,
        }
    }
}

struct Measurement {
    threads: usize,
    wall_s: f64,
    trials: u64,
    events: u64,
    identical_to_serial: bool,
    /// Per-worker busy time, summed across the workload's strategy sweeps
    /// (worker i of each sweep maps to slot i).
    busy_s: Vec<f64>,
    /// Per-worker time spent waiting on the ordered-merge mutex.
    merge_wait_s: Vec<f64>,
    /// Per-worker cursor claims (successful + failed).
    steal_attempts: Vec<u64>,
    /// Per-worker claims that found the cursor exhausted.
    steal_failures: Vec<u64>,
    /// Largest reorder window the streaming merge buffered in any sweep.
    merge_high_water: usize,
}

fn run_all(w: &Workload, threads: usize, progress: bool) -> (Vec<SweepRun>, f64) {
    let bar = progress.then(|| {
        let cells = w.scenario.vantage_points.len() * w.scenario.websites.len();
        Progress::start(&format!("bench/{threads}w"), w.strategies.len() * cells, threads)
    });
    let start = Instant::now();
    let runs = w
        .strategies
        .iter()
        .map(|(_, kind)| {
            let mut cfg = SweepConfig::new(*kind, true, w.trials, 2017);
            cfg.progress = bar.clone();
            sweep_with_threads(&w.scenario, &cfg, threads)
        })
        .collect();
    (runs, start.elapsed().as_secs_f64())
}

/// `--smoke`: serial-only throughput gate for CI. Takes five multi-run
/// samples of the quick workload and compares the best events/s against
/// the blessed baseline (written on first run or with `INTANG_BLESS=1` —
/// the *median* sample, so a lucky scheduling moment can't bless an
/// unreachable bar).
/// Baselines are machine-specific, so the file lives out of tree unless
/// deliberately checked in.
fn smoke_gate(bless: bool) -> ! {
    let w = workload(true);
    let baseline_path = std::path::Path::new("scripts/bench_smoke_baseline.txt");
    // A single quick run is only a few ms — hopeless to time on a busy
    // machine. Each sample aggregates 8 consecutive runs (~50 ms of
    // work); warm up once, then take 5 samples.
    let _ = run_all(&w, 1, false);
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let (mut events, mut wall_s) = (0u64, 0.0f64);
            for _ in 0..8 {
                let (runs, w_s) = run_all(&w, 1, false);
                events += runs.iter().map(|r| r.events).sum::<u64>();
                wall_s += w_s;
            }
            events as f64 / wall_s
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    let (median, best) = (rates[2], rates[4]);
    let baseline: Option<f64> = std::fs::read_to_string(baseline_path).ok().and_then(|s| s.trim().parse().ok());
    match baseline {
        Some(base) if !bless => {
            let floor = base * SMOKE_FLOOR;
            eprintln!("bench_sweep --smoke: serial {best:.0} events/s, blessed baseline {base:.0} (floor {floor:.0})");
            if best < floor {
                eprintln!(
                    "ERROR: serial throughput regressed more than {}% below the blessed baseline",
                    100.0 - SMOKE_FLOOR * 100.0
                );
                std::process::exit(1);
            }
            std::process::exit(0);
        }
        _ => {
            std::fs::write(baseline_path, format!("{median:.0}\n")).expect("write smoke baseline");
            eprintln!(
                "bench_sweep --smoke: blessed new baseline {median:.0} events/s (median sample) -> {}",
                baseline_path.display()
            );
            std::process::exit(0);
        }
    }
}

/// `INTANG_ALLOC_GATE=<max>`: the steady-state allocs/trial ceiling, when
/// set. Read at startup so a bad value fails before the timed run: anything
/// but a finite positive number prints an error naming the variable and
/// exits with status 2 (the CLI no-panic contract).
fn alloc_gate() -> Option<f64> {
    let v = std::env::var_os("INTANG_ALLOC_GATE")?;
    match v.to_str().and_then(|s| s.parse::<f64>().ok()).filter(|c| c.is_finite() && *c > 0.0) {
        Some(ceiling) => Some(ceiling),
        None => {
            eprintln!("error: INTANG_ALLOC_GATE needs a positive number, got {v:?}");
            std::process::exit(2);
        }
    }
}

/// `INTANG_BLESS=1` re-blesses the smoke baseline. Like the gate above it
/// is read at startup: any value but unset, `0` or `1` exits 2 naming the
/// variable, so `INTANG_BLESS=true` cannot silently skip a re-bless.
fn bless() -> bool {
    intang_telemetry::knobs::flag("INTANG_BLESS").unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

fn main() {
    let args = CommonArgs::parse();
    let alloc_gate = alloc_gate();
    let bless = bless();
    let quick = args.quick;
    if std::env::args().any(|a| a == "--smoke") {
        smoke_gate(bless);
    }
    let w = workload(quick);
    let max = worker_count();
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let mut thread_counts = vec![1usize, 4, max];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    eprintln!(
        "bench_sweep: scenario={} ({} VPs x {} sites), {} strategies, {} trials/cell, worker counts {:?}, {} core(s)",
        w.name,
        w.scenario.vantage_points.len(),
        w.scenario.websites.len(),
        w.strategies.len(),
        w.trials,
        thread_counts,
        cores,
    );
    if thread_counts.iter().any(|&t| t > cores) {
        eprintln!(
            "  WARNING: some worker counts exceed the machine's {cores} available core(s); \
             their \"speedup\" measures scheduler time-slicing, not parallel hardware"
        );
    }

    let mut serial_runs: Option<Vec<SweepRun>> = None;
    let mut serial_wall = 0.0f64;
    let mut measurements = Vec::new();
    let mut total_violations = 0u64;
    let mut checked_cells = 0u64;
    for &threads in &thread_counts {
        let (runs, wall_s) = run_all(&w, threads, args.progress);
        let trials: u64 = runs.iter().map(|r| r.trials).sum();
        let events: u64 = runs.iter().map(|r| r.events).sum();
        total_violations += runs.iter().map(|r| r.violations).sum::<u64>();
        checked_cells += runs.iter().map(|r| r.checked_cells).sum::<u64>();
        let mut busy_s = vec![0.0f64; threads];
        let mut merge_wait_s = vec![0.0f64; threads];
        let mut steal_attempts = vec![0u64; threads];
        let mut steal_failures = vec![0u64; threads];
        let mut merge_high_water = 0usize;
        for r in &runs {
            for (slot, ws) in r.worker_stats.iter().enumerate().take(threads) {
                busy_s[slot] += ws.busy.as_secs_f64();
                merge_wait_s[slot] += ws.merge_wait.as_secs_f64();
                steal_attempts[slot] += ws.steal_attempts;
                steal_failures[slot] += ws.steal_failures;
            }
            merge_high_water = merge_high_water.max(r.merge_high_water);
        }
        let identical = match &serial_runs {
            None => {
                serial_wall = wall_s;
                serial_runs = Some(runs);
                true
            }
            Some(serial) => serial
                .iter()
                .zip(&runs)
                .all(|(a, b)| a.rows == b.rows && a.events == b.events && a.metrics == b.metrics && a.diagnoses == b.diagnoses),
        };
        eprintln!(
            "  {threads:>3} workers: {wall_s:8.2}s  {:>9.1} trials/s  {:>11.0} events/s  speedup {:>5.2}x  identical={identical}",
            trials as f64 / wall_s,
            events as f64 / wall_s,
            serial_wall / wall_s,
        );
        measurements.push(Measurement {
            threads,
            wall_s,
            trials,
            events,
            identical_to_serial: identical,
            busy_s,
            merge_wait_s,
            steal_attempts,
            steal_failures,
            merge_high_water,
        });
    }

    // Steady-state allocation profile: the loop above warmed every scratch
    // buffer and code path; rerun the serial workload with the counters
    // zeroed. Pool counters are always available; the heap-allocation
    // counter needs the `alloc-count` feature (reported as null without it).
    intang_packet::wire::reset_pool_stats();
    intang_packet::arena::reset_stats();
    #[cfg(feature = "alloc-count")]
    intang_telemetry::alloc::reset_alloc_count();
    let (steady_runs, steady_wall) = run_all(&w, 1, false);
    #[cfg(feature = "alloc-count")]
    let allocs_per_trial: Option<f64> = {
        let steady_trials: u64 = steady_runs.iter().map(|r| r.trials).sum();
        Some(intang_telemetry::alloc::alloc_count() as f64 / steady_trials as f64)
    };
    let (pool_hits, pool_misses) = intang_packet::wire::pool_stats();
    let (arena_hits, arena_misses) = intang_packet::arena::stats();
    #[cfg(not(feature = "alloc-count"))]
    let allocs_per_trial: Option<f64> = None;
    let pool_hit_rate = pool_hits as f64 / (pool_hits + pool_misses).max(1) as f64;
    let arena_hit_rate = arena_hits as f64 / (arena_hits + arena_misses).max(1) as f64;
    eprintln!(
        "  steady state: {steady_wall:.2}s, wire pool {pool_hits} hits / {pool_misses} misses ({:.1}% hit), \
         arenas {arena_hits} hits / {arena_misses} misses ({:.1}% hit), allocs/trial {}",
        pool_hit_rate * 100.0,
        arena_hit_rate * 100.0,
        allocs_per_trial.map_or("n/a (build with --features alloc-count)".to_string(), |a| format!("{a:.1}")),
    );
    drop(steady_runs);

    // Allocation ceiling gate (CI): fails the run if the steady-state
    // heap-allocation rate regresses past the ceiling. Requires the
    // counting allocator — a gate that cannot count must fail loudly
    // rather than pass vacuously.
    if let Some(ceiling) = alloc_gate {
        match allocs_per_trial {
            Some(a) if a < ceiling => {
                eprintln!("  alloc gate: {a:.1} allocs/trial < ceiling {ceiling}");
            }
            Some(a) => {
                eprintln!("bench_sweep: FAIL: {a:.1} allocs/trial >= ceiling {ceiling}");
                std::process::exit(1);
            }
            None => {
                eprintln!("bench_sweep: FAIL: INTANG_ALLOC_GATE set but binary lacks --features alloc-count");
                std::process::exit(1);
            }
        }
    }

    // Instrumented pass: one serial run with the gauge series and the span
    // profiler switched on. Kept strictly after the timed measurements so
    // the observability cost never leaks into the throughput numbers.
    let prev_series = intang_telemetry::series::set_thread(Some(true));
    let prev_spans = intang_telemetry::spans::set_thread(Some(true));
    let (instrumented_runs, instrumented_wall) = run_all(&w, 1, false);
    intang_telemetry::series::set_thread(prev_series);
    intang_telemetry::spans::set_thread(prev_spans);
    let mut series = intang_telemetry::SeriesSheet::new();
    let mut profile = intang_telemetry::SpanSheet::new();
    let mut instrumented_busy = Duration::ZERO;
    for r in &instrumented_runs {
        if let Some(s) = &r.series {
            series.merge(s);
        }
        profile.merge(&r.profile());
        for ws in &r.worker_stats {
            instrumented_busy += ws.busy;
        }
    }
    let busy_coverage = profile.total_self_nanos() as f64 / (instrumented_busy.as_nanos().max(1) as f64);
    eprintln!(
        "  instrumented: {instrumented_wall:.2}s serial; profile covers {:.1}% of worker busy time",
        busy_coverage * 100.0,
    );
    args.write_profile_folded(&profile);
    drop(instrumented_runs);

    let serial = serial_runs.expect("at least one worker count ran");
    let success_rates: Vec<(&str, f64)> = w
        .strategies
        .iter()
        .zip(&serial)
        .map(|((name, _), run)| (*name, overall(&run.rows).success_rate()))
        .collect();

    // Merged telemetry counters across all strategies (serial run).
    let mut merged = intang_telemetry::MetricsSheet::new();
    for run in &serial {
        merged.merge(&run.metrics);
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"scenario\": \"{}\",", w.name);
    let _ = writeln!(
        json,
        "  \"vantage_points\": {},\n  \"websites\": {},\n  \"trials_per_cell\": {},\n  \"master_seed\": 2017,",
        w.scenario.vantage_points.len(),
        w.scenario.websites.len(),
        w.trials,
    );
    let names: Vec<String> = w.strategies.iter().map(|(n, _)| format!("\"{n}\"")).collect();
    let _ = writeln!(json, "  \"strategies\": [{}],", names.join(", "));
    json.push_str("  \"overall_success_rate\": {");
    let rates: Vec<String> = success_rates.iter().map(|(n, r)| format!("\"{n}\": {r:.4}")).collect();
    json.push_str(&rates.join(", "));
    json.push_str("},\n  \"counters\": {");
    let counters: Vec<String> = merged.nonzero_counters().map(|(c, v)| format!("\"{}\": {v}", c.name())).collect();
    json.push_str(&counters.join(", "));
    json.push_str("},\n");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"wire_pool\": {{\"hits\": {pool_hits}, \"misses\": {pool_misses}, \"hit_rate\": {pool_hit_rate:.4}}},"
    );
    let _ = writeln!(
        json,
        "  \"arenas\": {{\"hits\": {arena_hits}, \"misses\": {arena_misses}, \"hit_rate\": {arena_hit_rate:.4}}},"
    );
    // An unmeasurable quantity is reported as unmeasured, never as a bare
    // null a consumer could misread as "zero allocations".
    let _ = writeln!(
        json,
        "  \"allocs_per_trial\": {},",
        allocs_per_trial.map_or_else(
            || "{\"measured\": false}".to_string(),
            |a| format!("{{\"measured\": true, \"per_trial\": {a:.1}}}")
        ),
    );
    json.push_str("  \"series\": {");
    let gauges: Vec<String> = GaugeId::ALL
        .iter()
        .filter(|&&id| !series.series(id).is_empty())
        .map(|&id| format!("\"{}\": {}", id.name(), series.series(id).to_json()))
        .collect();
    json.push_str(&gauges.join(", "));
    json.push_str("},\n");
    let buckets: Vec<String> = SpanId::ALL
        .iter()
        .map(|&id| format!("\"{}\": {}", id.name(), profile.self_nanos[id as usize]))
        .collect();
    let _ = writeln!(
        json,
        "  \"profile\": {{\"total_self_nanos\": {}, \"busy_coverage\": {busy_coverage:.3}, \"self_nanos\": {{{}}}}},",
        profile.total_self_nanos(),
        buckets.join(", "),
    );
    json.push_str("  \"runs\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let busy: Vec<String> = m.busy_s.iter().map(|b| format!("{b:.3}")).collect();
        let waits: Vec<String> = m.merge_wait_s.iter().map(|b| format!("{b:.3}")).collect();
        let attempts: Vec<String> = m.steal_attempts.iter().map(u64::to_string).collect();
        let failures: Vec<String> = m.steal_failures.iter().map(u64::to_string).collect();
        let _ = write!(
            json,
            "    {{\"threads\": {}, \"wall_s\": {:.3}, \"trials\": {}, \"trials_per_s\": {:.1}, \"events\": {}, \"events_per_s\": {:.0}, \"speedup_vs_serial\": {:.2}, \"identical_to_serial\": {}, \"worker_busy_s\": [{}], \"merge_wait_s\": [{}], \"steal_attempts\": [{}], \"steal_failures\": [{}], \"merge_high_water\": {}}}",
            m.threads,
            m.wall_s,
            m.trials,
            m.trials as f64 / m.wall_s,
            m.events,
            m.events as f64 / m.wall_s,
            serial_wall / m.wall_s,
            m.identical_to_serial,
            busy.join(", "),
            waits.join(", "),
            attempts.join(", "),
            failures.join(", "),
            m.merge_high_water,
        );
        json.push_str(if i + 1 < measurements.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    if !quick {
        // The quick smoke run (CI) must not clobber the checked-in
        // full-workload artifact.
        std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    }
    println!("{json}");

    if measurements.iter().any(|m| !m.identical_to_serial) {
        eprintln!("ERROR: parallel aggregates diverged from the serial run");
        std::process::exit(1);
    }

    if intang_simcheck::enabled() {
        eprintln!("  simcheck: {total_violations} invariant violation(s) across all runs ({checked_cells} cells checked)");
        if total_violations > 0 {
            eprintln!(
                "ERROR: simcheck reported invariant violations; minimal repro artifacts are in {}",
                intang_experiments::simcheck::artifact_dir().display()
            );
            std::process::exit(1);
        }
    }
}
