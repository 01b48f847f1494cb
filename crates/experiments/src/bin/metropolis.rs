//! Metropolis scale runner: one simulated world hosting a large
//! population of concurrent client flows behind one INTANG shim and one
//! GFW tap whose state is partitioned into `--shards` lanes (`--shards 1`
//! is one global censor). Sweeps the flow count (1k → 100k by default,
//! higher with `--flows`), reporting per-flow outcome counts, cross-flow
//! interference counters (blacklist collateral resets, TCB evictions,
//! resync storms), throughput (flows/s, events/s) and peak RSS. Every
//! sweep point is the `domains = 1` serial reference of
//! `run_metropolis_domains`.
//!
//! After the sweep the largest point is re-run as parallel event domains:
//! the full domain count across 1/2/`--workers` threads, with every cell
//! byte-compared against that point's serial run (outcome grid, counters,
//! metrics). The JSON gains a `parallel` section carrying `cores`,
//! per-worker busy/steal/merge statistics and per-domain event counts —
//! honest numbers: on a 1-core container the wall-clock speedup ceiling
//! is 1x and the report says so rather than inventing throughput.
//!
//! Writes `BENCH_metropolis.json` into the current directory (skipped on
//! `--quick`, so the CI smoke run never clobbers the full artifact).
//! `--smoke` runs a 1k-flow world with simcheck forced on — serial, then
//! a multi-domain parallel leg byte-compared against it — requires zero
//! invariant violations, zero per-flow ordering regressions and zero
//! serial/parallel divergence, and gates peak RSS against
//! `INTANG_METRO_RSS_MB` when set.
//!
//! Extra flags beyond the common set: `--flows N` caps the sweep at `N`
//! flows (adding `N` as a sweep point), `--shards N` overrides the shard
//! count (default 8), `--domains N` the parallel domain count (default =
//! shards), `--workers N` the max worker-thread count (default = cores),
//! `--middlebox` inserts a strict server-side sequence firewall one hop
//! past the censor, and `--censor-profile SPEC` (common set) runs the
//! censor from a compiled profile instead of the stock evolved model.
//! A count that does not fit its type, or a non-numeric
//! `INTANG_METRO_RSS_MB`, exits 2.

use intang_experiments::args::CommonArgs;
use intang_experiments::metropolis::{run_metropolis_domains, shard_latency_stats, MetroDomainsRun, MetroParams, MetroRun};
use intang_gfw::{EvictionPolicy, GfwConfig};
use intang_telemetry::GaugeId;
use std::fmt::Write as _;
use std::time::Instant;

/// Peak resident-set high-water mark (`VmHWM`) of this process in kB,
/// from `/proc/self/status`. Process-wide and monotonic: a value reported
/// after a sweep point covers everything run so far. `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One timed run of [`run_metropolis_domains`].
struct Measurement {
    flows: u32,
    wall_s: f64,
    run: MetroDomainsRun,
    peak_rss_kb: Option<u64>,
    /// Byte-identical to the reference it was compared against (`true`
    /// when there was none).
    identical: bool,
}

/// Worker threads this container can actually run at once.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Field-wise byte comparison of the deterministic payload (wall-clock
/// diagnostics excluded by construction).
fn runs_identical(a: &MetroRun, b: &MetroRun) -> bool {
    a.results == b.results
        && a.counts == b.counts
        && a.shards == b.shards
        && a.events == b.events
        && a.collateral_resets == b.collateral_resets
        && a.tcbs_evicted == b.tcbs_evicted
        && a.resync_storms == b.resync_storms
        && a.metrics == b.metrics
        && a.series == b.series
}

/// Everything but the flow count that defines one invocation's worlds.
struct WorldKnobs {
    seed: u64,
    shards: u32,
    censor: Option<GfwConfig>,
    middlebox: bool,
}

/// Run `flows` flows as `domains` event domains on `workers` threads and
/// byte-compare the result against `reference` when given.
fn measure(knobs: &WorldKnobs, flows: u32, domains: u32, workers: usize, reference: Option<&MetroRun>) -> Measurement {
    let mut p = MetroParams::new(flows, knobs.seed);
    p.shards = knobs.shards;
    p.censor = knobs.censor.clone();
    p.middlebox = knobs.middlebox;
    let start = Instant::now();
    let run = run_metropolis_domains(&p, domains, workers);
    let wall_s = start.elapsed().as_secs_f64();
    let identical = reference.is_none_or(|r| runs_identical(r, &run.run));
    Measurement {
        flows,
        wall_s,
        run,
        peak_rss_kb: peak_rss_kb(),
        identical,
    }
}

/// Print every gate failure of one run to stderr — serial/parallel
/// divergence, simcheck violations, per-flow ordering regressions, flows
/// left non-terminal — and return whether there was any.
fn report_failures(m: &Measurement) -> bool {
    let r = &m.run.run;
    let at = format!("{} flows, {} domain(s) x {} worker(s)", m.flows, m.run.domains, m.run.workers);
    let (spawned, succeeded, reset, stalled) = r.counts;
    let mut failed = false;
    if !m.identical {
        eprintln!("ERROR: parallel metropolis ({at}) diverged from the serial reference");
        failed = true;
    }
    if r.violations > 0 {
        eprintln!(
            "ERROR: simcheck reported {} invariant violation(s) at {at}; minimal repro artifacts are in {}",
            r.violations,
            intang_experiments::simcheck::artifact_dir().display()
        );
        failed = true;
    }
    if r.order_violations > 0 {
        eprintln!("ERROR: {} per-flow (time, seq) ordering regression(s) at {at}", r.order_violations);
        failed = true;
    }
    if succeeded + reset + stalled != spawned {
        eprintln!(
            "ERROR: {} flow(s) left in a non-terminal state at {at}",
            spawned.saturating_sub(succeeded + reset + stalled)
        );
        failed = true;
    }
    failed
}

/// `--smoke`: CI gate. 1k flows with simcheck forced on — the serial
/// run, then a multi-domain parallel leg byte-compared against it; fails
/// on any [`report_failures`] finding or (when `rss_ceiling_mb` is set)
/// peak RSS above the ceiling.
fn smoke_gate(knobs: &WorldKnobs, domains: u32, workers: usize, rss_ceiling_mb: Option<u64>) -> ! {
    intang_simcheck::set_thread(Some(true));
    let serial = measure(knobs, 1_000, 1, 1, None);
    let m = &serial.run.run;
    let (spawned, succeeded, reset, stalled) = m.counts;
    eprintln!(
        "metropolis --smoke: {spawned} flows in {:.2}s ({succeeded} ok / {reset} reset / {stalled} stalled), \
         {} collateral resets, {} evictions, {} storms, {} simcheck violation(s)",
        serial.wall_s, m.collateral_resets, m.tcbs_evicted, m.resync_storms, m.violations,
    );
    // Parallel leg: the same world as event domains, still under
    // simcheck, byte-compared against the serial run.
    let par = measure(knobs, 1_000, domains, workers, Some(m));
    eprintln!(
        "metropolis --smoke (parallel): {} domains x {} workers in {:.2}s, {} events, identical={}, {} simcheck violation(s)",
        par.run.domains, par.run.workers, par.wall_s, par.run.run.events, par.identical, par.run.run.violations,
    );
    let mut failed = report_failures(&serial) | report_failures(&par);
    if let Some(ceiling_mb) = rss_ceiling_mb {
        // Re-read after the parallel leg: VmHWM is monotonic, so this
        // covers every run in the gate.
        match peak_rss_kb() {
            Some(kb) if kb / 1024 <= ceiling_mb => {
                eprintln!("  rss gate: peak {} MB <= ceiling {ceiling_mb} MB", kb / 1024);
            }
            Some(kb) => {
                eprintln!("ERROR: peak RSS {} MB exceeds ceiling {ceiling_mb} MB", kb / 1024);
                failed = true;
            }
            None => {
                eprintln!("ERROR: INTANG_METRO_RSS_MB set but /proc/self/status is unreadable");
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// Parse a flag's or environment variable's value into `T`, or exit 2
/// naming it: a missing, non-numeric or out-of-range value never panics
/// or wraps.
fn numeric<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    let v = v.unwrap_or_default();
    v.parse().unwrap_or_else(|_| {
        eprintln!(
            "error: {flag} needs a number in the {} range, got {v:?}",
            std::any::type_name::<T>()
        );
        std::process::exit(2);
    })
}

fn main() {
    // A bad run switch exits 2 before any flow runs.
    intang_telemetry::knobs::env();
    // Split off the metropolis-specific flags, delegate the rest.
    let mut flows_cap: Option<u32> = None;
    let mut shards: u32 = 8;
    let mut domains: Option<u32> = None;
    let mut max_workers: Option<usize> = None;
    let mut middlebox = false;
    let mut smoke = false;
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--flows" => flows_cap = Some(numeric("--flows", it.next())),
            "--shards" => shards = numeric("--shards", it.next()),
            "--domains" => domains = Some(numeric("--domains", it.next())),
            "--workers" => max_workers = Some(numeric("--workers", it.next())),
            "--middlebox" => middlebox = true,
            _ => {
                smoke |= a == "--smoke";
                rest.push(a);
            }
        }
    }
    let args = match CommonArgs::parse_from(rest) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "metropolis flags: --flows N, --shards N, --domains N, --workers N, --middlebox, \
                 plus the common set (--quick/--smoke/--seed/--censor-profile/...)"
            );
            std::process::exit(2);
        }
    };
    let knobs = WorldKnobs {
        seed: args.seed,
        shards,
        censor: args.censor_config(),
        middlebox,
    };
    let domains = domains.unwrap_or(shards).clamp(1, shards.max(1));
    let max_workers = max_workers.unwrap_or_else(cores).clamp(1, domains as usize);
    if smoke {
        let rss_ceiling_mb = std::env::var("INTANG_METRO_RSS_MB")
            .ok()
            .map(|mb| numeric("INTANG_METRO_RSS_MB", Some(mb)));
        smoke_gate(&knobs, domains, max_workers.max(2).min(domains as usize), rss_ceiling_mb);
    }

    let mut sweep: Vec<u32> = if args.quick { vec![1_000] } else { vec![1_000, 10_000, 100_000] };
    if let Some(cap) = flows_cap {
        sweep.retain(|&f| f < cap);
        sweep.push(cap);
    }
    eprintln!("metropolis: sweeping {sweep:?} flows, {shards} shards, seed {}", args.seed);

    let mut measurements = Vec::new();
    for &flows in &sweep {
        let m = measure(&knobs, flows, 1, 1, None);
        let r = &m.run.run;
        let (spawned, succeeded, reset, stalled) = r.counts;
        eprintln!(
            "  {flows:>8} flows: {:8.2}s  {:>9.0} flows/s  {:>11.0} events/s  \
             {succeeded} ok / {reset} reset / {stalled} stalled  \
             collateral={} evicted={} storms={} rss={}MB",
            m.wall_s,
            spawned as f64 / m.wall_s,
            r.events as f64 / m.wall_s,
            r.collateral_resets,
            r.tcbs_evicted,
            r.resync_storms,
            m.peak_rss_kb.map_or(0, |kb| kb / 1024),
        );
        measurements.push(m);
    }

    // Instrumented pass: rerun the smallest sweep point with the gauge
    // series enabled, strictly after the timed loop so sampling cost never
    // touches the throughput numbers.
    let prev = intang_telemetry::series::set_thread(Some(true));
    let instrumented = measure(&knobs, sweep[0], 1, 1, None);
    intang_telemetry::series::set_thread(prev);
    let series = instrumented.run.run.series.as_deref();

    // Parallel event domains: the largest sweep point again, at the full
    // domain count on 1/2/max worker threads, each cell byte-compared to
    // that point's serial (`domains = 1`) sweep run.
    let largest = measurements.last().expect("sweep is non-empty");
    let par_flows = largest.flows;
    let ncores = cores();
    if max_workers > ncores {
        eprintln!(
            "warning: {max_workers} worker threads on {ncores} core(s); wall-clock speedup is bounded by cores \
             (per-worker busy seconds below measure the work actually overlapped)"
        );
    }
    eprintln!("metropolis: parallel domains at {par_flows} flows, {domains} domains, up to {max_workers} workers ({ncores} cores)");
    // Always include the full-width cell (workers = domains) so the
    // artifact documents the many-threads-few-cores ceiling explicitly.
    let mut worker_axis = vec![1usize, 2, max_workers, domains as usize];
    worker_axis.sort_unstable();
    worker_axis.dedup();
    worker_axis.retain(|&w| w <= domains as usize);
    let mut parallel = Vec::new();
    for &w in &worker_axis {
        let m = measure(&knobs, par_flows, domains, w, Some(&largest.run.run));
        eprintln!(
            "  {:>3} domains x {}w: {:8.2}s  {:>11.0} events/s  speedup={:.2}x  identical={}  steals={}/{} failed",
            m.run.domains,
            m.run.workers,
            m.wall_s,
            m.run.run.events as f64 / m.wall_s,
            largest.wall_s / m.wall_s,
            m.identical,
            m.run.worker_stats.iter().map(|s| s.steal_attempts).sum::<u64>(),
            m.run.worker_stats.iter().map(|s| s.steal_failures).sum::<u64>(),
        );
        parallel.push(m);
    }

    // Span-profiler pass: rerun the largest sweep point with the span
    // stack on and export the folded profile — the tool that localized
    // the 10k -> 100k flows/s collapse to the server-cell TTL backlog.
    // The domain runs on an executor worker, so its spans come back in
    // the worker sheets, not on this thread.
    if args.profile_folded.is_some() {
        let prev = intang_telemetry::spans::set_thread(Some(true));
        let m = measure(&knobs, par_flows, 1, 1, None);
        intang_telemetry::spans::set_thread(prev);
        let mut profile = intang_telemetry::SpanSheet::new();
        for sheet in &m.run.worker_profiles {
            profile.merge(sheet);
        }
        args.write_profile_folded(&profile);
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"master_seed\": {},", args.seed);
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"cores\": {ncores},");
    let flows_list: Vec<String> = sweep.iter().map(u32::to_string).collect();
    let _ = writeln!(json, "  \"flows_sweep\": [{}],", flows_list.join(", "));
    let _ = writeln!(
        json,
        "  \"censor\": {{\"max_tcbs\": {}, \"eviction\": \"{:?}\", \"profile\": \"{}\", \"middlebox\": {}}},",
        MetroParams::new(1, 0).max_tcbs,
        EvictionPolicy::Oldest,
        args.censor_profile.as_deref().unwrap_or("builtin-evolved"),
        middlebox,
    );
    json.push_str("  \"runs\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let r = &m.run.run;
        let (spawned, succeeded, reset, stalled) = r.counts;
        let lat = shard_latency_stats(&r.shards);
        let _ = write!(
            json,
            "    {{\"flows\": {}, \"wall_s\": {:.3}, \"flows_per_s\": {:.1}, \"events\": {}, \"events_per_s\": {:.0}, \
             \"succeeded\": {succeeded}, \"reset\": {reset}, \"stalled\": {stalled}, \
             \"collateral_resets\": {}, \"tcbs_evicted\": {}, \"resync_storms\": {}, \
             \"order_violations\": {}, \"peak_rss_kb\": {}, \
             \"shard_latency_us\": {{\"min\": {:.1}, \"max\": {:.1}, \"avg\": {:.1}, \"empty_shards\": {}}}}}",
            m.flows,
            m.wall_s,
            spawned as f64 / m.wall_s,
            r.events,
            r.events as f64 / m.wall_s,
            r.collateral_resets,
            r.tcbs_evicted,
            r.resync_storms,
            r.order_violations,
            m.peak_rss_kb.map_or_else(|| "null".to_string(), |kb| kb.to_string()),
            lat.min,
            lat.max,
            lat.avg,
            lat.empty,
        );
        json.push_str(if i + 1 < measurements.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Parallel event domains: the determinism grid plus honest executor
    // numbers. `identical` is the byte-comparison against the serial
    // reference (the largest sweep run); busy/steal/merge are wall-clock
    // diagnostics and vary run to run.
    let _ = writeln!(json, "  \"parallel\": {{");
    let _ = writeln!(json, "    \"flows\": {par_flows},");
    let _ = writeln!(json, "    \"domains\": {domains},");
    let _ = writeln!(
        json,
        "    \"note\": \"wall-clock speedup is bounded by cores ({ncores}); per-worker busy_s measures overlapped work\","
    );
    let _ = writeln!(
        json,
        "    \"reference\": {{\"domains\": 1, \"workers\": 1, \"wall_s\": {:.3}, \"events\": {}, \"events_per_s\": {:.0}}},",
        largest.wall_s,
        largest.run.run.events,
        largest.run.run.events as f64 / largest.wall_s,
    );
    json.push_str("    \"runs\": [\n");
    for (i, m) in parallel.iter().enumerate() {
        let workers_json: Vec<String> = m
            .run
            .worker_stats
            .iter()
            .map(|s| {
                format!(
                    "{{\"busy_s\": {:.3}, \"merge_wait_s\": {:.6}, \"steal_attempts\": {}, \"steal_failures\": {}}}",
                    s.busy.as_secs_f64(),
                    s.merge_wait.as_secs_f64(),
                    s.steal_attempts,
                    s.steal_failures,
                )
            })
            .collect();
        let domains_json: Vec<String> = m
            .run
            .domain_stats
            .iter()
            .map(|d| {
                format!(
                    "{{\"domain\": {}, \"events\": {}, \"flows\": {}, \"busy_s\": {:.3}}}",
                    d.domain,
                    d.events,
                    d.flows_owned,
                    d.busy.as_secs_f64()
                )
            })
            .collect();
        let _ = write!(
            json,
            "      {{\"domains\": {}, \"workers\": {}, \"wall_s\": {:.3}, \"flows_per_s\": {:.1}, \"events_per_s\": {:.0}, \
             \"speedup_vs_serial\": {:.3}, \"aggregation_identical\": {}, \"order_violations\": {}, \
             \"worker_stats\": [{}], \"domain_stats\": [{}]}}",
            m.run.domains,
            m.run.workers,
            m.wall_s,
            m.run.run.counts.0 as f64 / m.wall_s,
            m.run.run.events as f64 / m.wall_s,
            largest.wall_s / m.wall_s,
            m.identical,
            m.run.run.order_violations,
            workers_json.join(", "),
            domains_json.join(", "),
        );
        json.push_str(if i + 1 < parallel.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  },\n  \"counters\": {");
    let counters: Vec<String> = largest
        .run
        .run
        .metrics
        .nonzero_counters()
        .map(|(c, v)| format!("\"{}\": {v}", c.name()))
        .collect();
    json.push_str(&counters.join(", "));
    json.push_str("},\n  \"series\": {");
    let gauges: Vec<String> = series
        .map(|s| {
            GaugeId::ALL
                .iter()
                .filter(|&&id| !s.series(id).is_empty())
                .map(|&id| format!("\"{}\": {}", id.name(), s.series(id).to_json()))
                .collect()
        })
        .unwrap_or_default();
    json.push_str(&gauges.join(", "));
    json.push_str("}\n}\n");

    if !args.quick {
        std::fs::write("BENCH_metropolis.json", &json).expect("write BENCH_metropolis.json");
    }
    println!("{json}");

    if intang_simcheck::enabled() {
        let total: u64 = measurements.iter().chain(&parallel).map(|m| m.run.run.violations).sum();
        eprintln!("  simcheck: {total} invariant violation(s) across all runs");
    }
    // Every run is checked, so each failure is reported (no short-circuit).
    let failed = measurements.iter().chain(&parallel).fold(false, |f, m| report_failures(m) | f);
    if failed {
        std::process::exit(1);
    }
}
