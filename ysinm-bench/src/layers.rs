//! Per-layer metrics: span self-times from the traced pass, the
//! benchmark's own timing of its calls into each layer, counters from the
//! metrics sheet, and gauges from the series pass.

use crate::workload::Pass;
use intang_netsim::event::{Event, EventQueue};
use intang_telemetry::{Counter, GaugeId, GaugeSeries, SpanId};
use std::time::{Duration, Instant};

/// Everything the traced run measured, beyond the passes themselves.
pub struct Trace {
    /// The pass run with the span profiler on.
    pub traced: Pass,
    pub traced_wall: Duration,
    /// The pass run with gauge series on.
    pub gauged: Pass,
    /// Fastest untraced repetition, the base of the tracing overhead.
    pub untraced_best: Duration,
    /// Fetches per pass.
    pub fetches: u64,
    /// Wall time of every sweep cell in an untraced cell-by-cell pass
    /// (empty for metro).
    pub sweep_cells: Vec<Duration>,
    /// Metropolis domain builds, timed from here (zero for sweeps).
    pub build: Duration,
    /// `(batches, batched events)` over the traced pass.
    pub batches: (u64, u64),
    /// `(hits, misses)` of the wire pool and the recycling arenas over the
    /// traced pass.
    pub wire_pool: (u64, u64),
    pub arenas: (u64, u64),
    /// Event queues one gauge reading sums over: the metropolis domains
    /// (the program zip-sums their samples into world totals), else 1.
    pub queues: u32,
}

/// `(name, value, unit)` for every per-layer metric, in `BENCHMARK.json`
/// order. A layer the workload does not exercise reads 0.
pub fn metrics(t: &Trace) -> Vec<(&'static str, f64, &'static str)> {
    let p = &t.traced;
    let m = &p.metrics;
    let c = |id: Counter| m.counter(id) as f64;
    let self_ns = |id: SpanId| p.profile.self_nanos[id as usize] as f64;
    let total_ns = p.profile.total_self_nanos() as f64;
    let events = p.events as f64;
    let fetches = t.fetches as f64;
    let segments = c(Counter::StackSegmentsRx) + c(Counter::StackSegmentsTx);
    let transmitted = c(Counter::NetsimDelivered) + c(Counter::NetsimTtlExpired) + c(Counter::NetsimLost);
    let link_faults = c(Counter::NetsimDuplicated)
        + c(Counter::NetsimReordered)
        + c(Counter::NetsimMtuDropped)
        + c(Counter::NetsimBurstLosses)
        + c(Counter::FaultRouteFlaps);
    let middlebox_drops = c(Counter::MiddleboxFilterDrops)
        + c(Counter::MiddleboxFragDrops)
        + c(Counter::MiddleboxSeqfwBlocked)
        + c(Counter::MiddleboxConntrackBlocked);
    let sweep = !t.sweep_cells.is_empty();
    let trials = if sweep { fetches } else { 0.0 };
    let cells = t.sweep_cells.len() as f64;

    let mut cell_us: Vec<f64> = t.sweep_cells.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    cell_us.sort_by(f64::total_cmp);
    // The traced metropolis pass retires event domains, not cells.
    let busy: Vec<f64> = if sweep {
        Vec::new()
    } else {
        p.unit_walls.iter().map(Duration::as_secs_f64).collect()
    };
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    let busy_mean = ratio(busy.iter().sum(), busy.len() as f64);

    let series = &t.gauged.series;
    let depth = series.series(GaugeId::EventQueueDepth);
    let depth_mean = series_mean(depth);
    let tcbs_max = series_max(series.series(GaugeId::GfwTcbsEvolved)).max(series_max(series.series(GaugeId::GfwTcbsOld)));

    vec![
        (
            "netsim.event_loop.self_ns_per_event",
            ratio(self_ns(SpanId::EventLoop), events),
            "ns",
        ),
        ("netsim.event_loop.share", ratio(self_ns(SpanId::EventLoop), total_ns), "ratio"),
        ("tcpstack.self_ns_per_segment", ratio(self_ns(SpanId::Tcpstack), segments), "ns"),
        ("tcpstack.share", ratio(self_ns(SpanId::Tcpstack), total_ns), "ratio"),
        ("gfw.self_ns_per_event", ratio(self_ns(SpanId::Gfw), events), "ns"),
        ("gfw.share", ratio(self_ns(SpanId::Gfw), total_ns), "ratio"),
        (
            "gfw.dpi.self_ns_per_kib",
            ratio(self_ns(SpanId::DpiScan), c(Counter::GfwDpiBytesScanned) / 1024.0),
            "ns",
        ),
        ("packet.checksum.self_ns_per_event", ratio(self_ns(SpanId::Checksum), events), "ns"),
        ("core.intang.self_ns_per_event", ratio(self_ns(SpanId::Intang), events), "ns"),
        (
            "experiments.trial.self_us_per_trial",
            ratio(self_ns(SpanId::Trial) / 1e3, trials),
            "us",
        ),
        ("faults.derive.self_ns_per_trial", ratio(self_ns(SpanId::FaultDerive), trials), "ns"),
        (
            "telemetry.merge.self_us_per_cell",
            ratio(self_ns(SpanId::TelemetryMerge) / 1e3, cells),
            "us",
        ),
        ("trace.busy_coverage", ratio(total_ns, t.traced_wall.as_nanos() as f64), "ratio"),
        (
            "trace.overhead_ratio",
            ratio(t.traced_wall.as_secs_f64(), t.untraced_best.as_secs_f64()),
            "ratio",
        ),
        ("experiments.cell.p50_us", percentile(&cell_us, 0.50), "us"),
        ("experiments.cell.p95_us", percentile(&cell_us, 0.95), "us"),
        ("experiments.metro.build_ms", t.build.as_secs_f64() * 1e3, "ms"),
        ("experiments.metro.domain_busy_skew", ratio(busy_max, busy_mean), "ratio"),
        (
            "netsim.queue.push_pop_ns",
            queue_push_pop_ns((depth_mean / f64::from(t.queues)).round().max(1.0) as usize),
            "ns",
        ),
        ("netsim.events_per_unit", ratio(events, fetches), "count"),
        ("netsim.batch.mean_size", ratio(t.batches.1 as f64, t.batches.0 as f64), "count"),
        ("netsim.delivered_per_event", ratio(c(Counter::NetsimDelivered), events), "ratio"),
        (
            "netsim.ttl_expired_share",
            ratio(c(Counter::NetsimTtlExpired), transmitted),
            "ratio",
        ),
        ("netsim.link_fault_events_per_trial", ratio(link_faults, trials), "count"),
        ("packet.wire_pool.hit_rate", hit_rate(t.wire_pool), "ratio"),
        ("packet.arena.hit_rate", hit_rate(t.arenas), "ratio"),
        ("gfw.tcbs_created_per_unit", ratio(c(Counter::GfwTcbsCreated), fetches), "count"),
        ("gfw.tcbs_evicted", c(Counter::GfwTcbsEvicted), "count"),
        ("gfw.blacklist_hits_per_unit", ratio(c(Counter::GfwBlacklistHits), fetches), "count"),
        ("tcpstack.segments_per_unit", ratio(segments, fetches), "count"),
        (
            "tcpstack.ignored_share",
            ratio(c(Counter::StackSegmentsIgnored), c(Counter::StackSegmentsRx)),
            "ratio",
        ),
        (
            "core.packets_injected_per_unit",
            ratio(c(Counter::IntangInsertionsSent) + c(Counter::IntangProbesSent), fetches),
            "count",
        ),
        ("middlebox.drops_per_unit", ratio(middlebox_drops, fetches), "count"),
        ("netsim.queue_depth.mean", depth_mean, "count"),
        ("netsim.queue_depth.max", series_max(depth), "count"),
        ("gfw.tcbs.max", tcbs_max, "count"),
        (
            "apps.metro_live_flows.max",
            series_max(series.series(GaugeId::MetroLiveFlows)),
            "count",
        ),
    ]
}

/// `a / b`, or 0 where the layer did no work.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn hit_rate((hits, misses): (u64, u64)) -> f64 {
    ratio(hits as f64, (hits + misses) as f64)
}

/// Nearest-rank percentile of sorted samples (0 for none).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean reading over every sample of every merged trial or domain.
fn series_mean(s: &GaugeSeries) -> f64 {
    let (sum, count) = s.bins().iter().fold((0u64, 0u64), |(s, c), b| (s + b.sum, c + b.count));
    ratio(sum as f64, count as f64)
}

fn series_max(s: &GaugeSeries) -> f64 {
    s.bins().iter().map(|b| b.max).max().unwrap_or(0) as f64
}

/// Nanoseconds per pop-one/push-one step of the timing wheel holding
/// `resident` events, with simulation-shaped delays: mostly ~1 ms link
/// hops, some short timers, occasional retransmit-scale deadlines.
pub fn queue_push_pop_ns(resident: usize) -> f64 {
    const STEPS: u64 = 4_096;
    let mut rng = 0x2017_1cc7u64;
    let mut delay = move || {
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        match next() % 10 {
            0..=5 => 1_000 + next() % 512,
            6..=7 => 1 + next() % 64,
            8 => 15_000 + next() % 4_096,
            _ => 200_000 + next() % 65_536,
        }
    };
    let timer = || Event::Timer { elem: 0, token: 0 };
    let mut q = EventQueue::new();
    let mut now = 0u64;
    for _ in 0..resident {
        q.push(intang_netsim::Instant(now + delay()), timer());
    }
    let (mut steps, mut spent) = (0u64, Duration::ZERO);
    while spent < Duration::from_millis(100) {
        let started = Instant::now();
        for _ in 0..STEPS {
            let (at, _) = q.pop().expect("the queue always holds its resident events");
            now = at.0;
            q.push(intang_netsim::Instant(now + delay()), timer());
        }
        spent += started.elapsed();
        steps += STEPS;
    }
    std::hint::black_box(now);
    spent.as_nanos() as f64 / steps as f64
}
