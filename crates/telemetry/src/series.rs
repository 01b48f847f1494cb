//! Deterministic gauge time-series sampled on a *sim-time* cadence.
//!
//! The per-trial counters (metrics.rs) say what happened by the end of a
//! trial; they cannot say *when*. This module adds the time axis: every
//! [`CADENCE_US`] of simulated time the simulation snapshots a small set
//! of gauges — censor TCB-table occupancy, blacklist size, active flows,
//! event-queue depth, inflight packets, leased buffers — into a
//! [`SeriesSheet`].
//!
//! Two properties make the result safe to ship from a parallel sweep:
//!
//! - **Constant memory.** A [`GaugeSeries`] holds at most [`SERIES_CAP`]
//!   bins. When a push would exceed the capacity the series *compacts*:
//!   adjacent bin pairs merge (sums and counts add, maxima take the max)
//!   and the per-bin tick stride doubles. A series therefore costs the
//!   same whether the sim ran for 25 simulated seconds or 25 hours, and
//!   its resolution degrades log₂-gracefully instead of truncating.
//! - **Determinism.** Sampling is driven by the simulation clock, reads
//!   gauge values that are themselves deterministic, and merging (trial →
//!   cell → sweep) is associative, so a sweep merged in cell-index order
//!   is byte-identical at any worker count.
//!
//! Sampling is disabled by default and enabled per-process with
//! `INTANG_SERIES=1` or per-thread with [`set_thread`] (one field of
//! [`crate::knobs::RunKnobs`]); when disabled the hot path pays one cached
//! boolean test per simulation, nothing per event.

use crate::json::{u64_array, JsonObject};

/// Simulated time between gauge samples, in microseconds (100 ms: a 25 s
/// trial yields 251 ticks, which exercises two compactions in production).
pub const CADENCE_US: u64 = 100_000;

/// Maximum bins a series retains; a push beyond this compacts 2:1.
pub const SERIES_CAP: usize = 64;

/// The gauges sampled each tick. Gauge values are instantaneous readings
/// (not counters): table sizes, queue depths, live-object counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// TCB-table entries across prior-generation (pre-2015) GFW devices.
    GfwTcbsOld,
    /// TCB-table entries across evolved-generation GFW devices.
    GfwTcbsEvolved,
    /// Blacklisted (ip, ip) pairs across all GFW devices.
    GfwBlacklist,
    /// Flows the INTANG shim is currently tracking.
    IntangFlows,
    /// Events pending in the simulator queue (heap + wheel + overflow).
    EventQueueDepth,
    /// Deliver events in flight (packets on the wire, excluding timers).
    InflightPackets,
    /// Wire buffers reachable from a live packet handle on this thread,
    /// relative to the sim's construction baseline.
    WireBuffers,
    /// Objects leased from thread-local arenas (taken, not yet returned),
    /// relative to the sim's construction baseline.
    ArenaLeased,
    /// Metropolis load generator: flows spawned and not yet retired.
    MetroLiveFlows,
    /// Metropolis origin servers: live per-connection cells.
    MetroServerCells,
}

impl GaugeId {
    pub const COUNT: usize = 10;

    pub const ALL: [GaugeId; GaugeId::COUNT] = [
        GaugeId::GfwTcbsOld,
        GaugeId::GfwTcbsEvolved,
        GaugeId::GfwBlacklist,
        GaugeId::IntangFlows,
        GaugeId::EventQueueDepth,
        GaugeId::InflightPackets,
        GaugeId::WireBuffers,
        GaugeId::ArenaLeased,
        GaugeId::MetroLiveFlows,
        GaugeId::MetroServerCells,
    ];

    pub fn name(self) -> &'static str {
        match self {
            GaugeId::GfwTcbsOld => "gfw_tcbs_old",
            GaugeId::GfwTcbsEvolved => "gfw_tcbs_evolved",
            GaugeId::GfwBlacklist => "gfw_blacklist",
            GaugeId::IntangFlows => "intang_flows",
            GaugeId::EventQueueDepth => "event_queue_depth",
            GaugeId::InflightPackets => "inflight_packets",
            GaugeId::WireBuffers => "wire_buffers",
            GaugeId::ArenaLeased => "arena_leased",
            GaugeId::MetroLiveFlows => "metro_live_flows",
            GaugeId::MetroServerCells => "metro_server_cells",
        }
    }
}

/// One snapshot of every gauge, filled by `Element::sample_gauges`
/// implementors plus the simulator's own substrate readings.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSample {
    vals: [u64; GaugeId::COUNT],
}

impl GaugeSample {
    /// Accumulate into a gauge (several elements may contribute — e.g.
    /// two GFW devices both add their TCB counts).
    pub fn add(&mut self, id: GaugeId, v: u64) {
        self.vals[id as usize] += v;
    }

    pub fn get(&self, id: GaugeId) -> u64 {
        self.vals[id as usize]
    }
}

/// One bin of a series: the aggregate of `count` samples.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Bin {
    pub sum: u64,
    pub max: u64,
    pub count: u64,
}

impl Bin {
    fn absorb(&mut self, other: Bin) {
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.count += other.count;
    }
}

/// Fixed-capacity time-series of one gauge.
///
/// Bin `i` covers sample ticks `[i*stride, (i+1)*stride)`; tick `t` was
/// taken at simulated time `t * CADENCE_US`. Merging two series (the same
/// gauge observed by different trials) aligns their strides by compacting
/// the finer one, then adds bins element-wise — an associative operation,
/// so any fixed fold order yields identical bytes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GaugeSeries {
    stride: u32,
    ticks: u64,
    bins: Vec<Bin>,
}

impl GaugeSeries {
    /// Ticks of simulated time each bin covers (a power of two; 0 only on
    /// a series that never received a sample).
    pub fn stride(&self) -> u32 {
        self.stride
    }

    /// Samples pushed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    pub fn is_empty(&self) -> bool {
        self.ticks == 0
    }

    /// Record the sample for the next tick.
    pub fn push(&mut self, v: u64) {
        if self.stride == 0 {
            self.stride = 1;
        }
        let mut idx = (self.ticks / u64::from(self.stride)) as usize;
        while idx >= SERIES_CAP {
            self.compact();
            idx = (self.ticks / u64::from(self.stride)) as usize;
        }
        if idx == self.bins.len() {
            self.bins.push(Bin::default());
        }
        let bin = &mut self.bins[idx];
        bin.sum += v;
        bin.max = bin.max.max(v);
        bin.count += 1;
        self.ticks += 1;
    }

    /// Halve the resolution: merge adjacent bin pairs, double the stride.
    fn compact(&mut self) {
        let mut out = Vec::with_capacity(self.bins.len().div_ceil(2));
        for pair in self.bins.chunks(2) {
            let mut bin = pair[0];
            if let Some(&second) = pair.get(1) {
                bin.absorb(second);
            }
            out.push(bin);
        }
        self.bins = out;
        self.stride = self.stride.saturating_mul(2);
    }

    /// Fold another observation of the same gauge in (element-wise over
    /// sim time, after aligning strides to the coarser of the two).
    pub fn merge(&mut self, other: &GaugeSeries) {
        if other.ticks == 0 {
            return;
        }
        if self.ticks == 0 {
            *self = other.clone();
            return;
        }
        while self.stride < other.stride {
            self.compact();
        }
        let mut o;
        let other = if other.stride < self.stride {
            o = other.clone();
            while o.stride < self.stride {
                o.compact();
            }
            &o
        } else {
            other
        };
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), Bin::default());
        }
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            mine.absorb(*theirs);
        }
        self.ticks = self.ticks.max(other.ticks);
    }

    /// Render as a JSON object: `{"stride":…,"ticks":…,"sum":[…],
    /// "max":[…],"count":[…]}` — the shared shape for JSONL rows and the
    /// BENCH_sweep `series` section.
    pub fn to_json(&self) -> String {
        let sums: Vec<u64> = self.bins.iter().map(|b| b.sum).collect();
        let maxes: Vec<u64> = self.bins.iter().map(|b| b.max).collect();
        let counts: Vec<u64> = self.bins.iter().map(|b| b.count).collect();
        let mut o = JsonObject::new();
        o.u64("stride", u64::from(self.stride));
        o.u64("ticks", self.ticks);
        o.raw("sum", &u64_array(&sums));
        o.raw("max", &u64_array(&maxes));
        o.raw("count", &u64_array(&counts));
        o.finish()
    }
}

/// All gauges' series for one trial / cell / sweep.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SeriesSheet {
    series: [GaugeSeries; GaugeId::COUNT],
}

impl SeriesSheet {
    pub fn new() -> SeriesSheet {
        SeriesSheet::default()
    }

    /// Record one full [`GaugeSample`] (one tick across every gauge).
    pub fn push_sample(&mut self, sample: &GaugeSample) {
        for id in GaugeId::ALL {
            self.series[id as usize].push(sample.get(id));
        }
    }

    pub fn series(&self, id: GaugeId) -> &GaugeSeries {
        &self.series[id as usize]
    }

    pub fn is_empty(&self) -> bool {
        self.series.iter().all(GaugeSeries::is_empty)
    }

    pub fn merge(&mut self, other: &SeriesSheet) {
        for id in GaugeId::ALL {
            self.series[id as usize].merge(&other.series[id as usize]);
        }
    }
}

/// Is gauge sampling enabled for simulations built on this thread?
/// Checked once per `Simulation::new` and cached there.
pub fn enabled() -> bool {
    crate::knobs::current().series
}

/// Override the series knob on this thread (`Some(on)`) or reset it to
/// the environment (`None`). Returns the previous override so callers can
/// restore it.
pub fn set_thread(on: Option<bool>) -> Option<bool> {
    crate::knobs::set_field(on, |k| &mut k.series)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> GaugeSeries {
        let mut s = GaugeSeries::default();
        for v in 0..n {
            s.push(v);
        }
        s
    }

    #[test]
    fn fills_without_compaction_up_to_cap() {
        let s = filled(SERIES_CAP as u64);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.bins().len(), SERIES_CAP);
        assert_eq!(s.ticks(), SERIES_CAP as u64);
        assert!(s.bins().iter().all(|b| b.count == 1));
    }

    #[test]
    fn compacts_at_the_boundary_preserving_totals() {
        let s = filled(SERIES_CAP as u64 + 1);
        assert_eq!(s.stride(), 2);
        assert_eq!(s.bins().len(), SERIES_CAP / 2 + 1);
        let total: u64 = s.bins().iter().map(|b| b.sum).sum();
        let count: u64 = s.bins().iter().map(|b| b.count).sum();
        let n = SERIES_CAP as u64 + 1;
        assert_eq!(total, n * (n - 1) / 2);
        assert_eq!(count, n);
        // The first compacted bin covers ticks {0, 1}.
        assert_eq!(s.bins()[0], Bin { sum: 1, max: 1, count: 2 });
    }

    #[test]
    fn double_compaction_reaches_stride_four() {
        // 251 ticks is the production shape: a 25 s horizon at 100 ms.
        let s = filled(251);
        assert_eq!(s.stride(), 4);
        assert_eq!(s.bins().len(), 63);
        let count: u64 = s.bins().iter().map(|b| b.count).sum();
        assert_eq!(count, 251);
        assert_eq!(s.bins().last().unwrap().count, 3); // 248, 249, 250
        assert_eq!(s.bins().last().unwrap().max, 250);
    }

    #[test]
    fn merge_aligns_strides_and_is_associative() {
        let a = filled(10); // stride 1
        let b = filled(SERIES_CAP as u64 + 1); // stride 2
        let c = filled(251); // stride 4

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.stride(), 4);
        let total: u64 = ab_c.bins().iter().map(|b| b.sum).sum();
        let expect = |n: u64| n * (n - 1) / 2;
        assert_eq!(total, expect(10) + expect(SERIES_CAP as u64 + 1) + expect(251));
    }

    #[test]
    fn merge_into_empty_clones() {
        let mut s = GaugeSeries::default();
        s.merge(&filled(7));
        assert_eq!(s, filled(7));
        let before = s.clone();
        s.merge(&GaugeSeries::default());
        assert_eq!(s, before);
    }

    #[test]
    fn sheet_push_and_merge() {
        let mut a = SeriesSheet::new();
        let mut g = GaugeSample::default();
        g.add(GaugeId::GfwBlacklist, 3);
        g.add(GaugeId::GfwBlacklist, 2);
        a.push_sample(&g);
        assert_eq!(a.series(GaugeId::GfwBlacklist).bins()[0].sum, 5);
        assert_eq!(a.series(GaugeId::IntangFlows).bins()[0].sum, 0);
        assert_eq!(a.series(GaugeId::IntangFlows).ticks(), 1);

        let mut b = SeriesSheet::new();
        b.push_sample(&g);
        b.merge(&a);
        assert_eq!(b.series(GaugeId::GfwBlacklist).bins()[0], Bin { sum: 10, max: 5, count: 2 });
    }

    #[test]
    fn json_shape() {
        let s = filled(3);
        assert_eq!(s.to_json(), r#"{"stride":1,"ticks":3,"sum":[0,1,2],"max":[0,1,2],"count":[1,1,1]}"#);
    }

    #[test]
    fn set_thread_round_trips() {
        let before = enabled();
        let prev = set_thread(Some(true));
        assert_eq!(prev, None);
        assert!(enabled());
        assert_eq!(set_thread(prev), Some(true));
        assert_eq!(enabled(), before);
    }
}
