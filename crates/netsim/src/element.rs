//! The `Element` trait: anything that sits on the path and processes
//! packets — hosts, middleboxes, and the censor tap.

use crate::rng::SimRng;
use crate::time::{Duration, Instant};
use intang_packet::Wire;
use intang_telemetry::{GaugeSample, MetricsSheet};

/// Which way a packet is traveling along the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the client (element 0) toward the server (last element).
    ToServer,
    /// From the server back toward the client.
    ToClient,
}

impl Direction {
    pub fn reversed(self) -> Direction {
        match self {
            Direction::ToServer => Direction::ToClient,
            Direction::ToClient => Direction::ToServer,
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Direction::ToServer => "->",
            Direction::ToClient => "<-",
        })
    }
}

/// One packet emission requested by an element.
#[derive(Debug)]
pub(crate) struct Emission {
    pub dir: Direction,
    pub wire: Wire,
    pub delay: Duration,
}

/// Context handed to an element while it runs. Lets it emit packets,
/// schedule timers, and draw randomness — all recorded by the simulation so
/// the run stays deterministic.
pub struct Ctx<'a> {
    pub now: Instant,
    pub rng: &'a mut SimRng,
    pub(crate) emissions: Vec<Emission>,
    pub(crate) timers: Vec<(Instant, u64)>,
}

impl<'a> Ctx<'a> {
    #[cfg(test)]
    pub(crate) fn new(now: Instant, rng: &'a mut SimRng) -> Self {
        Ctx {
            now,
            rng,
            emissions: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Build a context around caller-provided scratch buffers (must be
    /// empty). The simulation lends its reusable buffers here so the event
    /// loop allocates nothing per event once the buffers have grown.
    pub(crate) fn with_buffers(now: Instant, rng: &'a mut SimRng, emissions: Vec<Emission>, timers: Vec<(Instant, u64)>) -> Self {
        debug_assert!(emissions.is_empty() && timers.is_empty());
        Ctx {
            now,
            rng,
            emissions,
            timers,
        }
    }

    /// Send `wire` onward in direction `dir` immediately (from this
    /// element's position). For an in-path element handling a packet this is
    /// "forward it"; for a host it is "transmit".
    pub fn send(&mut self, dir: Direction, wire: Wire) {
        self.send_delayed(dir, wire, Duration::ZERO);
    }

    /// Send after a local processing delay (still from this element's
    /// position — link latency is added on top by the simulation).
    pub fn send_delayed(&mut self, dir: Direction, wire: Wire, delay: Duration) {
        self.emissions.push(Emission { dir, wire, delay });
    }

    /// Arrange for `on_timer(token)` to fire at absolute time `at`.
    pub fn set_timer(&mut self, at: Instant, token: u64) {
        self.timers.push((at, token));
    }
}

/// A path element. Elements are positioned on a linear path and see every
/// packet that traverses their position.
pub trait Element {
    /// Short name for traces ("client", "GFW", "NAT", ...).
    fn name(&self) -> &str;

    /// A packet arrived at this element traveling in `dir`.
    ///
    /// In-path elements (middleboxes) forward it — possibly modified — with
    /// `ctx.send(dir, wire)`, or drop it by not sending. On-path elements
    /// (the censor tap) MUST forward the original wire unchanged and may
    /// additionally inject packets in either direction. Hosts consume
    /// packets addressed to them.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire);

    /// A timer set through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Export this element's counters into a [`MetricsSheet`]. Called once
    /// per trial by [`crate::Simulation::export_metrics`] — never on the
    /// packet hot path — so elements keep incrementing their own cheap
    /// local counters and translate them here. Default: nothing to export.
    fn export_metrics(&self, _m: &mut MetricsSheet) {}

    /// Contribute instantaneous gauge readings (table sizes, tracked-flow
    /// counts) to a telemetry time-series sample. Called on the sim-time
    /// cadence only when gauge sampling is enabled (see
    /// [`intang_telemetry::series`]); must be read-only so sampling can
    /// never perturb the run. Default: nothing to report.
    fn sample_gauges(&self, _g: &mut GaugeSample) {}
}

/// A trivial element that forwards everything untouched (useful as a
/// placeholder middlebox slot and in tests).
#[derive(Debug, Default)]
pub struct PassThrough {
    label: &'static str,
}

impl PassThrough {
    pub fn new(label: &'static str) -> Self {
        PassThrough { label }
    }
}

impl Element for PassThrough {
    fn name(&self) -> &str {
        if self.label.is_empty() {
            "pass"
        } else {
            self.label
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
        ctx.send(dir, wire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_reverses() {
        assert_eq!(Direction::ToServer.reversed(), Direction::ToClient);
        assert_eq!(Direction::ToClient.reversed(), Direction::ToServer);
    }

    #[test]
    fn ctx_records_emissions_and_timers() {
        let mut rng = SimRng::seed_from(1);
        let mut ctx = Ctx::new(Instant(5), &mut rng);
        ctx.send(Direction::ToServer, vec![1, 2, 3].into());
        ctx.send_delayed(Direction::ToClient, vec![4].into(), Duration::from_millis(20));
        ctx.set_timer(Instant(1_000), 42);
        assert_eq!(ctx.emissions.len(), 2);
        assert_eq!(ctx.emissions[1].delay, Duration::from_millis(20));
        assert_eq!(ctx.timers, vec![(Instant(1_000), 42)]);
    }
}
