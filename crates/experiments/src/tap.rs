//! A passive recording tap for experiments: captures every packet crossing
//! its position (used for reset fingerprinting and the Table 2 probes),
//! and the censor probe world built around one.

use intang_gfw::{GfwConfig, GfwElement, GfwHandle};
use intang_netsim::element::PassThrough;
use intang_netsim::{Ctx, Direction, Duration, Element, Instant, Link, Simulation};
use intang_packet::{FourTuple, PacketBuilder, Wire};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// One captured packet.
#[derive(Debug, Clone)]
pub struct Captured {
    pub at: Instant,
    pub dir: Direction,
    pub wire: Wire,
}

/// The tap element; clone the [`TapHandle`] to read captures.
pub struct RecorderTap {
    label: &'static str,
    log: Rc<RefCell<Vec<Captured>>>,
}

#[derive(Clone)]
pub struct TapHandle {
    log: Rc<RefCell<Vec<Captured>>>,
}

impl RecorderTap {
    pub fn new(label: &'static str) -> (RecorderTap, TapHandle) {
        let log = Rc::new(RefCell::new(Vec::new()));
        (RecorderTap { label, log: log.clone() }, TapHandle { log })
    }
}

impl TapHandle {
    pub fn captures(&self) -> Vec<Captured> {
        self.log.borrow().clone()
    }

    /// Export everything captured as a classic libpcap file (LINKTYPE_RAW),
    /// openable in Wireshark.
    pub fn to_pcap(&self) -> intang_netsim::pcap::PcapWriter {
        let mut w = intang_netsim::pcap::PcapWriter::new();
        for c in self.log.borrow().iter() {
            w.record(c.at, &c.wire);
        }
        w
    }
}

impl Element for RecorderTap {
    fn name(&self) -> &str {
        self.label
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
        self.log.borrow_mut().push(Captured {
            at: ctx.now,
            dir,
            wire: wire.clone(),
        });
        ctx.send(dir, wire);
    }
}

/// The scripted-probe world of §2.1, §4, §5.3 and §8: a client edge that
/// taps every packet, a 1 ms 2-hop link, one censor, a 1 ms 2-hop link,
/// and a server edge. Each injected packet lands 5 ms after the previous
/// one and runs to quiescence before the next.
pub struct Probe {
    sim: Simulation,
    pub gfw: GfwHandle,
    /// Every packet that crossed the client edge, in either direction.
    pub tap: TapHandle,
    t: u64,
}

impl Probe {
    pub const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    pub const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 80);
    pub const CLIENT_PORT: u16 = 40_000;

    /// A probe world around `cfg` with its overload misses switched off.
    pub fn new(cfg: GfwConfig, seed: u64) -> Probe {
        let mut sim = Simulation::new(seed);
        let (tap, tap_handle) = RecorderTap::new("client-edge");
        sim.add_element(Box::new(tap));
        sim.add_link(Link::new(Duration::from_millis(1), 2));
        let (el, gfw) = GfwElement::new(cfg.deterministic());
        sim.add_element(Box::new(el));
        sim.add_link(Link::new(Duration::from_millis(1), 2));
        sim.add_element(Box::new(PassThrough::new("server-edge")));
        Probe {
            sim,
            gfw,
            tap: tap_handle,
            t: 0,
        }
    }

    pub fn tuple(&self) -> FourTuple {
        FourTuple::new(Probe::CLIENT, Probe::CLIENT_PORT, Probe::SERVER, 80)
    }

    pub fn send_client(&mut self, wire: Wire) {
        self.send(0, Direction::ToServer, wire);
    }

    pub fn send_server(&mut self, wire: Wire) {
        self.send(2, Direction::ToClient, wire);
    }

    fn send(&mut self, elem: usize, dir: Direction, wire: Wire) {
        self.t += 5_000;
        self.sim.inject_at(elem, dir, wire, Instant(self.t));
        self.sim.run_to_quiescence(10_000);
    }

    pub fn c2s() -> PacketBuilder {
        PacketBuilder::tcp(Probe::CLIENT, Probe::SERVER, Probe::CLIENT_PORT, 80)
    }

    pub fn s2c() -> PacketBuilder {
        PacketBuilder::tcp(Probe::SERVER, Probe::CLIENT, 80, Probe::CLIENT_PORT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intang_netsim::element::PassThrough;
    use intang_netsim::{Duration, Link, Simulation};

    #[test]
    fn records_and_forwards() {
        let mut sim = Simulation::new(1);
        sim.add_element(Box::new(PassThrough::new("a")));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        let (tap, handle) = RecorderTap::new("tap");
        sim.add_element(Box::new(tap));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(PassThrough::new("b")));
        let pkt = intang_packet::PacketBuilder::tcp(std::net::Ipv4Addr::new(1, 1, 1, 1), std::net::Ipv4Addr::new(2, 2, 2, 2), 1, 2).build();
        sim.inject_at(0, Direction::ToServer, pkt.clone(), Instant::ZERO);
        sim.inject_at(2, Direction::ToClient, pkt, Instant(10));
        sim.run_to_quiescence(50);
        let dirs: Vec<Direction> = handle.captures().iter().map(|c| c.dir).collect();
        assert_eq!(dirs, [Direction::ToServer, Direction::ToClient]);
        let pcap = handle.to_pcap();
        assert_eq!(pcap.packet_count(), 2);
        let parsed = intang_netsim::pcap::parse(pcap.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
    }
}
