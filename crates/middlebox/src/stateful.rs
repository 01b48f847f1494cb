//! A NAT-like stateful firewall whose connection tracking is itself
//! vulnerable to insertion packets (§3.4, "Interference from client-side
//! middleboxes"): an insertion RST traversing the box tears down its
//! conntrack entry, after which the box blocks every later packet of the
//! flow — the connection hangs with no censor reset, i.e. **Failure 1**.

use intang_netsim::{Ctx, Direction, Element};
use intang_packet::{FourTuple, FxHashMap, Wire};
use intang_telemetry::{Counter, MetricsSheet};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Open,
    /// Torn down by an RST/FIN; subsequent packets are blocked until a
    /// fresh SYN re-opens the flow.
    Dead,
}

/// Connection-tracking firewall.
pub struct StatefulFirewall {
    label: &'static str,
    conns: FxHashMap<FourTuple, ConnState>,
    /// Tear down tracked state on any RST passing through.
    pub rst_tears_down: bool,
    /// Tear down tracked state on bare FINs passing through.
    pub fin_tears_down: bool,
    pub blocked: u64,
}

impl StatefulFirewall {
    pub fn new(label: &'static str) -> StatefulFirewall {
        StatefulFirewall {
            label,
            conns: FxHashMap::default(),
            rst_tears_down: true,
            fin_tears_down: false,
            blocked: 0,
        }
    }
}

impl Element for StatefulFirewall {
    fn name(&self) -> &str {
        self.label
    }

    fn export_metrics(&self, m: &mut MetricsSheet) {
        m.add(Counter::MiddleboxConntrackBlocked, self.blocked);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
        // Non-TCP and unparseable traffic is not conntracked; the cached
        // header index means no re-parse when the wire was seen upstream.
        let Some((tuple, flags)) = wire.headers().and_then(|h| {
            let t = h.tcp()?;
            Some((FourTuple::new(h.src, t.src_port, h.dst, t.dst_port), t.flags))
        }) else {
            ctx.send(dir, wire);
            return;
        };
        let key = tuple.canonical();

        match self.conns.get(&key).copied() {
            Some(ConnState::Dead) => {
                if flags.syn() && !flags.ack() {
                    // A fresh SYN re-opens the flow.
                    self.conns.insert(key, ConnState::Open);
                    ctx.send(dir, wire);
                } else {
                    self.blocked += 1;
                }
            }
            Some(ConnState::Open) => {
                if (flags.rst() && self.rst_tears_down) || (flags.fin() && !flags.ack() && self.fin_tears_down) {
                    // The box accepts the (insertion) teardown packet and
                    // still forwards it — its own state is now desynced
                    // from the endpoints'.
                    self.conns.insert(key, ConnState::Dead);
                }
                ctx.send(dir, wire);
            }
            None => {
                if flags.syn() {
                    self.conns.insert(key, ConnState::Open);
                }
                // Untracked non-SYN traffic passes (conservative NAT).
                ctx.send(dir, wire);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intang_netsim::element::PassThrough;
    use intang_netsim::{Duration, Instant, Link, Simulation};
    use intang_packet::{PacketBuilder, TcpFlags};
    use std::cell::RefCell;
    use std::net::Ipv4Addr;
    use std::rc::Rc;

    struct Sink {
        got: Rc<RefCell<Vec<Wire>>>,
    }
    impl Element for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _dir: Direction, wire: Wire) {
            self.got.borrow_mut().push(wire);
        }
    }

    fn c() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }
    fn s() -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, 9)
    }

    fn setup() -> (Simulation, Rc<RefCell<Vec<Wire>>>) {
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(3);
        sim.add_element(Box::new(PassThrough::new("client")));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(StatefulFirewall::new("nat")));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(Sink { got: got.clone() }));
        (sim, got)
    }

    #[test]
    fn insertion_rst_blocks_later_packets() {
        let (mut sim, got) = setup();
        let syn = PacketBuilder::tcp(c(), s(), 40000, 80).flags(TcpFlags::SYN).seq(100).build();
        let rst = PacketBuilder::tcp(c(), s(), 40000, 80).flags(TcpFlags::RST).seq(101).ttl(4).build();
        let data = PacketBuilder::tcp(c(), s(), 40000, 80)
            .flags(TcpFlags::PSH_ACK)
            .seq(101)
            .payload(b"GET /")
            .build();
        sim.inject_at(0, Direction::ToServer, syn, Instant(0));
        sim.inject_at(0, Direction::ToServer, rst, Instant(1_000));
        sim.inject_at(0, Direction::ToServer, data, Instant(2_000));
        sim.run_to_quiescence(100);
        // SYN and the RST itself pass; the later data is blocked — the
        // paper's Failure 1 mechanism.
        assert_eq!(got.borrow().len(), 2);
    }

    #[test]
    fn fresh_syn_reopens_flow() {
        let (mut sim, got) = setup();
        let syn = PacketBuilder::tcp(c(), s(), 40000, 80).flags(TcpFlags::SYN).build();
        let rst = PacketBuilder::tcp(c(), s(), 40000, 80).flags(TcpFlags::RST).build();
        sim.inject_at(0, Direction::ToServer, syn.clone(), Instant(0));
        sim.inject_at(0, Direction::ToServer, rst, Instant(1_000));
        sim.inject_at(0, Direction::ToServer, syn.clone(), Instant(2_000));
        let data = PacketBuilder::tcp(c(), s(), 40000, 80)
            .flags(TcpFlags::PSH_ACK)
            .payload(b"x")
            .build();
        sim.inject_at(0, Direction::ToServer, data, Instant(3_000));
        sim.run_to_quiescence(100);
        assert_eq!(got.borrow().len(), 4, "everything passes once re-opened");
    }

    #[test]
    fn unrelated_flow_unaffected() {
        let (mut sim, got) = setup();
        let syn_a = PacketBuilder::tcp(c(), s(), 40000, 80).flags(TcpFlags::SYN).build();
        let rst_a = PacketBuilder::tcp(c(), s(), 40000, 80).flags(TcpFlags::RST).build();
        let syn_b = PacketBuilder::tcp(c(), s(), 40001, 80).flags(TcpFlags::SYN).build();
        let data_b = PacketBuilder::tcp(c(), s(), 40001, 80)
            .flags(TcpFlags::PSH_ACK)
            .payload(b"y")
            .build();
        sim.inject_at(0, Direction::ToServer, syn_a, Instant(0));
        sim.inject_at(0, Direction::ToServer, rst_a, Instant(1_000));
        sim.inject_at(0, Direction::ToServer, syn_b, Instant(2_000));
        sim.inject_at(0, Direction::ToServer, data_b, Instant(3_000));
        sim.run_to_quiescence(100);
        assert_eq!(got.borrow().len(), 4);
    }
}
