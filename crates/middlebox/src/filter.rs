//! Field filters: middleboxes that sanitize "anomalous" packets — which is
//! precisely what insertion packets are.

use intang_netsim::{Ctx, Direction, Element};
use intang_packet::{IpProtocol, Ipv4Packet, TcpPacket, Wire};
use intang_telemetry::{Counter, MetricsSheet};

/// Drop probabilities per packet anomaly (0.0 = pass, 1.0 = always drop).
/// "Sometimes dropped" cells of Table 2 use intermediate values.
#[derive(Debug, Clone, Copy, Default)]
pub struct FilterSpec {
    /// Wrong TCP checksum.
    pub drop_bad_checksum: f64,
    /// Segment with no TCP flags at all.
    pub drop_no_flag: f64,
    /// FIN without ACK (the shape of FIN insertion packets).
    pub drop_bare_fin: f64,
    /// RST segments (QCloud "sometimes drops RST packets").
    pub drop_bare_rst: f64,
    /// Segments with an unsolicited MD5 option. The paper found **no**
    /// middlebox dropping these — the knob exists to let experiments show
    /// exactly that.
    pub drop_md5: f64,
    /// Datagrams whose IP total length exceeds the buffer.
    pub drop_inflated_iplen: f64,
}

impl FilterSpec {
    pub fn passes_everything() -> FilterSpec {
        FilterSpec::default()
    }
}

/// An in-path filter applying [`FilterSpec`] to client-egress traffic.
///
/// Filtering is applied to the `ToServer` direction (the direction
/// insertion packets travel); returning traffic passes untouched, matching
/// how the paper probes these boxes (client → controlled server, §3.4).
pub struct FieldFilter {
    label: &'static str,
    spec: FilterSpec,
    /// Count of dropped packets (observable in tests).
    pub dropped: u64,
}

impl FieldFilter {
    pub fn new(label: &'static str, spec: FilterSpec) -> FieldFilter {
        FieldFilter { label, spec, dropped: 0 }
    }
}

impl Element for FieldFilter {
    fn name(&self) -> &str {
        self.label
    }

    fn export_metrics(&self, m: &mut MetricsSheet) {
        m.add(Counter::MiddleboxFilterDrops, self.dropped);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
        if dir != Direction::ToServer {
            ctx.send(dir, wire);
            return;
        }
        let drop_prob = drop_probability(&self.spec, &wire);
        if drop_prob > 0.0 && ctx.rng.chance(drop_prob) {
            self.dropped += 1;
            return;
        }
        ctx.send(dir, wire);
    }
}

/// The probability this packet would be dropped under `spec`.
pub fn drop_probability(spec: &FilterSpec, wire: &[u8]) -> f64 {
    let Ok(ip) = Ipv4Packet::new_checked(wire) else { return 0.0 };
    if ip.is_fragment() {
        return 0.0; // fragment policy lives in FragmentHandler
    }
    let mut p: f64 = 0.0;
    if !ip.total_len_consistent() {
        p = p.max(spec.drop_inflated_iplen);
    }
    if ip.protocol() != IpProtocol::Tcp {
        return p;
    }
    let Ok(tcp) = TcpPacket::new_checked(ip.payload()) else { return p };
    if !tcp.verify_checksum(ip.src_addr(), ip.dst_addr()) {
        p = p.max(spec.drop_bad_checksum);
    }
    let flags = tcp.flags();
    if flags.is_empty() {
        p = p.max(spec.drop_no_flag);
    }
    if flags.fin() && !flags.ack() {
        p = p.max(spec.drop_bare_fin);
    }
    if flags.rst() {
        p = p.max(spec.drop_bare_rst);
    }
    if tcp.has_md5_option() {
        p = p.max(spec.drop_md5);
    }
    p
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

    fn c() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }
    fn s() -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, 9)
    }

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

    fn run_through(spec: FilterSpec, wire: Wire) -> usize {
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(5);
        sim.add_element(Box::new(PassThrough::new("client")));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(FieldFilter::new("mb", spec)));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(Sink { got: got.clone() }));
        sim.inject_at(0, Direction::ToServer, wire, Instant::ZERO);
        sim.run_to_quiescence(50);
        let n = got.borrow().len();
        n
    }

    #[test]
    fn deterministic_drops() {
        let spec = FilterSpec {
            drop_bad_checksum: 1.0,
            drop_no_flag: 1.0,
            drop_bare_fin: 1.0,
            ..FilterSpec::default()
        };
        let bad_csum = PacketBuilder::tcp(c(), s(), 1, 80)
            .flags(TcpFlags::ACK)
            .payload(b"x")
            .bad_checksum()
            .build();
        assert_eq!(run_through(spec, bad_csum), 0);
        let noflag = PacketBuilder::tcp(c(), s(), 1, 80).flags(TcpFlags::NONE).payload(b"x").build();
        assert_eq!(run_through(spec, noflag), 0);
        let bare_fin = PacketBuilder::tcp(c(), s(), 1, 80).flags(TcpFlags::FIN).build();
        assert_eq!(run_through(spec, bare_fin), 0);
        // Healthy traffic passes.
        let ok = PacketBuilder::tcp(c(), s(), 1, 80)
            .flags(TcpFlags::PSH_ACK)
            .payload(b"GET /")
            .build();
        assert_eq!(run_through(spec, ok), 1);
        // FIN/ACK (a normal close) is NOT a bare FIN.
        let finack = PacketBuilder::tcp(c(), s(), 1, 80).flags(TcpFlags::FIN_ACK).build();
        assert_eq!(run_through(spec, finack), 1);
    }

    #[test]
    fn md5_never_dropped_by_paper_profiles() {
        // §5.3: no middlebox encountered drops unsolicited-MD5 segments.
        let spec = FilterSpec {
            drop_bad_checksum: 1.0,
            drop_no_flag: 1.0,
            drop_bare_fin: 1.0,
            drop_bare_rst: 1.0,
            ..FilterSpec::default()
        };
        let md5 = PacketBuilder::tcp(c(), s(), 1, 80)
            .flags(TcpFlags::PSH_ACK)
            .payload(b"x")
            .md5_option()
            .build();
        assert_eq!(run_through(spec, md5), 1);
    }

    #[test]
    fn probabilistic_drop_roughly_calibrated() {
        let spec = FilterSpec {
            drop_bare_rst: 0.5,
            ..FilterSpec::default()
        };
        let mut passed = 0;
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(77);
        sim.add_element(Box::new(PassThrough::new("client")));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(FieldFilter::new("mb", spec)));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(Sink { got: got.clone() }));
        for i in 0..200 {
            let rst = PacketBuilder::tcp(c(), s(), 1, 80).flags(TcpFlags::RST).seq(i).build();
            sim.inject_at(0, Direction::ToServer, rst, Instant(u64::from(i) * 1000));
        }
        sim.run_to_quiescence(2_000);
        passed += got.borrow().len();
        assert!((60..140).contains(&passed), "≈50% of RSTs pass, got {passed}");
    }

    #[test]
    fn returning_traffic_untouched() {
        let spec = FilterSpec {
            drop_bare_rst: 1.0,
            ..FilterSpec::default()
        };
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        sim.add_element(Box::new(Sink { got: got.clone() }));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(FieldFilter::new("mb", spec)));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(PassThrough::new("server")));
        let rst = PacketBuilder::tcp(s(), c(), 80, 1).flags(TcpFlags::RST).build();
        sim.inject_at(2, Direction::ToClient, rst, Instant::ZERO);
        sim.run_to_quiescence(50);
        assert_eq!(got.borrow().len(), 1, "GFW resets still reach the client");
    }
}
