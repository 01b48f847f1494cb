//! Engine-level integration: the INTANG element standing alone in a small
//! world — hop measurement, probe-ICMP consumption, per-destination δ
//! iteration, and DNS forwarding through the shim.

use intang_core::{Discrepancy, IntangConfig, IntangElement, StrategyKind};
use intang_gfw::{GfwConfig, GfwElement};
use intang_netsim::element::PassThrough;
use intang_netsim::{Direction, Duration, Instant, Link, Simulation};
use intang_packet::{PacketBuilder, TcpFlags};
use std::net::Ipv4Addr;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 33);

/// client-edge — INTANG — 6-hop link — echo-less server edge.
/// Injecting the client's SYN at element 0 exercises the shim's egress.
fn measurement_world(cfg: IntangConfig) -> (Simulation, intang_core::IntangHandle) {
    let mut sim = Simulation::new(9);
    sim.add_element(Box::new(PassThrough::new("client-edge")));
    sim.add_link(Link::new(Duration::from_micros(50), 0));
    let (el, handle) = IntangElement::new(CLIENT, cfg);
    sim.add_element(Box::new(el));
    sim.add_link(Link::new(Duration::from_millis(2), 6));
    sim.add_element(Box::new(PassThrough::new("server-edge")));
    (sim, handle)
}

#[test]
fn hop_measurement_learns_the_path_length() {
    let (mut sim, handle) = measurement_world(IntangConfig::fixed(StrategyKind::ImprovedTeardown));
    let syn = PacketBuilder::tcp(CLIENT, SERVER, 40_000, 80).seq(100).flags(TcpFlags::SYN).build();
    sim.inject_at(0, Direction::ToServer, syn, Instant::ZERO);
    sim.run_until(Instant(2_000_000));
    // The world has 6 routers; SYN/ACK never comes (passive edge), so the
    // estimate derives from ICMP alone: farthest router 6 ⇒ estimate 7.
    assert_eq!(handle.hops_to(SERVER), Some(7));
    let stats = handle.stats();
    assert_eq!(stats.probes_sent, u64::from(intang_core::engine::MAX_PROBE_TTL));
    assert_eq!(stats.flows, 1);
}

#[test]
fn measurement_probes_icmp_is_consumed_not_leaked_to_client() {
    // The client edge would record anything forwarded to it.
    use std::cell::RefCell;
    use std::rc::Rc;
    struct Recorder {
        got: Rc<RefCell<u32>>,
    }
    impl intang_netsim::Element for Recorder {
        fn name(&self) -> &str {
            "client-edge"
        }
        fn on_packet(&mut self, ctx: &mut intang_netsim::Ctx<'_>, dir: Direction, wire: intang_packet::Wire) {
            if dir == Direction::ToClient {
                if let Ok(ip) = intang_packet::Ipv4Packet::new_checked(&wire[..]) {
                    if ip.protocol() == intang_packet::IpProtocol::Icmp {
                        *self.got.borrow_mut() += 1;
                    }
                }
            } else {
                ctx.send(dir, wire);
            }
        }
    }
    let got = Rc::new(RefCell::new(0));
    let mut sim = Simulation::new(9);
    sim.add_element(Box::new(Recorder { got: got.clone() }));
    sim.add_link(Link::new(Duration::from_micros(50), 0));
    let (el, _handle) = IntangElement::new(CLIENT, IntangConfig::fixed(StrategyKind::ImprovedTeardown));
    sim.add_element(Box::new(el));
    sim.add_link(Link::new(Duration::from_millis(2), 6));
    sim.add_element(Box::new(PassThrough::new("server-edge")));
    let syn = PacketBuilder::tcp(CLIENT, SERVER, 40_000, 80).seq(100).flags(TcpFlags::SYN).build();
    sim.inject_at(0, Direction::ToServer, syn, Instant::ZERO);
    sim.run_until(Instant(2_000_000));
    assert_eq!(*got.borrow(), 0, "probe time-exceeded replies never reach the client host");
}

#[test]
fn delta_iteration_recovers_a_co_located_censor() {
    // Topology: client — INTANG — 5 routers — GFW — 1 router — server edge.
    // With δ=2 the insertion TTL is (7-2)=5: it dies at router 5, one short
    // of the censor ⇒ detection ⇒ resets. The §7.1 iteration then lowers δ.
    let build = || {
        let mut sim = Simulation::new(17);
        sim.add_element(Box::new(PassThrough::new("client-edge")));
        sim.add_link(Link::new(Duration::from_micros(50), 0));
        let cfg = IntangConfig {
            strategy: Some(StrategyKind::InOrderOverlap(Discrepancy::SmallTtl)),
            redundancy: 1,
            ..IntangConfig::default()
        };
        let (el, ih) = IntangElement::new(CLIENT, cfg);
        sim.add_element(Box::new(el));
        sim.add_link(Link::new(Duration::from_millis(1), 5));
        let mut gcfg = GfwConfig::evolved();
        gcfg.overload_miss_prob = 0.0;
        let (gfw, gh) = GfwElement::new(gcfg);
        sim.add_element(Box::new(gfw));
        sim.add_link(Link::new(Duration::from_millis(1), 1));
        let (server_host, _sh) =
            intang_apps::host::HostElement::new("server", SERVER, intang_tcpstack::StackProfile::linux_4_4(), Box::new(ServerApp));
        let sidx = sim.add_element(server_host.into_boxed(Direction::ToClient));
        // Kick-off poll so the listener registers before any probe lands.
        sim.schedule_timer(sidx, Instant::ZERO, 0);
        (sim, ih, gh)
    };
    struct ServerApp;
    impl intang_apps::HostDriver for ServerApp {
        fn poll(&mut self, now: Instant, tcp: &mut intang_tcpstack::TcpEndpoint, _u: &mut intang_apps::UdpLayer) {
            tcp.listen(80);
            for h in tcp.take_accepted() {
                let _ = h;
            }
            // Echo nothing; just accept and ack (drain all sockets).
            for i in 0..64 {
                let handle = intang_tcpstack::SocketHandle(i);
                // Drain defensively; out-of-range would panic, so stop at
                // the live count.
                if i >= tcp.live_sockets() {
                    break;
                }
                let _ = tcp.socket(handle).recv_drain();
                let _ = now;
            }
        }
    }

    // Session 1: δ=2 → insertion dies short of the censor → detection.
    let (mut sim, ih, gh) = build();
    let syn = PacketBuilder::tcp(CLIENT, SERVER, 40_000, 80).seq(100).flags(TcpFlags::SYN).build();
    sim.inject_at(0, Direction::ToServer, syn, Instant::ZERO);
    // Drive the handshake by hand: the client edge is passive, so fabricate
    // the client's followups after the (real) SYN/ACK returns.
    sim.run_until(Instant(3_000_000));
    // The client edge is passive (no real stack), so hand the shim the
    // keyword request directly: it intercepts the first payload and fires
    // the strategy exactly as it would for a live socket.
    let req = PacketBuilder::tcp(CLIENT, SERVER, 40_000, 80)
        .seq(101)
        .ack(1)
        .flags(TcpFlags::PSH_ACK)
        .payload(b"GET /ultrasurf HTTP/1.1\r\n\r\n")
        .build();
    sim.inject_at(0, Direction::ToServer, req, Instant(3_000_000));
    sim.run_until(Instant(8_000_000));
    assert_eq!(ih.hops_to(SERVER), Some(7), "5 + 1 routers, reached at TTL 7");
    assert!(gh.detected_any(), "with delta=2 the junk expires before the co-located censor");
    assert_eq!(ih.delta_for(SERVER), Some(1), "the iteration lowered delta after the failure");
}
