//! A simulated host: TCP endpoint + UDP layer + application driver, wired
//! into the event loop as a netsim [`Element`].

use intang_netsim::{Ctx, Direction, Element, Instant};
use intang_packet::{udp, IpProtocol, Ipv4Packet, Ipv4Repr, Wire};
use intang_tcpstack::{StackProfile, TcpEndpoint};
use intang_telemetry::{span, MetricsSheet, SpanId};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Timer token used for the endpoint's retransmission clock.
const TOKEN_TCP: u64 = 1;

/// One received UDP datagram.
#[derive(Debug, Clone)]
pub struct UdpDatagram {
    pub src: Ipv4Addr,
    pub src_port: u16,
    pub dst_port: u16,
    pub payload: Vec<u8>,
}

/// A minimal UDP layer: a receive queue and a send queue.
#[derive(Debug, Default)]
pub struct UdpLayer {
    pub rx: Vec<UdpDatagram>,
    tx: Vec<Wire>,
    local: Option<Ipv4Addr>,
}

impl UdpLayer {
    pub fn send(&mut self, dst: Ipv4Addr, src_port: u16, dst_port: u16, payload: Vec<u8>) {
        let src = self.local.expect("UDP layer not attached to a host");
        let repr = udp::UdpRepr::new(src_port, dst_port, payload);
        let ip = Ipv4Repr::new(src, dst, IpProtocol::Udp);
        self.tx.push(ip.emit(&repr.emit(src, dst)).into());
    }

    /// Drain received datagrams addressed to `port`.
    pub fn recv_port(&mut self, port: u16) -> Vec<UdpDatagram> {
        let (take, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.rx).into_iter().partition(|d| d.dst_port == port);
        self.rx = keep;
        take
    }
}

/// Application logic attached to a host. `poll` runs after every packet
/// delivery and timer tick; drivers inspect sockets, send, and close.
pub trait HostDriver {
    fn poll(&mut self, now: Instant, tcp: &mut TcpEndpoint, udp: &mut UdpLayer);

    /// Next time this driver wants to be polled even with no traffic
    /// (periodic senders). Must be in the future relative to the `now` the
    /// driver last saw; the host clamps pathological values.
    fn next_wakeup(&self) -> Option<Instant> {
        None
    }
}

/// A no-op driver for passive hosts.
pub struct IdleDriver;

impl HostDriver for IdleDriver {
    fn poll(&mut self, _now: Instant, _tcp: &mut TcpEndpoint, _udp: &mut UdpLayer) {}
}

struct HostCore {
    tcp: TcpEndpoint,
    udp: UdpLayer,
    driver: Box<dyn HostDriver>,
}

/// The element. Cheap [`HostHandle`] clones give tests and tools access to
/// the shared core.
pub struct HostElement {
    label: &'static str,
    core: Rc<RefCell<HostCore>>,
}

/// Shared access to a host's stack and queues.
#[derive(Clone)]
pub struct HostHandle {
    core: Rc<RefCell<HostCore>>,
}

impl HostElement {
    pub fn new(label: &'static str, addr: Ipv4Addr, profile: StackProfile, driver: Box<dyn HostDriver>) -> (HostElement, HostHandle) {
        let udp = UdpLayer {
            local: Some(addr),
            ..UdpLayer::default()
        };
        let core = Rc::new(RefCell::new(HostCore {
            tcp: TcpEndpoint::new(addr, profile),
            udp,
            driver,
        }));
        (HostElement { label, core: core.clone() }, HostHandle { core })
    }

    /// The direction pointing *away* from this host into the path. The
    /// client host (index 0) transmits ToServer; the server host transmits
    /// ToClient. Inferred lazily from the first packet's arrival direction
    /// is fragile, so it's explicit.
    pub fn into_boxed(self, egress: Direction) -> Box<DirectedHost> {
        Box::new(DirectedHost {
            host: self,
            egress,
            tx_scratch: Vec::new(),
        })
    }
}

impl HostHandle {
    pub fn with_tcp<R>(&self, f: impl FnOnce(&mut TcpEndpoint) -> R) -> R {
        f(&mut self.core.borrow_mut().tcp)
    }

    pub fn addr(&self) -> Ipv4Addr {
        self.core.borrow().tcp.addr
    }
}

/// A host bound to its egress direction (see [`HostElement::into_boxed`]).
pub struct DirectedHost {
    host: HostElement,
    egress: Direction,
    /// Reused per-pump transmit staging (capacity survives across events).
    tx_scratch: Vec<Wire>,
}

impl DirectedHost {
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let mut core = self.host.core.borrow_mut();
        let HostCore { tcp, udp, driver, .. } = &mut *core;
        driver.poll(ctx.now, tcp, udp);
        tcp.poll_transmit_into(&mut self.tx_scratch);
        for w in self.tx_scratch.drain(..) {
            ctx.send(self.egress, w);
        }
        for w in std::mem::take(&mut udp.tx) {
            ctx.send(self.egress, w);
        }
        let mut wake = tcp.next_deadline().map(Instant);
        if let Some(w) = driver.next_wakeup() {
            // Clamp into the future so a sloppy driver can't spin the clock.
            let w = w.max(Instant(ctx.now.micros() + 1_000));
            wake = Some(wake.map_or(w, |t| t.min(w)));
        }
        if let Some(deadline) = wake {
            ctx.set_timer(deadline, TOKEN_TCP);
        }
    }
}

impl Element for DirectedHost {
    fn name(&self) -> &str {
        self.host.label
    }

    fn export_metrics(&self, m: &mut MetricsSheet) {
        self.host.core.borrow().tcp.export_metrics(m);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _dir: Direction, wire: Wire) {
        let _s = span(SpanId::Tcpstack);
        {
            let mut core = self.host.core.borrow_mut();
            let local = core.tcp.addr;
            match Ipv4Packet::new_checked(&wire[..]) {
                Ok(ip) if ip.dst_addr() == local => match ip.protocol() {
                    IpProtocol::Udp => {
                        if let Ok(u) = udp::UdpPacket::new_checked(ip.payload()) {
                            let dg = UdpDatagram {
                                src: ip.src_addr(),
                                src_port: u.src_port(),
                                dst_port: u.dst_port(),
                                payload: u.payload().to_vec(),
                            };
                            core.udp.rx.push(dg);
                        }
                    }
                    // Routers' TTL-exceeded replies: nothing at a host
                    // reads ICMP, so the wire goes back to the pool.
                    IpProtocol::Icmp => {}
                    _ => core.tcp.on_packet(wire, ctx.now.micros()),
                },
                _ => {} // not addressed to us: swallowed at the edge
            }
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _s = span(SpanId::Tcpstack);
        if token == TOKEN_TCP {
            self.host.core.borrow_mut().tcp.on_timer(ctx.now.micros());
        }
        self.pump(ctx);
    }
}

/// Convenience: build a host and register a kick-off timer so the driver's
/// first `poll` runs at t=0 once the simulation starts.
pub fn add_host(
    sim: &mut intang_netsim::Simulation,
    label: &'static str,
    addr: Ipv4Addr,
    profile: StackProfile,
    driver: Box<dyn HostDriver>,
    egress: Direction,
) -> (usize, HostHandle) {
    let (host, handle) = HostElement::new(label, addr, profile, driver);
    let idx = sim.add_element(host.into_boxed(egress));
    sim.schedule_timer(idx, Instant::ZERO, 0);
    (idx, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use intang_netsim::{Duration, Link, Simulation};

    /// Driver that opens one connection and sends a fixed blob.
    struct BlastDriver {
        server: Ipv4Addr,
        started: bool,
        handle: Option<intang_tcpstack::SocketHandle>,
        report: Rc<RefCell<Vec<u8>>>,
    }

    impl HostDriver for BlastDriver {
        fn poll(&mut self, now: Instant, tcp: &mut TcpEndpoint, _udp: &mut UdpLayer) {
            if !self.started {
                self.started = true;
                let h = tcp.connect(self.server, 80, now.micros());
                self.handle = Some(h);
            }
            if let Some(h) = self.handle {
                if tcp.socket(h).is_established() && tcp.socket(h).snd_nxt() == tcp.socket(h).iss().wrapping_add(1) {
                    tcp.socket(h).send(b"ping over the simulated path", now.micros());
                }
                let data = tcp.socket(h).recv_drain();
                self.report.borrow_mut().extend_from_slice(&data);
            }
        }
    }

    /// Driver that echoes everything back upper-cased and closes.
    struct EchoDriver {
        conns: Vec<intang_tcpstack::SocketHandle>,
    }

    impl HostDriver for EchoDriver {
        fn poll(&mut self, now: Instant, tcp: &mut TcpEndpoint, _udp: &mut UdpLayer) {
            self.conns.extend(tcp.take_accepted());
            for &h in &self.conns {
                let data = tcp.socket(h).recv_drain();
                if !data.is_empty() {
                    let upper: Vec<u8> = data.iter().map(u8::to_ascii_uppercase).collect();
                    tcp.socket(h).send(&upper, now.micros());
                }
            }
        }
    }

    #[test]
    fn two_hosts_talk_over_the_simulated_path() {
        let client_addr = Ipv4Addr::new(10, 0, 0, 1);
        let server_addr = Ipv4Addr::new(203, 0, 113, 10);
        let report = Rc::new(RefCell::new(Vec::new()));

        let mut sim = Simulation::new(11);
        let (_cidx, chandle) = add_host(
            &mut sim,
            "client",
            client_addr,
            StackProfile::linux_4_4(),
            Box::new(BlastDriver {
                server: server_addr,
                started: false,
                handle: None,
                report: report.clone(),
            }),
            Direction::ToServer,
        );
        sim.add_link(Link::new(Duration::from_millis(15), 4));
        let (_sidx, shandle) = add_host(
            &mut sim,
            "server",
            server_addr,
            StackProfile::linux_4_4(),
            Box::new(EchoDriver { conns: Vec::new() }),
            Direction::ToClient,
        );
        shandle.with_tcp(|t| t.listen(80));

        sim.run_to_quiescence(10_000);
        assert_eq!(report.borrow().as_slice(), b"PING OVER THE SIMULATED PATH");
        assert_eq!(chandle.with_tcp(|t| t.live_sockets()), 1);
    }

    #[test]
    fn loss_recovered_by_retransmission() {
        let client_addr = Ipv4Addr::new(10, 0, 0, 1);
        let server_addr = Ipv4Addr::new(203, 0, 113, 10);
        let report = Rc::new(RefCell::new(Vec::new()));

        let mut sim = Simulation::new(1234);
        add_host(
            &mut sim,
            "client",
            client_addr,
            StackProfile::linux_4_4(),
            Box::new(BlastDriver {
                server: server_addr,
                started: false,
                handle: None,
                report: report.clone(),
            }),
            Direction::ToServer,
        );
        sim.add_link(Link::new(Duration::from_millis(5), 2).with_loss(0.25));
        let (_sidx, shandle) = add_host(
            &mut sim,
            "server",
            server_addr,
            StackProfile::linux_4_4(),
            Box::new(EchoDriver { conns: Vec::new() }),
            Direction::ToClient,
        );
        shandle.with_tcp(|t| t.listen(80));

        sim.run_until(Instant(20_000_000));
        assert_eq!(
            report.borrow().as_slice(),
            b"PING OVER THE SIMULATED PATH",
            "RTO recovers from 25% loss"
        );
    }

    #[test]
    fn udp_layer_round_trip() {
        struct UdpPing {
            server: Ipv4Addr,
            sent: bool,
            got: Rc<RefCell<Vec<Vec<u8>>>>,
        }
        impl HostDriver for UdpPing {
            fn poll(&mut self, _now: Instant, _tcp: &mut TcpEndpoint, udp: &mut UdpLayer) {
                if !self.sent {
                    self.sent = true;
                    udp.send(self.server, 5000, 7, b"marco".to_vec());
                }
                for d in udp.recv_port(5000) {
                    self.got.borrow_mut().push(d.payload);
                }
            }
        }
        struct UdpEcho;
        impl HostDriver for UdpEcho {
            fn poll(&mut self, _now: Instant, _tcp: &mut TcpEndpoint, udp: &mut UdpLayer) {
                for d in udp.recv_port(7) {
                    udp.send(d.src, 7, d.src_port, b"polo".to_vec());
                }
            }
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(5);
        add_host(
            &mut sim,
            "client",
            Ipv4Addr::new(10, 0, 0, 1),
            StackProfile::linux_4_4(),
            Box::new(UdpPing {
                server: Ipv4Addr::new(203, 0, 113, 10),
                sent: false,
                got: got.clone(),
            }),
            Direction::ToServer,
        );
        sim.add_link(Link::new(Duration::from_millis(3), 1));
        add_host(
            &mut sim,
            "server",
            Ipv4Addr::new(203, 0, 113, 10),
            StackProfile::linux_4_4(),
            Box::new(UdpEcho),
            Direction::ToClient,
        );
        sim.run_to_quiescence(1_000);
        assert_eq!(*got.borrow(), vec![b"polo".to_vec()]);
    }

    #[test]
    fn connection_to_dead_host_times_out_cleanly() {
        let client_addr = Ipv4Addr::new(10, 0, 0, 1);
        let report = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(8);
        let (_idx, handle) = add_host(
            &mut sim,
            "client",
            client_addr,
            StackProfile::linux_4_4(),
            Box::new(BlastDriver {
                server: Ipv4Addr::new(203, 0, 113, 99),
                started: false,
                handle: None,
                report: report.clone(),
            }),
            Direction::ToServer,
        );
        sim.add_link(Link::new(Duration::from_millis(5), 1));
        add_host(
            &mut sim,
            "blackhole",
            Ipv4Addr::new(203, 0, 113, 98), // different address: packets vanish
            StackProfile::linux_4_4(),
            Box::new(IdleDriver),
            Direction::ToClient,
        );
        sim.run_until(Instant(300_000_000));
        assert_eq!(handle.with_tcp(|t| t.live_sockets()), 0, "SYN retries exhausted, socket closed");
        assert!(report.borrow().is_empty());
    }
}
