//! Application-driver behaviors under adversity: resets mid-session,
//! stalled bridges, forwarder-transparent DNS, and multi-driver hosts.

use intang_apps::dnsapp::{DnsServerDriver, DnsTcpClientDriver, Zone};
use intang_apps::host::add_host;
use intang_apps::http::{HttpClientDriver, HttpServerDriver};
use intang_apps::tor::{TorBridgeDriver, TorClientDriver};
use intang_gfw::{GfwConfig, GfwElement};
use intang_netsim::{Direction, Duration, Instant, Link, Simulation};
use intang_packet::http::HttpRequest;
use intang_tcpstack::StackProfile;
use std::net::Ipv4Addr;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

#[test]
fn http_client_reports_reset_when_censored() {
    let server_addr = Ipv4Addr::new(203, 0, 113, 10);
    let mut sim = Simulation::new(5);
    let (driver, report) = HttpClientDriver::new(server_addr, 80, HttpRequest::get("/ultrasurf", "x.example"));
    add_host(
        &mut sim,
        "client",
        CLIENT,
        StackProfile::linux_4_4(),
        Box::new(driver),
        Direction::ToServer,
    );
    sim.add_link(Link::new(Duration::from_millis(3), 3));
    let (gfw, censor) = GfwElement::new(GfwConfig::evolved().deterministic());
    sim.add_element(Box::new(gfw));
    sim.add_link(Link::new(Duration::from_millis(4), 4));
    let (_i, sh) = add_host(
        &mut sim,
        "server",
        server_addr,
        StackProfile::linux_4_4(),
        Box::new(HttpServerDriver::new(80)),
        Direction::ToClient,
    );
    sh.with_tcp(|t| t.listen(80));
    sim.run_until(Instant(12_000_000));
    let rep = report.borrow();
    assert!(
        !censor.detections().is_empty(),
        "the request went out and the censor saw its keyword"
    );
    assert!(rep.reset, "the injected volley reset the client socket");
    assert!(!rep.succeeded());
}

#[test]
fn tor_bridge_block_is_ip_wide_and_persistent() {
    // One world: the Tor session triggers active probing and the IP block;
    // afterwards even innocent HTTP toward the same address is dropped at
    // the border (the paper's "no longer connect to this IP via any port").
    let bridge_addr = Ipv4Addr::new(54, 210, 8, 9);
    let mut sim = Simulation::new(6);
    struct Both {
        tor: TorClientDriver,
        http: HttpClientDriver,
    }
    impl intang_apps::HostDriver for Both {
        fn poll(&mut self, now: Instant, tcp: &mut intang_tcpstack::TcpEndpoint, udp: &mut intang_apps::UdpLayer) {
            self.tor.poll(now, tcp, udp);
            self.http.poll(now, tcp, udp);
        }
        fn next_wakeup(&self) -> Option<Instant> {
            let a = self.tor.next_wakeup();
            let b = self.http.next_wakeup();
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, y) => x.or(y),
            }
        }
    }
    let (tor, _tor_report) = TorClientDriver::new(bridge_addr, 443, 2);
    // The clean HTTP fetch starts well after the block has landed.
    let (http, http_report) = HttpClientDriver::new(bridge_addr, 80, HttpRequest::get("/clean", "bridge.example"));
    let http = http.starting_at(Instant(30_000_000));
    let (_idx, _hh) = add_host(
        &mut sim,
        "client",
        CLIENT,
        StackProfile::linux_4_4(),
        Box::new(Both { tor, http }),
        Direction::ToServer,
    );
    sim.schedule_timer(0, Instant(30_000_000), 1);
    sim.add_link(Link::new(Duration::from_millis(3), 3));
    let mut cfg = GfwConfig::evolved().deterministic();
    cfg.tor_filter = true;
    cfg.active_probing = true;
    let (gfw, handle) = GfwElement::new(cfg);
    sim.add_element(Box::new(gfw));
    sim.add_link(Link::new(Duration::from_millis(30), 6));
    let bridge = TorBridgeDriver::new(443);
    let (_i, bh) = add_host(
        &mut sim,
        "bridge",
        bridge_addr,
        StackProfile::linux_4_4(),
        Box::new(bridge),
        Direction::ToClient,
    );
    bh.with_tcp(|t| {
        t.listen(443);
        t.listen(80);
    });

    sim.run_until(Instant(80_000_000));
    assert!(handle.ip_blocked(bridge_addr), "the probe confirmed and blocked the bridge IP");
    let rep = http_report.borrow();
    assert!(!rep.succeeded(), "even port 80 toward the blocked IP is unreachable");
    assert!(rep.response.is_none());
}

#[test]
fn dns_tcp_client_sees_reset_under_censorship() {
    let resolver = Ipv4Addr::new(216, 146, 35, 35);
    let mut sim = Simulation::new(8);
    let (driver, report) = DnsTcpClientDriver::new(resolver, "www.dropbox.com");
    add_host(
        &mut sim,
        "client",
        CLIENT,
        StackProfile::linux_4_4(),
        Box::new(driver),
        Direction::ToServer,
    );
    sim.add_link(Link::new(Duration::from_millis(3), 3));
    let (gfw, handle) = GfwElement::new(GfwConfig::evolved().deterministic());
    sim.add_element(Box::new(gfw));
    sim.add_link(Link::new(Duration::from_millis(5), 4));
    let zone = Zone::new(Ipv4Addr::new(198, 18, 0, 1)).with("www.dropbox.com", Ipv4Addr::new(162, 125, 2, 5));
    let (_i, sh) = add_host(
        &mut sim,
        "resolver",
        resolver,
        StackProfile::linux_4_4(),
        Box::new(DnsServerDriver::new(zone)),
        Direction::ToClient,
    );
    sh.with_tcp(|t| t.listen(53));
    sim.run_until(Instant(12_000_000));
    let rep = report.borrow();
    assert!(rep.reset, "TCP DNS for a censored domain draws resets (§2.1)");
    assert_eq!(rep.answer, None);
    assert!(handle.detected_any());
}
