//! The Fig. 1 path every trial kind runs on: client → INTANG shim → the
//! vantage point's Table 2 middleboxes → censor(s) → server. HTTP, DNS,
//! Tor and VPN trials each describe theirs as one [`PathSpec`], so a
//! vantage point means one path whatever the protocol.

use crate::scenario::VantagePoint;
use intang_apps::host::{add_host, HostDriver, HostHandle};
use intang_core::select::History;
use intang_core::{IntangConfig, IntangElement, IntangHandle, StrategyKind};
use intang_faults::FaultPlan;
use intang_gfw::{GfwConfig, GfwElement, GfwHandle};
use intang_middlebox::{FieldFilter, FilterSpec, FragmentHandler, SeqStrictFirewall, StatefulFirewall};
use intang_netsim::element::PassThrough;
use intang_netsim::{Direction, Duration, Link, LinkFaults, Simulation};
use intang_tcpstack::StackProfile;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// One trial's path, assembled by [`build_path`] in this order: the client
/// host, a 50 µs link and the INTANG shim; a 1 ms access link and the
/// vantage point's fragment handler and field filter, 100 µs apart; the
/// optional home gateway; the core link; the optional mid-path filter and
/// a 200 µs link; the censors, 10 µs apart; the optional server-side box;
/// the server.
pub struct PathSpec<'a> {
    /// Client address, Table 2 middleboxes, access hops, Tor filtering.
    pub vp: &'a VantagePoint,
    pub seed: u64,
    /// Name and application of the client host (Linux 4.4 at `vp.addr`).
    pub client: (&'static str, Box<dyn HostDriver>),
    pub intang: IntangConfig,
    /// Shared history for INTANG's adaptive selection.
    pub history: Option<Rc<RefCell<History>>>,
    /// Probability, drawn from the trial's RNG at build time, that a home
    /// gateway 100 µs past the field filter runs connection tracking; a
    /// disengaged gateway is still a pass-through hop.
    pub home_gateway: Option<f64>,
    pub core: Link,
    /// Unattributed mid-path filter ahead of the censors (§3.4).
    pub midpath: Option<FilterSpec>,
    /// Client side first; a path without a mid-path filter needs one.
    pub censors: Vec<GfwConfig>,
    pub server_box: Option<ServerBox>,
    /// From the last censor to the server. A server box splits off its
    /// last hop, so the link then needs two or more.
    pub server_link: Link,
    pub server: Server,
    /// Censor chaos, mid-path perturbation and access/core/last link faults.
    pub faults: Option<&'a FaultPlan>,
}

/// The server host, listening on `port`.
pub struct Server {
    pub name: &'static str,
    pub addr: Ipv4Addr,
    pub profile: StackProfile,
    pub port: u16,
    pub app: Box<dyn HostDriver>,
}

impl Server {
    /// A Linux 4.4 server, as every trial kind but HTTP (whose sites vary
    /// their stacks) runs.
    pub fn linux(name: &'static str, addr: Ipv4Addr, port: u16, app: impl HostDriver + 'static) -> Server {
        Server {
            name,
            addr,
            profile: StackProfile::linux_4_4(),
            port,
            app: Box::new(app),
        }
    }
}

/// A server-side middlebox one hop short of the server; both are §3.4
/// Failure-1 sources.
#[derive(Debug, Clone, Copy)]
pub enum ServerBox {
    /// A strict sequence-checking firewall (rare).
    SeqFw { validates_checksum: bool },
    /// A connection-tracking firewall (common).
    Conntrack,
}

/// The live handles of an assembled path.
pub struct Path {
    pub client: HostHandle,
    pub server: HostHandle,
    pub intang: IntangHandle,
    pub censors: Vec<GfwHandle>,
    /// Index of the core link: the pre-censor route-dynamics target.
    pub core_link: usize,
    /// Index of the post-censor route-dynamics target: the server link;
    /// with a seqfw box the link past it, with a conntrack box the link
    /// ahead of it.
    pub last_link: usize,
}

/// INTANG as the DNS, Tor and VPN trials run it: the improved teardown
/// strategy with hop measurement, or no strategy and no probes.
pub fn teardown_or_plain(use_intang: bool) -> IntangConfig {
    IntangConfig {
        strategy: Some(if use_intang {
            StrategyKind::ImprovedTeardown
        } else {
            StrategyKind::NoStrategy
        }),
        measure_hops: use_intang,
        ..IntangConfig::default()
    }
}

/// Router addresses name their path segment: 172.16.1.0 access, .2.0
/// core, .3.0 toward the server, .4.0 past a server box.
fn segment(link: Link, n: u8) -> Link {
    link.with_router_base(Ipv4Addr::new(172, 16, n, 0))
}

/// Assemble the path; nothing runs until the caller drives the simulation.
pub fn build_path(spec: PathSpec<'_>) -> (Simulation, Path) {
    let (vp, faults) = (spec.vp, spec.faults);
    let mut sim = Simulation::new(spec.seed);
    let (name, app) = spec.client;
    let (_, client) = add_host(&mut sim, name, vp.addr, StackProfile::linux_4_4(), app, Direction::ToServer);

    // The shim runs on the client machine.
    sim.add_link(Link::new(Duration::from_micros(50), 0));
    let (shim, intang) = match spec.history {
        Some(h) => IntangElement::with_history(vp.addr, spec.intang, h),
        None => IntangElement::new(vp.addr, spec.intang),
    };
    sim.add_element(Box::new(shim));

    let access_link = sim.link_count();
    sim.add_link(segment(Link::new(Duration::from_millis(1), vp.access_hops), 1));
    sim.add_element(Box::new(FragmentHandler::new(vp.profile.label(), vp.profile.fragment_mode())));
    sim.add_link(Link::new(Duration::from_micros(100), 0));
    sim.add_element(Box::new(FieldFilter::new(vp.profile.label(), vp.profile.filter_spec())));
    if let Some(p) = spec.home_gateway {
        let engaged = sim.rng.chance(p);
        sim.add_link(Link::new(Duration::from_micros(100), 0));
        if engaged {
            sim.add_element(Box::new(StatefulFirewall::new("home-nat")));
        } else {
            sim.add_element(Box::new(PassThrough::new("no-nat")));
        }
    }

    let core_link = sim.link_count();
    sim.add_link(segment(spec.core, 2));
    // The link ahead of the next censor, unless the core link is.
    let mut censor_link = None;
    if let Some(mut filter) = spec.midpath {
        if let Some(p) = faults.and_then(|plan| plan.midpath_drop_no_flag) {
            // Profile perturbation: an unattributed hop starts eating
            // flagless segments (Table 2's "varies by path" rows).
            filter.drop_no_flag = filter.drop_no_flag.max(p);
        }
        sim.add_element(Box::new(FieldFilter::new("midpath", filter)));
        censor_link = Some(Duration::from_micros(200));
    }
    let mut censors = Vec::with_capacity(spec.censors.len());
    for mut cfg in spec.censors {
        cfg.tor_filter = vp.tor_filtered;
        if let Some(plan) = faults {
            cfg.chaos_rst_inject_prob = plan.censor.rst_inject_prob;
            cfg.chaos_blacklist_jitter = plan.censor.blacklist_jitter;
            cfg.chaos_device_flap_prob = plan.censor.device_flap_prob;
        }
        if let Some(latency) = censor_link.replace(Duration::from_micros(10)) {
            sim.add_link(Link::new(latency, 0));
        }
        let (el, handle) = GfwElement::new(cfg);
        sim.add_element(Box::new(el));
        censors.push(handle);
    }

    let server_link = segment(spec.server_link, 3);
    let ahead = sim.link_count();
    let last_link = match spec.server_box {
        None => {
            sim.add_link(server_link);
            ahead
        }
        Some(b) => {
            sim.add_link(Link {
                hops: server_link.hops - 1,
                ..server_link
            });
            // TTL-scoped insertions normally expire one router short of
            // the server, just before a conntrack box; a one-hop route
            // shrink ahead of it exposes it to a traversing insertion RST.
            let last = match b {
                ServerBox::SeqFw { validates_checksum } => {
                    let mut fw = SeqStrictFirewall::new("server-fw");
                    fw.validate_checksum = validates_checksum;
                    sim.add_element(Box::new(fw));
                    ahead + 1
                }
                ServerBox::Conntrack => {
                    sim.add_element(Box::new(StatefulFirewall::new("server-conntrack")));
                    ahead
                }
            };
            sim.add_link(segment(Link::new(Duration::from_micros(300), 1), 4));
            last
        }
    };
    let srv = spec.server;
    let (_, server) = add_host(&mut sim, srv.name, srv.addr, srv.profile, srv.app, Direction::ToClient);
    server.with_tcp(|t| t.listen(srv.port));

    if let Some(plan) = faults {
        apply_link_faults(&mut sim, access_link, &plan.access);
        apply_link_faults(&mut sim, core_link, &plan.core);
        apply_link_faults(&mut sim, last_link, &plan.server);
    }
    let path = Path {
        client,
        server,
        intang,
        censors,
        core_link,
        last_link,
    };
    (sim, path)
}

/// Install a plan's faults on one link. The burst channel *replaces* the
/// link's independent loss draw, so the link's own residual loss is folded
/// into the good-state loss rate — faults can only add loss, never mask it.
fn apply_link_faults(sim: &mut Simulation, idx: usize, faults: &LinkFaults) {
    let link = sim.link_mut(idx);
    let mut f = faults.clone();
    if let Some(ge) = f.burst.as_mut() {
        ge.loss_good = ge.loss_good.max(link.loss);
    }
    link.faults = f;
}

#[cfg(test)]
mod tests {
    use super::*;
    use intang_apps::host::IdleDriver;

    fn spec(vp: &VantagePoint, midpath: bool, server_box: Option<ServerBox>) -> PathSpec<'_> {
        PathSpec {
            vp,
            seed: 1,
            client: ("client", Box::new(IdleDriver)),
            intang: teardown_or_plain(false),
            history: None,
            home_gateway: None,
            core: Link::new(Duration::from_millis(5), 4),
            midpath: midpath.then(FilterSpec::passes_everything),
            censors: vec![GfwConfig::old(), GfwConfig::evolved()],
            server_box,
            server_link: Link::new(Duration::from_millis(5), 3),
            server: Server::linux("server", Ipv4Addr::new(203, 0, 113, 1), 80, IdleDriver),
            faults: None,
        }
    }

    /// Element names in path order, and the (latency µs, hops) of every link.
    fn layout(sim: &mut Simulation) -> (Vec<String>, Vec<(u64, u8)>) {
        let names = (0..=sim.link_count()).map(|i| sim.element(i).name().to_string()).collect();
        let links = (0..sim.link_count())
            .map(|i| {
                let l = sim.link_mut(i);
                (l.latency.micros(), l.hops)
            })
            .collect();
        (names, links)
    }

    #[test]
    fn every_slot_lands_in_fig1_order() {
        let vp = &VantagePoint::inside_china()[0];
        let (mut sim, path) = build_path(spec(vp, true, None));
        let (names, links) = layout(&mut sim);
        let mb = vp.profile.label();
        assert_eq!(names, ["client", "INTANG", mb, mb, "midpath", "GFW", "GFW", "server"]);
        let access = (1_000, vp.access_hops);
        assert_eq!(links, [(50, 0), access, (100, 0), (5_000, 4), (200, 0), (10, 0), (5_000, 3)]);
        assert_eq!((path.core_link, path.last_link), (3, 6));
        assert_eq!(path.censors.len(), 2);

        // Without a mid-path filter the core link reaches the first censor.
        let (mut sim, _) = build_path(spec(vp, false, None));
        let (names, links) = layout(&mut sim);
        assert_eq!(names, ["client", "INTANG", mb, mb, "GFW", "GFW", "server"]);
        assert_eq!(links, [(50, 0), access, (100, 0), (5_000, 4), (10, 0), (5_000, 3)]);
    }

    #[test]
    fn last_link_is_past_a_seqfw_and_ahead_of_a_conntrack_box() {
        let vp = &VantagePoint::inside_china()[0];
        let seqfw = ServerBox::SeqFw { validates_checksum: true };
        for (b, name, last) in [
            (seqfw, "server-fw", (300, 1)),
            (ServerBox::Conntrack, "server-conntrack", (5_000, 2)),
        ] {
            let (mut sim, path) = build_path(spec(vp, true, Some(b)));
            let (names, links) = layout(&mut sim);
            assert_eq!(names[7], name);
            assert_eq!(links[6..], [(5_000, 2), (300, 1)], "the box takes the server link's last hop");
            assert_eq!(links[path.last_link], last, "{name}");
        }
    }

    #[test]
    fn a_home_gateway_is_a_hop_whether_or_not_it_tracks_connections() {
        let vp = &VantagePoint::inside_china()[0];
        for (p, gateway) in [(1.0, "home-nat"), (0.0, "no-nat")] {
            let mut s = spec(vp, false, None);
            s.home_gateway = Some(p);
            let (mut sim, _) = build_path(s);
            assert_eq!(layout(&mut sim).0[4], gateway);
        }
    }
}
