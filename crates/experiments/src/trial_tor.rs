//! Tor-bridge and VPN trials (§7.3).

use crate::path::{build_path, teardown_or_plain, PathSpec, Server};
use crate::scenario::VantagePoint;
use intang_apps::tor::{TorBridgeDriver, TorClientDriver};
use intang_apps::vpn::{VpnClientDriver, VpnServerDriver};
use intang_gfw::{GfwConfig, GfwHandle};
use intang_netsim::{Duration, Instant, Link};
use std::net::Ipv4Addr;

/// A hidden bridge on EC2 (US), as in §7.3.
pub const BRIDGE_ADDR: Ipv4Addr = Ipv4Addr::new(54, 210, 77, 7);
pub const BRIDGE_PORT: u16 = 443;
pub const VPN_ADDR: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 200);

/// What happened to the Tor session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TorOutcome {
    /// Handshake + all cells exchanged; bridge not blocked.
    Working,
    /// The censor blocked the bridge IP (active probing confirmed it).
    IpBlocked,
    /// Connection reset or stalled without an IP block.
    Disrupted,
}

pub struct TorTrialSpec<'a> {
    pub vp: &'a VantagePoint,
    /// Protect the session with INTANG's improved teardown strategy.
    pub use_intang: bool,
    pub seed: u64,
    pub cells: u32,
}

pub fn run_tor_trial(spec: &TorTrialSpec<'_>) -> (TorOutcome, GfwHandle) {
    let (driver, report) = TorClientDriver::new(BRIDGE_ADDR, BRIDGE_PORT, spec.cells);
    let (mut sim, path) = build_path(PathSpec {
        vp: spec.vp,
        seed: spec.seed,
        client: ("tor-client", Box::new(driver)),
        intang: teardown_or_plain(spec.use_intang),
        history: None,
        home_gateway: None,
        core: Link::new(Duration::from_millis(10), 7).with_loss(0.003),
        midpath: None,
        censors: vec![GfwConfig::evolved()],
        server_box: None,
        // Transpacific haul to the EC2 bridge.
        server_link: Link::new(Duration::from_millis(70), 9).with_loss(0.003),
        server: Server::linux("bridge", BRIDGE_ADDR, BRIDGE_PORT, TorBridgeDriver::new(BRIDGE_PORT)),
        faults: None,
    });
    sim.run_until(Instant(60_000_000));
    let handle = path.censors.into_iter().next().expect("the path has one censor");
    let rep = report.borrow();
    let outcome = if handle.ip_blocked(BRIDGE_ADDR) {
        TorOutcome::IpBlocked
    } else if rep.handshake_complete && rep.cells_acked >= spec.cells && !rep.reset {
        TorOutcome::Working
    } else {
        TorOutcome::Disrupted
    };
    (outcome, handle)
}

/// VPN trial outcome: did the tunnel come up and stay up?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpnOutcome {
    TunnelUp,
    ResetDuringHandshake,
    Failed,
}

pub struct VpnTrialSpec<'a> {
    pub vp: &'a VantagePoint,
    /// The censor's DPI-reset regime for OpenVPN (on in Nov 2016, later
    /// discontinued — §7.3).
    pub vpn_dpi: bool,
    pub use_intang: bool,
    pub seed: u64,
}

pub fn run_vpn_trial(spec: &VpnTrialSpec<'_>) -> VpnOutcome {
    let (driver, report) = VpnClientDriver::new(VPN_ADDR, 1194, 3);
    let mut censor = GfwConfig::evolved();
    censor.vpn_dpi = spec.vpn_dpi;
    let (mut sim, _) = build_path(PathSpec {
        vp: spec.vp,
        seed: spec.seed,
        client: ("vpn-client", Box::new(driver)),
        intang: teardown_or_plain(spec.use_intang),
        history: None,
        home_gateway: None,
        // The censor sits at the client's provider edge.
        core: Link::new(Duration::from_millis(1), 0),
        midpath: None,
        censors: vec![censor],
        server_box: None,
        server_link: Link::new(Duration::from_millis(20), 8).with_loss(0.003),
        server: Server::linux("vpn-server", VPN_ADDR, 1194, VpnServerDriver::new()),
        faults: None,
    });
    sim.run_until(Instant(30_000_000));
    let rep = report.borrow();
    if rep.tunnel_up && rep.records_echoed >= 3 && !rep.reset {
        VpnOutcome::TunnelUp
    } else if rep.reset {
        VpnOutcome::ResetDuringHandshake
    } else {
        VpnOutcome::Failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn unfiltered_northern_paths_run_tor_freely() {
        let s = Scenario::paper_inside(9);
        let vp = s.vantage_points.iter().find(|v| !v.tor_filtered).unwrap();
        let (outcome, handle) = run_tor_trial(&TorTrialSpec {
            vp,
            use_intang: false,
            seed: 11,
            cells: 3,
        });
        assert_eq!(outcome, TorOutcome::Working);
        assert_eq!(handle.probes_launched(), 0, "no Tor-filtering devices on this path");
    }

    #[test]
    fn filtered_paths_get_actively_probed_and_ip_blocked() {
        let s = Scenario::paper_inside(9);
        let vp = s.vantage_points.iter().find(|v| v.tor_filtered).unwrap();
        let (outcome, handle) = run_tor_trial(&TorTrialSpec {
            vp,
            use_intang: false,
            seed: 12,
            cells: 3,
        });
        assert_eq!(outcome, TorOutcome::IpBlocked, "probing confirms the bridge and blocks its IP");
        assert!(handle.probes_launched() >= 1);
    }

    #[test]
    fn intang_hides_tor_from_filtered_paths() {
        let s = Scenario::paper_inside(9);
        let vp = s.vantage_points.iter().find(|v| v.tor_filtered).unwrap();
        let (outcome, handle) = run_tor_trial(&TorTrialSpec {
            vp,
            use_intang: true,
            seed: 13,
            cells: 3,
        });
        assert_eq!(outcome, TorOutcome::Working, "teardown blinds the fingerprinter");
        assert_eq!(handle.probes_launched(), 0);
    }

    #[test]
    fn vpn_dpi_regime_resets_unprotected_handshakes() {
        let s = Scenario::paper_inside(9);
        let vp = &s.vantage_points[0];
        assert_eq!(
            run_vpn_trial(&VpnTrialSpec {
                vp,
                vpn_dpi: true,
                use_intang: false,
                seed: 14
            }),
            VpnOutcome::ResetDuringHandshake
        );
        assert_eq!(
            run_vpn_trial(&VpnTrialSpec {
                vp,
                vpn_dpi: true,
                use_intang: true,
                seed: 15
            }),
            VpnOutcome::TunnelUp,
            "INTANG keeps openvpn-over-TCP alive under the 2016 regime"
        );
        assert_eq!(
            run_vpn_trial(&VpnTrialSpec {
                vp,
                vpn_dpi: false,
                use_intang: false,
                seed: 16
            }),
            VpnOutcome::TunnelUp,
            "after the regime change plain VPN works again"
        );
    }
}
