//! DNS censorship-evasion trials (Table 6 and §2.1 DNS poisoning).
//!
//! The client application issues a plain UDP DNS query for a censored
//! domain. Without INTANG the censor injects a forged answer (poisoning);
//! with INTANG the query is converted to DNS-over-TCP toward a clean
//! resolver, protected by the improved TCB-teardown strategy.

use crate::path::{build_path, teardown_or_plain, PathSpec, Server};
use crate::scenario::VantagePoint;
use intang_apps::dnsapp::{DnsClientReport, DnsServerDriver, DnsUdpClientDriver, Zone};
use intang_core::IntangConfig;
use intang_gfw::device::POISON_ADDR;
use intang_gfw::GfwConfig;
use intang_netsim::{Duration, Instant, Link};
use std::net::Ipv4Addr;

/// The two Dyn resolvers of Table 6.
pub const DYN1: Ipv4Addr = Ipv4Addr::new(216, 146, 35, 35);
pub const DYN2: Ipv4Addr = Ipv4Addr::new(216, 146, 36, 36);
/// The censored domain's real address.
pub const REAL_ADDR: Ipv4Addr = Ipv4Addr::new(162, 125, 2, 5);
/// The censored domain queried in Table 6.
pub const CENSORED_DOMAIN: &str = "www.dropbox.com";

/// Outcome of one DNS lookup trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsOutcome {
    /// Correct answer obtained.
    Resolved,
    /// Poisoned: the forged address came back (first).
    Poisoned,
    /// Reset or timed out with no usable answer.
    Failed,
}

pub struct DnsTrialSpec<'a> {
    pub vp: &'a VantagePoint,
    pub resolver: Ipv4Addr,
    /// Use INTANG's DNS-over-TCP forwarder with the improved teardown
    /// strategy. Without it the raw UDP query faces the poisoner.
    pub use_intang: bool,
    pub seed: u64,
    /// Probability that a connection-tracking NAT interferes on this path
    /// (the Tianjin anomaly of Table 6 — the paper reports the mechanism
    /// as unexplained; we model a home-gateway conntrack box).
    pub nat_prob: f64,
}

pub fn run_dns_trial(spec: &DnsTrialSpec<'_>) -> DnsOutcome {
    // Client queries its "configured" resolver over UDP; INTANG reroutes.
    let (driver, report) = DnsUdpClientDriver::new(spec.resolver, CENSORED_DOMAIN);
    let zone = Zone::new(Ipv4Addr::new(198, 18, 0, 1)).with(CENSORED_DOMAIN, REAL_ADDR);
    let (mut sim, _) = build_path(PathSpec {
        vp: spec.vp,
        seed: spec.seed,
        client: ("client", Box::new(driver)),
        intang: IntangConfig {
            dns_forward: spec.use_intang.then_some(spec.resolver),
            ..teardown_or_plain(spec.use_intang)
        },
        history: None,
        // Tianjin's home gateway may run connection tracking that an
        // insertion RST desynchronizes.
        home_gateway: Some(spec.nat_prob),
        core: Link::new(Duration::from_millis(8), 6).with_loss(0.004),
        midpath: None,
        // Censor: DNS poisoning + TCP resets.
        censors: vec![GfwConfig::evolved()],
        server_box: None,
        server_link: Link::new(Duration::from_millis(30), 8).with_loss(0.004),
        // The clean resolver, answering over both UDP and TCP.
        server: Server::linux("resolver", spec.resolver, 53, DnsServerDriver::new(zone)),
        faults: None,
    });
    sim.run_until(Instant(20_000_000));
    let outcome = classify_dns(&report.borrow());
    outcome
}

fn classify_dns(rep: &DnsClientReport) -> DnsOutcome {
    match rep.answer {
        Some(a) if a == REAL_ADDR => DnsOutcome::Resolved,
        Some(a) if a == POISON_ADDR => DnsOutcome::Poisoned,
        Some(_) => DnsOutcome::Resolved, // resolver default (uncensored name)
        None => DnsOutcome::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn udp_query_is_poisoned_without_intang() {
        let s = Scenario::paper_inside(5);
        let vp = &s.vantage_points[0];
        let mut poisoned = 0;
        for seed in 0..6 {
            let spec = DnsTrialSpec {
                vp,
                resolver: DYN1,
                use_intang: false,
                seed: 100 + seed,
                nat_prob: 0.0,
            };
            if run_dns_trial(&spec) == DnsOutcome::Poisoned {
                poisoned += 1;
            }
        }
        assert!(poisoned >= 5, "the injected answer wins the race, got {poisoned}/6");
    }

    #[test]
    fn intang_forwarder_evades_dns_censorship() {
        let s = Scenario::paper_inside(5);
        let vp = &s.vantage_points[0];
        let mut resolved = 0;
        for seed in 0..6 {
            let spec = DnsTrialSpec {
                vp,
                resolver: DYN1,
                use_intang: true,
                seed: 200 + seed,
                nat_prob: 0.0,
            };
            if run_dns_trial(&spec) == DnsOutcome::Resolved {
                resolved += 1;
            }
        }
        assert!(resolved >= 5, "DNS over TCP with evasion resolves, got {resolved}/6");
    }

    #[test]
    fn conntrack_nat_breaks_the_teardown_strategy() {
        let s = Scenario::paper_inside(5);
        let tj = s.vantage_points.iter().find(|v| v.name == "unicom-tj").unwrap();
        let mut failed = 0;
        for seed in 0..6 {
            let spec = DnsTrialSpec {
                vp: tj,
                resolver: DYN1,
                use_intang: true,
                seed: 300 + seed,
                nat_prob: 1.0,
            };
            if run_dns_trial(&spec) == DnsOutcome::Failed {
                failed += 1;
            }
        }
        assert!(failed >= 5, "insertion RST kills the NAT state: {failed}/6 failed");
    }
}
