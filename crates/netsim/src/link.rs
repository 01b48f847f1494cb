//! Links: latency, loss, and routers that decrement TTL.

use crate::faults::LinkFaults;
use crate::time::Duration;
use std::net::Ipv4Addr;

/// A link between two adjacent path elements, containing `hops` routers.
///
/// Each router decrements the IPv4 TTL; if it reaches zero the packet dies
/// there and the router answers with ICMP time-exceeded. Router addresses
/// are derived from `router_base` so traceroute output is stable.
#[derive(Debug, Clone)]
pub struct Link {
    /// One-way propagation + queueing latency for the whole link.
    pub latency: Duration,
    /// Independent loss probability applied once per traversal.
    pub loss: f64,
    /// Number of TTL-decrementing routers on this link (may be 0 for a
    /// same-rack hop, e.g. GFW devices co-located with the server, §7.1).
    pub hops: u8,
    /// Base address for router identities on this link.
    pub router_base: Ipv4Addr,
    /// Injected fault set (burst loss, reorder, dup, jitter, MTU clamp).
    /// Inert by default — see [`LinkFaults::is_inert`].
    pub faults: LinkFaults,
}

impl Link {
    pub fn new(latency: Duration, hops: u8) -> Link {
        Link {
            latency,
            loss: 0.0,
            hops,
            router_base: Ipv4Addr::new(172, 16, 0, 0),
            faults: LinkFaults::default(),
        }
    }

    pub fn with_loss(mut self, loss: f64) -> Link {
        self.loss = loss;
        self
    }

    pub fn with_router_base(mut self, base: Ipv4Addr) -> Link {
        self.router_base = base;
        self
    }

    /// Address of the `i`-th router on this link (1-based).
    pub fn router_addr(&self, i: u8) -> Ipv4Addr {
        let base = u32::from(self.router_base);
        Ipv4Addr::from(base.wrapping_add(u32::from(i)))
    }

    /// Per-router latency share (the total stays `latency`).
    pub fn per_hop_latency(&self) -> Duration {
        if self.hops == 0 {
            self.latency
        } else {
            Duration::from_micros(self.latency.micros() / u64::from(self.hops).max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_addresses_are_distinct_and_stable() {
        let l = Link::new(Duration::from_millis(10), 4).with_router_base(Ipv4Addr::new(172, 16, 9, 0));
        let addrs: Vec<_> = (1..=4).map(|i| l.router_addr(i)).collect();
        assert_eq!(addrs[0], Ipv4Addr::new(172, 16, 9, 1));
        assert_eq!(addrs[3], Ipv4Addr::new(172, 16, 9, 4));
        let mut dedup = addrs.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
    }

    #[test]
    fn per_hop_latency_splits() {
        let l = Link::new(Duration::from_millis(10), 5);
        assert_eq!(l.per_hop_latency(), Duration::from_millis(2));
        let l0 = Link::new(Duration::from_millis(3), 0);
        assert_eq!(l0.per_hop_latency(), Duration::from_millis(3));
    }
}
