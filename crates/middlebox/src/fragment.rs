//! Fragment-policy middleboxes (Table 2, "IP fragments" row).
//!
//! Aliyun vantage points could not emit IP fragments at all ("Discarded");
//! every other vantage point had a box that *reassembled* fragments into a
//! whole datagram before forwarding — which hands the GFW the complete
//! HTTP request and deterministically defeats the out-of-order IP-fragment
//! strategy (§3.4).

use intang_netsim::{Ctx, Direction, Element};
use intang_packet::frag::{OverlapPolicy, Reassembler};
use intang_packet::{Ipv4Packet, Wire};
use intang_telemetry::{Counter, MetricsSheet};

/// What the box does with fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentMode {
    /// Forward fragments untouched (no box on path).
    Pass,
    /// Discard all fragments (Aliyun).
    Drop,
    /// Buffer and reassemble into one datagram before forwarding.
    Reassemble,
}

/// A fragment-policy middlebox (client-egress direction).
pub struct FragmentHandler {
    label: &'static str,
    mode: FragmentMode,
    reasm: Reassembler,
    pub dropped: u64,
    pub reassembled: u64,
}

impl FragmentHandler {
    pub fn new(label: &'static str, mode: FragmentMode) -> FragmentHandler {
        FragmentHandler {
            label,
            mode,
            // Reassembling boxes keep the later copy, like most OS stacks.
            reasm: Reassembler::new(OverlapPolicy::LastWins),
            dropped: 0,
            reassembled: 0,
        }
    }

    pub fn mode(&self) -> FragmentMode {
        self.mode
    }
}

impl Element for FragmentHandler {
    fn name(&self) -> &str {
        self.label
    }

    fn export_metrics(&self, m: &mut MetricsSheet) {
        m.add(Counter::MiddleboxFragDrops, self.dropped);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
        if dir != Direction::ToServer {
            ctx.send(dir, wire);
            return;
        }
        let is_fragment = Ipv4Packet::new_checked(&wire[..]).map(|p| p.is_fragment()).unwrap_or(false);
        if !is_fragment {
            ctx.send(dir, wire);
            return;
        }
        match self.mode {
            FragmentMode::Pass => ctx.send(dir, wire),
            FragmentMode::Drop => {
                self.dropped += 1;
            }
            FragmentMode::Reassemble => {
                if let Some(full) = self.reasm.push(wire) {
                    self.reassembled += 1;
                    // The reassembled datagram is a rewritten packet; check
                    // it at the rewrite site so a stale checksum is pinned
                    // on this box rather than on a downstream hop.
                    intang_simcheck::check_wire(&full, self.label);
                    ctx.send(dir, full);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intang_netsim::element::PassThrough;
    use intang_netsim::{Duration, Instant, Link, Simulation};
    use intang_packet::{frag, IpProtocol, Ipv4Repr, PacketBuilder, TcpFlags};
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

    fn fragments() -> Vec<Wire> {
        let c = Ipv4Addr::new(10, 0, 0, 1);
        let s = Ipv4Addr::new(203, 0, 113, 9);
        let whole = PacketBuilder::tcp(c, s, 1, 80)
            .flags(TcpFlags::PSH_ACK)
            .payload(&[0x42u8; 64])
            .ident(7)
            .build();
        frag::fragment_at(&whole, &[24])
    }

    fn run(mode: FragmentMode, wires: Vec<Wire>) -> Vec<Wire> {
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(2);
        sim.add_element(Box::new(PassThrough::new("client")));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(FragmentHandler::new("frag", mode)));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(Sink { got: got.clone() }));
        for (i, w) in wires.into_iter().enumerate() {
            sim.inject_at(0, Direction::ToServer, w, Instant(i as u64 * 100));
        }
        sim.run_to_quiescence(100);
        let v = got.borrow().clone();
        v
    }

    #[test]
    fn drop_mode_discards_fragments() {
        assert!(run(FragmentMode::Drop, fragments()).is_empty());
    }

    #[test]
    fn pass_mode_forwards_fragments_as_is() {
        let out = run(FragmentMode::Pass, fragments());
        assert_eq!(out.len(), 2);
        assert!(Ipv4Packet::new_checked(&out[0][..]).unwrap().is_fragment());
    }

    #[test]
    fn reassemble_mode_emits_one_whole_datagram() {
        let out = run(FragmentMode::Reassemble, fragments());
        assert_eq!(out.len(), 1);
        let ip = Ipv4Packet::new_checked(&out[0][..]).unwrap();
        assert!(!ip.is_fragment());
        assert_eq!(ip.payload().len(), 20 + 64, "TCP header + payload restored");
    }

    #[test]
    fn reassembling_box_defeats_garbage_overlap() {
        // The §3.2 IP-fragment evasion: garbage first at [8,16), real data
        // second. A LastWins reassembling middlebox restores the *real*
        // bytes — handing the GFW the sensitive payload.
        let c = Ipv4Addr::new(10, 0, 0, 1);
        let s = Ipv4Addr::new(203, 0, 113, 9);
        let base = Ipv4Repr {
            ident: 9,
            ..Ipv4Repr::new(c, s, IpProtocol::Tcp)
        };
        let garbage = frag::raw_fragment(&base, 8, true, &[0xAA; 8]);
        let real = frag::raw_fragment(&base, 8, false, b"ultrasur");
        let head = frag::raw_fragment(&base, 0, true, &[0x20; 8]);
        let out = run(FragmentMode::Reassemble, vec![garbage, real, head]);
        assert_eq!(out.len(), 1);
        let ip = Ipv4Packet::new_checked(&out[0][..]).unwrap();
        assert_eq!(&ip.payload()[8..], b"ultrasur", "real data restored for the censor to see");
    }

    #[test]
    fn non_fragment_unaffected_in_all_modes() {
        let c = Ipv4Addr::new(10, 0, 0, 1);
        let s = Ipv4Addr::new(203, 0, 113, 9);
        let plain = PacketBuilder::tcp(c, s, 1, 80).flags(TcpFlags::SYN).build();
        for mode in [FragmentMode::Pass, FragmentMode::Drop, FragmentMode::Reassemble] {
            assert_eq!(run(mode, vec![plain.clone()]).len(), 1);
        }
    }
}
