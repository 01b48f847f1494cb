//! A server-side sequence-checking firewall (§3.4, "Interference from
//! server-side middleboxes" and §7.1): it tracks the client's stream
//! position but — unlike the server behind it — validates neither
//! checksums, MD5 options nor ACK numbers. An insertion data packet that
//! the *server* would ignore therefore advances the firewall's expected
//! sequence, and the real request then looks like a stale duplicate and is
//! dropped: **Failure 1**.

use intang_netsim::{Ctx, Direction, Element};
use intang_packet::tcp::seq;
use intang_packet::{FourTuple, FxHashMap, TcpPacket, Wire};
use intang_telemetry::{Counter, MetricsSheet};

#[derive(Debug, Clone, Copy)]
struct Track {
    /// Next expected client sequence number.
    expected: u32,
    established: bool,
}

/// Strict in-order sequence firewall on the server side of the path.
pub struct SeqStrictFirewall {
    label: &'static str,
    conns: FxHashMap<FourTuple, Track>,
    /// When true the box validates TCP checksums and so *drops* corrupt
    /// insertion packets instead of accepting them (harmless variant).
    pub validate_checksum: bool,
    pub blocked: u64,
}

impl SeqStrictFirewall {
    pub fn new(label: &'static str) -> SeqStrictFirewall {
        SeqStrictFirewall {
            label,
            conns: FxHashMap::default(),
            validate_checksum: false,
            blocked: 0,
        }
    }
}

impl Element for SeqStrictFirewall {
    fn name(&self) -> &str {
        self.label
    }

    fn export_metrics(&self, m: &mut MetricsSheet) {
        m.add(Counter::MiddleboxSeqfwBlocked, self.blocked);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
        // Only client→server traffic is sequence-checked.
        if dir != Direction::ToServer {
            ctx.send(dir, wire);
            return;
        }
        let Some(hdr) = wire.headers() else {
            ctx.send(dir, wire);
            return;
        };
        let Some(seg) = hdr.tcp().copied() else {
            ctx.send(dir, wire);
            return;
        };
        if self.validate_checksum {
            let l4 = &wire[usize::from(hdr.ip_payload_start)..usize::from(hdr.ip_payload_end)];
            if !TcpPacket::new_unchecked(l4).verify_checksum(hdr.src, hdr.dst) {
                self.blocked += 1;
                return;
            }
        }
        let flags = seg.flags;
        let key = FourTuple::new(hdr.src, seg.src_port, hdr.dst, seg.dst_port).canonical();
        if flags.syn() {
            self.conns.insert(
                key,
                Track {
                    expected: seg.seq.wrapping_add(1),
                    established: true,
                },
            );
            ctx.send(dir, wire);
            return;
        }
        if flags.rst() {
            self.conns.remove(&key);
            ctx.send(dir, wire);
            return;
        }
        let Some(track) = self.conns.get_mut(&key) else {
            ctx.send(dir, wire);
            return;
        };
        let plen = u32::from(seg.payload_end - seg.payload_start);
        if plen == 0 || !track.established {
            ctx.send(dir, wire);
            return;
        }
        let sn = seg.seq;
        if sn == track.expected {
            track.expected = track.expected.wrapping_add(plen);
            ctx.send(dir, wire);
        } else if seq::lt(sn, track.expected) {
            // Stale duplicate: drop (the strict behavior that turns an
            // accepted insertion packet into a hung connection).
            self.blocked += 1;
        } else {
            // Future data (gap): forwarded; real firewalls buffer or pass.
            ctx.send(dir, wire);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intang_netsim::element::PassThrough;
    use intang_netsim::{Duration, Instant, Link, Simulation};
    use intang_packet::{Ipv4Packet, PacketBuilder, TcpFlags};
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

    fn setup(validate_checksum: bool) -> (Simulation, Rc<RefCell<Vec<Wire>>>) {
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(4);
        sim.add_element(Box::new(PassThrough::new("gfw-side")));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        let mut fw = SeqStrictFirewall::new("seqfw");
        fw.validate_checksum = validate_checksum;
        sim.add_element(Box::new(fw));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(Sink { got: got.clone() }));
        (sim, got)
    }

    fn payload_of(w: &Wire) -> Vec<u8> {
        let ip = Ipv4Packet::new_checked(&w[..]).unwrap();
        TcpPacket::new_checked(ip.payload()).unwrap().payload().to_vec()
    }

    #[test]
    fn accepted_junk_blocks_real_request() {
        // Bad-checksum insertion junk at seq 101, then the real request at
        // the same seq: the box (not validating checksums) accepted the
        // junk, so the real request is dropped — Failure 1.
        let (mut sim, got) = setup(false);
        let syn = PacketBuilder::tcp(c(), s(), 40000, 80).flags(TcpFlags::SYN).seq(100).build();
        let junk = PacketBuilder::tcp(c(), s(), 40000, 80)
            .flags(TcpFlags::PSH_ACK)
            .seq(101)
            .payload(b"XXXXX")
            .bad_checksum()
            .build();
        let real = PacketBuilder::tcp(c(), s(), 40000, 80)
            .flags(TcpFlags::PSH_ACK)
            .seq(101)
            .payload(b"GET /")
            .build();
        sim.inject_at(0, Direction::ToServer, syn, Instant(0));
        sim.inject_at(0, Direction::ToServer, junk, Instant(1_000));
        sim.inject_at(0, Direction::ToServer, real, Instant(2_000));
        sim.run_to_quiescence(100);
        let got = got.borrow();
        assert_eq!(got.len(), 2, "SYN + junk pass; real request blocked");
        assert_eq!(payload_of(&got[1]), b"XXXXX");
    }

    #[test]
    fn checksum_validating_variant_is_harmless() {
        let (mut sim, got) = setup(true);
        let syn = PacketBuilder::tcp(c(), s(), 40000, 80).flags(TcpFlags::SYN).seq(100).build();
        let junk = PacketBuilder::tcp(c(), s(), 40000, 80)
            .flags(TcpFlags::PSH_ACK)
            .seq(101)
            .payload(b"XXXXX")
            .bad_checksum()
            .build();
        let real = PacketBuilder::tcp(c(), s(), 40000, 80)
            .flags(TcpFlags::PSH_ACK)
            .seq(101)
            .payload(b"GET /")
            .build();
        sim.inject_at(0, Direction::ToServer, syn, Instant(0));
        sim.inject_at(0, Direction::ToServer, junk, Instant(1_000));
        sim.inject_at(0, Direction::ToServer, real, Instant(2_000));
        sim.run_to_quiescence(100);
        let got = got.borrow();
        assert_eq!(got.len(), 2, "SYN + real request pass; junk dropped by the box");
        assert_eq!(payload_of(&got[1]), b"GET /");
    }

    #[test]
    fn in_order_stream_passes() {
        let (mut sim, got) = setup(false);
        let syn = PacketBuilder::tcp(c(), s(), 40000, 80).flags(TcpFlags::SYN).seq(100).build();
        let d1 = PacketBuilder::tcp(c(), s(), 40000, 80)
            .flags(TcpFlags::PSH_ACK)
            .seq(101)
            .payload(b"ab")
            .build();
        let d2 = PacketBuilder::tcp(c(), s(), 40000, 80)
            .flags(TcpFlags::PSH_ACK)
            .seq(103)
            .payload(b"cd")
            .build();
        sim.inject_at(0, Direction::ToServer, syn, Instant(0));
        sim.inject_at(0, Direction::ToServer, d1, Instant(1_000));
        sim.inject_at(0, Direction::ToServer, d2, Instant(2_000));
        sim.run_to_quiescence(100);
        assert_eq!(got.borrow().len(), 3);
    }

    #[test]
    fn server_to_client_traffic_untouched() {
        let (mut sim, _got) = setup(false);
        let resp = PacketBuilder::tcp(s(), c(), 80, 40000)
            .flags(TcpFlags::PSH_ACK)
            .payload(b"200 OK")
            .build();
        sim.inject_at(2, Direction::ToClient, resp, Instant(0));
        sim.run_to_quiescence(100);
        // No panic, no block counting.
    }
}
