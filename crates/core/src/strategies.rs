//! Every evasion strategy the paper measures, as the shim's two
//! interception hooks: [`on_syn`] and [`on_first_payload`] each `match` on
//! the flow's [`StrategyKind`] and run that strategy's action at that
//! point. A strategy that does not act at a hook forwards the packet
//! untouched.
//!
//! Timing convention: insertion packets are injected at offset 0 (with
//! redundancy, §3.4), and the original packet is forwarded after
//! [`ShimCtx::after_redundancy`] so it always trails its insertions on the
//! wire.

use crate::insertion::{Discrepancy, InsertionKind, InsertionSpec};
use crate::strategy::{FlowState, ShimCtx, StrategyKind, Verdict};
use intang_netsim::Duration;
use intang_packet::{frag, IpProtocol, Ipv4Repr, PacketBuilder, TcpFlags, TcpRepr, Wire};

/// Offset the desynchronization / fake-SYN sequence numbers sit at: far
/// outside any plausible receive window (§5.1).
const OUT_OF_WINDOW: u32 = 0x4000_0000;

/// Payload split point for out-of-order TCP segments: the sensitive
/// content must not fit entirely in the head (HTTP keywords sit after
/// `GET /`; DNS names after the 14-byte header+frame).
const SEG_CUT: usize = 8;

/// The flow's first SYN is leaving the client.
pub fn on_syn(ctx: &mut ShimCtx<'_>, flow: &FlowState, seg: &TcpRepr) -> Verdict {
    use StrategyKind::*;
    let spec = match flow.strategy {
        // §3.2 TCB creation: a fake SYN (wrong ISN) before the real
        // handshake, so the censor anchors on a bogus sequence. Defeated by
        // the evolved model's resynchronization on the SYN/ACK (§4).
        TcbCreationSyn(disc) => fake_syn(flow, seg, disc, 0x00ff_00ff),
        // Fig. 3, first half: the same fake SYN defeats the old model.
        TcbCreationResyncDesync => fake_syn(flow, seg, best_disc(flow, InsertionKind::Syn), 0x0f0f_0f0f),
        // Fig. 4, first half: a fake SYN/ACK creates a *reversed* TCB on
        // the evolved model (it monitors the wrong direction). It must
        // never reach the server (whose RST would tear the reversed TCB
        // down), so it is TTL-scoped.
        TeardownTcbReversal => {
            let mut spec = spec_for(flow, seg, InsertionKind::SynAck, Discrepancy::SmallTtl);
            spec.seq = ctx.rng.next_u32();
            spec.ack = ctx.rng.next_u32();
            spec
        }
        // No other strategy acts on the SYN.
        _ => return Verdict::Forward,
    };
    insert(ctx, &spec)
}

/// The first payload-bearing segment (the request) is leaving; a
/// retransmission of it comes here again.
pub fn on_first_payload(ctx: &mut ShimCtx<'_>, flow: &FlowState, seg: &TcpRepr) -> Verdict {
    use StrategyKind::*;
    match flow.strategy {
        NoStrategy | TcbCreationSyn(_) => Verdict::Forward,
        OutOfOrderIpFrag => out_of_order_ip_frag(ctx, flow, seg),
        OutOfOrderTcpSeg => out_of_order_tcp_seg(ctx, flow, seg),
        InOrderOverlap(disc) => insert(ctx, &in_order_junk(flow, seg, disc)),
        // §7.1: the junk prefill crafted with a Table 5-safe discrepancy
        // (TTL when measured, MD5 otherwise) to dodge middleboxes and
        // server side effects.
        ImprovedInOrderOverlap => insert(ctx, &in_order_junk(flow, seg, best_disc(flow, InsertionKind::Data))),
        // §3.2 TCB teardown with an RST / RST-ACK / FIN insertion packet.
        TeardownRst(disc) => insert(ctx, &spec_for(flow, seg, InsertionKind::Rst, disc)),
        TeardownRstAck(disc) => insert(ctx, &spec_for(flow, seg, InsertionKind::RstAck, disc)),
        TeardownFin(disc) => insert(ctx, &spec_for(flow, seg, InsertionKind::Fin, disc)),
        // Fig. 4, second half: an RST insertion tears down the old
        // model's TCB.
        TeardownTcbReversal => insert(ctx, &best_rst(flow, seg)),
        // §7.1: the RST covers the teardown outcome (old model / lucky
        // evolved), the desync packet the resynchronization outcome
        // (Hypothesized New Behavior 3).
        ImprovedTeardown => insert_then_desync(ctx, flow, seg, &best_rst(flow, seg)),
        // Fig. 3, second half: a second fake SYN forces the evolved model
        // into the resynchronization state, and the desync packet makes it
        // re-anchor on garbage. It cannot precede the SYN/ACK (§5.2): the
        // censor would re-anchor from the SYN/ACK's ACK. Here the handshake
        // is complete, so it sticks.
        TcbCreationResyncDesync => {
            let syn2 = fake_syn(flow, seg, best_disc(flow, InsertionKind::Syn), 0x5a5a_5a5a);
            insert_then_desync(ctx, flow, seg, &syn2)
        }
        WestChamber => west_chamber(ctx, flow, seg),
    }
}

/// Build an insertion spec for the flow, defaulting unset fields from the
/// intercepted segment.
fn spec_for(flow: &FlowState, seg: &TcpRepr, kind: InsertionKind, disc: Discrepancy) -> InsertionSpec {
    InsertionSpec {
        src: flow.tuple.src,
        dst: flow.tuple.dst,
        src_port: flow.tuple.src_port,
        dst_port: flow.tuple.dst_port,
        kind,
        seq: seg.seq,
        ack: seg.ack,
        payload: Vec::new(),
        disc,
        ttl_limit: flow.insertion_ttl(),
    }
}

/// Pick the best Table 5 discrepancy available: TTL when a hop estimate
/// exists, otherwise the first non-TTL whitelist entry (MD5 for control
/// packets, MD5 for data too).
fn best_disc(flow: &FlowState, kind: InsertionKind) -> Discrepancy {
    let prefs = kind.preferred_discrepancies();
    if flow.hops.is_some() && flow.prefer_ttl {
        prefs[0] // SmallTtl always heads the whitelist
    } else {
        prefs
            .iter()
            .copied()
            .find(|d| *d != Discrepancy::SmallTtl)
            .unwrap_or(Discrepancy::BadChecksum)
    }
}

/// A teardown RST with the best Table 5 discrepancy (the improved and
/// combined strategies).
fn best_rst(flow: &FlowState, seg: &TcpRepr) -> InsertionSpec {
    spec_for(flow, seg, InsertionKind::Rst, best_disc(flow, InsertionKind::Rst))
}

/// A fake SYN whose ISN sits out of window, scrambled by `isn_mask`.
fn fake_syn(flow: &FlowState, seg: &TcpRepr, disc: Discrepancy, isn_mask: u32) -> InsertionSpec {
    let mut spec = spec_for(flow, seg, InsertionKind::Syn, disc);
    spec.seq = seg.seq.wrapping_add(OUT_OF_WINDOW) ^ isn_mask;
    spec
}

/// §3.2 in-order data overlapping: junk at the request's sequence fills
/// the censor's buffer, so the real request then looks like stale data.
fn in_order_junk(flow: &FlowState, seg: &TcpRepr, disc: Discrepancy) -> InsertionSpec {
    let mut spec = spec_for(flow, seg, InsertionKind::Data, disc);
    spec.payload = vec![b'J'; seg.payload.len()];
    spec
}

/// Inject `spec` with redundancy and forward the original after every
/// copy.
fn insert(ctx: &mut ShimCtx<'_>, spec: &InsertionSpec) -> Verdict {
    ctx.inject(spec.build(), Duration::ZERO);
    Verdict::ForwardDelayed(ctx.after_redundancy())
}

/// As [`insert`], with a desynchronization packet riding after every copy
/// and the original 10 ms behind it.
fn insert_then_desync(ctx: &mut ShimCtx<'_>, flow: &FlowState, seg: &TcpRepr, spec: &InsertionSpec) -> Verdict {
    ctx.inject(spec.build(), Duration::ZERO);
    ctx.inject_once(desync_packet(flow, seg), ctx.after_redundancy());
    Verdict::ForwardDelayed(ctx.after_redundancy() + Duration::from_millis(10))
}

/// The desynchronization building block (§5.1): a 1-byte data packet with
/// an out-of-window sequence number. Inherently ignored by the server
/// (duplicate-ACK path) — no extra discrepancy needed.
fn desync_packet(flow: &FlowState, seg: &TcpRepr) -> Wire {
    PacketBuilder::tcp(flow.tuple.src, flow.tuple.dst, flow.tuple.src_port, flow.tuple.dst_port)
        .seq(seg.seq.wrapping_add(OUT_OF_WINDOW))
        .ack(seg.ack)
        .flags(TcpFlags::PSH_ACK)
        .payload(b"?")
        .build()
}

/// §3.2 out-of-order overlapping IP fragments: garbage tail first (the
/// censor keeps it, first-wins), real tail second (receivers keep it,
/// last-wins), then the head to fill the gap.
fn out_of_order_ip_frag(ctx: &mut ShimCtx<'_>, flow: &FlowState, seg: &TcpRepr) -> Verdict {
    let segment = seg.emit(flow.tuple.src, flow.tuple.dst);
    // Cut right after the TCP header, rounded up to fragment granularity.
    let header_len = usize::from(segment[12] >> 4) * 4;
    let cut = (header_len + 7) & !7;
    if segment.len() <= cut {
        return Verdict::Forward; // nothing beyond the header to hide
    }
    let ident = ctx.rng.next_u16();
    let base = Ipv4Repr {
        ident,
        ..Ipv4Repr::new(flow.tuple.src, flow.tuple.dst, IpProtocol::Tcp)
    };
    let tail_real = &segment[cut..];
    let tail_junk: Vec<u8> = (0..tail_real.len()).map(|_| (ctx.rng.next_u16() & 0x7f) as u8 | 0x20).collect();
    let head = &segment[..cut];
    ctx.inject_once(frag::raw_fragment(&base, cut, false, &tail_junk), Duration::ZERO);
    ctx.inject_once(frag::raw_fragment(&base, cut, false, tail_real), Duration::from_millis(2));
    ctx.inject_once(frag::raw_fragment(&base, 0, true, head), Duration::from_millis(4));
    Verdict::Replace
}

/// §3.2 out-of-order overlapping TCP segments: real tail first, garbage
/// tail second (the Khattak-model censor prefers the latter), then the
/// head.
fn out_of_order_tcp_seg(ctx: &mut ShimCtx<'_>, flow: &FlowState, seg: &TcpRepr) -> Verdict {
    if seg.payload.len() <= SEG_CUT {
        return Verdict::Forward;
    }
    let cut = SEG_CUT;
    let mk = |seq: u32, payload: Vec<u8>, ack: u32| {
        PacketBuilder::tcp(flow.tuple.src, flow.tuple.dst, flow.tuple.src_port, flow.tuple.dst_port)
            .seq(seq)
            .ack(ack)
            .flags(TcpFlags::PSH_ACK)
            .payload(&payload)
            .build()
    };
    let tail_real = seg.payload[cut..].to_vec();
    let tail_junk: Vec<u8> = (0..tail_real.len()).map(|_| (ctx.rng.next_u16() & 0x7f) as u8 | 0x20).collect();
    let head = seg.payload[..cut].to_vec();
    let tail_seq = seg.seq.wrapping_add(cut as u32);
    ctx.inject_once(mk(tail_seq, tail_real, seg.ack), Duration::ZERO);
    ctx.inject_once(mk(tail_seq, tail_junk, seg.ack), Duration::from_millis(2));
    ctx.inject_once(mk(seg.seq, head, seg.ack), Duration::from_millis(4));
    Verdict::Replace
}

/// The West Chamber Project baseline (§2.2): RSTs at the censor from both
/// believed directions. The spoofed "server-side" RST is emitted toward
/// the server — on-path censors attribute packets by address, not travel
/// direction, so the tap processes it as server traffic while the real
/// server discards it (the destination isn't the server).
fn west_chamber(ctx: &mut ShimCtx<'_>, flow: &FlowState, seg: &TcpRepr) -> Verdict {
    // Client-side RST (the original tool used checksum corruption).
    let spec = spec_for(flow, seg, InsertionKind::Rst, Discrepancy::BadChecksum);
    ctx.inject(spec.build(), Duration::ZERO);
    // Spoofed server-side RST: src is the *server*, sequence is the
    // server's next expected byte as observed from the SYN/ACK.
    if let Some(server_isn) = flow.server_isn {
        let spoofed = PacketBuilder::tcp(flow.tuple.dst, flow.tuple.src, flow.tuple.dst_port, flow.tuple.src_port)
            .seq(server_isn.wrapping_add(1))
            .flags(TcpFlags::RST)
            .bad_checksum()
            .build();
        intang_simcheck::expect_bad_checksum(&spoofed);
        ctx.inject(spoofed, Duration::from_millis(2));
    }
    Verdict::ForwardDelayed(ctx.after_redundancy())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyId;
    use intang_netsim::SimRng;
    use intang_packet::{FourTuple, Ipv4Packet, TcpPacket};
    use std::net::Ipv4Addr;

    type Hook = fn(&mut ShimCtx<'_>, &FlowState, &TcpRepr) -> Verdict;

    fn flow(kind: StrategyKind) -> FlowState {
        let tuple = FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40_000, Ipv4Addr::new(93, 184, 216, 34), 80);
        let mut f = FlowState::new(tuple, kind, 2);
        f.hops = Some(14);
        f
    }

    fn syn_seg() -> TcpRepr {
        let mut syn = TcpRepr::new(40_000, 80);
        syn.seq = 1000;
        syn.flags = TcpFlags::SYN;
        syn
    }

    fn request_seg() -> TcpRepr {
        let mut seg = TcpRepr::new(40_000, 80);
        seg.seq = 1001;
        seg.ack = 9001;
        seg.flags = TcpFlags::PSH_ACK;
        seg.payload = b"GET /ultrasurf HTTP/1.1\r\nHost: site-0.example\r\n\r\n".to_vec();
        seg
    }

    fn run(hook: Hook, kind: StrategyKind, seg: &TcpRepr, redundancy: u32) -> (Verdict, Vec<(Wire, u64)>) {
        let mut rng = SimRng::seed_from(7);
        let mut ctx = ShimCtx::new(&mut rng, redundancy);
        let v = hook(&mut ctx, &flow(kind), seg);
        (v, ctx.injections.into_iter().map(|(w, d)| (w, d.micros())).collect())
    }

    fn run_first_payload(kind: StrategyKind, redundancy: u32) -> (Verdict, Vec<(Wire, u64)>) {
        run(on_first_payload, kind, &request_seg(), redundancy)
    }

    #[test]
    fn hooks_a_strategy_does_not_define_forward_untouched() {
        use StrategyKind::*;
        for kind in (0..20).map(|i| StrategyKind::from_id(StrategyId(i)).expect("ids 0..20 are assigned")) {
            let acts_on_syn = matches!(kind, TcbCreationSyn(_) | TcbCreationResyncDesync | TeardownTcbReversal);
            let acts_on_request = !matches!(kind, NoStrategy | TcbCreationSyn(_));
            let hooks: [(&str, Hook, TcpRepr, bool); 2] = [
                ("on_syn", on_syn, syn_seg(), acts_on_syn),
                ("on_first_payload", on_first_payload, request_seg(), acts_on_request),
            ];
            for (name, hook, seg, acts) in hooks {
                let (v, inj) = run(hook, kind, &seg, 3);
                if acts {
                    assert!(v != Verdict::Forward && !inj.is_empty(), "{kind:?} acts at {name}");
                } else {
                    assert_eq!((v, inj.len()), (Verdict::Forward, 0), "{kind:?} forwards untouched at {name}");
                }
            }
        }
    }

    #[test]
    fn in_order_overlap_injects_matching_junk() {
        let (v, inj) = run_first_payload(StrategyKind::InOrderOverlap(Discrepancy::BadChecksum), 3);
        assert_eq!(inj.len(), 3, "redundancy 3");
        assert!(matches!(v, Verdict::ForwardDelayed(_)));
        let ip = Ipv4Packet::new_checked(&inj[0].0[..]).unwrap();
        let t = TcpPacket::new_checked(ip.payload()).unwrap();
        assert_eq!(t.seq_number(), 1001, "junk sits at the request's sequence");
        assert_eq!(t.payload().len(), request_seg().payload.len());
        assert!(!t.verify_checksum(ip.src_addr(), ip.dst_addr()));
    }

    #[test]
    fn teardown_rst_uses_current_seq_and_ttl() {
        let (_, inj) = run_first_payload(StrategyKind::TeardownRst(Discrepancy::SmallTtl), 1);
        let ip = Ipv4Packet::new_checked(&inj[0].0[..]).unwrap();
        assert_eq!(ip.ttl(), 12, "hops(14) - delta(2)");
        let t = TcpPacket::new_checked(ip.payload()).unwrap();
        assert_eq!(t.flags(), TcpFlags::RST);
        assert_eq!(t.seq_number(), 1001);
    }

    #[test]
    fn improved_teardown_appends_desync_packet() {
        let (v, inj) = run_first_payload(StrategyKind::ImprovedTeardown, 3);
        assert_eq!(inj.len(), 4, "3 RSTs + 1 desync");
        let (desync_wire, desync_delay) = &inj[3];
        assert!(*desync_delay > inj[2].1, "desync rides after the RSTs");
        let ip = Ipv4Packet::new_checked(&desync_wire[..]).unwrap();
        let t = TcpPacket::new_checked(ip.payload()).unwrap();
        assert_eq!(t.payload().len(), 1);
        assert_eq!(t.seq_number(), 1001u32.wrapping_add(OUT_OF_WINDOW));
        assert!(t.verify_checksum(ip.src_addr(), ip.dst_addr()), "desync needs no discrepancy");
        match v {
            Verdict::ForwardDelayed(d) => assert!(d.micros() > *desync_delay),
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn ooo_tcp_seg_order_real_junk_head() {
        let (v, inj) = run_first_payload(StrategyKind::OutOfOrderTcpSeg, 1);
        assert_eq!(v, Verdict::Replace);
        assert_eq!(inj.len(), 3);
        let req = request_seg();
        let parse = |w: &[u8]| {
            let ip = Ipv4Packet::new_checked(w).unwrap();
            let t = TcpPacket::new_checked(ip.payload()).unwrap();
            (t.seq_number(), t.payload().to_vec())
        };
        let (s0, p0) = parse(&inj[0].0);
        let (s1, p1) = parse(&inj[1].0);
        let (s2, p2) = parse(&inj[2].0);
        assert_eq!(s0, 1001 + 8);
        assert_eq!(p0, &req.payload[8..], "real tail first");
        assert_eq!(s1, 1001 + 8);
        assert_ne!(p1, p0, "garbage tail second");
        assert_eq!(p1.len(), p0.len());
        assert_eq!((s2, p2.as_slice()), (1001, &req.payload[..8]), "head last");
    }

    #[test]
    fn ooo_ip_frag_produces_three_fragments() {
        let (v, inj) = run_first_payload(StrategyKind::OutOfOrderIpFrag, 1);
        assert_eq!(v, Verdict::Replace);
        assert_eq!(inj.len(), 3);
        let frags: Vec<_> = inj
            .iter()
            .map(|(w, _)| {
                let ip = Ipv4Packet::new_checked(&w[..]).unwrap();
                (ip.frag_offset(), ip.more_fragments(), ip.payload().to_vec())
            })
            .collect();
        assert_eq!(frags[0].0, frags[1].0, "junk and real tails share an offset");
        assert!(!frags[0].1 && !frags[1].1);
        assert_ne!(frags[0].2, frags[1].2);
        assert_eq!(frags[2].0, 0, "head fills the gap last");
        assert!(frags[2].1, "head has more-fragments set");
        // Reassembling all three LastWins (server-style) restores the real segment.
        let all: Vec<Wire> = inj.iter().map(|(w, _)| w.clone()).collect();
        let whole = intang_packet::frag::reassemble(intang_packet::frag::OverlapPolicy::LastWins, all).unwrap();
        let ip = Ipv4Packet::new_checked(&whole[..]).unwrap();
        let t = TcpPacket::new_checked(ip.payload()).unwrap();
        assert_eq!(t.payload(), &request_seg().payload[..]);
    }

    #[test]
    fn reversal_synack_is_ttl_scoped_random() {
        let (v, inj) = run(on_syn, StrategyKind::TeardownTcbReversal, &syn_seg(), 1);
        assert!(matches!(v, Verdict::ForwardDelayed(_)));
        let ip = Ipv4Packet::new_checked(&inj[0].0[..]).unwrap();
        assert_eq!(ip.ttl(), 12);
        let t = TcpPacket::new_checked(ip.payload()).unwrap();
        assert_eq!(t.flags(), TcpFlags::SYN_ACK);
        assert_ne!(t.seq_number(), 1000);
    }

    #[test]
    fn best_disc_falls_back_without_hops() {
        let mut f = flow(StrategyKind::NoStrategy);
        f.hops = None;
        assert_eq!(best_disc(&f, InsertionKind::Rst), Discrepancy::Md5Option);
        assert_eq!(best_disc(&f, InsertionKind::Data), Discrepancy::Md5Option);
        assert_eq!(
            best_disc(&f, InsertionKind::Syn),
            Discrepancy::BadChecksum,
            "SYN row has no non-TTL entry"
        );
        f.hops = Some(10);
        assert_eq!(best_disc(&f, InsertionKind::Rst), Discrepancy::SmallTtl);
    }
}
