//! Property-based invariants of the censor model (hand-rolled deterministic
//! case generation — the build environment has no registry access, so no
//! proptest).

use intang_gfw::dpi::{shared_paper_rules, Automaton};
use intang_gfw::tcb::CensorTcb;
use intang_tcpstack::reasm::SegmentOverlapPolicy;
use std::net::Ipv4Addr;

#[test]
fn syn_flood_evicts_oldest_tcbs() {
    use intang_gfw::{GfwConfig, GfwElement};
    use intang_netsim::element::PassThrough;
    use intang_netsim::{Direction, Duration, Instant, Link, Simulation};
    use intang_packet::{FourTuple, PacketBuilder, TcpFlags};

    let mut cfg = GfwConfig::evolved().deterministic();
    cfg.max_tcbs = 64;
    let mut sim = Simulation::new(4);
    sim.add_element(Box::new(PassThrough::new("a")));
    sim.add_link(Link::new(Duration::from_micros(10), 0));
    let (el, handle) = GfwElement::new(cfg);
    sim.add_element(Box::new(el));
    sim.add_link(Link::new(Duration::from_micros(10), 0));
    sim.add_element(Box::new(PassThrough::new("b")));

    let client = Ipv4Addr::new(10, 0, 0, 1);
    let server = Ipv4Addr::new(203, 0, 113, 9);
    // The victim flow, then a flood of 200 other flows.
    let victim = PacketBuilder::tcp(client, server, 40_000, 80)
        .seq(1_000)
        .flags(TcpFlags::SYN)
        .build();
    sim.inject_at(0, Direction::ToServer, victim, Instant(0));
    for i in 0..200u16 {
        let syn = PacketBuilder::tcp(client, server, 50_000 + i, 80)
            .seq(5)
            .flags(TcpFlags::SYN)
            .build();
        sim.inject_at(0, Direction::ToServer, syn, Instant(1_000 + u64::from(i)));
    }
    sim.run_to_quiescence(10_000);
    assert_eq!(handle.tcb_count(), 64, "table capped");
    let victim_tuple = FourTuple::new(client, 40_000, server, 80);
    assert!(!handle.has_tcb(victim_tuple), "the oldest (victim) TCB was evicted");
    // The evicted flow's keyword now sails past the censor — the §2.1 cost
    // pressure is itself an evasion surface.
    let req = PacketBuilder::tcp(client, server, 40_000, 80)
        .seq(1_001)
        .ack(1)
        .flags(TcpFlags::PSH_ACK)
        .payload(b"GET /ultrasurf HTTP/1.1\r\n\r\n")
        .build();
    sim.inject_at(0, Direction::ToServer, req, Instant(1_000_000));
    sim.run_to_quiescence(1_000);
    assert!(!handle.detected_any());
}

/// A three-TCB device fed a scripted mix of SYNs and pure ACKs: every SYN
/// past the quota sheds exactly one flow, and which one is the policy.
/// Oldest sheds in insertion order whatever the traffic; LRU sheds the flow
/// touched longest ago, so the ACKs reorder its victims.
#[test]
fn small_quota_sheds_the_policys_exact_victims() {
    use intang_gfw::{EvictionPolicy, GfwConfig, GfwElement};
    use intang_netsim::element::PassThrough;
    use intang_netsim::{Direction, Duration, Instant, Link, Simulation};
    use intang_packet::{FourTuple, PacketBuilder, TcpFlags};

    let client = Ipv4Addr::new(10, 0, 0, 1);
    let server = Ipv4Addr::new(203, 0, 113, 9);
    let port = |flow: u16| 40_000 + flow;
    // (SYN?, flow): an ACK touches the flow's TCB if it still has one.
    let script = [
        (true, 0),
        (true, 1),
        (true, 2),
        (false, 0),
        (true, 3),
        (false, 2),
        (true, 4),
        (false, 0),
        (true, 5),
        (true, 6),
    ];
    for (policy, want) in [(EvictionPolicy::Oldest, [0, 1, 2, 3]), (EvictionPolicy::Lru, [1, 0, 3, 2])] {
        let mut cfg = GfwConfig::evolved().deterministic();
        cfg.max_tcbs = 3;
        cfg.eviction = policy;
        let mut sim = Simulation::new(4);
        sim.add_element(Box::new(PassThrough::new("a")));
        sim.add_link(Link::new(Duration::from_micros(10), 0));
        let (el, handle) = GfwElement::new(cfg);
        sim.add_element(Box::new(el));
        sim.add_link(Link::new(Duration::from_micros(10), 0));
        sim.add_element(Box::new(PassThrough::new("b")));
        let tracked = |flow: u16| handle.has_tcb(FourTuple::new(client, port(flow), server, 80));

        let mut victims = Vec::new();
        for (step, &(syn, flow)) in script.iter().enumerate() {
            let before: Vec<u16> = (0..7).filter(|&f| tracked(f)).collect();
            let packet = PacketBuilder::tcp(client, server, port(flow), 80).seq(1_000);
            let packet = if syn {
                packet.flags(TcpFlags::SYN)
            } else {
                packet.ack(1).flags(TcpFlags::ACK)
            };
            let at = Instant(1_000 * step as u64);
            sim.inject_at(0, Direction::ToServer, packet.build(), at);
            sim.run_until(at + Duration::from_micros(500));
            let gone: Vec<u16> = before.into_iter().filter(|&f| !tracked(f)).collect();
            victims.extend_from_slice(&gone);
            assert!(handle.tcb_count() <= 3, "{policy:?} step {step}: quota holds");
        }
        assert_eq!(victims, want, "{policy:?}: victims in eviction order");
        assert!((4..7).all(tracked), "{policy:?}: the three newest flows survive");
    }
}

#[test]
fn keyword_behind_a_short_data_offset_is_detected() {
    use intang_gfw::{GfwConfig, GfwElement};
    use intang_netsim::element::PassThrough;
    use intang_netsim::{Direction, Duration, Instant, Link, Simulation};
    use intang_packet::{PacketBuilder, TcpFlags};

    // Table 3, "TCP Header Length < 20": a server drops a segment whose
    // data offset is 4 words, while the censor reads its fixed 20-byte
    // header and scans the payload from byte 20.
    let mut sim = Simulation::new(4);
    sim.add_element(Box::new(PassThrough::new("a")));
    sim.add_link(Link::new(Duration::from_micros(10), 0));
    let (el, handle) = GfwElement::new(GfwConfig::evolved().deterministic());
    sim.add_element(Box::new(el));
    sim.add_link(Link::new(Duration::from_micros(10), 0));
    sim.add_element(Box::new(PassThrough::new("b")));
    let client = Ipv4Addr::new(10, 0, 0, 1);
    let server = Ipv4Addr::new(203, 0, 113, 9);
    let syn = PacketBuilder::tcp(client, server, 40_000, 80)
        .seq(1_000)
        .flags(TcpFlags::SYN)
        .build();
    sim.inject_at(0, Direction::ToServer, syn, Instant(0));
    let req = PacketBuilder::tcp(client, server, 40_000, 80)
        .seq(1_001)
        .ack(1)
        .flags(TcpFlags::PSH_ACK)
        .payload(b"GET /ultrasurf HTTP/1.1\r\n\r\n")
        .short_data_offset()
        .build();
    assert_eq!(req.headers().and_then(|h| h.tcp().copied()), None, "not a checked TCP segment");
    sim.inject_at(0, Direction::ToServer, req, Instant(1_000));
    sim.run_to_quiescence(1_000);
    assert!(handle.detected_any());
    assert!(handle.resets_injected() > 0);
}

fn aut() -> Automaton {
    Automaton::build(&shared_paper_rules())
}

fn fresh_tcb() -> CensorTcb {
    CensorTcb::from_syn(
        (Ipv4Addr::new(10, 0, 0, 1), 40_000),
        (Ipv4Addr::new(203, 0, 113, 9), 80),
        1_000,
        SegmentOverlapPolicy::FirstWins,
    )
}

/// Deterministic SplitMix64 case generator.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed ^ 0x5851_f42d_4c95_7f2d)
    }
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }
}

/// Alphabet that can spell the keyword, so clean streams are adversarial.
fn keyword_soup(g: &mut Gen, max: usize) -> Vec<u8> {
    let alphabet = b"ultrasf ";
    (0..g.below(max)).map(|_| alphabet[g.below(alphabet.len())]).collect()
}

/// No false positives: a stream without any rule pattern never triggers,
/// regardless of segmentation.
#[test]
fn clean_streams_never_detected() {
    let a = aut();
    let mut g = Gen::new(11);
    let mut cases = 0;
    while cases < 64 {
        let soup = keyword_soup(&mut g, 200);
        if soup.windows(9).any(|w| w == b"ultrasurf") {
            continue; // the rare hot sample: skip, like prop_assume!
        }
        cases += 1;
        let cuts: Vec<usize> = (0..g.below(5)).map(|_| g.range(1, 40)).collect();
        let mut tcb = fresh_tcb();
        let base = tcb.stream_base;
        let mut offset = 0usize;
        let mut pieces: Vec<&[u8]> = Vec::new();
        let mut rest: &[u8] = &soup;
        for &c in &cuts {
            if c < rest.len() {
                let (head, tail) = rest.split_at(c);
                pieces.push(head);
                rest = tail;
            }
        }
        pieces.push(rest);
        for p in pieces {
            let hits = tcb.feed_client_data(&a, base.wrapping_add(offset as u32), p, true, true);
            assert!(hits.is_empty(), "false positive on clean data");
            offset += p.len();
        }
    }
}

/// No false negatives: the keyword embedded at any position, delivered
/// under any in-order segmentation, is always detected by the type-2
/// pipeline.
#[test]
fn keyword_always_detected_in_order() {
    let a = aut();
    let mut g = Gen::new(12);
    for _ in 0..64 {
        let prefix = keyword_soup(&mut g, 200);
        let suffix = keyword_soup(&mut g, 200);
        let cut_seed = g.u64();
        let mut stream = prefix.clone();
        stream.extend_from_slice(b"ultrasurf");
        stream.extend_from_slice(&suffix);
        let mut tcb = fresh_tcb();
        let base = tcb.stream_base;
        // Deterministic pseudo-random segmentation.
        let mut hits = Vec::new();
        let mut pos = 0usize;
        let mut x = cut_seed | 1;
        while pos < stream.len() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let take = 1 + (x as usize % 17).min(stream.len() - pos - 1);
            let seg = &stream[pos..pos + take];
            hits.extend(tcb.feed_client_data(&a, base.wrapping_add(pos as u32), seg, false, true));
            pos += take;
        }
        assert!(!hits.is_empty(), "keyword missed under segmentation");
    }
}

/// The desynchronization invariant (§5.1): once re-anchored at an
/// out-of-window point, NO data at the original sequence range is ever
/// inspected again.
#[test]
fn desync_blinds_the_censor_forever() {
    let a = aut();
    let mut g = Gen::new(13);
    for _ in 0..64 {
        let payload_count = g.range(1, 6);
        let payload_lens: Vec<usize> = (0..payload_count).map(|_| g.range(1, 64)).collect();
        let bogus_offset = 0x0010_0000 + (g.u64() % u64::from(0x4000_0000u32 - 0x0010_0000)) as u32;
        let mut tcb = fresh_tcb();
        let base = tcb.stream_base;
        tcb.resync_to(base.wrapping_add(bogus_offset));
        let mut offset = 0u32;
        for len in payload_lens {
            let hits = tcb.feed_client_data(&a, base.wrapping_add(offset), b"ultrasurf", true, true);
            assert!(hits.is_empty(), "desynced censor saw original-window data");
            offset = offset.wrapping_add(len as u32);
        }
    }
}

/// Type-1's weakness is structural: any split of the keyword across two
/// in-order packets evades the per-packet scanner.
#[test]
fn type1_always_misses_split_keyword() {
    let a = aut();
    for cut in 1usize..9 {
        let mut tcb = fresh_tcb();
        let base = tcb.stream_base;
        let kw = b"ultrasurf";
        let h1 = tcb.feed_client_data(&a, base, &kw[..cut], true, false);
        let h2 = tcb.feed_client_data(&a, base.wrapping_add(cut as u32), &kw[cut..], true, false);
        assert!(h1.is_empty() && h2.is_empty());
        // ...while type-2 reassembly catches the identical delivery.
        let mut tcb2 = fresh_tcb();
        let base2 = tcb2.stream_base;
        let g1 = tcb2.feed_client_data(&a, base2, &kw[..cut], false, true);
        let g2 = tcb2.feed_client_data(&a, base2.wrapping_add(cut as u32), &kw[cut..], false, true);
        assert!(!(g1.is_empty() && g2.is_empty()));
    }
}
