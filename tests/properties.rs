//! Property-based invariants across the wire-format and stream-assembly
//! substrates: these are the layers every other result rests on.
//!
//! The cases are driven by a tiny self-contained SplitMix64 generator
//! (the build environment has no registry access, so no proptest); each
//! test runs a fixed number of deterministic random cases.

use intang_gfw::dpi::{shared_paper_rules, Automaton, RuleSet, StreamMatcher};
use intang_packet::frag::{self, OverlapPolicy};
use intang_packet::tcp::{TcpFlags, TcpOption, TcpRepr};
use intang_packet::{dns::DnsMessage, IpProtocol, Ipv4Packet, Ipv4Repr, TcpPacket};
use intang_tcpstack::reasm::{Assembler, SegmentOverlapPolicy};
use std::net::Ipv4Addr;

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
    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }
    fn u16(&mut self) -> u16 {
        self.u64() as u16
    }
    fn u8(&mut self) -> u8 {
        self.u64() as u8
    }
    fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }
    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }
    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }
    fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        let n = self.range(lo, hi);
        (0..n).map(|_| self.u8()).collect()
    }
    fn addr(&mut self) -> Ipv4Addr {
        Ipv4Addr::from(self.u32())
    }
}

fn gen_options(g: &mut Gen) -> Vec<TcpOption> {
    let n = g.below(3);
    (0..n)
        .map(|_| match g.below(5) {
            0 => TcpOption::Mss(g.u16()),
            1 => TcpOption::WindowScale(g.u8() % 15),
            2 => TcpOption::SackPermitted,
            3 => TcpOption::Timestamps {
                tsval: g.u32(),
                tsecr: g.u32(),
            },
            _ => {
                let mut sig = [0u8; 16];
                for b in &mut sig {
                    *b = g.u8();
                }
                TcpOption::Md5Sig(sig)
            }
        })
        .collect()
}

/// TCP emit → parse is the identity on every field.
#[test]
fn tcp_round_trip() {
    let mut g = Gen::new(1);
    for _ in 0..128 {
        let (src, dst) = (g.addr(), g.addr());
        let (sp, dp) = (g.u16(), g.u16());
        let (seq, ack) = (g.u32(), g.u32());
        let flags = TcpFlags(g.u8() & 0x3f);
        let window = g.u16();
        let options = gen_options(&mut g);
        let payload = g.bytes(0, 256);

        let mut repr = TcpRepr::new(sp, dp);
        repr.seq = seq;
        repr.ack = ack;
        repr.flags = flags;
        repr.window = window;
        repr.options = options.clone();
        repr.payload = payload.clone();
        let wire = repr.emit(src, dst);
        let pkt = TcpPacket::new_checked(&wire[..]).unwrap();
        assert!(pkt.verify_checksum(src, dst));
        assert_eq!(pkt.src_port(), sp);
        assert_eq!(pkt.dst_port(), dp);
        assert_eq!(pkt.seq_number(), seq);
        assert_eq!(pkt.ack_number(), ack);
        assert_eq!(pkt.flags(), flags);
        assert_eq!(pkt.window(), window);
        assert_eq!(pkt.options(), options);
        assert_eq!(pkt.payload(), &payload[..]);
    }
}

/// IPv4 emit → parse is the identity, and the checksum validates.
#[test]
fn ipv4_round_trip() {
    let mut g = Gen::new(2);
    for _ in 0..128 {
        let (src, dst) = (g.addr(), g.addr());
        let ttl = 1 + g.below(255) as u8;
        let ident = g.u16();
        let payload = g.bytes(0, 512);

        let repr = Ipv4Repr {
            ttl,
            ident,
            ..Ipv4Repr::new(src, dst, IpProtocol::Tcp)
        };
        let wire = repr.emit(&payload);
        let pkt = Ipv4Packet::new_checked(&wire[..]).unwrap();
        assert!(pkt.verify_header_checksum());
        assert!(pkt.total_len_consistent());
        assert_eq!(pkt.src_addr(), src);
        assert_eq!(pkt.dst_addr(), dst);
        assert_eq!(pkt.ttl(), ttl);
        assert_eq!(pkt.ident(), ident);
        assert_eq!(pkt.payload(), &payload[..]);
    }
}

/// Any fragmentation of a datagram reassembles to the original under
/// both overlap policies, in any delivery order.
#[test]
fn fragmentation_reassembly_identity() {
    let mut g = Gen::new(3);
    for _ in 0..128 {
        let payload = g.bytes(16, 512);
        let cuts: Vec<usize> = (0..g.below(4)).map(|_| g.range(1, 64)).collect();
        let order = g.u64();
        let last_wins = g.bool();

        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let repr = Ipv4Repr {
            ident: 7,
            ..Ipv4Repr::new(src, dst, IpProtocol::Tcp)
        };
        let wire = repr.emit(&payload);
        // 8-aligned boundaries; fragment_at ignores any outside (0, len).
        let boundaries: Vec<usize> = cuts.iter().map(|c| c * 8).collect();
        let mut frags = frag::fragment_at(&wire, &boundaries);
        // Pseudo-random shuffle (deterministic in `order`).
        let mut o = order;
        for i in (1..frags.len()).rev() {
            o = o.wrapping_mul(6364136223846793005).wrapping_add(1);
            frags.swap(i, (o as usize) % (i + 1));
        }
        let policy = if last_wins {
            OverlapPolicy::LastWins
        } else {
            OverlapPolicy::FirstWins
        };
        let out = frag::reassemble(policy, frags).expect("must complete");
        let pkt = Ipv4Packet::new_checked(&out[..]).unwrap();
        assert_eq!(pkt.payload(), &payload[..]);
        assert!(!pkt.is_fragment());
    }
}

/// Regression: a specific fragmentation case that once failed under
/// proptest (shrunken input preserved from the retired
/// `tests/properties.proptest-regressions` file). The 217-byte payload
/// with boundary cuts at 448 and 272 exercises an out-of-range second cut
/// plus a LastWins shuffle that delivered the tail fragment first.
#[test]
fn fragmentation_regression_out_of_range_cut_last_wins() {
    let payload: Vec<u8> = vec![
        0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 65, 170, 190, 59, 19, 57, 215, 126, 131, 87, 5, 19, 89, 213, 76, 52, 32, 242, 216, 225, 246, 247,
        145, 58, 86, 88, 242, 185, 84, 76, 152, 5, 171, 154, 30, 53, 242, 221, 75, 242, 229, 47, 190, 116, 201, 92, 85, 226, 64, 30, 188,
        135, 40, 203, 31, 91, 54, 94, 41, 214, 233, 246, 138, 236, 56, 17, 11, 153, 238, 243, 114, 225, 232, 90, 59, 251, 204, 32, 171,
        154, 164, 16, 7, 135, 216, 144, 175, 139, 144, 66, 28, 115, 215, 244, 3, 16, 148, 23, 134, 93, 246, 115, 227, 81, 188, 93, 5, 189,
        167, 102, 89, 218, 147, 158, 100, 193, 53, 147, 19, 70, 176, 54, 59, 168, 97, 41, 51, 83, 66, 240, 162, 182, 22, 46, 117, 1, 134,
        97, 151, 68, 237, 174, 14, 117, 171, 56, 172, 150, 232, 33, 88, 195, 194, 97, 253, 80, 45, 44, 59, 235, 230, 59, 9, 87, 115, 88,
        241, 164, 87, 85, 41, 149, 150, 41, 111, 59, 149, 2, 162, 31, 42, 135, 90, 99, 156, 149, 135, 32, 253, 152, 117, 188, 139, 16, 140,
        132, 91, 174, 52, 215, 172, 95, 210, 223, 60, 43, 62,
    ];
    let (cuts, order) = ([56usize, 34], 3269660298547634385u64);

    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let repr = Ipv4Repr {
        ident: 7,
        ..Ipv4Repr::new(src, dst, IpProtocol::Tcp)
    };
    let wire = repr.emit(&payload);
    let boundaries: Vec<usize> = cuts.iter().map(|c| c * 8).collect();
    let mut frags = frag::fragment_at(&wire, &boundaries);
    let mut o = order;
    for i in (1..frags.len()).rev() {
        o = o.wrapping_mul(6364136223846793005).wrapping_add(1);
        frags.swap(i, (o as usize) % (i + 1));
    }
    let out = frag::reassemble(OverlapPolicy::LastWins, frags).expect("must complete");
    let pkt = Ipv4Packet::new_checked(&out[..]).unwrap();
    assert_eq!(pkt.payload(), &payload[..]);
    assert!(!pkt.is_fragment());
}

/// The stream assembler delivers exactly the in-order byte stream when
/// segments don't overlap, regardless of arrival order.
#[test]
fn assembler_delivers_contiguous_stream() {
    let mut g = Gen::new(4);
    for _ in 0..128 {
        let chunks: Vec<Vec<u8>> = (0..g.range(1, 8)).map(|_| g.bytes(1, 32)).collect();
        let order = g.u64();
        let last_wins = g.bool();

        let policy = if last_wins {
            SegmentOverlapPolicy::LastWins
        } else {
            SegmentOverlapPolicy::FirstWins
        };
        let mut asm = Assembler::new(policy);
        // Compute offsets.
        let mut offsets = Vec::new();
        let mut off = 0u64;
        for c in &chunks {
            offsets.push(off);
            off += c.len() as u64;
        }
        let expected: Vec<u8> = chunks.iter().flatten().copied().collect();
        let mut idx: Vec<usize> = (0..chunks.len()).collect();
        let mut o = order;
        for i in (1..idx.len()).rev() {
            o = o.wrapping_mul(6364136223846793005).wrapping_add(1);
            idx.swap(i, (o as usize) % (i + 1));
        }
        let mut got = Vec::new();
        for &i in &idx {
            asm.insert(offsets[i], &chunks[i]);
            got.extend_from_slice(&asm.pull());
        }
        assert_eq!(got, expected);
        assert!(!asm.has_gaps());
    }
}

/// TCP stream reassembly is immune to fault-plan-style delivery schedules:
/// whatever combination of Gilbert–Elliott loss (with retransmission),
/// duplication, and reorder delay the fault layer realizes, the assembler
/// delivers exactly the byte stream an in-order run delivers.
///
/// The schedule is derived with the same primitives `intang-faults` uses
/// (`SimRng` + `GilbertElliott`), so this pins the invariant the fault
/// matrix rests on: link chaos may slow or kill a trial, but it can never
/// corrupt the bytes a surviving stream carries.
#[test]
fn assembler_is_immune_to_fault_schedules() {
    use intang_netsim::{GilbertElliott, SimRng};
    let mut g = Gen::new(9);
    for case in 0..96u64 {
        let chunks: Vec<Vec<u8>> = (0..g.range(2, 10)).map(|_| g.bytes(1, 32)).collect();
        let last_wins = g.bool();
        let mut offsets = Vec::new();
        let mut off = 0u64;
        for c in &chunks {
            offsets.push(off);
            off += c.len() as u64;
        }
        let expected: Vec<u8> = chunks.iter().flatten().copied().collect();

        // Realize a delivery schedule under a bursty channel: each segment
        // is retransmitted until a copy survives, surviving copies pick up
        // jittered arrival times (reordering), and some are duplicated.
        let mut rng = SimRng::seed_from(0xFA17_0000 ^ case);
        let mut ge = GilbertElliott::new(0.2, 0.3, 0.05, 0.7);
        let mut arrivals: Vec<(u64, u64, usize)> = Vec::new(); // (time, tiebreak, idx)
        let mut tiebreak = 0u64;
        for i in 0..chunks.len() {
            let base = 1_000 * i as u64;
            let mut attempt = 0u64;
            loop {
                let sent_at = base + attempt * 700; // crude RTO
                if ge.step(&mut rng) {
                    attempt += 1;
                    continue; // this copy died on the link; retransmit
                }
                let mut at = sent_at + 100;
                if rng.chance(0.3) {
                    at += rng.range_u64(1, 2_000); // reorder delay
                }
                arrivals.push((at, tiebreak, i));
                tiebreak += 1;
                if rng.chance(0.2) {
                    arrivals.push((at + rng.range_u64(1, 300), tiebreak, i)); // duplicate
                    tiebreak += 1;
                }
                break;
            }
        }
        arrivals.sort_unstable();

        let policy = if last_wins {
            SegmentOverlapPolicy::LastWins
        } else {
            SegmentOverlapPolicy::FirstWins
        };
        let mut asm = Assembler::new(policy);
        let mut got = Vec::new();
        for &(_, _, i) in &arrivals {
            asm.insert(offsets[i], &chunks[i]);
            got.extend_from_slice(&asm.pull());
        }
        assert_eq!(got, expected, "case {case}: fault schedule corrupted the stream");
        assert!(!asm.has_gaps(), "case {case}");
    }
}

/// The streaming Aho–Corasick matcher agrees with naive substring search
/// for every chunking of the input.
#[test]
fn streaming_matcher_equals_naive_search() {
    let alphabet = b"ultrasfx";
    let rules = RuleSet::empty().with_keyword("ultrasurf").with_keyword("tras");
    let aut = Automaton::build(&rules);
    let mut g = Gen::new(5);
    for _ in 0..256 {
        let hay: Vec<u8> = (0..g.below(128)).map(|_| alphabet[g.below(alphabet.len())]).collect();
        let naive = hay.windows(9).any(|w| w == b"ultrasurf") || hay.windows(4).any(|w| w == b"tras");
        // Whole-buffer scan.
        let whole = !aut.scan(&hay).is_empty();
        assert_eq!(whole, naive);
        // Split-feed scan (same result for any split point).
        let cut = g.below(129).min(hay.len());
        let mut m = StreamMatcher::new();
        let mut hits = m.feed(&aut, &hay[..cut]);
        hits.extend(m.feed(&aut, &hay[cut..]));
        assert_eq!(!hits.is_empty(), naive);
    }
}

/// The dense-table automaton reports the same `DetectionKind` sequence as
/// a naive substring scanner, for patterns split across arbitrary `feed()`
/// boundaries (not just one cut). It runs on two rule sets: four
/// overlapping toy patterns over a small alphabet, and the paper's rules
/// with their keyword, a domain and near-miss prefixes planted in clean
/// bytes.
#[test]
fn dense_automaton_matches_naive_scanner_across_arbitrary_splits() {
    use intang_gfw::dpi::{DetectionKind, Rule};
    // Overlapping patterns with four distinct kinds, so suffix matches via
    // fail links and per-call dedup are both exercised.
    let patterns: Vec<(Vec<u8>, DetectionKind)> = vec![
        (b"ultrasurf".to_vec(), DetectionKind::HttpKeyword),
        (b"tras".to_vec(), DetectionKind::Domain),
        (b"asu".to_vec(), DetectionKind::TorHandshake),
        (b"rf".to_vec(), DetectionKind::VpnHandshake),
    ];
    let rules = RuleSet {
        rules: patterns
            .iter()
            .map(|(p, k)| Rule {
                pattern: p.clone(),
                kind: *k,
            })
            .collect(),
    };
    let aut = Automaton::build(&rules);
    let alphabet = b"ultrasfx";
    let mut g = Gen::new(8);
    for _ in 0..256 {
        let hay: Vec<u8> = (0..g.below(160)).map(|_| alphabet[g.below(alphabet.len())]).collect();
        assert_feeds_match_naive_scan(&aut, &rules, &hay, &mut g, 8);
    }

    let rules = shared_paper_rules();
    let aut = Automaton::build(&rules);
    let plants: [&[u8]; 5] = [b"ultrasurf", b"facebook.com", b"ultrasur", b"facebook.co", b"tras"];
    let mut g = Gen::new(0xd121);
    for _ in 0..128 {
        // Mostly clean bytes, with patterns and near-miss prefixes spliced
        // in at random points.
        let mut hay: Vec<u8> = Vec::new();
        while hay.len() < 700 {
            if g.below(5) == 0 {
                hay.extend_from_slice(plants[g.below(plants.len())]);
            } else {
                hay.extend((0..g.range(1, 40)).map(|_| b'a' + (g.u8() % 26)));
            }
        }
        assert_feeds_match_naive_scan(&aut, &rules, &hay, &mut g, 10);
    }
}

/// Feed `hay` to a fresh matcher in segments cut at fewer than `max_cuts`
/// random points (empty segments allowed). Each call must return the kinds
/// of the rules that end inside its segment, by plain substring comparison,
/// deduplicated within the call in first-appearance order.
fn assert_feeds_match_naive_scan(aut: &Automaton, rules: &RuleSet, hay: &[u8], g: &mut Gen, max_cuts: usize) {
    use intang_gfw::dpi::DetectionKind;
    // Naive reference: at every end position, the kinds of the patterns
    // ending there, in rule order (no automaton involved).
    let kinds_at: Vec<Vec<DetectionKind>> = (0..hay.len())
        .map(|i| {
            rules
                .rules
                .iter()
                .filter(|r| i + 1 >= r.pattern.len() && hay[i + 1 - r.pattern.len()..=i] == r.pattern[..])
                .map(|r| r.kind)
                .collect()
        })
        .collect();

    let mut bounds: Vec<usize> = (0..g.below(max_cuts)).map(|_| g.below(hay.len() + 1)).collect();
    bounds.push(0);
    bounds.push(hay.len());
    bounds.sort_unstable();

    let mut m = StreamMatcher::new();
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        let got = m.feed(aut, &hay[a..b]);
        let mut expected: Vec<DetectionKind> = Vec::new();
        for ks in &kinds_at[a..b] {
            for k in ks {
                if !expected.contains(k) {
                    expected.push(*k);
                }
            }
        }
        assert_eq!(got, expected, "hay={hay:?} segment {a}..{b}");
    }
}

/// DNS messages round-trip through both UDP and TCP framings.
#[test]
fn dns_round_trip() {
    let mut g = Gen::new(6);
    for _ in 0..128 {
        let id = g.u16();
        let labels: Vec<String> = (0..g.range(1, 4))
            .map(|_| {
                let n = g.range(1, 13);
                (0..n).map(|_| (b'a' + (g.below(26) as u8)) as char).collect()
            })
            .collect();
        let name = labels.join(".");
        let q = DnsMessage::query(id, &name);
        assert_eq!(DnsMessage::decode(&q.encode()).unwrap(), q.clone());
        let (m, used) = DnsMessage::decode_tcp(&q.encode_tcp()).unwrap();
        assert_eq!(&m, &q);
        assert_eq!(used, q.encode_tcp().len());
        let a = DnsMessage::answer_a(&q, Ipv4Addr::new(1, 2, 3, 4), 60);
        assert_eq!(DnsMessage::decode(&a.encode()).unwrap(), a);
    }
}

/// Sequence-space arithmetic is a strict total order on windows narrower
/// than 2^31.
#[test]
fn seq_order_sanity() {
    use intang_packet::tcp::seq;
    let mut g = Gen::new(7);
    for _ in 0..256 {
        let a = g.u32();
        let d = 1 + (g.u32() % 0x7fff_fffe);
        let b = a.wrapping_add(d);
        assert!(seq::lt(a, b));
        assert!(seq::gt(b, a));
        assert!(seq::le(a, b));
        assert!(!seq::lt(b, a));
        assert!(seq::in_window(a, a, 1));
        assert!(!seq::in_window(b, a, d));
        assert!(seq::in_window(b, a, d + 1));
    }
}

/// The hierarchical timing wheel pops in exactly `(time, insertion-seq)`
/// order — the contract the old `BinaryHeap` queue provided and that the
/// golden traces and determinism suite rest on. Random interleavings of
/// pushes (normal, same-time ties, past-due, and beyond-horizon overflow
/// times) and pops are compared against a reference heap step by step.
#[test]
fn event_queue_matches_reference_heap() {
    use intang_netsim::event::{Event, EventQueue};
    use intang_netsim::Instant;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let token_of = |e: Event| match e {
        Event::Timer { token, .. } => token,
        _ => unreachable!("only timers are pushed"),
    };

    for case in 0..200u64 {
        let mut g = Gen::new(0xa11ce ^ (case << 8));
        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut recent: Vec<u64> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..g.range(1, 150) {
            if reference.is_empty() || g.below(5) < 3 {
                let at = match g.below(10) {
                    // Mostly beyond the 2^42 µs wheel horizon (overflow list).
                    0 => 1 + (g.u64() >> g.below(24)),
                    // Time zero / far in the past of anything popped so far.
                    1 => g.u64() % 3,
                    // Reuse an earlier time: exercises FIFO tie-breaking.
                    2 | 3 if !recent.is_empty() => recent[g.below(recent.len())],
                    // Ordinary microsecond-scale times.
                    _ => g.u64() % 1_000_000,
                };
                recent.push(at);
                q.push(Instant(at), Event::Timer { elem: 0, token: seq });
                reference.push(Reverse((at, seq)));
                seq += 1;
            } else {
                let Reverse((want_at, want_seq)) = reference.pop().expect("checked non-empty");
                let (got_at, ev) = q.pop().expect("wheel agrees queue is non-empty");
                assert_eq!((got_at.0, token_of(ev)), (want_at, want_seq), "case {case}");
            }
            assert_eq!(
                q.peek_time().map(|t| t.0),
                reference.peek().map(|Reverse((at, _))| *at),
                "case {case}"
            );
            assert_eq!(q.len(), reference.len(), "case {case}");
        }
        while let Some(Reverse((want_at, want_seq))) = reference.pop() {
            let (got_at, ev) = q.pop().expect("wheel drains with reference");
            assert_eq!((got_at.0, token_of(ev)), (want_at, want_seq), "case {case} drain");
        }
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|_| ()), None);
    }
}

/// The same contract at metropolis depth. The shallow cases above never
/// hold more than ~150 events, so they never reuse a freed wheel node or
/// relink a full slot. Here 10k or more events (about 12k) stay resident
/// in the metro timer mix — link-scale hops that carry packets, ~1 s
/// re-arms and 30 s backstops, plus same-time ties — while pushes and pops
/// interleave against a reference heap; each delivered wire must be the
/// one pushed.
#[test]
fn event_queue_matches_reference_heap_at_metro_depth() {
    use intang_netsim::event::{Event, EventQueue};
    use intang_netsim::{Direction, Instant};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    for case in 0..2u64 {
        let mut g = Gen::new(0xde_e9 ^ (case << 8));
        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let (mut now, mut seq, mut delivers) = (0u64, 0u64, 0usize);
        let mut last_at = 0u64;
        // Fill to 12k, churn 60k steps at 10k or more, then drain.
        let (fill, churn) = (12_000u64, 72_000u64);
        for step in 0.. {
            let push = step < fill || (step < churn && (reference.len() < 10_000 || g.bool()));
            if !push && reference.is_empty() {
                break;
            }
            if push {
                let at = match g.below(20) {
                    // Link hops: a packet in flight.
                    0..=9 => now + 500 + g.u64() % 2_500,
                    // Client and server-cell re-arms, 0.5–1 s out.
                    10..=15 => now + 500_000 + g.u64() % 500_000,
                    // 30 s backstops.
                    16..=17 => now + 30_000_000 + g.u64() % 1_000,
                    // A tie with the latest pushed time.
                    _ => last_at.max(now),
                };
                let event = if at < now + 3_000 && g.below(4) != 0 {
                    delivers += 1;
                    Event::Deliver {
                        elem: 1,
                        dir: Direction::ToServer,
                        wire: seq.to_le_bytes().to_vec().into(),
                        cause: None,
                    }
                } else {
                    Event::Timer { elem: 0, token: seq }
                };
                q.push(Instant(at), event);
                reference.push(Reverse((at, seq)));
                last_at = at;
                seq += 1;
            } else {
                let Reverse((want_at, want_seq)) = reference.pop().expect("checked non-empty");
                let (got_at, ev) = q.pop().expect("wheel agrees queue is non-empty");
                let got_seq = match ev {
                    Event::Timer { token, .. } => token,
                    Event::Deliver { wire, .. } => {
                        delivers -= 1;
                        u64::from_le_bytes(wire.as_slice().try_into().expect("an 8-byte wire"))
                    }
                };
                assert_eq!((got_at.0, got_seq), (want_at, want_seq), "case {case} step {step}");
                now = got_at.0;
            }
            assert_eq!(q.len(), reference.len(), "case {case} step {step}");
            assert_eq!(q.deliver_len(), delivers, "case {case} step {step}");
            assert_eq!(
                q.peek_time().map(|t| t.0),
                reference.peek().map(|Reverse((at, _))| *at),
                "case {case} step {step}"
            );
        }
        assert!(q.is_empty(), "case {case}: drained with the reference");
        assert!(now >= 30_000_000, "case {case}: the backstops fired");
    }
}

/// Copy-on-write isolation: a cloned wire (the censor tap's "copy", a
/// link-level duplicate) shares its buffer with the original, but any
/// mutation of either side — TTL decrements, header edits, payload writes —
/// must never show through to the other.
#[test]
fn wire_clone_mutations_never_alias() {
    use intang_packet::{PacketBuilder, Wire};

    let mut g = Gen::new(0xc0_57);
    for case in 0..200 {
        let payload = g.bytes(0, 600);
        let wire: Wire = PacketBuilder::tcp(g.addr(), g.addr(), g.u16(), g.u16())
            .flags(TcpFlags::PSH_ACK)
            .seq(g.u32())
            .ttl(2 + g.u8() % 60)
            .payload(&payload)
            .build();
        let original = wire.to_vec();

        let mut dup = wire.clone();
        assert_eq!(dup.ref_count(), 2, "clone shares the buffer");
        // Prime the shared header cache, as the censor tap would.
        let before = dup.headers();

        // Mutate the duplicate three different ways.
        match case % 3 {
            0 => {
                dup.decrement_ttl(1 + g.u8() % 4);
            }
            1 => {
                let len = dup.len();
                dup.bytes_mut()[len - 1] ^= 0xff;
            }
            _ => {
                dup.vec_mut().extend_from_slice(b"trailing-junk");
            }
        }

        assert_eq!(
            &wire[..],
            &original[..],
            "case {case}: mutation of the duplicate leaked into the original"
        );
        assert_ne!(
            &dup[..],
            &original[..],
            "case {case}: the mutation itself must be visible on the duplicate"
        );
        assert_eq!(wire.ref_count(), 1, "COW unshared the buffers");
        assert_eq!(wire.headers(), before, "the original's cached index survives the clone's mutation");
    }
}

/// End-to-end COW: an on-path tap (the censor) holds a clone of every
/// packet it forwards; the downstream link's routers then decrement TTL on
/// the forwarded wire. The held copies must keep their original bytes —
/// in-flight header rewrites never alias into an analyzer's buffer.
#[test]
fn held_tap_copies_survive_downstream_ttl_rewrites() {
    use intang_netsim::{Ctx, Direction, Duration, Element, Link, Simulation};
    use intang_packet::{PacketBuilder, Wire};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Tap {
        held: Rc<RefCell<Vec<Wire>>>,
    }
    impl Element for Tap {
        fn name(&self) -> &str {
            "tap"
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
            self.held.borrow_mut().push(wire.clone());
            ctx.send(dir, wire);
        }
    }
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

    let held = Rc::new(RefCell::new(Vec::new()));
    let got = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::new(11);
    sim.add_element(Box::new(Tap { held: held.clone() }));
    sim.add_link(Link::new(Duration::from_millis(1), 3));
    sim.add_element(Box::new(Sink { got: got.clone() }));

    let mut g = Gen::new(0x7a9);
    let mut originals = Vec::new();
    for i in 0..32u64 {
        let w = PacketBuilder::tcp(g.addr(), g.addr(), g.u16(), g.u16())
            .flags(TcpFlags::PSH_ACK)
            .seq(g.u32())
            .ttl(8 + g.u8() % 32)
            .payload(&g.bytes(1, 200))
            .build();
        originals.push(w.to_vec());
        sim.inject_at(0, Direction::ToServer, w, intang_netsim::Instant(i * 1_000));
    }
    sim.run_to_quiescence(10_000);

    let held = held.borrow();
    let got = got.borrow();
    assert_eq!(held.len(), 32);
    assert_eq!(got.len(), 32);
    for ((orig, held), got) in originals.iter().zip(held.iter()).zip(got.iter()) {
        assert_eq!(&held[..], &orig[..], "the tap's held copy kept its pre-rewrite bytes");
        assert_eq!(got[8], orig[8] - 3, "the delivered wire crossed 3 routers");
        assert!(
            Ipv4Packet::new_checked(&got[..]).unwrap().verify_header_checksum(),
            "TTL rewrite refreshed the header checksum"
        );
    }
}

/// Fold a `sum_words` accumulator to its 16-bit ones-complement value,
/// the only way accumulators are consumed.
fn ones_fold(mut acc: u32) -> u16 {
    while acc >> 16 != 0 {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    acc as u16
}

/// Checksum sums chain at 16-bit word granularity: at every length 0..512,
/// with a random carry-in, summing a buffer to any even cut and then the
/// rest equals summing it whole. `transport_checksum` relies on this when
/// it adds the segment to the pseudo-header sum. (An odd cut would not
/// chain: the first part's last byte is summed zero-padded.)
#[test]
fn checksum_sums_chain_at_every_even_split() {
    use intang_packet::checksum::sum_words;
    let mut g = Gen::new(0x5c5c);
    let backing: Vec<u8> = (0..512).map(|_| g.u8()).collect();
    for len in 0..512usize {
        let data = &backing[..len];
        let acc = u32::from(g.u16());
        let whole = ones_fold(sum_words(acc, data));
        for cut in (0..=len).step_by(2) {
            let split = ones_fold(sum_words(sum_words(acc, &data[..cut]), &data[cut..]));
            assert_eq!(split, whole, "len {len} cut {cut} acc {acc:#x}");
        }
    }
}

/// Arena recycling is invisible: a leased-and-reset object behaves exactly
/// like a fresh one (same contents from the consumer's viewpoint), the
/// recycled capacity really is reused, and the free-list never exceeds its
/// bound no matter the put pressure.
#[test]
fn arena_reuse_is_indistinguishable_from_fresh_allocation() {
    use intang_packet::arena::Arena;
    let mut g = Gen::new(0xa7e2);
    let mut arena: Arena<Vec<u8>> = Arena::new(4);
    for round in 0..200 {
        let payload = g.bytes(0, 300);
        // Consumer A: arena-leased buffer (possibly recycled, possibly
        // still holding last round's capacity).
        let mut leased = arena.take_with(Vec::new);
        assert!(leased.is_empty(), "put-side contract: objects return reset");
        leased.extend_from_slice(&payload);
        // Consumer B: fresh allocation.
        let mut fresh = Vec::new();
        fresh.extend_from_slice(&payload);
        assert_eq!(leased, fresh, "round {round}");
        let ck_leased = intang_packet::checksum::checksum(&leased);
        let ck_fresh = intang_packet::checksum::checksum(&fresh);
        assert_eq!(ck_leased, ck_fresh, "round {round}");
        leased.clear();
        arena.put(leased);
        assert!(arena.free_len() <= 4, "free-list bound violated");
    }
    // Extra puts beyond the bound are dropped, not hoarded.
    for _ in 0..10 {
        arena.put(Vec::with_capacity(64));
    }
    assert!(arena.free_len() <= 4);
}

/// The RFC 1624 incremental TTL writedown is byte-for-byte equivalent to
/// the historical path (rewrite TTL, zero the checksum field, re-sum the
/// whole header), for random headers, random option lengths, and every
/// hop count including TTL saturation at zero.
#[test]
fn incremental_ttl_writedown_matches_full_header_resum() {
    use intang_packet::Wire;
    let mut g = Gen::new(0x1624);
    for _ in 0..256 {
        let mut repr = Ipv4Repr::new(g.addr(), g.addr(), IpProtocol::Tcp);
        repr.ttl = g.u8();
        repr.ident = g.u16();
        repr.dont_fragment = g.bool();
        let bytes = repr.emit(&g.bytes(0, 64));
        let hops = (g.u8() % 5).max(1);

        // Fast path: Wire's incremental update.
        let mut fast = Wire::from_vec(bytes.clone());
        let remaining = fast.decrement_ttl(hops).expect("emitted header parses");
        assert_eq!(remaining, repr.ttl.saturating_sub(hops));

        // Reference path: full re-sum via the packet view.
        let mut slow = Ipv4Packet::new_checked(bytes).unwrap();
        slow.set_ttl(repr.ttl.saturating_sub(hops));
        slow.fill_header_checksum();

        assert_eq!(fast.to_vec(), slow.into_inner(), "ttl {} hops {hops}", repr.ttl);
        assert!(
            Ipv4Packet::new_checked(fast.to_vec()).unwrap().verify_header_checksum(),
            "incremental update left a verifiable checksum"
        );
    }
}

// ---- Metropolis sharding properties ------------------------------------
//
// The shared-world engine keys per-flow state by four-tuple and shards it
// with a pure hash. Two properties protect that design: the shard map is
// a pure function of the key, and a relabelling (permutation) of the flow
// keys may not change the outcome multiset of a global-censor world.

use intang_apps::metro::{shard_of, FlowOutcome, METRO_BASE_PORT, METRO_PORT};
use intang_experiments::metropolis::{build_metropolis_domain, generate_world, MetroParams, MetroWorld};
use intang_packet::FourTuple;

fn gen_tuple(g: &mut Gen) -> FourTuple {
    FourTuple::new(g.addr(), g.u16(), g.addr(), g.u16())
}

#[test]
fn shard_assignment_is_pure_and_covers_every_shard() {
    let mut g = Gen::new(0x5a4d);
    for _ in 0..200 {
        let t = gen_tuple(&mut g);
        let shards = 1 + g.below(16) as u32;
        let s = shard_of(&t, shards);
        assert!(s < shards, "{t:?} landed outside [0, {shards})");
        assert_eq!(s, shard_of(&t, shards), "same key, same shard");
        let copy = FourTuple::new(t.src, t.src_port, t.dst, t.dst_port);
        assert_eq!(s, shard_of(&copy, shards), "purity: value-equal keys agree");
    }
    // With enough keys, every shard of a small count must be hit.
    let mut seen = [false; 8];
    for _ in 0..512 {
        seen[shard_of(&gen_tuple(&mut g), 8) as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "512 random keys must cover all 8 shards: {seen:?}");
}

/// A world's keys are what counting afresh gives: source ports counted up
/// per client in spec order from `METRO_BASE_PORT`, and `shard_of` each
/// flow's address pair at the world's shard count.
fn assert_keys_are_derived(w: &MetroWorld) {
    assert_eq!(w.keys().len(), w.specs.len(), "one key per flow");
    let mut next_port = vec![METRO_BASE_PORT; w.clients().len()];
    for (id, (spec, key)) in w.specs.iter().zip(w.keys()).enumerate() {
        let port = next_port[spec.client as usize];
        next_port[spec.client as usize] += 1;
        let tuple = FourTuple::new(w.clients()[spec.client as usize], port, w.sites()[spec.site as usize], METRO_PORT);
        assert_eq!(key.port, port, "flow {id}'s port");
        assert_eq!(u32::from(key.shard), shard_of(&tuple, w.shards()), "flow {id}'s shard");
    }
}

#[test]
fn world_keys_count_ports_per_client_and_shard_by_address_pair() {
    let p = MetroParams::new(2_000, 31);
    let world = generate_world(&p);
    assert_eq!(world.shards(), 8);
    assert_keys_are_derived(&world);
    let mut seen = [false; 8];
    for key in world.keys() {
        seen[usize::from(key.shard)] = true;
    }
    assert!(seen.iter().all(|&s| s), "2,000 flows over 125 clients touch every shard: {seen:?}");
}

/// Run a world serially and return `(per-flow (outcome, latency) grid,
/// order violations)`.
fn run_metro_world(p: &MetroParams, w: &MetroWorld) -> (Vec<(FlowOutcome, u64)>, u64) {
    let (mut sim, parts) = build_metropolis_domain(p, w, 1, 0);
    sim.run_until(p.horizon);
    let grid = parts.metro.results().iter().map(|r| (r.outcome, r.latency_us)).collect();
    (grid, parts.metro.order_violations())
}

#[test]
fn metropolis_outcomes_survive_key_permutations() {
    let mut g = Gen::new(0x6d65_7472);
    for case in 0..3u64 {
        // One global censor: every flow shares one TCB table, blacklist
        // and RNG stream, so only the (client, site) structure matters.
        let mut p = MetroParams::new(80, 9_000 + case);
        p.shards = 1;
        let world = generate_world(&p);
        assert_keys_are_derived(&world);
        let (reference, viol) = run_metro_world(&p, &world);
        assert_eq!(viol, 0);
        assert!(reference.iter().all(|(o, _)| *o != FlowOutcome::Pending));

        // Permute the flow keys: shuffling the address pools (indices in
        // the specs untouched) relabels every flow's four-tuple while
        // preserving which flows share a (client, site) pair — so the
        // interference structure, and with it the outcome multiset, must
        // be unchanged even though every key now hashes elsewhere.
        let (mut clients, mut sites) = (world.clients().to_vec(), world.sites().to_vec());
        for i in (1..clients.len()).rev() {
            clients.swap(i, g.below(i + 1));
        }
        for i in (1..sites.len()).rev() {
            sites.swap(i, g.below(i + 1));
        }
        let permuted = MetroWorld::new(
            clients.into(),
            sites.into(),
            world.specs.clone(),
            world.strategies().into(),
            world.shards(),
        );
        assert_keys_are_derived(&permuted);
        let (grid, viol) = run_metro_world(&p, &permuted);
        assert_eq!(viol, 0, "case {case}: order violations under permuted keys");
        let mut want: Vec<_> = reference.iter().map(|(o, _)| *o).collect();
        let mut got: Vec<_> = grid.iter().map(|(o, _)| *o).collect();
        want.sort_unstable_by_key(|o| *o as u8);
        got.sort_unstable_by_key(|o| *o as u8);
        assert_eq!(want, got, "case {case}: outcome multiset changed under key permutation");
    }
}
