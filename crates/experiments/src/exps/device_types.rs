//! §2.1 / §8 — the two co-deployed device types, separated by behavior:
//! splitting an HTTP request into two TCP segments evades the type-1
//! per-packet scanner but not the type-2 reassembler ("only type-2 resets
//! are seen when we split a HTTP request into two TCP packets"), and only
//! type-2 devices run the 90-second blacklist with forged SYN/ACKs.
//!
//! §8 also reports days when one device type was down (CERNET Beijing saw
//! type-1 alone); the sweep below reproduces each deployment mix.

use crate::args::CommonArgs;
use crate::report::Table;
use crate::tap::Probe;
use intang_gfw::dpi::shared_paper_default;
use intang_gfw::tcb::CensorTcb;
use intang_gfw::GfwConfig;
use intang_netsim::Direction;
use intang_packet::TcpFlags;
use intang_tcpstack::reasm::SegmentOverlapPolicy;

/// Drive a whole vs split keyword request past a deployment mix; returns
/// (detected, type1 resets, type2 resets, blockpages) observed at the
/// client edge.
fn probe(cfg: GfwConfig, split: bool, seed: u64) -> (bool, usize, usize, usize) {
    let mut p = Probe::new(cfg, seed);
    p.send_client(Probe::c2s().seq(1000).flags(TcpFlags::SYN).build());
    p.send_server(Probe::s2c().seq(9000).ack(1001).flags(TcpFlags::SYN_ACK).build());
    p.send_client(Probe::c2s().seq(1001).ack(9001).flags(TcpFlags::ACK).build());
    let req = b"GET /ultrasurf HTTP/1.1\r\n\r\n";
    if split {
        let cut = 8;
        p.send_client(
            Probe::c2s()
                .seq(1001)
                .ack(9001)
                .flags(TcpFlags::PSH_ACK)
                .payload(&req[..cut])
                .build(),
        );
        p.send_client(
            Probe::c2s()
                .seq(1001 + cut as u32)
                .ack(9001)
                .flags(TcpFlags::PSH_ACK)
                .payload(&req[cut..])
                .build(),
        );
    } else {
        p.send_client(Probe::c2s().seq(1001).ack(9001).flags(TcpFlags::PSH_ACK).payload(req).build());
    }

    let mut t1 = 0;
    let mut t2 = 0;
    let mut blockpages = 0;
    for c in p.tap.captures() {
        if c.dir != Direction::ToClient {
            continue;
        }
        if let Some(sig) = intang_core::measure::classify_wire(&c.wire) {
            match sig {
                intang_core::measure::ResetSignature::Type1Rst => t1 += 1,
                intang_core::measure::ResetSignature::Type2RstAck => t2 += 1,
            }
        }
        if let Some(h) = c.wire.headers() {
            if h.tcp().is_some() {
                let l4 = &c.wire[usize::from(h.ip_payload_start)..usize::from(h.ip_payload_end)];
                let tcp = intang_packet::TcpPacket::new_unchecked(l4);
                if tcp.payload().starts_with(b"HTTP/1.1 403") {
                    blockpages += 1;
                }
            }
        }
    }
    (p.gfw.detected_any(), t1, t2, blockpages)
}

/// The evolved model with each device generation switched on or off.
fn mix(type1: bool, type2: bool) -> GfwConfig {
    let mut cfg = GfwConfig::evolved();
    cfg.type1 = type1;
    cfg.type2 = type2;
    cfg
}

pub fn run(args: &CommonArgs) -> String {
    let mut t = Table::new(
        "§2.1/§8 — device-type differentiation (whole vs split keyword request)",
        &[
            "Deployment",
            "Whole request",
            "Split request",
            "type-1 RSTs (split)",
            "type-2 RST/ACKs (split)",
            "blockpages (whole)",
        ],
    );
    let rows: Vec<(&str, GfwConfig)> = vec![
        ("type-1 only (CERNET days)", mix(true, false)),
        ("type-2 only", mix(false, true)),
        ("both co-deployed (normal)", mix(true, true)),
        // Data-driven contrast row: the Turkmenistan profile (Nourin et
        // al.) is a type-1-only deployment that additionally answers the
        // forbidden request with a spoofed 403 blockpage.
        (
            "turkmenistan profile",
            intang_gfw::CensorProfile::turkmenistan()
                .compile()
                .expect("builtin profile compiles"),
        ),
    ];
    for (label, cfg) in rows {
        let (whole, _, _, bp) = probe(cfg.clone(), false, args.seed);
        let (split, st1, st2, _) = probe(cfg, true, args.seed ^ 1);
        t.row(vec![
            label.to_string(),
            if whole { "DETECTED".into() } else { "evaded".into() },
            if split { "DETECTED".into() } else { "evaded".into() },
            st1.to_string(),
            st2.to_string(),
            bp.to_string(),
        ]);
    }
    let mut out = t.render();
    out.push_str("\nSplitting the request blinds the per-packet type-1 scanner; only\ntype-2 reassembly catches it — hence the paper's observation that\nsplit requests draw exclusively type-2 resets. The turkmenistan\nprofile row shows a different censor compiled onto the same machinery:\ntype-1 resets plus an in-band spoofed 403 blockpage.\n");
    out
}

/// The unit-level statement of the same fact (used by the test below and
/// referenced from EXPERIMENTS.md).
pub fn type1_blind_to_split() -> bool {
    let a = shared_paper_default();
    let mut tcb = CensorTcb::from_syn(
        (Probe::CLIENT, Probe::CLIENT_PORT),
        (Probe::SERVER, 80),
        1000,
        SegmentOverlapPolicy::FirstWins,
    );
    let base = tcb.stream_base;
    let kw = b"GET /ultrasurf HTTP/1.1\r\n\r\n";
    let h1 = tcb.feed_client_data(&a, base, &kw[..8], true, false);
    let h2 = tcb.feed_client_data(&a, base.wrapping_add(8), &kw[8..], true, false);
    h1.is_empty() && h2.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_requests_draw_only_type2_resets() {
        let out = run(&CommonArgs::parse_from(Vec::new()).unwrap());
        let line = |p: &str| out.lines().find(|l| l.starts_with(p)).unwrap().to_string();
        let t1only = line("type-1 only");
        assert!(t1only.contains("DETECTED"), "{t1only}");
        assert!(t1only.matches("evaded").count() == 1, "split evades type-1: {t1only}");
        let t2only = line("type-2 only");
        assert_eq!(t2only.matches("DETECTED").count(), 2, "type-2 catches both: {t2only}");
        // Co-deployed: the split request is still caught (by the type-2
        // reassembler; the type-1 scanner contributed nothing).
        let both = line("both co-deployed");
        assert!(both.contains("DETECTED"));
        assert!(type1_blind_to_split());
    }

    #[test]
    fn turkmenistan_profile_blocks_with_a_blockpage() {
        let out = run(&CommonArgs::parse_from(Vec::new()).unwrap());
        let row = out
            .lines()
            .find(|l| l.starts_with("turkmenistan profile"))
            .unwrap_or_else(|| panic!("turkmenistan row missing:\n{out}"));
        assert!(row.contains("DETECTED"), "whole request is caught: {row}");
        assert_eq!(row.matches("evaded").count(), 1, "split evades the type-1-only scanner: {row}");
        let cells: Vec<&str> = row.split_whitespace().collect();
        let blockpages: usize = cells.last().unwrap().parse().unwrap();
        assert!(blockpages >= 1, "the spoofed 403 must land at the client edge: {row}");
        // No type-2 volley exists in this deployment.
        let builtin_rows = out.lines().filter(|l| l.starts_with("type-2")).count();
        assert!(builtin_rows > 0, "builtin rows still present");
    }
}
