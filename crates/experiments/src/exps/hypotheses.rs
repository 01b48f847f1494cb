//! §4 — validate the three Hypothesized New Behaviors with scripted probes
//! against the executable censor, mirroring the paper's controlled
//! client/server experiments (partial handshakes, multiple SYNs, forced
//! RSTs).

use crate::args::CommonArgs;
use crate::tap::Probe;
use intang_gfw::tcb::CensorState;
use intang_gfw::GfwConfig;
use intang_packet::TcpFlags;

fn check(out: &mut String, name: &str, pass: bool) -> bool {
    out.push_str(&format!("  [{}] {}\n", if pass { "PASS" } else { "FAIL" }, name));
    pass
}

pub fn run(args: &CommonArgs) -> String {
    let mut out = String::from("== §4 Hypothesized New Behaviors — probing the executable censor ==\n");
    let mut all = true;
    let seed = args.seed;

    // ---------------- Hypothesis 1: TCB creation --------------------------
    out.push_str("Hypothesized New Behavior 1 (TCB creation):\n");
    {
        let mut p = Probe::new(GfwConfig::evolved(), seed);
        p.send_client(Probe::c2s().seq(1000).flags(TcpFlags::SYN).build());
        all &= check(&mut out, "TCB created upon SYN", p.gfw.has_tcb(p.tuple()));
    }
    {
        let mut p = Probe::new(GfwConfig::evolved(), seed);
        p.send_server(Probe::s2c().seq(9000).ack(1001).flags(TcpFlags::SYN_ACK).build());
        let created = p.gfw.has_tcb(p.tuple());
        let oriented = p.gfw.believed_client(p.tuple()) == Some((Probe::CLIENT, Probe::CLIENT_PORT));
        all &= check(
            &mut out,
            "TCB created upon SYN/ACK without a SYN (source believed to be the server)",
            created && oriented,
        );
    }
    {
        let mut p = Probe::new(GfwConfig::old(), seed);
        p.send_server(Probe::s2c().seq(9000).ack(1001).flags(TcpFlags::SYN_ACK).build());
        all &= check(
            &mut out,
            "prior model does NOT create a TCB from a SYN/ACK",
            !p.gfw.has_tcb(p.tuple()),
        );
    }

    // ---------------- Hypothesis 2: resynchronization state ---------------
    out.push_str("Hypothesized New Behavior 2 (resynchronization state):\n");
    {
        let mut p = Probe::new(GfwConfig::evolved(), seed);
        p.send_client(Probe::c2s().seq(1000).flags(TcpFlags::SYN).build());
        p.send_client(Probe::c2s().seq(77_000).flags(TcpFlags::SYN).build());
        all &= check(
            &mut out,
            "(a) multiple SYNs enter the resync state",
            p.gfw.tcb_state(p.tuple()) == Some(CensorState::Resync),
        );
        // The next client data packet re-anchors; a keyword at the *old*
        // sequence is then invisible.
        p.send_client(
            Probe::c2s()
                .seq(500_000)
                .ack(9001)
                .flags(TcpFlags::PSH_ACK)
                .payload(b"random-decoy")
                .build(),
        );
        all &= check(
            &mut out,
            "resync resolves on the next client data packet",
            p.gfw.tcb_state(p.tuple()) == Some(CensorState::Tracking),
        );
        p.send_client(
            Probe::c2s()
                .seq(1001)
                .ack(9001)
                .flags(TcpFlags::PSH_ACK)
                .payload(b"GET /ultrasurf HTTP/1.1\r\n\r\n")
                .build(),
        );
        all &= check(
            &mut out,
            "request at the now-out-of-window true sequence evades",
            !p.gfw.detected_any(),
        );
    }
    {
        // Refuting interpretation (2): split keyword still detected, so the
        // censor reassembles rather than matching per-packet.
        let mut p = Probe::new(GfwConfig::evolved(), seed);
        p.send_client(Probe::c2s().seq(1000).flags(TcpFlags::SYN).build());
        p.send_server(Probe::s2c().seq(9000).ack(1001).flags(TcpFlags::SYN_ACK).build());
        p.send_client(
            Probe::c2s()
                .seq(1001)
                .ack(9001)
                .flags(TcpFlags::PSH_ACK)
                .payload(b"GET /ultra")
                .build(),
        );
        p.send_client(
            Probe::c2s()
                .seq(1011)
                .ack(9001)
                .flags(TcpFlags::PSH_ACK)
                .payload(b"surf HTTP/1.1\r\n\r\n")
                .build(),
        );
        all &= check(&mut out, "split keyword detected (refutes 'stateless mode')", p.gfw.detected_any());
    }
    {
        let mut p = Probe::new(GfwConfig::evolved(), seed);
        p.send_client(Probe::c2s().seq(1000).flags(TcpFlags::SYN).build());
        p.send_server(Probe::s2c().seq(9000).ack(1001).flags(TcpFlags::SYN_ACK).build());
        p.send_server(Probe::s2c().seq(9500).ack(1001).flags(TcpFlags::SYN_ACK).build());
        all &= check(
            &mut out,
            "(b) multiple SYN/ACKs enter the resync state",
            p.gfw.tcb_state(p.tuple()) == Some(CensorState::Resync),
        );
        // A later server SYN/ACK resolves it.
        p.send_server(Probe::s2c().seq(9000).ack(1001).flags(TcpFlags::SYN_ACK).build());
        all &= check(
            &mut out,
            "a server SYN/ACK resolves the resync state",
            p.gfw.tcb_state(p.tuple()) == Some(CensorState::Tracking),
        );
    }
    {
        let mut p = Probe::new(GfwConfig::evolved(), seed);
        p.send_client(Probe::c2s().seq(1000).flags(TcpFlags::SYN).build());
        p.send_server(Probe::s2c().seq(9000).ack(5_555).flags(TcpFlags::SYN_ACK).build()); // wrong ack
        all &= check(
            &mut out,
            "(c) a SYN/ACK with a mismatched ACK enters the resync state",
            p.gfw.tcb_state(p.tuple()) == Some(CensorState::Resync),
        );
        // Neither pure ACKs nor server data resolve it (§4).
        p.send_client(Probe::c2s().seq(1001).ack(9001).flags(TcpFlags::ACK).build());
        all &= check(
            &mut out,
            "a pure client ACK does NOT resolve resync",
            p.gfw.tcb_state(p.tuple()) == Some(CensorState::Resync),
        );
        p.send_server(
            Probe::s2c()
                .seq(9001)
                .ack(1001)
                .flags(TcpFlags::PSH_ACK)
                .payload(b"server data")
                .build(),
        );
        all &= check(
            &mut out,
            "server->client data does NOT resolve resync",
            p.gfw.tcb_state(p.tuple()) == Some(CensorState::Resync),
        );
    }

    // ---------------- Hypothesis 3: RST may resync instead of teardown ----
    out.push_str("Hypothesized New Behavior 3 (RST handling):\n");
    {
        let mut p = Probe::new(GfwConfig::evolved(), seed);
        p.gfw.force_rst_resync(true);
        p.send_client(Probe::c2s().seq(1000).flags(TcpFlags::SYN).build());
        p.send_server(Probe::s2c().seq(9000).ack(1001).flags(TcpFlags::SYN_ACK).build());
        p.send_client(Probe::c2s().seq(1001).ack(9001).flags(TcpFlags::ACK).build());
        p.send_client(Probe::c2s().seq(1001).flags(TcpFlags::RST).build());
        let survived = p.gfw.has_tcb(p.tuple());
        let resync = p.gfw.tcb_state(p.tuple()) == Some(CensorState::Resync);
        all &= check(&mut out, "an RST may leave the TCB alive in the resync state", survived && resync);
        p.send_client(
            Probe::c2s()
                .seq(1001)
                .ack(9001)
                .flags(TcpFlags::PSH_ACK)
                .payload(b"GET /ultrasurf HTTP/1.1\r\n\r\n")
                .build(),
        );
        all &= check(
            &mut out,
            "...and the censor still detects the keyword afterwards",
            p.gfw.detected_any(),
        );
    }
    {
        let mut p = Probe::new(GfwConfig::evolved(), seed);
        p.gfw.force_rst_resync(false);
        p.send_client(Probe::c2s().seq(1000).flags(TcpFlags::SYN).build());
        p.send_client(Probe::c2s().seq(1001).flags(TcpFlags::RST).build());
        all &= check(
            &mut out,
            "in the teardown regime the RST removes the TCB",
            !p.gfw.has_tcb(p.tuple()),
        );
    }
    {
        let mut p = Probe::new(GfwConfig::evolved(), seed);
        p.send_client(Probe::c2s().seq(1000).flags(TcpFlags::SYN).build());
        p.send_client(Probe::c2s().seq(1001).ack(9001).flags(TcpFlags::FIN).build());
        let evolved_keeps = p.gfw.has_tcb(p.tuple());
        let mut p2 = Probe::new(GfwConfig::old(), seed);
        p2.send_client(Probe::c2s().seq(1000).flags(TcpFlags::SYN).build());
        p2.send_client(Probe::c2s().seq(1001).ack(9001).flags(TcpFlags::FIN).build());
        let old_tears = !p2.gfw.has_tcb(p2.tuple());
        all &= check(
            &mut out,
            "FIN no longer tears down the evolved TCB (but did on the prior model)",
            evolved_keeps && old_tears,
        );
    }

    out.push_str(if all {
        "ALL HYPOTHESIS PROBES PASSED\n"
    } else {
        "SOME PROBES FAILED\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_probes_pass() {
        let out = run(&CommonArgs::parse_from(Vec::new()).unwrap());
        assert!(out.contains("ALL HYPOTHESIS PROBES PASSED"), "{out}");
        assert!(!out.contains("FAIL]"), "{out}");
    }
}
