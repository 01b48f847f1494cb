//! The §5.3 "ignore path" oracle: which candidate insertion packets does a
//! server's TCP stack ignore while the censor still processes them?
//!
//! Every answer is observed, not looked up. `observe_server` drives an
//! executable `intang-tcpstack` endpoint into SYN_RECV or ESTABLISHED and
//! fires one probe at it; `observe_censor` replays the same handshake
//! through a [`GfwElement`](intang_gfw::GfwElement) in the [`Probe`] world
//! and fires the same probe there. A server that ignores the probe while
//! the censor accepts it (or lets it move its TCB) is a discrepancy:
//! [`derive_table3`] collects them into Table 3's rows, with the old-kernel
//! caveats and the middlebox cross-validation of §5.3.

use crate::tap::Probe;
use intang_gfw::GfwConfig;
use intang_middlebox::filter::drop_probability;
use intang_middlebox::ClientSideProfile;
use intang_netsim::Direction;
use intang_packet::{TcpFlags, TcpOption, Wire};
use intang_tcpstack::{SocketHandle, StackProfile, TcpEndpoint, TcpState};

/// The candidate insertion packet shapes of Table 3, plus two controls the
/// analysis must reject, to show it discriminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketClass {
    /// IP total length field larger than the actual buffer.
    InflatedIpTotalLen,
    /// TCP data offset below 20 bytes.
    ShortTcpHeader,
    /// Wrong TCP checksum.
    BadChecksum,
    /// RST/ACK carrying a wrong acknowledgment number.
    RstAckWrongAck,
    /// Data carrying a wrong acknowledgment number.
    AckWrongAck,
    /// Data with an unsolicited MD5 signature option.
    UnsolicitedMd5,
    /// Data with no TCP flags at all.
    NoFlag,
    /// Data with only the FIN flag.
    FinOnly,
    /// Data whose timestamp is PAWS-stale.
    OldTimestamp,
    /// Control case: a well-formed RST (must NOT be a discrepancy).
    ValidRst,
    /// Control case: well-formed in-window data.
    ValidData,
}

impl PacketClass {
    pub fn all() -> [PacketClass; 11] {
        [
            PacketClass::InflatedIpTotalLen,
            PacketClass::ShortTcpHeader,
            PacketClass::BadChecksum,
            PacketClass::RstAckWrongAck,
            PacketClass::AckWrongAck,
            PacketClass::UnsolicitedMd5,
            PacketClass::NoFlag,
            PacketClass::FinOnly,
            PacketClass::OldTimestamp,
            PacketClass::ValidRst,
            PacketClass::ValidData,
        ]
    }

    /// Wording used by Table 3's "Condition" column.
    pub fn condition(&self) -> &'static str {
        match self {
            PacketClass::InflatedIpTotalLen => "IP total length > actual length",
            PacketClass::ShortTcpHeader => "TCP Header Length < 20",
            PacketClass::BadChecksum => "TCP checksum incorrect",
            PacketClass::RstAckWrongAck | PacketClass::AckWrongAck => "Wrong acknowledgement number",
            PacketClass::UnsolicitedMd5 => "Has unsolicited MD5 Optional Header",
            PacketClass::NoFlag => "TCP packet with no flag",
            PacketClass::FinOnly => "TCP packet with only FIN flag",
            PacketClass::OldTimestamp => "Timestamps too old",
            PacketClass::ValidRst => "well-formed RST (control)",
            PacketClass::ValidData => "well-formed data (control)",
        }
    }

    /// The "TCP Flags" column.
    pub fn flags_label(&self) -> &'static str {
        match self {
            PacketClass::InflatedIpTotalLen | PacketClass::ShortTcpHeader | PacketClass::BadChecksum | PacketClass::UnsolicitedMd5 => "Any",
            PacketClass::RstAckWrongAck => "RST+ACK",
            PacketClass::AckWrongAck | PacketClass::OldTimestamp | PacketClass::ValidData => "ACK",
            PacketClass::NoFlag => "No flag",
            PacketClass::FinOnly => "FIN",
            PacketClass::ValidRst => "RST",
        }
    }

    /// Parse-level discrepancies, which Table 3 lists for any state.
    fn any_state(&self) -> bool {
        matches!(
            self,
            PacketClass::InflatedIpTotalLen | PacketClass::ShortTcpHeader | PacketClass::BadChecksum
        )
    }
}

/// The receiver-relevant TCP states (§5.3 prunes the rest: e.g. TIME_WAIT
/// cannot receive data, so its ignore paths are fruitless).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateContext {
    SynRecv,
    Established,
}

impl StateContext {
    pub fn all() -> [StateContext; 2] {
        [StateContext::SynRecv, StateContext::Established]
    }

    pub fn label(&self) -> &'static str {
        match self {
            StateContext::SynRecv => "SYN_RECV",
            StateContext::Established => "ESTABLISHED",
        }
    }
}

/// What a receiver observably did with a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Disposition {
    /// State unchanged; the packet dropped silently or with a bare ACK. The
    /// outcome the analysis hunts for on the server.
    Ignore,
    /// The packet was processed: the server consumed it or moved state,
    /// the censor scanned its payload.
    Accept,
    /// The packet tore the connection down (server), or tore down or
    /// resynchronized the censor's TCB.
    Reset,
}

/// The request every data-carrying probe carries. Without a payload the
/// evolved censor has nothing to process, and the keyword makes its
/// processing observable as a detection.
const KEYWORD_REQUEST: &[u8] = b"GET /ultrasurf HTTP/1.1\r\n\r\n";
const CLIENT_ISN: u32 = 5_000;
/// Pinned on the server endpoint, so every probe's sequence and
/// acknowledgment numbers are known before the handshake runs.
const SERVER_ISN: u32 = 9_000;
/// The one connection every probe runs on.
const SERVER_SOCKET: SocketHandle = SocketHandle(0);

/// The probe packet for `class`, at the client's next sequence number and
/// acknowledging the server's SYN/ACK.
pub(crate) fn probe_packet(class: PacketClass) -> Wire {
    let (seq, ack) = (CLIENT_ISN.wrapping_add(1), SERVER_ISN.wrapping_add(1));
    let wrong_ack = ack.wrapping_add(77_777);
    let base = Probe::c2s().seq(seq).ack(ack);
    let data = base.clone().flags(TcpFlags::PSH_ACK).payload(KEYWORD_REQUEST);
    match class {
        PacketClass::InflatedIpTotalLen => data.inflated_total_len(16).build(),
        PacketClass::ShortTcpHeader => data.short_data_offset().build(),
        PacketClass::BadChecksum => {
            let w = data.bad_checksum().build();
            intang_simcheck::expect_bad_checksum(&w);
            w
        }
        PacketClass::RstAckWrongAck => base.flags(TcpFlags::RST_ACK).ack(wrong_ack).build(),
        PacketClass::AckWrongAck => data.ack(wrong_ack).build(),
        PacketClass::UnsolicitedMd5 => data.md5_option().build(),
        PacketClass::NoFlag => data.flags(TcpFlags::NONE).build(),
        PacketClass::FinOnly => data.flags(TcpFlags::FIN).build(),
        PacketClass::OldTimestamp => data.option(TcpOption::Timestamps { tsval: 1, tsecr: 0 }).build(),
        PacketClass::ValidRst => base.flags(TcpFlags::RST).build(),
        PacketClass::ValidData => data.build(),
    }
}

/// A `profile` server driven into `state`, and every packet of the
/// exchange in wire order: the client's, and the server's own SYN/ACK.
fn connect(profile: StackProfile, state: StateContext) -> (TcpEndpoint, Vec<(Direction, Wire)>) {
    let mut server = TcpEndpoint::new(Probe::SERVER, profile);
    server.listen(80);
    server.set_isn_base(SERVER_ISN);
    let (seq, ack) = (CLIENT_ISN.wrapping_add(1), SERVER_ISN.wrapping_add(1));
    // The SYN negotiates timestamps, so PAWS has a reference even in
    // SYN_RECV (Table 3's last row applies there too); in ESTABLISHED a
    // later ACK refreshes it.
    let mut client = vec![Probe::c2s()
        .seq(CLIENT_ISN)
        .flags(TcpFlags::SYN)
        .option(TcpOption::Timestamps { tsval: 400_000, tsecr: 0 })
        .build()];
    if state == StateContext::Established {
        client.push(Probe::c2s().seq(seq).ack(ack).flags(TcpFlags::ACK).build());
        client.push(
            Probe::c2s()
                .seq(seq)
                .ack(ack)
                .flags(TcpFlags::ACK)
                .option(TcpOption::Timestamps { tsval: 500_000, tsecr: 0 })
                .build(),
        );
    }
    let mut exchange = Vec::new();
    for (i, wire) in client.into_iter().enumerate() {
        exchange.push((Direction::ToServer, wire.clone()));
        server.on_packet(wire, i as u64 * 1_000);
        exchange.extend(server.poll_transmit().into_iter().map(|w| (Direction::ToClient, w)));
    }
    (server, exchange)
}

/// Fire `class` at a `profile` server in `state` and classify what it did
/// from its socket: torn down, data queued or `rcv_nxt` moved or state
/// changed, or nothing.
pub(crate) fn observe_server(profile: StackProfile, state: StateContext, class: PacketClass) -> Disposition {
    let (mut server, _) = connect(profile, state);
    let before = server.socket_ref(SERVER_SOCKET).state();
    server.on_packet(probe_packet(class), 3_000);
    server.poll_transmit();
    let sock = server.socket_ref(SERVER_SOCKET);
    if sock.state() == TcpState::Closed || sock.reset_by_peer {
        Disposition::Reset
    } else if sock.recv_len() > 0 || sock.rcv_nxt() != CLIENT_ISN.wrapping_add(1) || sock.state() != before {
        Disposition::Accept
    } else {
        Disposition::Ignore
    }
}

/// Replay the handshake of a connection in `state` through a `censor`,
/// fire `class` after it, and classify what the censor did from its TCB
/// and its reactions: TCB torn down or resynchronized, keyword detected or
/// resets injected, or nothing.
pub(crate) fn observe_censor(censor: &GfwConfig, state: StateContext, class: PacketClass) -> Disposition {
    // Every modeled stack answers the handshake with the same bytes; the
    // censor sees the Table 3 reference server's.
    let (_, exchange) = connect(StackProfile::linux_4_4(), state);
    let mut p = Probe::new(censor.clone(), 1);
    for (dir, wire) in exchange {
        match dir {
            Direction::ToServer => p.send_client(wire),
            Direction::ToClient => p.send_server(wire),
        }
    }
    let tuple = p.tuple();
    let tcb = p.gfw.tcb_state(tuple);
    let (detections, resets) = (p.gfw.detections().len(), p.gfw.resets_injected());
    p.send_client(probe_packet(class));
    if p.gfw.tcb_state(tuple) != tcb {
        Disposition::Reset
    } else if p.gfw.detections().len() > detections || p.gfw.resets_injected() > resets {
        Disposition::Accept
    } else {
        Disposition::Ignore
    }
}

/// One discrepancy: the states in which the server ignores a packet class
/// that the censor processes.
#[derive(Debug, Clone)]
pub struct Finding {
    pub states: Vec<StateContext>,
    pub class: PacketClass,
    /// Table 2 client-side profiles whose filters would drop the packet
    /// (middlebox cross-validation).
    pub dropped_by: Vec<&'static str>,
    /// Other kernel versions that do not ignore the packet in a state where
    /// the analyzed server does (§5.3 cross-version validation).
    pub version_caveats: Vec<String>,
}

impl Finding {
    /// Render in Table 3's column layout: TCP State, GFW State, TCP Flags,
    /// Condition. The GFW State cell is the paper's wording: the oracle
    /// probes the censor's tracking state.
    pub fn render_row(&self) -> [String; 4] {
        let (tcp_state, gfw_state) = if self.class.any_state() {
            ("Any".to_string(), "Any")
        } else {
            (states_label(&self.states), "ESTABLISHED/RESYNC")
        };
        [
            tcp_state,
            gfw_state.to_string(),
            self.class.flags_label().to_string(),
            self.class.condition().to_string(),
        ]
    }
}

fn states_label(states: &[StateContext]) -> String {
    states.iter().map(StateContext::label).collect::<Vec<_>>().join("/")
}

/// How `profile` departs from an ignore in `states`, or `None` when it
/// ignores `class` in every one of them.
fn kernel_caveat(profile: StackProfile, class: PacketClass, states: &[StateContext]) -> Option<String> {
    let observed: Vec<(StateContext, Disposition)> = states.iter().map(|&st| (st, observe_server(profile, st, class))).collect();
    let parts: Vec<String> = [(Disposition::Accept, "accepted"), (Disposition::Reset, "reset")]
        .into_iter()
        .filter_map(|(disp, verb)| {
            let hit: Vec<StateContext> = observed.iter().filter(|(_, d)| *d == disp).map(|(st, _)| *st).collect();
            (!hit.is_empty()).then(|| format!("{verb} in {}", states_label(&hit)))
        })
        .collect();
    (!parts.is_empty()).then(|| format!("{}: {}", profile.version, parts.join(", ")))
}

/// Run the differential analysis of `server` against `censor`: every
/// class the server ignores, in some state, while the censor accepts it or
/// lets it move its TCB (usable for teardown insertions).
///
/// ```
/// use intang_experiments::oracle::derive_table3;
/// use intang_gfw::GfwConfig;
/// use intang_tcpstack::StackProfile;
///
/// let findings = derive_table3(&StackProfile::linux_4_4(), &GfwConfig::evolved());
/// assert_eq!(findings.len(), 9, "the nine Table 3 rows");
/// ```
pub fn derive_table3(server: &StackProfile, censor: &GfwConfig) -> Vec<Finding> {
    PacketClass::all()
        .into_iter()
        .filter_map(|class| {
            let states: Vec<StateContext> = StateContext::all()
                .into_iter()
                .filter(|&st| {
                    observe_server(*server, st, class) == Disposition::Ignore && observe_censor(censor, st, class) != Disposition::Ignore
                })
                .collect();
            if states.is_empty() {
                return None;
            }
            let wire = probe_packet(class);
            let dropped_by = ClientSideProfile::all_paper_profiles()
                .into_iter()
                .filter(|p| drop_probability(&p.filter_spec(), &wire) > 0.0)
                .map(ClientSideProfile::label)
                .collect();
            let version_caveats = StackProfile::all()
                .into_iter()
                .filter(|p| p.version != server.version)
                .filter_map(|p| kernel_caveat(p, class, &states))
                .collect();
            Some(Finding {
                states,
                class,
                dropped_by,
                version_caveats,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE3_CLASSES: [PacketClass; 9] = [
        PacketClass::InflatedIpTotalLen,
        PacketClass::ShortTcpHeader,
        PacketClass::BadChecksum,
        PacketClass::RstAckWrongAck,
        PacketClass::AckWrongAck,
        PacketClass::UnsolicitedMd5,
        PacketClass::NoFlag,
        PacketClass::FinOnly,
        PacketClass::OldTimestamp,
    ];

    fn table3() -> Vec<Finding> {
        derive_table3(&StackProfile::linux_4_4(), &GfwConfig::evolved())
    }

    #[test]
    fn every_stack_answers_the_handshake_the_censor_replays() {
        for state in StateContext::all() {
            let (_, reference) = connect(StackProfile::linux_4_4(), state);
            assert!(reference.iter().any(|(dir, _)| *dir == Direction::ToClient), "a SYN/ACK");
            for p in StackProfile::all() {
                assert_eq!(connect(p, state).1, reference, "{:?} in {state:?}", p.version);
            }
        }
    }

    #[test]
    fn linux44_against_the_evolved_censor_yields_the_nine_table3_rows() {
        let rows: Vec<[String; 5]> = table3()
            .iter()
            .map(|f| {
                let [tcp, gfw, flags, cond] = f.render_row();
                [tcp, gfw, flags, cond, f.dropped_by.join(",")]
            })
            .collect();
        let expected = [
            ["Any", "Any", "Any", "IP total length > actual length", ""],
            ["Any", "Any", "Any", "TCP Header Length < 20", ""],
            ["Any", "Any", "Any", "TCP checksum incorrect", "unicom-tj-mb"],
            [
                "SYN_RECV",
                "ESTABLISHED/RESYNC",
                "RST+ACK",
                "Wrong acknowledgement number",
                "qcloud-mb",
            ],
            [
                "SYN_RECV/ESTABLISHED",
                "ESTABLISHED/RESYNC",
                "ACK",
                "Wrong acknowledgement number",
                "",
            ],
            [
                "SYN_RECV/ESTABLISHED",
                "ESTABLISHED/RESYNC",
                "Any",
                "Has unsolicited MD5 Optional Header",
                "",
            ],
            [
                "SYN_RECV/ESTABLISHED",
                "ESTABLISHED/RESYNC",
                "No flag",
                "TCP packet with no flag",
                "unicom-tj-mb",
            ],
            [
                "SYN_RECV/ESTABLISHED",
                "ESTABLISHED/RESYNC",
                "FIN",
                "TCP packet with only FIN flag",
                "aliyun-mb,unicom-sjz-mb,unicom-tj-mb",
            ],
            ["SYN_RECV/ESTABLISHED", "ESTABLISHED/RESYNC", "ACK", "Timestamps too old", ""],
        ];
        assert_eq!(rows, expected.map(|r| r.map(String::from)));
    }

    #[test]
    fn both_censors_process_every_table3_class_in_both_states() {
        for censor in [GfwConfig::evolved(), GfwConfig::old()] {
            for class in TABLE3_CLASSES {
                for state in StateContext::all() {
                    let d = observe_censor(&censor, state, class);
                    assert_ne!(d, Disposition::Ignore, "{:?}: {class:?} in {state:?}", censor.generation);
                }
            }
        }
        // The evolved censor ignores FIN (§4) and scans the data it
        // carries; the prior model tears its TCB down on it.
        let fin = |c: &GfwConfig| observe_censor(c, StateContext::Established, PacketClass::FinOnly);
        assert_eq!(fin(&GfwConfig::evolved()), Disposition::Accept);
        assert_eq!(fin(&GfwConfig::old()), Disposition::Reset);
    }

    #[test]
    fn linux44_ignores_every_table3_class() {
        let p = StackProfile::linux_4_4();
        for class in TABLE3_CLASSES {
            for state in StateContext::all() {
                let expected = if (class, state) == (PacketClass::RstAckWrongAck, StateContext::Established) {
                    // §5.3: in ESTABLISHED, RST validation is sequence
                    // based, so the wrong ACK does not save the connection.
                    Disposition::Reset
                } else {
                    Disposition::Ignore
                };
                assert_eq!(observe_server(p, state, class), expected, "{class:?} in {state:?}");
            }
        }
    }

    #[test]
    fn controls_are_never_findings() {
        for server in StackProfile::all() {
            for censor in [GfwConfig::evolved(), GfwConfig::old()] {
                for f in derive_table3(&server, &censor) {
                    assert!(
                        !matches!(f.class, PacketClass::ValidRst | PacketClass::ValidData),
                        "{:?} against {:?}: {:?}",
                        server.version,
                        censor.generation,
                        f.class
                    );
                }
            }
        }
        let p = StackProfile::linux_4_4();
        for state in StateContext::all() {
            assert_eq!(observe_server(p, state, PacketClass::ValidRst), Disposition::Reset);
            assert_eq!(observe_server(p, state, PacketClass::ValidData), Disposition::Accept);
        }
    }

    #[test]
    fn md5_and_ack_probes_survive_every_middlebox_profile() {
        // §5.3: "insertion packets leveraging the unsolicited MD5 header
        // ... are never dropped by the middleboxes we encounter".
        let findings = table3();
        let dropped = |class| &findings.iter().find(|f| f.class == class).unwrap().dropped_by;
        assert!(dropped(PacketClass::UnsolicitedMd5).is_empty());
        assert!(dropped(PacketClass::OldTimestamp).is_empty());
        assert!(dropped(PacketClass::AckWrongAck).is_empty());
    }

    #[test]
    fn old_kernel_caveats_are_observed_departures_from_linux44() {
        let findings = table3();
        let caveats = |class| findings.iter().find(|f| f.class == class).unwrap().version_caveats.clone();
        assert_eq!(
            caveats(PacketClass::UnsolicitedMd5),
            ["Linux 2.4.37: accepted in SYN_RECV/ESTABLISHED"]
        );
        // §5.3's older kernels accept ACK-less data in ESTABLISHED; in
        // SYN_RECV `tcp_check_req` drops it on every modeled version.
        let established = [
            "Linux 2.6.34: accepted in ESTABLISHED",
            "Linux 2.4.37: accepted in ESTABLISHED",
            "Linux <3.8: accepted in ESTABLISHED",
        ];
        assert_eq!(caveats(PacketClass::NoFlag), established);
        assert_eq!(caveats(PacketClass::FinOnly), established);
        for class in [PacketClass::InflatedIpTotalLen, PacketClass::BadChecksum, PacketClass::OldTimestamp] {
            assert!(caveats(class).is_empty(), "{class:?}");
        }
    }

    #[test]
    fn version_sweep_shrinks_in_established() {
        let counts: Vec<(usize, usize)> = StackProfile::all()
            .iter()
            .map(|p| {
                let findings = derive_table3(p, &GfwConfig::evolved());
                let established = findings.iter().filter(|f| f.states.contains(&StateContext::Established)).count();
                (findings.len(), established)
            })
            .collect();
        // 4.4, 4.0, 3.14, 2.6.34, 2.4.37, <3.8.
        assert_eq!(counts, [(9, 8), (9, 8), (9, 8), (9, 6), (8, 5), (9, 6)]);
    }
}
