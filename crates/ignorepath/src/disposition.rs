//! Abstract disposition models: how a server stack and the censor treat a
//! perturbed packet in a given state.

use intang_tcpstack::{LinuxVersion, StackProfile};

/// Perturbation classes probed by the analysis — the candidate insertion
/// packet shapes of Table 3 (plus a few that the analysis must *reject*,
/// like plain RSTs, to show the methodology discriminates).
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
    /// Pure ACK (or data) carrying a wrong acknowledgment number.
    AckWrongAck,
    /// Any segment with an unsolicited MD5 signature option.
    UnsolicitedMd5,
    /// A segment with no TCP flags at all.
    NoFlag,
    /// A segment with only the FIN flag.
    FinOnly,
    /// An otherwise-valid segment whose timestamp is PAWS-stale.
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
            PacketClass::RstAckWrongAck => "Wrong acknowledgement number",
            PacketClass::AckWrongAck => "Wrong acknowledgement number",
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
            PacketClass::InflatedIpTotalLen | PacketClass::ShortTcpHeader | PacketClass::BadChecksum => "Any",
            PacketClass::RstAckWrongAck => "RST+ACK",
            PacketClass::AckWrongAck | PacketClass::OldTimestamp => "ACK",
            PacketClass::UnsolicitedMd5 => "Any",
            PacketClass::NoFlag => "No flag",
            PacketClass::FinOnly => "FIN",
            PacketClass::ValidRst => "RST",
            PacketClass::ValidData => "ACK",
        }
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

/// What the receiving implementation does with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Disposition {
    /// State unchanged; packet dropped silently or with a bare ACK. The
    /// "ignore" outcome the analysis hunts for.
    Ignore,
    /// The packet is processed and updates connection state.
    Accept,
    /// The packet resets/tears down the connection.
    Reset,
}

/// Disposition of a server running `profile`, in `state`, receiving `class`.
/// Mirrors the executable stack in `intang-tcpstack` (confirmed against it
/// by [`crate::confirm`]).
pub fn server_disposition(profile: &StackProfile, state: StateContext, class: PacketClass) -> Disposition {
    use Disposition::*;
    match class {
        PacketClass::InflatedIpTotalLen => {
            if profile.validate_ip_total_len {
                Ignore
            } else {
                Accept
            }
        }
        PacketClass::ShortTcpHeader => Ignore, // unparseable everywhere
        PacketClass::BadChecksum => {
            if profile.validate_checksum {
                Ignore
            } else {
                Accept
            }
        }
        PacketClass::RstAckWrongAck => match state {
            // Table 3: ignored in SYN_RECV when the ACK is wrong.
            StateContext::SynRecv => {
                if profile.validate_ack_number {
                    Ignore
                } else {
                    Reset
                }
            }
            // In ESTABLISHED, RST validation is sequence-based: the wrong
            // ACK does not save the connection (§5.3: "even if the RST/ACK
            // has a wrong ACK number ... it will still be able to reset").
            StateContext::Established => Reset,
        },
        PacketClass::AckWrongAck => {
            if profile.validate_ack_number {
                Ignore
            } else {
                Accept
            }
        }
        PacketClass::UnsolicitedMd5 => {
            if profile.md5_check {
                Ignore
            } else {
                Accept
            }
        }
        PacketClass::NoFlag => {
            // Accepted by pre-3.8 oddballs and by kernels that don't
            // require the ACK flag at all (2.6.34 / 2.4.37, §5.3).
            if profile.accept_no_flag_data || !profile.require_ack_flag {
                Accept
            } else {
                Ignore
            }
        }
        PacketClass::FinOnly => {
            if profile.require_ack_flag {
                Ignore
            } else {
                Accept
            }
        }
        PacketClass::OldTimestamp => {
            if profile.paws {
                Ignore
            } else {
                Accept
            }
        }
        PacketClass::ValidRst => Reset,
        PacketClass::ValidData => Accept,
    }
}

/// Disposition of the censor. The GFW validates none of the probed fields
/// (Table 3, "GFW State" column shows it stays ESTABLISHED/RESYNC and
/// processes the packet).
pub fn gfw_disposition(cfg: &intang_gfw::GfwConfig, _state: StateContext, class: PacketClass) -> Disposition {
    use Disposition::*;
    match class {
        PacketClass::InflatedIpTotalLen => {
            if cfg.validate_ip_total_len {
                Ignore
            } else {
                Accept
            }
        }
        // The paper lists a data offset below 5 words as a discrepancy:
        // the GFW processes such packets, and this model follows the paper.
        // The executable censor does not: its header index holds no TCP
        // view of such a segment, so `GfwElement` never inspects it, and
        // Table 3's "TCP Header Length < 20" row rests on this model alone.
        PacketClass::ShortTcpHeader => Accept,
        PacketClass::BadChecksum => {
            if cfg.validate_checksum {
                Ignore
            } else {
                Accept
            }
        }
        PacketClass::RstAckWrongAck | PacketClass::ValidRst => Reset, // teardown or resync: state changes either way
        PacketClass::AckWrongAck => {
            if cfg.check_ack {
                Ignore
            } else {
                Accept
            }
        }
        PacketClass::UnsolicitedMd5 => {
            if cfg.check_md5 {
                Ignore
            } else {
                Accept
            }
        }
        PacketClass::NoFlag => Accept, // data bytes are consumed regardless of flags
        PacketClass::FinOnly => {
            if matches!(cfg.generation, intang_gfw::GfwGeneration::Old) {
                Reset // old model tears down on FIN
            } else {
                Accept
            }
        }
        PacketClass::OldTimestamp => {
            if cfg.check_timestamp {
                Ignore
            } else {
                Accept
            }
        }
        PacketClass::ValidData => Accept,
    }
}

/// §5.3 cross-version notes: does this class stop being an insertion packet
/// against `version`?
pub fn version_caveat(version: LinuxVersion, class: PacketClass) -> Option<&'static str> {
    match (version, class) {
        (LinuxVersion::L2_6_34 | LinuxVersion::L2_4_37, PacketClass::NoFlag) => Some("data without ACK flag is accepted — insertion fails"),
        (LinuxVersion::L2_4_37, PacketClass::UnsolicitedMd5) => Some("no MD5 option check (pre-RFC 2385 support) — insertion fails"),
        (LinuxVersion::Pre3_8, PacketClass::NoFlag) => Some("no-flag data sometimes accepted — insertion fails"),
        (LinuxVersion::L3_14, PacketClass::ValidData) => None,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linux44_ignores_every_table3_class() {
        let p = StackProfile::linux_4_4();
        for class in [
            PacketClass::InflatedIpTotalLen,
            PacketClass::ShortTcpHeader,
            PacketClass::BadChecksum,
            PacketClass::AckWrongAck,
            PacketClass::UnsolicitedMd5,
            PacketClass::NoFlag,
            PacketClass::FinOnly,
            PacketClass::OldTimestamp,
        ] {
            for state in StateContext::all() {
                assert_eq!(server_disposition(&p, state, class), Disposition::Ignore, "{class:?} in {state:?}");
            }
        }
        assert_eq!(
            server_disposition(&p, StateContext::SynRecv, PacketClass::RstAckWrongAck),
            Disposition::Ignore
        );
    }

    #[test]
    fn controls_are_not_discrepancies() {
        let p = StackProfile::linux_4_4();
        let g = intang_gfw::GfwConfig::evolved();
        for state in StateContext::all() {
            assert_eq!(server_disposition(&p, state, PacketClass::ValidRst), Disposition::Reset);
            assert_eq!(server_disposition(&p, state, PacketClass::ValidData), Disposition::Accept);
            assert_eq!(gfw_disposition(&g, state, PacketClass::ValidData), Disposition::Accept);
        }
    }

    #[test]
    fn rstack_wrong_ack_still_resets_established() {
        // §5.3: effective control packets cannot be built from data-only
        // discrepancies.
        let p = StackProfile::linux_4_4();
        assert_eq!(
            server_disposition(&p, StateContext::Established, PacketClass::RstAckWrongAck),
            Disposition::Reset
        );
    }

    #[test]
    fn old_kernel_caveats_match_section53() {
        assert!(version_caveat(LinuxVersion::L2_4_37, PacketClass::UnsolicitedMd5).is_some());
        assert!(version_caveat(LinuxVersion::L2_6_34, PacketClass::NoFlag).is_some());
        assert!(version_caveat(LinuxVersion::L4_4, PacketClass::UnsolicitedMd5).is_none());
    }
}
