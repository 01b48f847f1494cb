//! "Ignore path" instrumentation.
//!
//! Every point where the stack discards a packet without changing
//! connection state is one of the paper's *ignore paths* (§5.3). The stack
//! records an [`IgnoreEvent`] for each, naming the path that fired. The
//! Table 3 oracle in `intang-experiments` (`oracle`) observes the same
//! ignores from outside, as an untouched socket, and diffs them against
//! the executable censor.

use intang_packet::FourTuple;

/// Why a packet was ignored. Variants map 1:1 onto Table 3 conditions plus
/// the handful of additional paths a real stack has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IgnoreReason {
    /// IP total length field > actual received length.
    BadIpTotalLen,
    /// TCP data offset below 20 bytes (header length < 20).
    BadTcpHeaderLen,
    /// TCP checksum incorrect.
    BadChecksum,
    /// Unsolicited RFC 2385 MD5 signature option present.
    Md5Unexpected,
    /// PAWS: timestamp older than the last validated timestamp.
    PawsOldTimestamp,
    /// ACK number outside the acceptable range (wrong acknowledgment).
    BadAckNumber,
    /// Segment carries no TCP flags at all.
    NoFlags,
    /// Segment carries only a FIN (no ACK) — ignored in modern stacks.
    FinWithoutAck,
    /// Data segment without the ACK flag (modern stacks require ACK).
    NoAckFlag,
    /// Sequence number entirely outside the receive window (a duplicate
    /// ACK / challenge ACK may still be emitted).
    OutOfWindowSeq,
    /// RST whose sequence was in-window but not exact under RFC 5961
    /// (challenge ACK emitted, connection unaffected).
    RstChallenged,
    /// RST with out-of-window sequence number.
    RstOutOfWindow,
    /// SYN received in ESTABLISHED (challenge-ACKed or silently dropped).
    SynInEstablished,
    /// SYN/ACK whose ACK number doesn't acknowledge our SYN (SYN_SENT).
    BadSynAckAck,
    /// Segment for a connection/port that doesn't exist (RST may be sent).
    NoSocket,
    /// Segment arrived in a state that cannot accept it (e.g. data in
    /// TIME_WAIT).
    WrongState,
}

impl std::fmt::Display for IgnoreReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IgnoreReason::BadIpTotalLen => "IP total length > actual length",
            IgnoreReason::BadTcpHeaderLen => "TCP header length < 20",
            IgnoreReason::BadChecksum => "TCP checksum incorrect",
            IgnoreReason::Md5Unexpected => "unsolicited MD5 option header",
            IgnoreReason::PawsOldTimestamp => "timestamps too old",
            IgnoreReason::BadAckNumber => "wrong acknowledgement number",
            IgnoreReason::NoFlags => "TCP packet with no flag",
            IgnoreReason::FinWithoutAck => "TCP packet with only FIN flag",
            IgnoreReason::NoAckFlag => "data segment without ACK flag",
            IgnoreReason::OutOfWindowSeq => "sequence number out of window",
            IgnoreReason::RstChallenged => "RST challenged (RFC 5961)",
            IgnoreReason::RstOutOfWindow => "RST out of window",
            IgnoreReason::SynInEstablished => "SYN in ESTABLISHED",
            IgnoreReason::BadSynAckAck => "SYN/ACK with wrong ACK number",
            IgnoreReason::NoSocket => "no matching socket",
            IgnoreReason::WrongState => "state cannot accept segment",
        };
        f.write_str(s)
    }
}

/// One recorded ignore event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IgnoreEvent {
    pub reason: IgnoreReason,
    /// Flow of the offending packet (as seen by the receiving endpoint).
    pub tuple: Option<FourTuple>,
}

/// A bounded log of ignore events, drained by tests and analyses.
#[derive(Debug, Default)]
pub struct IgnoreLog {
    events: Vec<IgnoreEvent>,
    /// Lifetime count of recorded events — unaffected by the storage cap
    /// and by `drain` (telemetry reads this).
    total: u64,
}

impl IgnoreLog {
    /// An empty log whose storage is leased from the thread-local pool
    /// (recycled capacity; contents identical to `IgnoreLog::default()`).
    pub(crate) fn pooled() -> IgnoreLog {
        IgnoreLog {
            events: crate::pool::take_ignore_buf(),
            total: 0,
        }
    }

    /// Hand the storage back to the pool (used by the endpoint on drop).
    pub(crate) fn recycle(&mut self) {
        crate::pool::put_ignore_buf(std::mem::take(&mut self.events));
    }

    pub fn record(&mut self, reason: IgnoreReason, tuple: Option<FourTuple>) {
        self.total += 1;
        if self.events.len() < 10_000 {
            self.events.push(IgnoreEvent { reason, tuple });
        }
    }

    /// Total events ever recorded (survives `drain` and the cap).
    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn drain(&mut self) -> Vec<IgnoreEvent> {
        std::mem::take(&mut self.events)
    }

    pub fn events(&self) -> &[IgnoreEvent] {
        &self.events
    }

    pub fn contains(&self, reason: IgnoreReason) -> bool {
        self.events.iter().any(|e| e.reason == reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_and_drains() {
        let mut log = IgnoreLog::default();
        log.record(IgnoreReason::BadChecksum, None);
        log.record(IgnoreReason::NoFlags, None);
        assert!(log.contains(IgnoreReason::BadChecksum));
        assert!(!log.contains(IgnoreReason::Md5Unexpected));
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert!(log.events().is_empty());
    }

    #[test]
    fn display_matches_table3_wording() {
        assert_eq!(IgnoreReason::BadIpTotalLen.to_string(), "IP total length > actual length");
        assert_eq!(IgnoreReason::Md5Unexpected.to_string(), "unsolicited MD5 option header");
        assert_eq!(IgnoreReason::PawsOldTimestamp.to_string(), "timestamps too old");
    }
}
