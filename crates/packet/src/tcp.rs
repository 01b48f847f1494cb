//! TCP segment view and representation.
//!
//! Implements everything the paper's insertion packets need: arbitrary flag
//! combinations (including *no* flags), the RFC 2385 MD5 signature option,
//! RFC 7323 timestamps, deliberately wrong checksums, and a data-offset
//! override to emit the "TCP header length < 20" malformation of Table 3.

use crate::{checksum, ParseError, Result};
use std::net::Ipv4Addr;

pub const HEADER_LEN: usize = 20;
const PROTO_TCP: u8 = 6;

/// TCP flag bitset. `FIN|SYN|RST|PSH|ACK|URG` in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    pub const NONE: TcpFlags = TcpFlags(0);
    pub const FIN: TcpFlags = TcpFlags(0x01);
    pub const SYN: TcpFlags = TcpFlags(0x02);
    pub const RST: TcpFlags = TcpFlags(0x04);
    pub const PSH: TcpFlags = TcpFlags(0x08);
    pub const ACK: TcpFlags = TcpFlags(0x10);
    pub const URG: TcpFlags = TcpFlags(0x20);

    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    pub const RST_ACK: TcpFlags = TcpFlags(0x14);
    pub const FIN_ACK: TcpFlags = TcpFlags(0x11);
    pub const PSH_ACK: TcpFlags = TcpFlags(0x18);

    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    pub fn fin(self) -> bool {
        self.contains(TcpFlags::FIN)
    }
    pub fn syn(self) -> bool {
        self.contains(TcpFlags::SYN)
    }
    pub fn rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }
    pub fn ack(self) -> bool {
        self.contains(TcpFlags::ACK)
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return f.write_str("[noflag]");
        }
        let mut s = String::new();
        for (bit, ch) in [
            (TcpFlags::SYN, 'S'),
            (TcpFlags::FIN, 'F'),
            (TcpFlags::RST, 'R'),
            (TcpFlags::PSH, 'P'),
            (TcpFlags::ACK, '.'),
            (TcpFlags::URG, 'U'),
        ] {
            if self.contains(bit) {
                s.push(ch);
            }
        }
        f.write_str(&s)
    }
}

/// TCP options we parse and emit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    Mss(u16),
    WindowScale(u8),
    SackPermitted,
    /// RFC 7323 timestamps: (TSval, TSecr).
    Timestamps {
        tsval: u32,
        tsecr: u32,
    },
    /// RFC 2385 TCP MD5 signature option. The 16-byte digest is opaque to
    /// us; an *unsolicited* MD5 option causes modern Linux to drop the
    /// segment while the GFW processes it (Table 3).
    Md5Sig([u8; 16]),
    /// Unknown option kind with raw payload, preserved verbatim.
    Unknown {
        kind: u8,
        data: Vec<u8>,
    },
}

impl TcpOption {
    fn wire_len(&self) -> usize {
        match self {
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps { .. } => 10,
            TcpOption::Md5Sig(_) => 18,
            TcpOption::Unknown { data, .. } => 2 + data.len(),
        }
    }

    fn emit(&self, out: &mut Vec<u8>) {
        match self {
            TcpOption::Mss(v) => {
                out.extend_from_slice(&[2, 4]);
                out.extend_from_slice(&v.to_be_bytes());
            }
            TcpOption::WindowScale(v) => out.extend_from_slice(&[3, 3, *v]),
            TcpOption::SackPermitted => out.extend_from_slice(&[4, 2]),
            TcpOption::Timestamps { tsval, tsecr } => {
                out.extend_from_slice(&[8, 10]);
                out.extend_from_slice(&tsval.to_be_bytes());
                out.extend_from_slice(&tsecr.to_be_bytes());
            }
            TcpOption::Md5Sig(digest) => {
                out.extend_from_slice(&[19, 18]);
                out.extend_from_slice(digest);
            }
            TcpOption::Unknown { kind, data } => {
                out.push(*kind);
                out.push((2 + data.len()) as u8);
                out.extend_from_slice(data);
            }
        }
    }
}

/// Maximum number of parsed options per header: the options area is at most
/// 40 bytes and every non-NOP option occupies at least 2, so 20 always fits.
pub const MAX_OPTIONS: usize = 20;

/// A fixed-capacity, inline list of TCP options. Replaces `Vec<TcpOption>`
/// on the parse path so per-packet option parsing performs no heap
/// allocation (the `Unknown` variant still owns its payload, but no real
/// stack emits unknown options on the hot path). Dereferences to
/// `&[TcpOption]`, so slice methods (`iter`, `contains`, `is_empty`, ...)
/// work unchanged.
#[derive(Debug, Clone)]
pub struct TcpOptionList {
    items: [TcpOption; MAX_OPTIONS],
    len: u8,
}

impl TcpOptionList {
    pub fn new() -> TcpOptionList {
        TcpOptionList {
            // Inert filler, never observable past `len`.
            items: std::array::from_fn(|_| TcpOption::SackPermitted),
            len: 0,
        }
    }

    /// Append an option; returns `false` (dropping it) when full. A valid
    /// options area can never overflow the capacity — see [`MAX_OPTIONS`].
    pub fn push(&mut self, opt: TcpOption) -> bool {
        let at = usize::from(self.len);
        if at == MAX_OPTIONS {
            return false;
        }
        self.items[at] = opt;
        self.len += 1;
        true
    }

    pub fn as_slice(&self) -> &[TcpOption] {
        &self.items[..usize::from(self.len)]
    }

    pub fn to_vec(&self) -> Vec<TcpOption> {
        self.as_slice().to_vec()
    }
}

impl Default for TcpOptionList {
    fn default() -> TcpOptionList {
        TcpOptionList::new()
    }
}

impl std::ops::Deref for TcpOptionList {
    type Target = [TcpOption];
    fn deref(&self) -> &[TcpOption] {
        self.as_slice()
    }
}

impl PartialEq for TcpOptionList {
    fn eq(&self, other: &TcpOptionList) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for TcpOptionList {}

impl PartialEq<Vec<TcpOption>> for TcpOptionList {
    fn eq(&self, other: &Vec<TcpOption>) -> bool {
        self.as_slice() == &other[..]
    }
}

impl PartialEq<[TcpOption]> for TcpOptionList {
    fn eq(&self, other: &[TcpOption]) -> bool {
        self.as_slice() == other
    }
}

impl<'a> IntoIterator for &'a TcpOptionList {
    type Item = &'a TcpOption;
    type IntoIter = std::slice::Iter<'a, TcpOption>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<TcpOption> for TcpOptionList {
    fn from_iter<I: IntoIterator<Item = TcpOption>>(iter: I) -> TcpOptionList {
        let mut list = TcpOptionList::new();
        for o in iter {
            if !list.push(o) {
                break;
            }
        }
        list
    }
}

/// Parse the options region of a TCP header. Tolerant: stops at end-of-list
/// or on malformed lengths (returning what was parsed so far), matching how
/// real stacks skip unparseable trailing options. Allocation-free for every
/// standard option kind.
pub fn parse_options(mut raw: &[u8]) -> TcpOptionList {
    let mut opts = TcpOptionList::new();
    while let Some((&kind, rest)) = raw.split_first() {
        match kind {
            0 => break,      // end of option list
            1 => raw = rest, // NOP padding
            _ => {
                let Some(&len) = rest.first() else { break };
                let len = usize::from(len);
                if len < 2 || raw.len() < len {
                    break;
                }
                let body = &raw[2..len];
                let opt = match (kind, body.len()) {
                    (2, 2) => TcpOption::Mss(u16::from_be_bytes([body[0], body[1]])),
                    (3, 1) => TcpOption::WindowScale(body[0]),
                    (4, 0) => TcpOption::SackPermitted,
                    (8, 8) => TcpOption::Timestamps {
                        tsval: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                        tsecr: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                    },
                    (19, 16) => {
                        let mut d = [0u8; 16];
                        d.copy_from_slice(body);
                        TcpOption::Md5Sig(d)
                    }
                    _ => TcpOption::Unknown { kind, data: body.to_vec() },
                };
                if !opts.push(opt) {
                    break;
                }
                raw = &raw[len..];
            }
        }
    }
    opts
}

/// Zero-copy view over a TCP segment (header + payload).
#[derive(Debug, Clone, Copy)]
pub struct TcpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpPacket<T> {
    pub fn new_unchecked(buffer: T) -> Self {
        TcpPacket { buffer }
    }

    /// Validate the fixed header and the data offset. A data offset below 5
    /// words (the "TCP header length < 20" malformation) is a parse error:
    /// real stacks drop such segments in `tcp_v4_rcv`.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let pkt = TcpPacket::new_unchecked(buffer);
        let data = pkt.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        let off = pkt.header_len();
        if off < HEADER_LEN {
            return Err(ParseError::BadLength);
        }
        if data.len() < off {
            return Err(ParseError::Truncated);
        }
        Ok(pkt)
    }

    fn data(&self) -> &[u8] {
        self.buffer.as_ref()
    }

    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.data()[0], self.data()[1]])
    }

    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.data()[2], self.data()[3]])
    }

    pub fn seq_number(&self) -> u32 {
        u32::from_be_bytes([self.data()[4], self.data()[5], self.data()[6], self.data()[7]])
    }

    pub fn ack_number(&self) -> u32 {
        u32::from_be_bytes([self.data()[8], self.data()[9], self.data()[10], self.data()[11]])
    }

    /// Header length in bytes as declared by the data-offset field.
    pub fn header_len(&self) -> usize {
        usize::from(self.data()[12] >> 4) * 4
    }

    pub fn flags(&self) -> TcpFlags {
        TcpFlags(self.data()[13] & 0x3f)
    }

    pub fn window(&self) -> u16 {
        u16::from_be_bytes([self.data()[14], self.data()[15]])
    }

    pub fn checksum_field(&self) -> u16 {
        u16::from_be_bytes([self.data()[16], self.data()[17]])
    }

    /// The option bytes between the fixed header and the declared data
    /// offset: empty when the offset is below 5 words or past the buffer,
    /// as on a segment only [`TcpPacket::new_unchecked`] accepts.
    pub fn options_raw(&self) -> &[u8] {
        self.data().get(HEADER_LEN..self.header_len()).unwrap_or(&[])
    }

    pub fn options(&self) -> TcpOptionList {
        parse_options(self.options_raw())
    }

    pub fn has_md5_option(&self) -> bool {
        self.options().iter().any(|o| matches!(o, TcpOption::Md5Sig(_)))
    }

    pub fn timestamps(&self) -> Option<(u32, u32)> {
        self.options().iter().find_map(|o| match o {
            TcpOption::Timestamps { tsval, tsecr } => Some((*tsval, *tsecr)),
            _ => None,
        })
    }

    pub fn payload(&self) -> &[u8] {
        &self.data()[self.header_len().min(self.data().len())..]
    }

    /// Verify the TCP checksum against the pseudo-header.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        checksum::verify_transport(src, dst, PROTO_TCP, self.data())
    }
}

/// High-level TCP segment description. `emit` serializes it (payload
/// included) and computes — or deliberately corrupts — the checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpRepr {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub window: u16,
    pub options: Vec<TcpOption>,
    pub payload: Vec<u8>,
    /// When set, the checksum field is forced to this (wrong) value instead
    /// of the computed one — the classic bad-checksum insertion packet.
    pub checksum_override: Option<u16>,
    /// When set, the data-offset field is forced to this many *words*,
    /// enabling the "TCP header length < 20" malformation.
    pub data_offset_words_override: Option<u8>,
}

impl TcpRepr {
    pub fn new(src_port: u16, dst_port: u16) -> Self {
        TcpRepr {
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            flags: TcpFlags::NONE,
            window: 65535,
            options: Vec::new(),
            payload: Vec::new(),
            checksum_override: None,
            data_offset_words_override: None,
        }
    }

    pub fn parse<T: AsRef<[u8]>>(pkt: &TcpPacket<T>) -> TcpRepr {
        let mut repr = TcpRepr::new(0, 0);
        TcpRepr::parse_into(pkt, &mut repr);
        repr
    }

    /// Parse into an existing repr, reusing its `options`/`payload`
    /// capacity — the hot receive paths keep one scratch repr per endpoint
    /// so steady-state parsing allocates nothing.
    pub fn parse_into<T: AsRef<[u8]>>(pkt: &TcpPacket<T>, out: &mut TcpRepr) {
        out.src_port = pkt.src_port();
        out.dst_port = pkt.dst_port();
        out.seq = pkt.seq_number();
        out.ack = pkt.ack_number();
        out.flags = pkt.flags();
        out.window = pkt.window();
        out.options.clear();
        out.options.extend_from_slice(pkt.options().as_slice());
        out.payload.clear();
        out.payload.extend_from_slice(pkt.payload());
        out.checksum_override = None;
        out.data_offset_words_override = None;
    }

    /// Serialize into a raw TCP segment for the given IP endpoints.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.emit_into(src, dst, &mut buf);
        buf
    }

    /// Serialize by appending to `out` — the allocation-free path used with
    /// a reusable scratch buffer. Byte-identical to [`TcpRepr::emit`].
    pub fn emit_into(&self, src: Ipv4Addr, dst: Ipv4Addr, out: &mut Vec<u8>) {
        let base = out.len();
        out.resize(base + HEADER_LEN, 0);
        // Options are emitted straight into `out`, then padded to a 4-byte
        // boundary with end-of-list + zeros.
        for o in &self.options {
            o.emit(out);
        }
        while !(out.len() - base).is_multiple_of(4) {
            out.push(0);
        }
        let header_len = out.len() - base;
        debug_assert!(header_len - HEADER_LEN <= 40, "TCP options exceed 40 bytes");
        out.extend_from_slice(&self.payload);
        let buf = &mut out[base..];
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..8].copy_from_slice(&self.seq.to_be_bytes());
        buf[8..12].copy_from_slice(&self.ack.to_be_bytes());
        let words = self.data_offset_words_override.unwrap_or((header_len / 4) as u8);
        buf[12] = words << 4;
        buf[13] = self.flags.0;
        buf[14..16].copy_from_slice(&self.window.to_be_bytes());
        let ck = match self.checksum_override {
            Some(bad) => bad,
            None => checksum::transport_checksum(src, dst, PROTO_TCP, buf),
        };
        buf[16..18].copy_from_slice(&ck.to_be_bytes());
    }

    /// Total wire length of the emitted segment.
    pub fn wire_len(&self) -> usize {
        let mut olen: usize = self.options.iter().map(|o| o.wire_len()).sum();
        olen = (olen + 3) & !3;
        HEADER_LEN + olen + self.payload.len()
    }
}

/// Sequence-number arithmetic helpers (mod 2^32, RFC 793 style).
pub mod seq {
    /// `a < b` in sequence space.
    pub fn lt(a: u32, b: u32) -> bool {
        (a != b) && (b.wrapping_sub(a) < 0x8000_0000)
    }

    /// `a <= b` in sequence space.
    pub fn le(a: u32, b: u32) -> bool {
        b.wrapping_sub(a) < 0x8000_0000
    }

    /// `a > b` in sequence space.
    pub fn gt(a: u32, b: u32) -> bool {
        lt(b, a)
    }

    /// `a >= b` in sequence space.
    pub fn ge(a: u32, b: u32) -> bool {
        le(b, a)
    }

    /// Is `x` within the half-open window `[start, start+len)`?
    pub fn in_window(x: u32, start: u32, len: u32) -> bool {
        x.wrapping_sub(start) < len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a1() -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, 1)
    }
    fn a2() -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, 7)
    }

    fn sample_repr() -> TcpRepr {
        TcpRepr {
            seq: 0x1234_5678,
            ack: 0x9abc_def0,
            flags: TcpFlags::PSH_ACK,
            window: 29200,
            options: vec![TcpOption::Mss(1460), TcpOption::Timestamps { tsval: 100, tsecr: 200 }],
            payload: b"GET / HTTP/1.1\r\n\r\n".to_vec(),
            ..TcpRepr::new(40001, 80)
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let repr = sample_repr();
        let wire = repr.emit(a1(), a2());
        let pkt = TcpPacket::new_checked(&wire[..]).unwrap();
        assert_eq!(pkt.src_port(), 40001);
        assert_eq!(pkt.dst_port(), 80);
        assert_eq!(pkt.seq_number(), 0x1234_5678);
        assert_eq!(pkt.ack_number(), 0x9abc_def0);
        assert_eq!(pkt.flags(), TcpFlags::PSH_ACK);
        assert_eq!(pkt.window(), 29200);
        assert_eq!(pkt.payload(), b"GET / HTTP/1.1\r\n\r\n");
        assert!(pkt.verify_checksum(a1(), a2()));
        let opts = pkt.options();
        assert!(opts.contains(&TcpOption::Mss(1460)));
        assert_eq!(pkt.timestamps(), Some((100, 200)));
    }

    #[test]
    fn bad_checksum_override() {
        let repr = TcpRepr {
            checksum_override: Some(0xdead),
            ..sample_repr()
        };
        let wire = repr.emit(a1(), a2());
        let pkt = TcpPacket::new_checked(&wire[..]).unwrap();
        assert!(!pkt.verify_checksum(a1(), a2()));
        assert_eq!(pkt.checksum_field(), 0xdead);
    }

    #[test]
    fn md5_option_round_trip() {
        let digest = [7u8; 16];
        let repr = TcpRepr {
            options: vec![TcpOption::Md5Sig(digest)],
            ..sample_repr()
        };
        let wire = repr.emit(a1(), a2());
        let pkt = TcpPacket::new_checked(&wire[..]).unwrap();
        assert!(pkt.has_md5_option());
        assert!(pkt.options().contains(&TcpOption::Md5Sig(digest)));
    }

    #[test]
    fn no_flag_segment() {
        let repr = TcpRepr {
            flags: TcpFlags::NONE,
            ..sample_repr()
        };
        let wire = repr.emit(a1(), a2());
        let pkt = TcpPacket::new_checked(&wire[..]).unwrap();
        assert!(pkt.flags().is_empty());
        assert_eq!(format!("{}", pkt.flags()), "[noflag]");
    }

    #[test]
    fn short_data_offset_rejected_by_checked_parse() {
        let repr = TcpRepr {
            data_offset_words_override: Some(3),
            ..sample_repr()
        };
        let wire = repr.emit(a1(), a2());
        assert_eq!(TcpPacket::new_checked(&wire[..]).unwrap_err(), ParseError::BadLength);
    }

    #[test]
    fn short_data_offset_has_no_options() {
        // A data offset of 4 words ends the header before the fixed 20
        // bytes do; an unchecked view must read no options, not panic.
        let repr = TcpRepr {
            data_offset_words_override: Some(4),
            options: vec![TcpOption::Timestamps { tsval: 1, tsecr: 0 }, TcpOption::Md5Sig([7; 16])],
            ..sample_repr()
        };
        let wire = repr.emit(a1(), a2());
        let pkt = TcpPacket::new_unchecked(&wire[..]);
        assert!(pkt.options_raw().is_empty());
        assert!(pkt.options().is_empty());
        assert_eq!(pkt.timestamps(), None);
        assert!(!pkt.has_md5_option());
    }

    #[test]
    fn options_parser_tolerates_garbage() {
        // kind=99 len=0 is malformed; parser must stop without panicking.
        let opts = parse_options(&[99, 0, 1, 2, 3]);
        assert!(opts.is_empty());
        // NOP NOP then timestamps.
        let mut raw = vec![1, 1, 8, 10];
        raw.extend_from_slice(&5u32.to_be_bytes());
        raw.extend_from_slice(&6u32.to_be_bytes());
        let opts = parse_options(&raw);
        assert_eq!(opts, vec![TcpOption::Timestamps { tsval: 5, tsecr: 6 }]);
    }

    #[test]
    fn seq_arithmetic_wraps() {
        use super::seq;
        assert!(seq::lt(0xffff_fff0, 0x10));
        assert!(seq::gt(0x10, 0xffff_fff0));
        assert!(seq::le(5, 5));
        assert!(seq::ge(5, 5));
        assert!(seq::in_window(0x5, 0xffff_fff0, 0x100));
        assert!(!seq::in_window(0x200, 0xffff_fff0, 0x100));
    }
}
