//! IPv4 header view and representation.
//!
//! Supports fragmentation fields and the deliberate "IP total length larger
//! than actual buffer" malformation from Table 3 of the paper (a candidate
//! insertion packet: servers drop it, the GFW accepts it).

use crate::{checksum, ParseError, Result};
use std::net::Ipv4Addr;

/// Upper-layer protocol numbers we care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    Icmp,
    Tcp,
    Udp,
    Other(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> u8 {
        match p {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }
}

pub const HEADER_LEN: usize = 20;

/// Zero-copy view over an IPv4 datagram.
#[derive(Debug, Clone, Copy)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Ipv4Packet { buffer }
    }

    /// Wrap a buffer, validating version and header length. Note that a
    /// *total length* exceeding the buffer is intentionally tolerated here
    /// (the view clamps the payload); endpoints that want to reject such
    /// packets call [`Ipv4Packet::total_len_consistent`].
    pub fn new_checked(buffer: T) -> Result<Self> {
        let pkt = Ipv4Packet::new_unchecked(buffer);
        let data = pkt.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        if pkt.version() != 4 {
            return Err(ParseError::Unsupported);
        }
        let ihl = pkt.header_len();
        if ihl < HEADER_LEN || data.len() < ihl {
            return Err(ParseError::BadLength);
        }
        Ok(pkt)
    }

    pub fn into_inner(self) -> T {
        self.buffer
    }

    fn data(&self) -> &[u8] {
        self.buffer.as_ref()
    }

    pub fn version(&self) -> u8 {
        self.data()[0] >> 4
    }

    /// Header length in bytes.
    pub fn header_len(&self) -> usize {
        usize::from(self.data()[0] & 0x0f) * 4
    }

    pub fn total_len(&self) -> u16 {
        u16::from_be_bytes([self.data()[2], self.data()[3]])
    }

    /// True when the total-length field matches the buffer exactly. The
    /// Linux receive path drops datagrams whose declared total length
    /// exceeds the octets actually received; the GFW does not (Table 3).
    pub fn total_len_consistent(&self) -> bool {
        usize::from(self.total_len()) == self.data().len()
    }

    pub fn ident(&self) -> u16 {
        u16::from_be_bytes([self.data()[4], self.data()[5]])
    }

    pub fn dont_fragment(&self) -> bool {
        self.data()[6] & 0x40 != 0
    }

    pub fn more_fragments(&self) -> bool {
        self.data()[6] & 0x20 != 0
    }

    /// Fragment offset in bytes (the wire field is in 8-byte units).
    pub fn frag_offset(&self) -> usize {
        let raw = u16::from_be_bytes([self.data()[6] & 0x1f, self.data()[7]]);
        usize::from(raw) * 8
    }

    /// True when this datagram is a fragment (either non-zero offset or
    /// more-fragments set).
    pub fn is_fragment(&self) -> bool {
        self.more_fragments() || self.frag_offset() != 0
    }

    pub fn ttl(&self) -> u8 {
        self.data()[8]
    }

    pub fn protocol(&self) -> IpProtocol {
        IpProtocol::from(self.data()[9])
    }

    pub fn header_checksum(&self) -> u16 {
        u16::from_be_bytes([self.data()[10], self.data()[11]])
    }

    pub fn src_addr(&self) -> Ipv4Addr {
        let d = self.data();
        Ipv4Addr::new(d[12], d[13], d[14], d[15])
    }

    pub fn dst_addr(&self) -> Ipv4Addr {
        let d = self.data();
        Ipv4Addr::new(d[16], d[17], d[18], d[19])
    }

    pub fn verify_header_checksum(&self) -> bool {
        checksum::verify(&self.data()[..self.header_len()])
    }

    /// Payload bytes: clamped to what is actually in the buffer even if the
    /// total-length field claims more.
    pub fn payload(&self) -> &[u8] {
        let start = self.header_len();
        let declared_end = usize::from(self.total_len()).max(start);
        let end = declared_end.min(self.data().len());
        &self.data()[start..end]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    fn data_mut(&mut self) -> &mut [u8] {
        self.buffer.as_mut()
    }

    pub fn set_version_and_header_len(&mut self, header_len: usize) {
        self.data_mut()[0] = 0x40 | ((header_len / 4) as u8 & 0x0f);
    }

    pub fn set_total_len(&mut self, v: u16) {
        self.data_mut()[2..4].copy_from_slice(&v.to_be_bytes());
    }

    pub fn set_ident(&mut self, v: u16) {
        self.data_mut()[4..6].copy_from_slice(&v.to_be_bytes());
    }

    pub fn set_flags_and_frag_offset(&mut self, dont_fragment: bool, more_fragments: bool, offset_bytes: usize) {
        debug_assert_eq!(offset_bytes % 8, 0, "fragment offsets are 8-byte aligned");
        let units = (offset_bytes / 8) as u16;
        let mut b0 = ((units >> 8) as u8) & 0x1f;
        if dont_fragment {
            b0 |= 0x40;
        }
        if more_fragments {
            b0 |= 0x20;
        }
        self.data_mut()[6] = b0;
        self.data_mut()[7] = units as u8;
    }

    pub fn set_ttl(&mut self, v: u8) {
        self.data_mut()[8] = v;
    }

    /// Decrement TTL in place (used by simulated routers) and refresh the
    /// header checksum. Returns the new TTL.
    pub fn decrement_ttl(&mut self) -> u8 {
        let ttl = self.data()[8].saturating_sub(1);
        self.data_mut()[8] = ttl;
        self.fill_header_checksum();
        ttl
    }

    pub fn set_protocol(&mut self, p: IpProtocol) {
        self.data_mut()[9] = p.into();
    }

    pub fn set_src_addr(&mut self, a: Ipv4Addr) {
        self.data_mut()[12..16].copy_from_slice(&a.octets());
    }

    pub fn set_dst_addr(&mut self, a: Ipv4Addr) {
        self.data_mut()[16..20].copy_from_slice(&a.octets());
    }

    pub fn set_header_checksum(&mut self, v: u16) {
        self.data_mut()[10..12].copy_from_slice(&v.to_be_bytes());
    }

    pub fn fill_header_checksum(&mut self) {
        self.set_header_checksum(0);
        let hlen = self.header_len();
        let ck = checksum::checksum(&self.data()[..hlen]);
        self.set_header_checksum(ck);
    }
}

/// High-level IPv4 header description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub protocol: IpProtocol,
    pub ttl: u8,
    pub ident: u16,
    pub dont_fragment: bool,
    pub more_fragments: bool,
    /// Fragment offset in bytes.
    pub frag_offset: usize,
    /// When set, the emitted total-length field is this value instead of the
    /// true length — the Table 3 "IP total length > actual length"
    /// malformation.
    pub total_len_override: Option<u16>,
}

impl Ipv4Repr {
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol) -> Self {
        Ipv4Repr {
            src,
            dst,
            protocol,
            ttl: 64,
            ident: 0,
            dont_fragment: true,
            more_fragments: false,
            frag_offset: 0,
            total_len_override: None,
        }
    }

    pub fn parse<T: AsRef<[u8]>>(pkt: &Ipv4Packet<T>) -> Ipv4Repr {
        Ipv4Repr {
            src: pkt.src_addr(),
            dst: pkt.dst_addr(),
            protocol: pkt.protocol(),
            ttl: pkt.ttl(),
            ident: pkt.ident(),
            dont_fragment: pkt.dont_fragment(),
            more_fragments: pkt.more_fragments(),
            frag_offset: pkt.frag_offset(),
            total_len_override: None,
        }
    }

    /// Serialize this header plus `payload` into a fresh datagram.
    pub fn emit(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        self.emit_into(payload, &mut buf);
        buf
    }

    /// Serialize by appending to `out` — the allocation-free path used with
    /// a reusable or pooled buffer. Byte-identical to [`Ipv4Repr::emit`].
    pub fn emit_into(&self, payload: &[u8], out: &mut Vec<u8>) {
        let base = out.len();
        out.resize(base + HEADER_LEN, 0);
        out.extend_from_slice(payload);
        self.finish_in_place(base, out);
    }

    /// Fill in the header for a datagram assembled directly in `out`:
    /// the caller reserved `HEADER_LEN` zeroed bytes at `base` and appended
    /// the payload after them (possibly from several pieces — this is the
    /// scatter-gather variant of [`Ipv4Repr::emit_into`], byte-identical to
    /// it for the same concatenated payload).
    pub fn finish_in_place(&self, base: usize, out: &mut [u8]) {
        let payload_len = out.len() - base - HEADER_LEN;
        let mut pkt = Ipv4Packet::new_unchecked(&mut out[base..]);
        pkt.set_version_and_header_len(HEADER_LEN);
        let total = self.total_len_override.unwrap_or((HEADER_LEN + payload_len) as u16);
        pkt.set_total_len(total);
        pkt.set_ident(self.ident);
        pkt.set_flags_and_frag_offset(self.dont_fragment, self.more_fragments, self.frag_offset);
        pkt.set_ttl(self.ttl);
        pkt.set_protocol(self.protocol);
        pkt.set_src_addr(self.src);
        pkt.set_dst_addr(self.dst);
        pkt.fill_header_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    #[test]
    fn emit_parse_round_trip() {
        let repr = Ipv4Repr {
            ttl: 37,
            ident: 0xbeef,
            ..Ipv4Repr::new(addr(1), addr(2), IpProtocol::Tcp)
        };
        let wire = repr.emit(b"hello");
        let pkt = Ipv4Packet::new_checked(&wire[..]).unwrap();
        assert_eq!(pkt.src_addr(), addr(1));
        assert_eq!(pkt.dst_addr(), addr(2));
        assert_eq!(pkt.ttl(), 37);
        assert_eq!(pkt.ident(), 0xbeef);
        assert_eq!(pkt.protocol(), IpProtocol::Tcp);
        assert_eq!(pkt.payload(), b"hello");
        assert!(pkt.verify_header_checksum());
        assert!(pkt.total_len_consistent());
        assert!(!pkt.is_fragment());
    }

    #[test]
    fn total_len_override_detected() {
        let repr = Ipv4Repr {
            total_len_override: Some(200),
            ..Ipv4Repr::new(addr(1), addr(2), IpProtocol::Tcp)
        };
        let wire = repr.emit(b"data");
        let pkt = Ipv4Packet::new_checked(&wire[..]).unwrap();
        assert!(!pkt.total_len_consistent());
        // Payload view clamps to the real buffer.
        assert_eq!(pkt.payload(), b"data");
    }

    #[test]
    fn fragment_fields_round_trip() {
        let repr = Ipv4Repr {
            dont_fragment: false,
            more_fragments: true,
            frag_offset: 1480,
            ..Ipv4Repr::new(addr(3), addr(4), IpProtocol::Udp)
        };
        let wire = repr.emit(&[0u8; 8]);
        let pkt = Ipv4Packet::new_checked(&wire[..]).unwrap();
        assert!(pkt.more_fragments());
        assert!(!pkt.dont_fragment());
        assert_eq!(pkt.frag_offset(), 1480);
        assert!(pkt.is_fragment());
    }

    #[test]
    fn decrement_ttl_keeps_checksum_valid() {
        let repr = Ipv4Repr {
            ttl: 3,
            ..Ipv4Repr::new(addr(1), addr(2), IpProtocol::Tcp)
        };
        let mut wire = repr.emit(b"x");
        let mut pkt = Ipv4Packet::new_unchecked(&mut wire[..]);
        assert_eq!(pkt.decrement_ttl(), 2);
        assert_eq!(pkt.decrement_ttl(), 1);
        assert_eq!(pkt.decrement_ttl(), 0);
        assert_eq!(pkt.decrement_ttl(), 0, "saturates at zero");
        let pkt = Ipv4Packet::new_checked(&wire[..]).unwrap();
        assert!(pkt.verify_header_checksum());
    }

    #[test]
    fn reject_short_and_bad_version() {
        assert_eq!(Ipv4Packet::new_checked(&[0u8; 10][..]).unwrap_err(), ParseError::Truncated);
        let repr = Ipv4Repr::new(addr(1), addr(2), IpProtocol::Tcp);
        let mut wire = repr.emit(b"");
        wire[0] = 0x60; // IPv6 version nibble
        assert_eq!(Ipv4Packet::new_checked(&wire[..]).unwrap_err(), ParseError::Unsupported);
    }
}
