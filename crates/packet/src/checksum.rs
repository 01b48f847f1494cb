//! The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header sum.
//!
//! [`sum_words`] adds a buffer's big-endian 16-bit words into a `u32`
//! accumulator, two bytes per step, and every consumer folds the result
//! once. The accumulator cannot overflow on anything an IPv4 datagram
//! carries: 32,768 words of at most `0xffff` plus a pseudo-header stay
//! below 2^32. [`incremental_update`] implements RFC 1624 checksum
//! adjustment, which the per-hop TTL writedown uses instead of re-summing
//! the IPv4 header.

use std::net::Ipv4Addr;

/// Fold a 32-bit accumulator into a 16-bit ones-complement sum.
fn fold(mut acc: u32) -> u16 {
    while acc >> 16 != 0 {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    acc as u16
}

/// Sum `data` as big-endian 16-bit words into `acc` (no final complement).
/// An odd trailing byte is the high byte of a zero-padded word, so a
/// buffer summed in two parts cut at an even offset sums as it does whole.
pub fn sum_words(mut acc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for w in &mut chunks {
        acc += u32::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = chunks.remainder() {
        acc += u32::from(u16::from_be_bytes([*last, 0]));
    }
    acc
}

/// The Internet checksum of a buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let _s = intang_telemetry::span(intang_telemetry::SpanId::Checksum);
    !fold(sum_words(0, data))
}

/// The pseudo-header partial sum used by TCP and UDP checksums. Pure
/// arithmetic on the address halves — no word loop.
pub fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, length: usize) -> u32 {
    let s = src.octets();
    let d = dst.octets();
    u32::from(u16::from_be_bytes([s[0], s[1]]))
        + u32::from(u16::from_be_bytes([s[2], s[3]]))
        + u32::from(u16::from_be_bytes([d[0], d[1]]))
        + u32::from(u16::from_be_bytes([d[2], d[3]]))
        + u32::from(protocol)
        + length as u32
}

/// Checksum of a TCP/UDP segment including its pseudo-header.
pub fn transport_checksum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, segment: &[u8]) -> u16 {
    let _s = intang_telemetry::span(intang_telemetry::SpanId::Checksum);
    let acc = pseudo_header_sum(src, dst, protocol, segment.len());
    !fold(sum_words(acc, segment))
}

/// Verify a buffer that embeds its own checksum field: summing the whole
/// buffer (checksum field included) must yield `0xffff` before complement.
pub fn verify(data: &[u8]) -> bool {
    fold(sum_words(0, data)) == 0xffff
}

/// Verify a transport segment against its pseudo-header.
pub fn verify_transport(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, segment: &[u8]) -> bool {
    let acc = pseudo_header_sum(src, dst, protocol, segment.len());
    fold(sum_words(acc, segment)) == 0xffff
}

/// RFC 1624 incremental checksum update: the stored checksum field
/// `check` of a buffer whose 16-bit word `old` became `new`, without
/// re-summing anything else. `HC' = ~(~HC + ~m + m')` — the eqn. 3 form,
/// which unlike RFC 1141 also handles the `-0` corner.
pub fn incremental_update(check: u16, old: u16, new: u16) -> u16 {
    !fold(u32::from(!check) + u32::from(!old) + u32::from(new))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Example words from RFC 1071 §3: 0x0001, 0xf203, 0xf4f5, 0xf6f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // The ones-complement sum of these words is 0xddf2, checksum is !0xddf2.
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        let even = [0xab, 0xcd, 0x12, 0x00];
        let odd = [0xab, 0xcd, 0x12];
        assert_eq!(checksum(&even), checksum(&odd));
    }

    #[test]
    fn incremental_update_matches_recompute() {
        // A realistic IPv4 header; rewrite the (TTL, protocol) word through
        // every TTL value and compare against a full re-sum.
        let mut hdr = [
            0x45, 0x00, 0x00, 0x54, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        let ck = checksum(&hdr);
        hdr[10..12].copy_from_slice(&ck.to_be_bytes());
        for new_ttl in (0u8..=255).rev() {
            let old_word = u16::from_be_bytes([hdr[8], hdr[9]]);
            let new_word = u16::from_be_bytes([new_ttl, hdr[9]]);
            let old_ck = u16::from_be_bytes([hdr[10], hdr[11]]);
            let inc = incremental_update(old_ck, old_word, new_word);
            hdr[8] = new_ttl;
            hdr[10..12].copy_from_slice(&[0, 0]);
            let full = checksum(&hdr);
            hdr[10..12].copy_from_slice(&full.to_be_bytes());
            assert_eq!(inc, full, "ttl {new_ttl}");
            assert!(verify(&hdr));
        }
    }

    #[test]
    fn verify_round_trip() {
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x06, 0x00, 0x00];
        let ck = checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn transport_round_trip() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut seg = vec![0u8; 24];
        seg[0..2].copy_from_slice(&4321u16.to_be_bytes());
        seg[2..4].copy_from_slice(&80u16.to_be_bytes());
        let ck = transport_checksum(src, dst, 6, &seg);
        seg[16..18].copy_from_slice(&ck.to_be_bytes());
        assert!(verify_transport(src, dst, 6, &seg));
        // The pseudo-header sum is order-insensitive (ones-complement
        // addition commutes), so perturb the protocol and payload instead.
        assert!(!verify_transport(src, dst, 17, &seg));
        seg[20] ^= 0x01;
        assert!(!verify_transport(src, dst, 6, &seg));
    }

    #[test]
    fn zero_length_buffer() {
        assert_eq!(checksum(&[]), 0xffff);
    }
}
