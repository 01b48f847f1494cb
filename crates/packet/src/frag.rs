//! IPv4 fragmentation and reassembly.
//!
//! The out-of-order data-overlapping strategy of §3.2 relies on sending two
//! IP fragments with the *same offset and length* but different contents:
//! the GFW keeps the **first** such fragment, while receivers and
//! reassembling middleboxes may keep either. [`OverlapPolicy`] makes the
//! preference explicit so the GFW, middleboxes and servers can be
//! configured per the paper's findings.

use crate::{Ipv4Packet, Ipv4Repr, Wire};

/// Emit a header + payload straight into a pooled [`Wire`].
fn emit_wire(repr: &Ipv4Repr, payload: &[u8]) -> Wire {
    let mut w = Wire::with_capacity(crate::ipv4::HEADER_LEN + payload.len());
    repr.emit_into(payload, w.vec_mut());
    w
}

/// Who wins when two fragments cover the same byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapPolicy {
    /// Keep the bytes already buffered (the GFW's IP-fragment behavior).
    FirstWins,
    /// Later data overwrites earlier data (BSD-style / the GFW's behavior
    /// for overlapping *TCP segments*).
    LastWins,
}

/// Split a full (non-fragment) IPv4 datagram into fragments at the given
/// payload byte boundaries. `boundaries` are offsets into the transport
/// payload and must be multiples of 8 (IP fragment granularity).
pub fn fragment_at(wire: &[u8], boundaries: &[usize]) -> Vec<Wire> {
    let pkt = Ipv4Packet::new_checked(wire).expect("fragment_at requires a valid datagram");
    assert!(!pkt.is_fragment(), "cannot re-fragment a fragment");
    let payload = pkt.payload();
    let mut cuts: Vec<usize> = Vec::with_capacity(boundaries.len() + 2);
    cuts.push(0);
    for &b in boundaries {
        assert_eq!(b % 8, 0, "fragment boundaries must be 8-byte aligned");
        if b > 0 && b < payload.len() {
            cuts.push(b);
        }
    }
    cuts.push(payload.len());
    cuts.sort_unstable();
    cuts.dedup();

    let base = Ipv4Repr::parse(&pkt);
    let mut out = Vec::new();
    for w in cuts.windows(2) {
        let (start, end) = (w[0], w[1]);
        let repr = Ipv4Repr {
            dont_fragment: false,
            more_fragments: end < payload.len(),
            frag_offset: start,
            total_len_override: None,
            ..base
        };
        out.push(emit_wire(&repr, &payload[start..end]));
    }
    out
}

/// Build a single raw fragment carrying `data` at payload offset `offset`
/// for the flow described by `base` (same ident ties fragments together).
pub fn raw_fragment(base: &Ipv4Repr, offset: usize, more: bool, data: &[u8]) -> Wire {
    let repr = Ipv4Repr {
        dont_fragment: false,
        more_fragments: more,
        frag_offset: offset,
        total_len_override: None,
        ..*base
    };
    emit_wire(&repr, data)
}

/// A reassembly buffer for one (src, dst, ident, protocol) key.
#[derive(Debug)]
struct Assembly {
    /// Sparse payload bytes; `None` = hole.
    bytes: Vec<Option<u8>>,
    /// Total payload length once the last fragment is seen.
    total: Option<usize>,
    base: Ipv4Repr,
}

/// IPv4 fragment reassembler with a configurable overlap policy.
///
/// Keyed on (src, dst, ident, protocol) like real stacks. `push` returns the
/// reassembled full datagram as soon as it completes.
#[derive(Debug)]
pub struct Reassembler {
    policy: OverlapPolicy,
    pending: Vec<((std::net::Ipv4Addr, std::net::Ipv4Addr, u16, u8), Assembly)>,
    /// Cap on simultaneously pending assemblies (oldest evicted first).
    capacity: usize,
}

impl Reassembler {
    pub fn new(policy: OverlapPolicy) -> Self {
        Reassembler {
            policy,
            pending: Vec::new(),
            capacity: 64,
        }
    }

    /// Feed one datagram. Non-fragments are returned unchanged. Fragments
    /// are buffered; when an assembly completes, the full datagram is
    /// returned.
    pub fn push(&mut self, wire: Wire) -> Option<Wire> {
        let pkt = match Ipv4Packet::new_checked(&wire[..]) {
            Ok(p) => p,
            Err(_) => return Some(wire), // pass through unparseable data
        };
        if !pkt.is_fragment() {
            return Some(wire);
        }
        let key = (pkt.src_addr(), pkt.dst_addr(), pkt.ident(), u8::from(pkt.protocol()));
        let offset = pkt.frag_offset();
        let more = pkt.more_fragments();
        let data = pkt.payload().to_vec();
        let base = Ipv4Repr::parse(&pkt);

        let idx = match self.pending.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                if self.pending.len() >= self.capacity {
                    self.pending.remove(0);
                }
                self.pending.push((
                    key,
                    Assembly {
                        bytes: Vec::new(),
                        total: None,
                        base,
                    },
                ));
                self.pending.len() - 1
            }
        };
        let asm = &mut self.pending[idx].1;
        let end = offset + data.len();
        if asm.bytes.len() < end {
            asm.bytes.resize(end, None);
        }
        for (i, b) in data.iter().enumerate() {
            let slot = &mut asm.bytes[offset + i];
            match (self.policy, slot.is_some()) {
                (OverlapPolicy::FirstWins, true) => {} // keep existing byte
                _ => *slot = Some(*b),
            }
        }
        if !more {
            asm.total = Some(asm.total.map_or(end, |t| t.max(end)));
        }
        let complete = match asm.total {
            Some(t) => asm.bytes.len() >= t && asm.bytes[..t].iter().all(Option::is_some),
            None => false,
        };
        if complete {
            let t = asm.total.unwrap();
            let payload: Vec<u8> = asm.bytes[..t].iter().map(|b| b.unwrap()).collect();
            let repr = Ipv4Repr {
                dont_fragment: true,
                more_fragments: false,
                frag_offset: 0,
                total_len_override: None,
                ..asm.base
            };
            self.pending.remove(idx);
            Some(emit_wire(&repr, &payload))
        } else {
            None
        }
    }

    /// Number of in-progress assemblies (for tests / resource accounting).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Who wins when two fragments overlap.
    pub fn policy(&self) -> OverlapPolicy {
        self.policy
    }
}

/// Reassemble a complete set of fragments in one call (test helper).
pub fn reassemble(policy: OverlapPolicy, frags: impl IntoIterator<Item = Wire>) -> Option<Wire> {
    let mut r = Reassembler::new(policy);
    let mut done = None;
    for f in frags {
        if let Some(d) = r.push(f) {
            done = Some(d);
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IpProtocol;
    use std::net::Ipv4Addr;

    fn base() -> Ipv4Repr {
        Ipv4Repr {
            ident: 0x4242,
            ..Ipv4Repr::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), IpProtocol::Tcp)
        }
    }

    fn full_datagram(payload: &[u8]) -> Wire {
        Wire::from_vec(base().emit(payload))
    }

    #[test]
    fn fragment_and_reassemble() {
        let payload: Vec<u8> = (0..64u8).collect();
        let wire = full_datagram(&payload);
        let frags = fragment_at(&wire, &[16, 40]);
        assert_eq!(frags.len(), 3);
        let out = reassemble(OverlapPolicy::LastWins, frags).unwrap();
        let pkt = Ipv4Packet::new_checked(&out[..]).unwrap();
        assert_eq!(pkt.payload(), &payload[..]);
        assert!(!pkt.is_fragment());
    }

    #[test]
    fn out_of_order_fragments_complete() {
        let payload: Vec<u8> = (0..32u8).collect();
        let wire = full_datagram(&payload);
        let mut frags = fragment_at(&wire, &[16]);
        frags.reverse();
        let out = reassemble(OverlapPolicy::LastWins, frags).unwrap();
        assert_eq!(Ipv4Packet::new_checked(&out[..]).unwrap().payload(), &payload[..]);
    }

    #[test]
    fn overlap_first_wins_keeps_garbage() {
        // The paper's out-of-order IP fragment evasion: garbage at [8,16)
        // arrives first, real data second. FirstWins (the GFW) keeps garbage.
        let b = base();
        let garbage = raw_fragment(&b, 8, true, &[0xAA; 8]);
        let real_tail = raw_fragment(&b, 8, false, &[0x11; 8]);
        let head = raw_fragment(&b, 0, true, &[0x22; 8]);
        let out = reassemble(OverlapPolicy::FirstWins, vec![garbage, real_tail, head]).unwrap();
        let pkt = Ipv4Packet::new_checked(&out[..]).unwrap();
        assert_eq!(&pkt.payload()[8..], &[0xAA; 8], "GFW keeps the first (garbage) fragment");
    }

    #[test]
    fn overlap_last_wins_takes_real_data() {
        let b = base();
        let garbage = raw_fragment(&b, 8, true, &[0xAA; 8]);
        let real_tail = raw_fragment(&b, 8, false, &[0x11; 8]);
        let head = raw_fragment(&b, 0, true, &[0x22; 8]);
        let out = reassemble(OverlapPolicy::LastWins, vec![garbage, real_tail, head]).unwrap();
        let pkt = Ipv4Packet::new_checked(&out[..]).unwrap();
        assert_eq!(&pkt.payload()[8..], &[0x11; 8], "receiver keeps the later (real) fragment");
    }

    #[test]
    fn distinct_idents_do_not_mix() {
        let b1 = base();
        let b2 = Ipv4Repr { ident: 0x9999, ..base() };
        let mut r = Reassembler::new(OverlapPolicy::LastWins);
        assert!(r.push(raw_fragment(&b1, 0, true, &[1; 8])).is_none());
        assert!(r.push(raw_fragment(&b2, 0, true, &[2; 8])).is_none());
        assert_eq!(r.pending_count(), 2);
        let done = r.push(raw_fragment(&b1, 8, false, &[3; 8])).unwrap();
        let pkt = Ipv4Packet::new_checked(&done[..]).unwrap();
        assert_eq!(pkt.payload(), &[1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3]);
        assert_eq!(r.pending_count(), 1);
    }

    #[test]
    fn non_fragment_passes_through() {
        let wire = full_datagram(b"hello");
        let mut r = Reassembler::new(OverlapPolicy::FirstWins);
        assert_eq!(r.push(wire.clone()), Some(wire));
    }
}
