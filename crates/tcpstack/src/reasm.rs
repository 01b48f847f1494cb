//! TCP receive-side reassembly with explicit overlap semantics.
//!
//! The in-order and out-of-order data-overlapping evasion strategies (§3.2)
//! hinge on *who wins* when two segments cover the same sequence range:
//! the GFW prefers one copy, the server another. [`SegmentOverlapPolicy`]
//! makes that choice a first-class parameter shared by the server stack and
//! the censor model.
//!
//! A drained [`Assembler`] holds no heap memory: buffered segments live in a
//! `BTreeMap`, and pulling the last of them replaces the map with a fresh
//! one, so every censor TCB and socket that has consumed its data costs only
//! its inline fields, not an empty B-tree leaf.

use std::collections::BTreeMap;

/// Who wins when segment bytes overlap already-buffered bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentOverlapPolicy {
    /// Bytes already received are kept; later overlaps are discarded.
    /// This is what in-order delivery on real servers amounts to: once a
    /// byte is consumed it can never be replaced.
    FirstWins,
    /// Later segments overwrite buffered (not yet consumed) bytes.
    /// Khattak et al. report the GFW preferring the *latter* of two
    /// out-of-order TCP segments with the same sequence and length.
    LastWins,
}

/// Sequence-space reassembly buffer.
///
/// Tracks data relative to the initial receive sequence. Contiguous bytes
/// at the head are drained with [`Assembler::pull`]; out-of-order segments
/// wait in a sparse map.
#[derive(Debug)]
pub struct Assembler {
    policy: SegmentOverlapPolicy,
    /// Next absolute offset (relative units) expected by the consumer.
    head: u64,
    /// Sparse buffered ranges: start offset -> bytes. Non-overlapping after
    /// normalization.
    segments: BTreeMap<u64, Vec<u8>>,
    /// Hard cap on buffered bytes (receive window worth of data).
    capacity: usize,
    /// Simcheck enablement, cached at construction.
    simcheck: bool,
    /// Highest head ever observed (simcheck: the head must never regress).
    max_head: u64,
}

impl Assembler {
    pub fn new(policy: SegmentOverlapPolicy) -> Assembler {
        Assembler {
            policy,
            head: 0,
            segments: BTreeMap::new(),
            capacity: 256 * 1024,
            simcheck: intang_simcheck::enabled(),
            max_head: 0,
        }
    }

    /// Total bytes currently buffered (not yet pulled).
    pub fn buffered(&self) -> usize {
        self.segments.values().map(Vec::len).sum()
    }

    /// Next offset the consumer will read.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Insert `data` at absolute offset `offset` (relative sequence units).
    /// Bytes before `head` are trimmed (already consumed — FirstWins is
    /// structural there). Returns how many new bytes were stored.
    pub fn insert(&mut self, mut offset: u64, mut data: &[u8]) -> usize {
        // Trim anything already consumed.
        if offset < self.head {
            let skip = (self.head - offset) as usize;
            if skip >= data.len() {
                return 0;
            }
            data = &data[skip..];
            offset = self.head;
        }
        if data.is_empty() || self.buffered() >= self.capacity {
            return 0;
        }
        let mut stored = 0usize;
        let end = offset + data.len() as u64;

        // Work byte-range by byte-range against existing segments.
        // Collect the existing ranges that intersect [offset, end).
        let intersecting: Vec<u64> = self
            .segments
            .range(..end)
            .filter(|(s, seg)| **s + seg.len() as u64 > offset)
            .map(|(s, _)| *s)
            .collect();

        match self.policy {
            SegmentOverlapPolicy::FirstWins => {
                // Fill only the holes.
                let mut cursor = offset;
                for s in intersecting {
                    let seg_len = self.segments[&s].len() as u64;
                    if s > cursor {
                        let hole_end = s.min(end);
                        if cursor < hole_end {
                            let slice = &data[(cursor - offset) as usize..(hole_end - offset) as usize];
                            self.segments.insert(cursor, slice.to_vec());
                            stored += slice.len();
                        }
                    }
                    cursor = cursor.max(s + seg_len);
                }
                if cursor < end {
                    let slice = &data[(cursor - offset) as usize..];
                    self.segments.insert(cursor, slice.to_vec());
                    stored += slice.len();
                }
            }
            SegmentOverlapPolicy::LastWins => {
                // Punch out the overlap from existing segments, then insert.
                for s in intersecting {
                    let seg = self.segments.remove(&s).expect("key just observed");
                    let seg_end = s + seg.len() as u64;
                    // Left remainder (before `offset`).
                    if s < offset {
                        self.segments.insert(s, seg[..(offset - s) as usize].to_vec());
                    }
                    // Right remainder (after `end`).
                    if seg_end > end {
                        self.segments.insert(end, seg[(end - s) as usize..].to_vec());
                    }
                }
                self.segments.insert(offset, data.to_vec());
                stored += data.len();
            }
        }
        // A single buffered segment has nothing to merge with; skipping
        // normalization keeps the common in-order case allocation-light.
        if self.segments.len() > 1 {
            self.normalize();
        }
        if self.simcheck {
            self.validate("insert");
        }
        stored
    }

    /// Merge adjacent segments so ranges stay canonical.
    fn normalize(&mut self) {
        let keys: Vec<u64> = self.segments.keys().copied().collect();
        for k in keys {
            let Some(seg) = self.segments.get(&k) else { continue };
            let end = k + seg.len() as u64;
            if let Some(next) = self.segments.get(&end).cloned() {
                self.segments.remove(&end);
                self.segments.get_mut(&k).expect("still present").extend_from_slice(&next);
            }
        }
    }

    /// Drain all contiguous bytes at the head.
    pub fn pull(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        self.pull_into(&mut out);
        out
    }

    /// [`Assembler::pull`], appending into a caller-owned buffer — the
    /// allocation-free path for consumers that keep a receive buffer.
    /// Returns the number of bytes pulled.
    pub fn pull_into(&mut self, out: &mut Vec<u8>) -> usize {
        let before = out.len();
        while let Some(seg) = self.segments.remove(&self.head) {
            self.head += seg.len() as u64;
            out.extend_from_slice(&seg);
        }
        if self.segments.is_empty() {
            // An emptied `BTreeMap` keeps its root leaf; a fresh one owns
            // no heap memory, so a drained assembler holds none.
            self.segments = BTreeMap::new();
        }
        if self.simcheck {
            self.validate("pull");
        }
        out.len() - before
    }

    /// Simcheck: the head never regresses, buffered segments are non-empty
    /// and mutually disjoint, and nothing is buffered behind the head.
    /// Only called when checking was enabled at construction.
    fn validate(&mut self, op: &str) {
        if self.head < self.max_head {
            let (head, max) = (self.head, self.max_head);
            intang_simcheck::report(intang_simcheck::Family::Reassembly, || {
                format!("{op}: head regressed from {max} to {head}")
            });
        }
        self.max_head = self.max_head.max(self.head);
        let mut prev_end = self.head;
        for (&start, seg) in &self.segments {
            if seg.is_empty() || start < prev_end {
                let head = self.head;
                intang_simcheck::report(intang_simcheck::Family::Reassembly, || {
                    format!(
                        "{op}: segment [{start}, {}) overlaps previous end {prev_end} \
                         (head {head})",
                        start + seg.len() as u64
                    )
                });
            }
            prev_end = prev_end.max(start + seg.len() as u64);
        }
    }

    /// Test-only: regress the head so self-tests can prove the
    /// reassembly invariant check fires.
    #[doc(hidden)]
    pub fn force_head_for_test(&mut self, head: u64) {
        self.head = head;
    }

    /// True when out-of-order data is waiting beyond the head.
    pub fn has_gaps(&self) -> bool {
        !self.segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream() {
        let mut a = Assembler::new(SegmentOverlapPolicy::FirstWins);
        a.insert(0, b"hello ");
        a.insert(6, b"world");
        assert_eq!(a.pull(), b"hello world");
        assert_eq!(a.head(), 11);
        assert!(!a.has_gaps());
    }

    #[test]
    fn out_of_order_waits_for_gap() {
        let mut a = Assembler::new(SegmentOverlapPolicy::FirstWins);
        a.insert(6, b"world");
        assert_eq!(a.pull(), b"");
        assert!(a.has_gaps());
        a.insert(0, b"hello ");
        assert_eq!(a.pull(), b"hello world");
    }

    #[test]
    fn first_wins_keeps_earlier_overlap() {
        // The GFW prefill: junk arrives first at [0,4), then real data.
        let mut a = Assembler::new(SegmentOverlapPolicy::FirstWins);
        a.insert(0, b"JUNK");
        a.insert(0, b"real");
        assert_eq!(a.pull(), b"JUNK");
    }

    #[test]
    fn last_wins_overwrites() {
        let mut a = Assembler::new(SegmentOverlapPolicy::LastWins);
        a.insert(0, b"JUNK");
        a.insert(0, b"real");
        assert_eq!(a.pull(), b"real");
    }

    #[test]
    fn partial_overlap_first_wins_fills_holes_only() {
        let mut a = Assembler::new(SegmentOverlapPolicy::FirstWins);
        a.insert(2, b"CD");
        a.insert(0, b"abcdef");
        assert_eq!(a.pull(), b"abCDef");
    }

    #[test]
    fn partial_overlap_last_wins_splits_existing() {
        let mut a = Assembler::new(SegmentOverlapPolicy::LastWins);
        a.insert(0, b"abcdef");
        a.insert(2, b"CD");
        assert_eq!(a.pull(), b"abCDef");
    }

    #[test]
    fn bytes_before_head_are_immutable() {
        // Once consumed, a retransmission cannot rewrite history even under
        // LastWins — this is what makes the *in-order* prefill strategy
        // work against real servers only via insertion discrepancies.
        let mut a = Assembler::new(SegmentOverlapPolicy::LastWins);
        a.insert(0, b"GET /");
        assert_eq!(a.pull(), b"GET /");
        a.insert(0, b"XXXXX");
        assert_eq!(a.pull(), b"");
        assert_eq!(a.head(), 5);
    }

    #[test]
    fn straddling_head_is_trimmed() {
        let mut a = Assembler::new(SegmentOverlapPolicy::FirstWins);
        a.insert(0, b"abc");
        assert_eq!(a.pull(), b"abc");
        a.insert(1, b"bcdef");
        assert_eq!(a.pull(), b"def");
    }

    #[test]
    fn capacity_bound_respected() {
        let mut a = Assembler::new(SegmentOverlapPolicy::FirstWins);
        let big = vec![0u8; 300 * 1024];
        let stored = a.insert(1, &big); // offset 1 so nothing can be pulled
        assert!(stored <= 300 * 1024);
        let more = a.insert(400 * 1024, b"x");
        assert_eq!(more, 0, "capacity reached");
    }
}
