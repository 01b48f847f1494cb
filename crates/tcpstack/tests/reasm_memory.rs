//! A drained reassembler owns no heap memory. Censor TCBs and sockets keep
//! their `Assembler` for the whole connection, so a buffer that stayed
//! allocated after its data was consumed would cost one B-tree leaf per
//! live connection — tens of megabytes across a metropolis world.

mod live_bytes;

use intang_tcpstack::reasm::{Assembler, SegmentOverlapPolicy};
use live_bytes::live_bytes;

/// Insert `segments` in order, pull everything into a pre-sized buffer,
/// and check the heap: above its baseline while data is buffered, back at
/// it once the data is pulled.
fn assert_drains_to_baseline(case: &str, policy: SegmentOverlapPolicy, segments: &[(u64, &[u8])], want: &[u8]) {
    let mut asm = Assembler::new(policy);
    let mut out = Vec::with_capacity(1024);
    let baseline = live_bytes();
    for &(offset, data) in segments {
        asm.insert(offset, data);
    }
    assert!(live_bytes() > baseline, "{case}: buffered segments live on the heap");
    asm.pull_into(&mut out);
    assert_eq!(out, want, "{case}");
    assert!(!asm.has_gaps(), "{case}");
    let held = live_bytes().wrapping_sub(baseline);
    assert_eq!(held, 0, "{case}: a drained assembler still holds {held} heap bytes");
}

#[test]
fn a_drained_assembler_returns_the_heap_to_its_baseline() {
    use SegmentOverlapPolicy::{FirstWins, LastWins};
    let request: &[u8] = b"GET /search?q=ultrasurf HTTP/1.1\r\n\r\n";
    // One in-order segment: the common request path.
    assert_drains_to_baseline("in order", FirstWins, &[(0, request)], request);
    // The tail waits behind a gap, then the head fills it.
    assert_drains_to_baseline("out of order", FirstWins, &[(6, b"world"), (0, b"hello ")], b"hello world");
    // The censor's preference: a later overlap splits a buffered segment.
    let split: &[(u64, &[u8])] = &[(1, b"abcdef"), (3, b"CD"), (0, b"_")];
    assert_drains_to_baseline("last wins", LastWins, split, b"_abCDef");
    // First wins keeps the earlier junk; the real bytes fill holes only.
    assert_drains_to_baseline("first wins", FirstWins, &[(2, b"JUNK"), (0, b"real data")], b"reJUNKata");
}

#[test]
fn refilling_a_drained_assembler_is_drained_again() {
    let mut asm = Assembler::new(SegmentOverlapPolicy::FirstWins);
    let mut out = Vec::with_capacity(1024);
    let baseline = live_bytes();
    for round in 0..4u64 {
        asm.insert(round * 4, b"data");
        assert_eq!(asm.pull_into(&mut out), 4);
        assert_eq!(live_bytes(), baseline, "round {round}: drained");
    }
    assert_eq!(out, b"data".repeat(4));
}
