//! Hot-path kernel microbenchmarks: the SIMD-width checksum accumulator vs
//! the scalar reference, the DPI clean-byte skip loop vs the plain
//! node-by-node walk, RFC 1624 incremental checksum update vs a full
//! header re-sum, and the shard-arena lease/return cycle vs fresh heap
//! allocation. These isolate the kernels that the event loop leans on;
//! `scripts/ci.sh` runs this bench with `--quick` (40 ms per case) as a
//! smoke test (it asserts kernel/reference agreement on every iteration,
//! so a silently-diverging kernel fails CI here before the property suite).

use intang_bench::clean_stream;
use intang_bench::harness::bench_bytes;
use intang_gfw::dpi::{shared_paper_rules, Automaton, StreamMatcher};
use intang_packet::arena::Arena;
use intang_packet::checksum;
use std::hint::black_box;

/// Fold a 32-bit accumulator into a 16-bit ones-complement sum (the only
/// way `sum_words` accumulators are ever consumed).
fn fold(mut acc: u32) -> u16 {
    while acc >> 16 != 0 {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    acc as u16
}

fn bench_checksum() {
    for size in [40usize, 576, 1_460, 64 * 1024] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(
            fold(checksum::sum_words(0, &data)),
            fold(checksum::sum_words_scalar(0, &data)),
            "wide kernel must agree with the scalar reference"
        );
        bench_bytes(&format!("checksum/wide/{size}"), size as u64, || {
            black_box(checksum::sum_words(0, black_box(&data)))
        });
        bench_bytes(&format!("checksum/scalar/{size}"), size as u64, || {
            black_box(checksum::sum_words_scalar(0, black_box(&data)))
        });
    }
}

fn bench_incremental_update() {
    // A representative IPv4 header: the per-hop TTL writedown rewrites one
    // 16-bit word, so RFC 1624 adjustment competes against a 20-byte re-sum.
    let mut header: Vec<u8> = (0..20u8).collect();
    header[10] = 0;
    header[11] = 0;
    let check = checksum::checksum(&header);
    let old = u16::from_be_bytes([header[8], header[9]]);
    let new = old.wrapping_sub(0x0100); // TTL - 1 in the high byte
    bench_bytes("checksum/rfc1624-incremental/20", 20, || {
        black_box(checksum::incremental_update(black_box(check), old, new))
    });
    bench_bytes("checksum/full-resum/20", 20, || black_box(checksum::checksum(black_box(&header))));
}

fn bench_dpi_skip() {
    let aut = Automaton::build(&shared_paper_rules());
    assert!(aut.node_count() > 1);
    for size in [1_460usize, 64 * 1024] {
        // Clean traffic is the common case the skip loop exists for: no
        // byte anchors a pattern, so the matcher stays at the root.
        let data = clean_stream(size);
        let mut a = StreamMatcher::new();
        let mut b = StreamMatcher::new();
        assert_eq!(a.feed(&aut, &data), b.feed_reference(&aut, &data));
        bench_bytes(&format!("dpi/skip-loop/clean/{size}"), size as u64, || {
            let mut m = StreamMatcher::new();
            black_box(m.feed(&aut, black_box(&data)))
        });
        bench_bytes(&format!("dpi/reference-walk/clean/{size}"), size as u64, || {
            let mut m = StreamMatcher::new();
            black_box(m.feed_reference(&aut, black_box(&data)))
        });
    }
}

fn bench_arena_lease() {
    // The shard-arena cycle the stacks use for per-trial scratch: lease a
    // Vec whose capacity survived the previous trial, push a segment's
    // worth of bytes, hand it back. Compared against paying the allocator
    // on every cycle.
    let mut arena: Arena<Vec<u8>> = Arena::new(8);
    // Prime the free list so the steady state (hits, not misses) is measured.
    for _ in 0..8 {
        let mut v = arena.take_with(Vec::new);
        v.reserve(1_460);
        arena.put(v);
    }
    bench_bytes("arena/lease-fill-return/1460", 1_460, || {
        let mut v = arena.take_with(Vec::new);
        v.extend_from_slice(black_box(&[0u8; 1_460]));
        v.clear();
        arena.put(v);
    });
    bench_bytes("arena/fresh-alloc-fill-drop/1460", 1_460, || {
        let mut v: Vec<u8> = Vec::new();
        v.extend_from_slice(black_box(&[0u8; 1_460]));
        black_box(&v);
    });
}

fn main() {
    bench_checksum();
    bench_incremental_update();
    bench_dpi_skip();
    bench_arena_lease();
}
