//! Hot-path kernel microbenchmarks: the Internet checksum loop at four
//! buffer sizes, RFC 1624 incremental checksum update vs a full header
//! re-sum, and the shard-arena lease/return cycle vs fresh heap
//! allocation. The DPI walk is timed by the `dpi` bench (`dpi/scan/*`).
//! `scripts/ci.sh` runs this bench with `--quick` (40 ms per case) as a
//! smoke test: before timing, it asserts that the RFC 1624 update equals
//! the re-summed header's checksum.

use intang_bench::harness::bench_bytes;
use intang_packet::arena::Arena;
use intang_packet::checksum;
use std::hint::black_box;

fn bench_checksum() {
    // A SYN-sized segment, the 576-byte datagram every IPv4 host must
    // accept, a full Ethernet payload and a 64 KiB buffer.
    for size in [40usize, 576, 1_460, 64 * 1024] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
        bench_bytes(&format!("checksum/sum-words/{size}"), size as u64, || {
            black_box(checksum::sum_words(0, black_box(&data)))
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
    let mut rewritten = header.clone();
    rewritten[8..10].copy_from_slice(&new.to_be_bytes());
    assert_eq!(
        checksum::incremental_update(check, old, new),
        checksum::checksum(&rewritten),
        "the RFC 1624 update must equal the re-summed header's checksum"
    );
    bench_bytes("checksum/rfc1624-incremental/20", 20, || {
        black_box(checksum::incremental_update(black_box(check), old, new))
    });
    bench_bytes("checksum/full-resum/20", 20, || black_box(checksum::checksum(black_box(&header))));
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
    bench_arena_lease();
}
