//! DPI engine benchmarks, including the DESIGN.md ablation: the streaming
//! Aho–Corasick matcher vs a naive re-scan of the buffered stream on every
//! segment (what a lazy censor implementation would do).

use intang_bench::clean_stream;
use intang_bench::harness::{bench, bench_bytes};
use intang_gfw::dpi::{shared_paper_rules, Automaton, RuleSet, StreamMatcher};
use std::hint::black_box;

fn bench_scan_throughput() {
    let aut = Automaton::build(&shared_paper_rules());
    for size in [1_460usize, 16 * 1024, 256 * 1024] {
        let data = clean_stream(size);
        bench_bytes(&format!("dpi/scan/{size}"), size as u64, || black_box(aut.scan(black_box(&data))));
    }
}

/// Ablation: streaming matcher (state carried across segments) vs naive
/// full-buffer re-scan per arriving segment. The naive variant is
/// quadratic in stream length — this is why the censor model keeps one
/// `u32` of matcher state per flow instead.
fn bench_streaming_vs_rescan() {
    let aut = Automaton::build(&shared_paper_rules());
    let segments: Vec<Vec<u8>> = (0..64).map(|_| clean_stream(1_460)).collect();

    bench("dpi/ablation-64-segments/streaming", || {
        let mut m = StreamMatcher::new();
        let mut hits = 0;
        for s in &segments {
            hits += m.feed(&aut, black_box(s)).len();
        }
        black_box(hits)
    });
    bench("dpi/ablation-64-segments/naive-rescan", || {
        let mut buffer: Vec<u8> = Vec::new();
        let mut hits = 0;
        for s in &segments {
            buffer.extend_from_slice(s);
            hits += aut.scan(black_box(&buffer)).len();
        }
        black_box(hits)
    });
}

fn bench_automaton_build() {
    let paper = shared_paper_rules();
    bench("dpi/build-paper-ruleset", || black_box(Automaton::build(&paper)));
    // A larger blacklist, like the Alexa-derived poisoned-domain list §6
    // probes with.
    let mut rules = RuleSet::empty();
    for i in 0..500 {
        rules = rules.with_domain(&format!("blocked-domain-{i}.example.com"));
    }
    bench("dpi/build-500-domains", || black_box(Automaton::build(&rules)));
}

fn main() {
    bench_scan_throughput();
    bench_streaming_vs_rescan();
    bench_automaton_build();
}
