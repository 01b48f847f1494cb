//! # intang-bench
//!
//! Benchmark support crate. The benches live in `benches/` as plain
//! `harness = false` binaries driven by the std-only timing [`harness`]
//! below (no criterion — the build environment has no registry access):
//!
//! * `dpi` — keyword-engine throughput: streaming Aho–Corasick vs the
//!   naive rescan it replaces (the DESIGN.md ablation);
//! * `censor` — the censor tap's per-packet cost: TCB lifecycle, stream
//!   feeding, reset injection;
//! * `stack` — TCP endpoint handshake and bulk-transfer cost;
//! * `trials` — full end-to-end trial throughput per strategy (the unit of
//!   work behind every Table 1/4 cell).
//! * `metro` — metropolis set-up at 100k flows: world generation, the
//!   serial build and the eight domain builds, timed apart.
//!
//! Sweep-level wall-clock numbers (the work-stealing executor speedup)
//! come from the `bench_sweep` binary in `intang-experiments`, which
//! writes `BENCH_sweep.json`.
//!
//! Success-rate *ablations* (insertion redundancy, the δ TTL heuristic,
//! cache layers) are experiments, not timings — they live in the
//! `ablations` binary of `intang-experiments`.

/// A long clean stream with no sensitive content (worst case for DPI).
pub fn clean_stream(len: usize) -> Vec<u8> {
    (0..len).map(|i| b"the quick brown fox jumps over it "[i % 34]).collect()
}

/// Minimal std-only timing harness: warm up once, then run each case for a
/// fixed wall-clock budget and report mean ns/iter (plus throughput when a
/// per-iteration byte or element count is given).
pub mod harness {
    use std::time::{Duration, Instant};

    fn budget() -> Duration {
        if std::env::args().any(|a| a == "--quick") {
            Duration::from_millis(40)
        } else {
            Duration::from_millis(300)
        }
    }

    /// Time `f` for the harness budget; returns mean ns/iter.
    pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
        std::hint::black_box(f()); // warmup
        let budget = budget();
        let start = Instant::now();
        let mut iters = 0u64;
        while start.elapsed() < budget {
            std::hint::black_box(f());
            iters += 1;
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        println!("{name:<44} {ns:>14.0} ns/iter   ({iters} iters)");
        ns
    }

    /// Like [`bench()`], also reporting MiB/s for `bytes` processed per iter.
    pub fn bench_bytes<R>(name: &str, bytes: u64, f: impl FnMut() -> R) -> f64 {
        let ns = bench(name, f);
        let mibs = bytes as f64 / (ns / 1e9) / (1024.0 * 1024.0);
        println!("{:<44} {mibs:>14.1} MiB/s", format!("  └ {bytes} B/iter"));
        ns
    }

    /// Like [`bench()`], also reporting elements/s for `n` items per iter.
    pub fn bench_elems<R>(name: &str, n: u64, f: impl FnMut() -> R) -> f64 {
        let ns = bench(name, f);
        let rate = n as f64 / (ns / 1e9);
        println!("{:<44} {rate:>14.0} elems/s", format!("  └ {n} elems/iter"));
        ns
    }
}
