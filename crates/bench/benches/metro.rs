//! Metropolis set-up benchmarks: what the 100k-flow world costs before its
//! first event. World generation (the seeded load plan plus every flow's
//! key), the serial build (one domain owning every flow) and all eight
//! domain builds of an 8-way split are timed apart. `ysinm-bench`'s
//! `setup_s` times generation plus the builds of one workload together in a
//! cold child process; this probe says which part moved. `scripts/ci.sh`
//! runs it with `--quick` (40 ms per case) as a smoke test, which also
//! checks that the eight domains own as many flows between them as the
//! world holds.

use intang_bench::harness::bench;
use intang_experiments::metropolis::{build_metropolis_domain, generate_world, MetroParams};
use std::hint::black_box;

const DOMAINS: u32 = 8;

fn main() {
    let p = MetroParams::new(100_000, 2017);
    bench("metro/generate-world-100k", || black_box(generate_world(&p)));
    let world = generate_world(&p);
    let owned: usize = (0..DOMAINS)
        .map(|d| build_metropolis_domain(&p, &world, DOMAINS, d).1.metro.results().len())
        .sum();
    assert_eq!(owned, world.specs.len(), "the domains partition the flows");
    bench("metro/build-serial-100k", || black_box(build_metropolis_domain(&p, &world, 1, 0)));
    bench("metro/build-8-domains-100k", || {
        for d in 0..DOMAINS {
            black_box(build_metropolis_domain(&p, &world, DOMAINS, d));
        }
    });
}
