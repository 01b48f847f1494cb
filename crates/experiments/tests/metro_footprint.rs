//! Heap bounds of the metropolis world. A metropolis event domain holds
//! only the flows it owns: building one domain of an 8-way split must keep
//! a small fraction of the heap that the serial world's build keeps, since
//! the serial world owns every flow. A running world keeps its dead server
//! cells as small snapshots.

mod live_bytes;

use intang_experiments::metropolis::{build_metropolis_domain, generate_world, MetroParams, MetroWorld};
use intang_netsim::Instant;
use live_bytes::live_bytes;

/// Heap bytes that the built `(Simulation, MetroParts)` keeps alive.
fn held_by_build(p: &MetroParams, world: &MetroWorld, domains: u32, domain: u32) -> usize {
    let before = live_bytes();
    let built = build_metropolis_domain(p, world, domains, domain);
    let held = live_bytes().wrapping_sub(before);
    drop(built);
    held
}

#[test]
fn a_domain_build_holds_only_its_own_flows() {
    let p = MetroParams::new(16_384, 2017);
    let world = generate_world(&p);
    // The first build pays for process-wide state (the compiled censor
    // config, thread-local pools) that every later build shares.
    drop(build_metropolis_domain(&p, &world, 1, 0));
    let serial = held_by_build(&p, &world, 1, 0);
    let domain = held_by_build(&p, &world, 8, 0);
    // Domain 0 owns about 1/8 of the flows. Measured: the serial build
    // held 1,086,680 bytes (about 66 per flow) and domain 0 held 139,208
    // (0.128 of it). A quarter leaves room for the fixed cost of a path;
    // a domain that keeps per-flow state for every flow holds about as
    // much as the serial build.
    assert!(
        domain * 4 <= serial,
        "domain 0 of 8 holds {domain} bytes, more than a quarter of the serial build's {serial}"
    );
}

#[test]
fn a_running_world_keeps_dead_server_cells_as_snapshots() {
    let p = MetroParams::new(16_384, 2017);
    let world = generate_world(&p);
    // Pay for the process-wide state first, as above.
    drop(build_metropolis_domain(&p, &world, 1, 0));
    let before = live_bytes();
    let (mut sim, parts) = build_metropolis_domain(&p, &world, 1, 0);
    // The end of the spawn window, where the live heap peaks.
    sim.run_until(Instant(16_384 * 200));
    let held = live_bytes().wrapping_sub(before);
    drop((sim, parts));
    // Measured: 13,494,843 bytes when every dead server cell kept its
    // endpoint until the backstop, 11,099,783 with quiet cells kept as
    // endpoint snapshots. The bound sits between the two.
    assert!(
        held <= 12_300_000,
        "the running serial world holds {held} bytes at the end of its spawn window"
    );
}
