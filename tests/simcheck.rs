//! Simcheck self-tests: one injected violation per invariant family, the
//! whitelisted bad-checksum discrepancy, the Table 3 oracle's malformed
//! probes, determinism with checking on, the shrinker end-to-end, and full
//! trials with ISNs pinned at the seq-number wraparound boundary.
//!
//! Simcheck state is thread-local, so these tests do not interfere with
//! each other even when the harness runs them concurrently.

use intang_core::StrategyKind;
use intang_experiments::oracle::derive_table3;
use intang_experiments::runner::{run_cell_telemetry, sweep_with_threads, SweepConfig};
use intang_experiments::scenario::Scenario;
use intang_experiments::trial::{run_http_trial, Outcome, TrialSpec};
use intang_gfw::GfwConfig;
use intang_middlebox::{FieldFilter, FilterSpec};
use intang_netsim::{Direction, Duration, Instant, Link, Simulation};
use intang_packet::{FourTuple, PacketBuilder, TcpFlags};
use intang_simcheck::Family;
use intang_tcpstack::reasm::{Assembler, SegmentOverlapPolicy};
use intang_tcpstack::StackProfile;
use intang_telemetry::knobs::{self, RunKnobs};
use std::net::Ipv4Addr;

/// Run `f` with simcheck force-enabled on this thread, draining any stale
/// violations first and restoring the previous override after.
fn with_simcheck<T>(f: impl FnOnce() -> T) -> T {
    let prev = intang_simcheck::set_thread(Some(true));
    let _ = intang_simcheck::take_violations();
    let out = f();
    intang_simcheck::set_thread(prev);
    out
}

fn test_packet() -> intang_packet::Wire {
    PacketBuilder::tcp(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 9, 0, 1), 40_000, 80)
        .seq(1000)
        .ack(2000)
        .flags(TcpFlags::PSH_ACK)
        .payload(b"hello")
        .build()
}

/// A two-element pass-through path; emissions from element 0 cross one link.
fn mini_sim(seed: u64) -> Simulation {
    let mut sim = Simulation::new(seed);
    sim.add_element(Box::new(FieldFilter::new("a", FilterSpec::passes_everything())));
    sim.add_link(Link::new(Duration::from_micros(10), 0));
    sim.add_element(Box::new(FieldFilter::new("b", FilterSpec::passes_everything())));
    sim
}

#[test]
fn wire_integrity_corruption_hook_is_caught() {
    with_simcheck(|| {
        intang_simcheck::begin_trial(99);
        intang_simcheck::arm_corruption(4);
        let s = Scenario::smoke(2017);
        let mut spec = TrialSpec::new(&s.vantage_points[0], &s.websites[0], Some(StrategyKind::NoStrategy), false, 99);
        spec.route_change_prob = 0.0;
        let _ = run_http_trial(&spec);
        intang_simcheck::disarm_corruption();
        let vs = intang_simcheck::take_violations();
        assert!(
            vs.iter().any(|v| v.family == Family::WireIntegrity),
            "corrupting the 4th transmission must trip wire integrity: {vs:?}"
        );
        assert!(vs.iter().all(|v| v.trial_seed == Some(99)), "violations carry the announced seed");
    });
}

#[test]
fn header_index_disagreement_is_caught_on_transmit() {
    with_simcheck(|| {
        intang_simcheck::begin_trial(1);
        let mut sim = mini_sim(5);
        let mut w = test_packet();
        assert!(w.headers().is_some(), "populate the cache first");
        // Flip a source-port byte behind the cache's back: the memoized
        // index now disagrees with the raw bytes.
        w.poke_preserving_cache_for_test(20, 0xEE);
        sim.inject_at(0, Direction::ToServer, w, Instant::ZERO);
        sim.run_to_quiescence(100);
        let vs = intang_simcheck::take_violations();
        assert!(
            vs.iter().any(|v| v.family == Family::HeaderIndex),
            "stale header cache must be flagged: {vs:?}"
        );
    });
}

#[test]
fn conservation_skew_is_caught_by_reconcile() {
    with_simcheck(|| {
        intang_simcheck::begin_trial(2);
        let mut sim = mini_sim(5);
        sim.inject_at(0, Direction::ToServer, test_packet(), Instant::ZERO);
        sim.run_to_quiescence(100);
        sim.simcheck_reconcile();
        assert!(intang_simcheck::take_violations().is_empty(), "clean run reconciles");
        sim.simcheck_skew_for_test();
        sim.simcheck_reconcile();
        let vs = intang_simcheck::take_violations();
        assert!(
            vs.iter().any(|v| v.family == Family::Conservation),
            "a phantom emission must fail conservation: {vs:?}"
        );
    });
}

#[test]
fn time_regression_is_caught() {
    with_simcheck(|| {
        intang_simcheck::begin_trial(3);
        let mut sim = mini_sim(5);
        sim.run_until(Instant(1_000));
        // An event injected in the past: the queue yields it after the
        // clock has already advanced beyond its timestamp.
        sim.inject_at(0, Direction::ToServer, test_packet(), Instant(10));
        sim.step();
        let vs = intang_simcheck::take_violations();
        assert!(
            vs.iter().any(|v| v.family == Family::TimeMonotonicity),
            "a past-due event must be flagged: {vs:?}"
        );
    });
}

#[test]
fn tcb_actions_after_teardown_are_caught() {
    with_simcheck(|| {
        intang_simcheck::begin_trial(4);
        let key = FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40_000, Ipv4Addr::new(10, 9, 0, 1), 80);
        let domain = intang_simcheck::new_tcb_domain();
        intang_simcheck::tcb_created(domain, key);
        intang_simcheck::tcb_removed(domain, key);
        intang_simcheck::tcb_detection(domain, key);
        intang_simcheck::tcb_resync(domain, key, intang_simcheck::ResyncTrigger::Rst);
        let vs = intang_simcheck::take_violations();
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs.iter().all(|v| v.family == Family::TcbLegality));
    });
}

#[test]
fn reassembly_head_regression_is_caught() {
    with_simcheck(|| {
        intang_simcheck::begin_trial(5);
        let mut asm = Assembler::new(SegmentOverlapPolicy::FirstWins);
        asm.insert(0, b"hello");
        assert_eq!(asm.pull(), b"hello");
        assert!(intang_simcheck::take_violations().is_empty(), "in-order flow is clean");
        asm.force_head_for_test(2);
        asm.insert(7, b"xy");
        let vs = intang_simcheck::take_violations();
        assert!(
            vs.iter().any(|v| v.family == Family::Reassembly),
            "head regression must be flagged: {vs:?}"
        );
    });
}

#[test]
fn deliberate_bad_checksum_insertions_are_whitelisted() {
    // The Table 3 bad-checksum discrepancy deliberately emits corrupt
    // packets; the whitelist keeps them from drowning the checker.
    with_simcheck(|| {
        let s = Scenario::smoke(2017);
        let mut site = s.websites[0].clone();
        site.old_device = true;
        let mut spec = TrialSpec::new(
            &s.vantage_points[0],
            &site,
            Some(StrategyKind::TeardownRst(intang_core::Discrepancy::BadChecksum)),
            true,
            1234,
        );
        spec.route_change_prob = 0.0;
        intang_simcheck::begin_trial(1234);
        let _ = run_http_trial(&spec);
        let vs = intang_simcheck::take_violations();
        assert!(vs.is_empty(), "whitelisted insertions must not be flagged: {vs:?}");
    });
}

#[test]
fn table3_oracle_keeps_every_runtime_invariant() {
    // The oracle's probes are malformed on purpose: its bad checksums must
    // stay on the expected-bad whitelist, and its short headers now reach
    // the censor's TCB machine. Every server version against both GFW
    // generations, with the checker on.
    with_simcheck(|| {
        for server in StackProfile::all() {
            for censor in [GfwConfig::evolved(), GfwConfig::old()] {
                let findings = derive_table3(&server, &censor);
                assert!(findings.len() >= 8, "{:?} vs {:?}", server.version, censor.generation);
                let vs = intang_simcheck::take_violations();
                assert!(vs.is_empty(), "{:?} vs {:?}: {vs:?}", server.version, censor.generation);
            }
        }
    });
}

#[test]
fn simcheck_enabled_sweep_is_clean_and_byte_identical() {
    // The full smoke sweep with checking on: zero violations, and rows /
    // events / metrics / diagnoses byte-identical to the unchecked run at
    // 1, 2 and 8 workers (checks draw no RNG and change no timing).
    let s = Scenario::smoke(7);
    for strategy in [Some(StrategyKind::ImprovedTeardown), None] {
        let cfg = SweepConfig::new(strategy, true, 2, 1312);
        let plain = sweep_with_threads(&s, &cfg, 1);
        for workers in [1usize, 2, 8] {
            let prev = knobs::install(RunKnobs {
                simcheck: true,
                ..knobs::current()
            });
            let checked = sweep_with_threads(&s, &cfg, workers);
            knobs::install(prev);
            assert_eq!(checked.violations, 0, "sweep must be violation-free");
            assert_eq!(plain.rows, checked.rows, "{workers} workers");
            assert_eq!(plain.events, checked.events, "{workers} workers");
            assert_eq!(plain.metrics, checked.metrics, "{workers} workers");
            assert_eq!(plain.diagnoses, checked.diagnoses, "{workers} workers");
        }
    }
}

#[test]
fn caller_side_simcheck_reaches_sweep_workers() {
    // A clean sweep reports zero violations whether or not its workers
    // checked anything, so the sweep also counts the cells that ran under
    // the checker. Switched on with the one-field shorthand on this
    // thread, every worker at every width must check every cell.
    let s = Scenario::smoke(7);
    let cells = (s.vantage_points.len() * s.websites.len()) as u64;
    let cfg = SweepConfig::new(Some(StrategyKind::ImprovedTeardown), true, 1, 1312);
    assert_eq!(sweep_with_threads(&s, &cfg, 2).checked_cells, 0, "checking is off by default");
    for workers in [1usize, 2, 8] {
        let prev = intang_simcheck::set_thread(Some(true));
        let run = sweep_with_threads(&s, &cfg, workers);
        intang_simcheck::set_thread(prev);
        assert_eq!(run.checked_cells, cells, "{workers} workers");
        assert_eq!(run.violations, 0, "{workers} workers");
    }
}

#[test]
fn shrinker_writes_a_minimal_deterministic_repro() {
    let dir = std::env::temp_dir().join("intang-simcheck-shrinker-test");
    let _ = std::fs::remove_dir_all(&dir);
    // Only this test reads the variable (every other sweep here is
    // violation-free and never resolves an artifact dir).
    std::env::set_var("INTANG_SIMCHECK_DIR", &dir);

    let s = Scenario::smoke(2017);
    let mut cfg = SweepConfig::new(Some(StrategyKind::NoStrategy), false, 1, 2017);
    cfg.route_change_prob = 0.0;
    let prev = knobs::install(RunKnobs {
        simcheck: true,
        ..knobs::current()
    });

    intang_simcheck::arm_corruption(4);
    let cell = run_cell_telemetry(&s.vantage_points[0], 0, &s.websites[0], 0, &cfg);
    intang_simcheck::disarm_corruption();
    let _ = intang_simcheck::take_violations();
    assert!(cell.violations > 0, "the armed corruption must surface as a violation");

    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("artifact dir created")
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(entries.len(), 1, "exactly one repro artifact for the cell");
    let path = entries[0].path();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("simcheck minimal repro"), "{text}");
    assert!(text.contains("wire_integrity"), "{text}");
    assert!(text.contains("reproducible:      true"), "{text}");
    assert!(text.contains("lineage of the final trace event:"), "{text}");
    assert!(text.contains("replay:"), "{text}");
    // The bisected horizon is a strict shrink of the full trial.
    let horizon_line = text.lines().find(|l| l.starts_with("horizon:")).unwrap();
    let shrunk: u64 = horizon_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(shrunk < 25_000_000, "horizon must shrink below the full trial: {horizon_line}");

    // Replaying the shrink is deterministic: same bytes, artifact included.
    let first = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    intang_simcheck::arm_corruption(4);
    let cell2 = run_cell_telemetry(&s.vantage_points[0], 0, &s.websites[0], 0, &cfg);
    intang_simcheck::disarm_corruption();
    let _ = intang_simcheck::take_violations();
    assert_eq!(cell2.violations, cell.violations);
    let second = std::fs::read(&path).unwrap();
    assert_eq!(first, second, "repro artifact must be byte-stable across replays");

    knobs::install(prev);
    std::env::remove_var("INTANG_SIMCHECK_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trials_with_isns_pinned_at_wraparound_behave_like_default() {
    // RFC 1982 regression net: pin both stacks' first ISN just below
    // u32::MAX so every relative-sequence computation in the GFW TCB,
    // the reassembly buffers and the insertion builders crosses the
    // wraparound mid-handshake — with simcheck watching.
    with_simcheck(|| {
        let s = Scenario::smoke(11);
        let mut site = s.websites[0].clone();
        site.old_device = false;
        site.evolved_device = true;
        site.server_seqfw = false;
        site.path_drops_noflag = false;
        site.loss = 0.0;

        for k in [0u32, 1, 3, 1000] {
            let mut spec = TrialSpec::new(&s.vantage_points[0], &site, Some(StrategyKind::NoStrategy), false, 7);
            spec.route_change_prob = 0.0;
            spec.isn_base = Some(u32::MAX - k);
            intang_simcheck::begin_trial(7);
            let r = run_http_trial(&spec);
            assert_eq!(r.outcome, Outcome::Success, "benign fetch with ISN at MAX-{k}: {r:?}");
            assert_eq!(r.response_status, Some(200));
            let vs = intang_simcheck::take_violations();
            assert!(vs.is_empty(), "wraparound ISNs must not trip invariants: {vs:?}");
        }

        // Outcomes are invariant to the pinned ISN, seed for seed.
        for seed in 0..6u64 {
            let mut a = TrialSpec::new(
                &s.vantage_points[0],
                &site,
                Some(StrategyKind::ImprovedTeardown),
                true,
                9_000 + seed,
            );
            a.route_change_prob = 0.0;
            intang_simcheck::begin_trial(a.seed);
            let ra = run_http_trial(&a);
            assert!(intang_simcheck::take_violations().is_empty());

            let mut b = TrialSpec::new(
                &s.vantage_points[0],
                &site,
                Some(StrategyKind::ImprovedTeardown),
                true,
                9_000 + seed,
            );
            b.route_change_prob = 0.0;
            b.isn_base = Some(u32::MAX - 2);
            intang_simcheck::begin_trial(b.seed);
            let rb = run_http_trial(&b);
            let vs = intang_simcheck::take_violations();
            assert!(vs.is_empty(), "seed {seed}: {vs:?}");
            assert_eq!(ra.outcome, rb.outcome, "seed {seed}: ISN pinning changed the outcome");
            assert_eq!(ra.resets_seen, rb.resets_seen, "seed {seed}");
        }
    });
}
